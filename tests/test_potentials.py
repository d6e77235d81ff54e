import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcl import potentials
from lcl.errors import AccuracyError
from lcl.potentials import (PotentialModel, TailField, _angle_rule, _angle_rule_groups,
                            _economize, _far_sum, _gauss_jacobi01, _near_sum,
                            _power_cos_series, _taylor_tables, circle_average,
                            evaluate, evaluate_tail, mean_value_mode_profile,
                            mean_value_radial_profile, mean_value_transform,
                            orbit_average, power_cos_average)
from lcl.specfun import panel_rule

mp.mp.dps = 30

ISO = PotentialModel.isotropic(0.5)
ANISO = PotentialModel.anisotropic(0.5, 0.3, 2)
BUMP = PotentialModel.gaussian_bump(1.0, 1.0)


def test_evaluate_isotropic_values():
    assert evaluate(ISO, (0.0, 0.0)) == 1.0
    assert abs(evaluate(ISO, (math.sqrt(3.0), 0.0)) - 2.0 ** -0.5) < 1e-15


def test_evaluate_anisotropic_closed_form():
    got = evaluate(ANISO, (2.0, 0.0))
    ref = 5.0 ** -0.25 + 0.3 * 4.0 * 5.0 ** -1.25
    assert abs(got - ref) < 1e-15


def test_evaluate_bump():
    assert evaluate(BUMP, (0.0, 0.0)) == 1.0
    assert abs(evaluate(BUMP, (2.0, 0.0)) - math.exp(-2.0)) < 1e-16


def _closed_form(model, x1, x2):
    """a [(1+r^2)^(-rho/2) + eps Re[(x1+ix2)^m] (1+r^2)^(-(rho+m)/2)], the
    long-range models written with their harmonic polynomial."""
    r2 = x1 * x1 + x2 * x2
    harm = np.real((x1 + 1j * x2) ** model.mode)
    return model.amplitude * ((1.0 + r2) ** (-model.rho / 2.0) + model.epsilon * harm
                              * (1.0 + r2) ** (-(model.rho + model.mode) / 2.0))


@pytest.mark.parametrize("m", [1, 2, 3, 6])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("amplitude", [1.7, -1.7])
def test_value_from_the_modes_is_the_closed_form(m, rho, amplitude):
    model = PotentialModel.anisotropic(rho, 0.6, m, amplitude=amplitude)
    rng = np.random.default_rng(1000 * m + int(10 * rho))
    r = 30.0 * np.sqrt(rng.random(2000))
    th = 2.0 * np.pi * rng.random(2000)
    x1, x2 = r * np.cos(th), r * np.sin(th)
    ref = _closed_form(model, x1, x2)
    assert np.max(np.abs(model.value(x1, x2) - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("model", [ISO, ANISO, BUMP,
                                   PotentialModel.anisotropic(0.1, 0.9, 6, amplitude=-2.0)],
                         ids=["iso", "aniso", "bump", "aniso-m6"])
def test_sup_abs_bounds_the_value(model):
    # radii on sup_abs's own grid, and far out where the profiles decay
    r = np.concatenate([np.linspace(0.0, 60.0, 20001)[::40], [100.0, 1e3, 1e6]])
    th = np.linspace(0.0, 2.0 * np.pi, 361)
    x1, x2 = np.outer(r, np.cos(th)), np.outer(r, np.sin(th))
    assert np.max(np.abs(model.value(x1, x2))) <= model.sup_abs()


@pytest.mark.parametrize("amplitude", [1.0, -2.5])
def test_sup_abs_of_radial_models_is_the_amplitude(amplitude):
    for model in (PotentialModel.isotropic(0.5, amplitude),
                  PotentialModel.gaussian_bump(amplitude, 0.7)):
        assert model.sup_abs() == abs(amplitude)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_gaussian_mixture_is_the_long_range_profile(rho):
    s, c = PotentialModel.isotropic(rho, amplitude=-2.0).gaussian_mixture()
    assert s.size == potentials._EULER_NODES + 1 and np.all(np.diff(s) > 0)
    r = np.linspace(0.0, 100.0, 2001)
    mix = (np.exp(-np.square(r)[:, None] * s) * c).sum(axis=1)
    assert np.max(np.abs(mix - (1.0 + r * r) ** (-rho / 2.0))) <= 1e-14


def test_gaussian_mixture_of_the_bump_is_one_term():
    s, c = PotentialModel.gaussian_bump(3.0, 0.7).gaussian_mixture()
    assert s.tolist() == [1.0 / (2.0 * 0.7 ** 2)] and c.tolist() == [1.0]


@pytest.mark.parametrize("model", [ISO, ANISO, BUMP])
def test_mode_envelope_sums_the_absolute_modes(model):
    r = np.array([0.0, 0.5, 3.0, 40.0])
    want = sum(np.abs(p.radial(r)) for p in model.angular_modes())
    assert np.array_equal(model.mode_envelope(r), want)
    assert model.sup_abs() >= np.max(want)


@pytest.mark.parametrize("b", [-1.0, 0.0, math.nan, math.inf])
def test_rescaled_tail_refuses_a_field_that_is_not_finite_and_positive(b):
    # these used to give NaN or 0 with a RuntimeWarning, and a NaN average
    with pytest.raises(ValueError, match="^b_rescale must be finite and positive"):
        TailField(ISO, b_rescale=b)


def test_tail_isotropic():
    assert abs(evaluate_tail(ISO, (4.0, 0.0)) - 0.5) < 1e-15


def test_tail_anisotropic_angle():
    # at (0, 1) the mode-2 factor is cos(pi) = -1
    assert abs(evaluate_tail(ANISO, (0.0, 1.0)) - 0.7) < 1e-15


def test_tail_singular_at_origin():
    with pytest.raises(ValueError):
        evaluate_tail(ISO, (0.0, 0.0))
    with pytest.raises(ValueError):
        evaluate_tail(BUMP, (1.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=0.1, max_value=8.0))
def test_tail_homogeneity(r, theta, lam):
    x = (r * math.cos(theta), r * math.sin(theta))
    scaled = (lam * x[0], lam * x[1])
    left = evaluate_tail(ANISO, scaled)
    right = lam ** -ANISO.rho * evaluate_tail(ANISO, x)
    assert abs(left - right) <= 1e-12 * abs(right)


@pytest.mark.parametrize("model", [ISO, ANISO])
def test_tail_agreement_order(model):
    # |V - tail| |x|^(rho+2) stays bounded over 1 < |x| <= 1e3
    rs = np.geomspace(1.5, 1e3, 60)
    worst = 0.0
    for r in rs:
        x = (r * math.cos(0.7), r * math.sin(0.7))
        diff = abs(evaluate(model, x) - evaluate_tail(model, x))
        worst = max(worst, diff * r ** (model.rho + 2.0))
    assert worst < 2.0


def test_mean_value_constant():
    assert abs(mean_value_transform(lambda x, y: np.ones_like(x), (3.7, -1.2)) - 1.0) < 1e-12


def test_mean_value_tail_at_origin():
    for rho in (0.3, 0.5, 0.7):
        m = PotentialModel.isotropic(rho)
        assert abs(mean_value_transform(m.tail_field(), (0.0, 0.0)) - 1.0) < 1e-12


def _adaptive_simpson(f, a, b, tol, fa=None, fb=None, fm=None, depth=0):
    # test-side oracle, independent of the package quadrature
    if fa is None:
        fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth > 48 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, tol / 2, fa, fm, flm, depth + 1)
            + _adaptive_simpson(f, m, b, tol / 2, fm, fb, frm, depth + 1))


def test_mean_value_dual_quadrature_oracle():
    # |.|^{-1/2} averaged on the unit circle at |x| = 3
    x0 = (3.0, 0.0)
    f = lambda t: ((3.0 - math.cos(t)) ** 2 + math.sin(t) ** 2) ** -0.25
    oracle = _adaptive_simpson(f, 0.0, 2.0 * math.pi, 1e-13) / (2.0 * math.pi)
    got = mean_value_transform(ISO.tail_field(), x0)
    assert abs(got - oracle) < 1e-9


def test_profile_at_zero_and_monotone_tail():
    # m0(0) = F(nu, 1/2; 1; 0) = 1 exactly, for every rho
    for rho in np.linspace(0.01, 0.99, 99):
        assert mean_value_radial_profile(float(rho), 0.0) == 1.0, rho
    rs = np.linspace(2.0, 40.0, 50)
    prof = mean_value_radial_profile(0.5, rs)
    assert np.all(np.diff(prof) < 0)


@pytest.mark.parametrize("profile", [mean_value_radial_profile,
                                     lambda rho, r: mean_value_mode_profile(rho, 2, r)],
                         ids=["radial", "mode"])
@pytest.mark.parametrize("rho, r, match", [
    (1.5, 0.5, "rho"), (0.0, 0.5, "rho"), (float("nan"), 0.5, "rho"),
    (0.5, -0.5, "r must"), (0.5, [1.0, -0.5], "r must"),
    (0.5, float("nan"), "r must be finite"), (0.5, float("inf"), "r must be finite"),
    (0.5, [float("nan"), 0.5], "r must be finite"),
    (0.5, [0.5, float("inf")], "r must be finite"),
], ids=["rho-above-1", "rho-zero", "rho-nan", "r-negative", "r-array-negative",
        "r-nan", "r-inf", "r-array-nan", "r-array-inf"])
def test_profiles_check_rho_and_r(profile, rho, r, match):
    with pytest.raises(ValueError, match=match):
        profile(rho, r)


@pytest.mark.parametrize("m", [float("nan"), 2.5, True], ids=["nan", "half", "bool"])
def test_mode_profile_refuses_a_non_integer_mode(m):
    with pytest.raises(ValueError, match="m must be an integer"):
        mean_value_mode_profile(0.5, m, 1.3)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("a, b, gap, rho, match", [
    ([NAN, 2.0, 5.0], [1.0, 1.0, 1.0], None, 0.5, "finite"),
    (2.0, NAN, None, 0.5, "finite"),
    (INF, 1.0, None, 0.5, "finite"),
    ([2.0, 3.0], 1.0, [1.0, INF], 0.5, "finite"),
    (2.0, 1.0, NAN, 0.5, "finite"),
    (2.0, -1.0, None, 0.5, "b >= 0"),
    (1.0, 2.0, None, 0.5, "a >= b"),
    (0.0, 0.0, None, 0.5, "diverges"),
    (2.0, 1.0, None, 1.0, "rho"),
    (2.0, 1.0, None, NAN, "rho"),
], ids=["a-nan-row", "b-nan", "a-inf", "gap-inf", "gap-nan", "b-negative",
        "a-below-b", "a-b-zero", "rho-one", "rho-nan"])
def test_power_cos_average_checks_its_inputs(a, b, gap, rho, match):
    # as given, and stacked 40 deep
    tall = lambda v: None if v is None else np.broadcast_to(v, (40, 1) + np.shape(v)[-1:])
    for args in ((a, b, gap), (tall(a), tall(b), tall(gap))):
        with pytest.raises(ValueError, match=match):
            power_cos_average(*args[:2], rho, gap=args[2])


def test_angle_rule_groups_reject_rows_in_no_group():
    for delta in ([NAN, 0.5], [0.5, -1e-3]):
        with pytest.raises(ValueError, match="delta"):
            list(_angle_rule_groups(np.array(delta), 0.5))


def _power_cos_oracle(a, b, rho):
    """(1/pi) int_0^pi ((a - b) + 2 b sin^2(t/2))^(-rho/2) dt in mpmath, from
    the floats a and b taken as exact.  t = u^m, m = 1/(1-rho), makes the
    on-circle singularity t^-rho bounded; the breakpoints follow the angular
    scale sqrt((a-b)/b) near t = 0."""
    a, b, nu = mp.mpf(a), mp.mpf(b), mp.mpf(rho) / 2
    with mp.workdps(40):
        g, m = a - b, 1 / (1 - mp.mpf(rho))
        e = mp.sqrt(g / b) if b > 0 and g > 0 else mp.mpf(10) ** -3
        br = [mp.mpf(0)]
        while e < mp.pi:
            br.append(e ** (1 / m))
            e *= 8
        br.append(mp.pi ** (1 / m))
        f = lambda u: m * u ** (m - 1) * (g + 2 * b * mp.sin(u ** m / 2) ** 2) ** -nu
        return mp.quad(f, br) / mp.pi


@pytest.mark.parametrize("rho", [0.05, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999])
def test_power_cos_average_against_mpmath(rho):
    # the series switch at z = 2b/(a+b) = 1/2 (a = 3b), b = 0, the circle
    # a = b, and a far from b; 1e-13 at rho = 0.99, where the two terms of
    # the connection formula cancel, and as rho -> 1 more: 40 random points
    # were off by 1.2e-13 at 0.999 and 4.8e-13 at 0.9999, bounded here with
    # 4x headroom
    tol = {0.99: 1e-13, 0.999: 5e-13, 0.9999: 2e-12}.get(rho, 1e-14)
    points = [(2.0 / z - 1.0, 1.0) for z in (0.5 - 1e-12, 0.5, 0.5 + 1e-12)]
    points += [(2.5, 0.0), (1e12, 0.0), (1.0, 1.0), (7.0, 7.0), (1e12, 1e12),
               (1e12, 1.0), (1e12, 9e11), (1.0 + 1e-9, 1.0), (40.0, 3.0)]
    for a, b in points:
        want = _power_cos_oracle(a, b, rho)
        got = power_cos_average(a, b, rho)
        assert abs(got - want) <= tol * want, (a, b, got, float(want))


_MODE_CASES = [(m, rho) for m in (1, 2, 3) for rho in (0.3, 0.5, 0.9)]
_MODE_CASES += [(1, 1e-4), (30, 0.5)] + [(m, rho) for m in (6, 12, 20) for rho in (0.01, 0.99)]


@pytest.mark.parametrize("m, rho", _MODE_CASES)
def test_mode_profile_against_mpmath(m, rho):
    # g_m's Gauss forms in mpmath at 30 digits, from the float r taken as
    # exact: C((m-rho)/2, m) r^m F((m+rho)/2, (m+rho)/2; m+1; r^2) inside
    # the circle, r^-rho F((rho-m)/2, (rho+m)/2; 1; r^-2) on and outside it.
    # The error is scaled by m0(r) >= |g_m(r)|, the scale of the transform,
    # since g_m vanishes at r = 0 and falls as r^m inside.  Measured: at most
    # 1.6e-15 of m0 over these modes and radii (rho near 0 and 1, m up to
    # 30 included), so the bound 1e-14 has 6x headroom
    radii = [0.0, 0.3, 1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9, 2.0, 60.0]
    got = mean_value_mode_profile(rho, m, np.array(radii))
    scale = mean_value_radial_profile(rho, np.array(radii))
    h = mp.mpf(rho) / 2
    for r, g, s in zip(radii, got, scale):
        x = mp.mpf(r)
        if x < 1:
            want = mp.binomial(m / mp.mpf(2) - h, m) * x ** m * mp.hyp2f1(
                m / mp.mpf(2) + h, m / mp.mpf(2) + h, m + 1, x * x)
        else:
            want = x ** (-2 * h) * mp.hyp2f1(h - m / mp.mpf(2), h + m / mp.mpf(2), 1, 1 / (x * x))
        assert abs(g - want) <= 1e-14 * s, (r, g, float(want))


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
def test_radial_profile_against_the_angle_rule(rho):
    # the series against the quadrature of the tail's mean-value transform
    tail = PotentialModel.isotropic(rho).tail_field()
    for r in (0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 50.0):
        want = mean_value_transform(tail, (r, 0.0))
        assert abs(mean_value_radial_profile(rho, r) - want) <= 1e-13 * want, r


def _same_bits(x, y):
    return np.array_equal(np.asarray(x, dtype=float).view(np.int64),
                          np.asarray(y, dtype=float).view(np.int64))


def test_power_cos_average_batch_matches_scalar_calls():
    # one batched call over both series branches, the circle and b = 0,
    # against one scalar call per value and the reversed batch: every value
    # sums all of its series terms, so it has the same bits in any batch
    rng = np.random.default_rng(7)
    b = np.concatenate([[0.0, 1.0, 3.0], 10.0 ** rng.uniform(-3, 3, 120)])
    gap = np.concatenate([[1.0, 0.0, 6.0], b[3:] * 10.0 ** rng.uniform(-9, 2, 120)])
    a = b + gap
    for rho in (0.1, 0.5, 0.95):
        batch = power_cos_average(a, b, rho, gap=gap)
        single = np.array([power_cos_average(ai, bi, rho, gap=gi)
                           for ai, bi, gi in zip(a, b, gap)])
        assert batch.shape == a.shape
        assert _same_bits(batch, single)
        assert _same_bits(batch[::-1], power_cos_average(a[::-1], b[::-1], rho, gap=gap[::-1]))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_profiles_do_not_depend_on_their_batch(rho):
    # the circle and 1 +- 1e-12 (delta 0 and about 1e-12, the finest angle
    # rules), the radius 0 and both sides of delta = 1, batched, alone and in
    # the reversed batch
    r = np.concatenate([[0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-6, 0.4, 2.618, 2.62],
                        np.random.default_rng(11).uniform(0.0, 60.0, 200)])
    profiles = [lambda x: mean_value_radial_profile(rho, x)]
    profiles += [lambda x, m=m: mean_value_mode_profile(rho, m, x) for m in (1, 2, 3)]
    for f in profiles:
        batch = f(r)
        assert _same_bits(batch, [f(x) for x in r])
        assert _same_bits(batch[::-1], f(r[::-1]))
        assert _same_bits(batch[:3], f(r[:3]))


def test_power_cos_series_cached_and_read_only():
    ser = _power_cos_series(0.5)
    assert _power_cos_series(0.5) is ser
    fresh = _power_cos_series.__wrapped__(0.5)
    assert fresh.near == ser.near and fresh.far == ser.far
    near, p, q = _taylor_tables(0.5)
    lengths = tuple(len(_economize(t)) for t in (near[1:], p, q))
    assert (len(ser.near), *map(len, ser.far)) == lengths
    with pytest.raises(TypeError):
        ser.near[0] = 0.0
    with pytest.raises(TypeError):
        ser.far[0] = (0.0, 0.0)
    with pytest.raises(AttributeError):
        ser.near = ()


def test_power_cos_series_certifies_its_truncation(monkeypatch):
    # eight terms leave 2^-8-sized terms at argument 1/2: the build refuses
    monkeypatch.setattr(potentials, "_SERIES_TERMS", 8)
    with pytest.raises(AccuracyError, match="not converged"):
        _power_cos_series.__wrapped__(0.5)


@pytest.mark.parametrize("corrupt", ["coefficient", "tolerance"])
def test_power_cos_series_certifies_its_economization(monkeypatch, corrupt):
    # a constant term 1e-14 off, or a Chebyshev tail cut at 2^-30 (10 or 11
    # terms), moves the polynomial by far more than 4 ulps of the Taylor sum
    if corrupt == "coefficient":
        economize = potentials._economize

        def corrupted(coef):
            poly = economize(coef)
            poly[0] *= 1.0 + 1e-14
            return poly

        monkeypatch.setattr(potentials, "_economize", corrupted)
    else:
        monkeypatch.setattr(potentials, "_SERIES_TOL", 2.0 ** -30)
    with pytest.raises(AccuracyError, match="economized"):
        _power_cos_series.__wrapped__(0.5)


def _taylor_horner(v, coef):
    """The raw Taylor sum of a table of `_taylor_tables`, by Horner on all
    of its _SERIES_TERMS terms: the exact path behind the economized kernel."""
    acc = np.zeros_like(v)
    for c in coef[::-1]:
        acc = acc * v + c
    return acc


@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999])
def test_economized_kernel_matches_the_taylor_oracle(rho):
    # dense grids of [0, 1/2] with both ends and the seam at z = 1/2 +- 1e-12
    # (w = 1/2 - 1e-12 on the far branch).  Near branch: within 4 ulps of
    # the Taylor sum.  Far branch: within 4 ulps of the scale of its two
    # terms, since they cancel as rho -> 1 (measured: 1 and 2 ulps)
    near, p, q = _taylor_tables(rho)
    ser = _power_cos_series(rho)
    v = np.concatenate([np.linspace(0.0, 0.5, 20001), [0.5 - 1e-12, 1e-12, 1e-300],
                        np.random.default_rng(5).uniform(0.0, 0.5, 20000)])
    want = _taylor_horner(v, near)
    assert np.all(np.abs(_near_sum(v, ser) - want) <= 4 * np.spacing(want))
    root = v ** (0.5 - ser.nu)
    want = _taylor_horner(v, p) + root * _taylor_horner(v, q)
    scale = np.abs(_taylor_horner(v, p)) + root * np.abs(_taylor_horner(v, q))
    assert np.all(np.abs(_far_sum(v, ser) - want) <= 4 * np.spacing(scale))


def test_economized_tables_stay_short():
    # a count guard in place of a timing: about 21 terms, never the 64 of
    # the Taylor tables, for rho across (0, 1)
    rhos = np.concatenate([[1e-4, 1e-3, 0.01], np.linspace(0.05, 0.95, 19),
                           [0.99, 0.999, 0.9999]])
    for rho in rhos:
        ser = _power_cos_series(float(rho))
        assert max(len(ser.near), *map(len, ser.far)) <= 24, rho


def test_profile_tail_normalization():
    # against the direct transform at |x| = 50 and the r^-rho tail law
    direct = mean_value_transform(ISO.tail_field(), (50.0, 0.0))
    prof = mean_value_radial_profile(0.5, 50.0)
    assert abs(direct - prof) < 1e-10
    assert 0.999 < prof * 50.0 ** 0.5 < 1.001 * 1.0001


def test_profile_on_circle_two_strategies():
    # graded-mesh value vs the theta = s^2 substitution oracle (rho = 1/2)
    f = lambda s: (2.0 * mp.sin(s * s / 2)) ** mp.mpf(-0.5) * 2 * s
    oracle = float(mp.quad(f, [0, mp.sqrt(mp.pi)]) / mp.pi)
    got = mean_value_radial_profile(0.5, 1.0)
    assert abs(got - oracle) < 1e-7
    # closed form 2^{-rho} Gamma((1-rho)/2) / (sqrt(pi) Gamma(1-rho/2))
    for rho in (0.3, 0.5, 0.7, 0.9):
        closed = float(2.0 ** -rho * mp.gamma((1 - rho) / 2)
                       / (mp.sqrt(mp.pi) * mp.gamma(1 - rho / 2)))
        assert abs(mean_value_radial_profile(rho, 1.0) - closed) < 1e-11


def test_profile_continuous_across_circle():
    # m is continuous at r = 1 with a Holder-(1-rho) cusp, so the deviation
    # at offset eps scales like eps^(1-rho)
    for eps in (1e-6, 1e-9, 1e-12):
        vals = mean_value_radial_profile(0.5, np.array([1.0 - eps, 1.0, 1.0 + eps]))
        bound = 2.0 * eps ** 0.5
        assert abs(vals[0] - vals[1]) < bound
        assert abs(vals[2] - vals[1]) < bound


def _near_circle_panels(e):
    """mpmath breakpoints 0, e, 8e, 64e, ... pi for an integrand in t that
    varies on the scale e = r - 1 near t = 0."""
    br = [mp.mpf(0), e]
    while br[-1] * 8 < mp.pi:
        br.append(br[-1] * 8)
    return br + [mp.pi]


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("eps", [1e-15, 1e-14, 9e-14])
def test_transform_just_off_the_circle(rho, eps):
    # at r = 1 + eps the circle misses the singularity: the integrand is
    # bounded and varies on the angular scale eps, not like t^-rho
    r = 1.0 + eps
    e, rm = mp.mpf(r) - 1, mp.mpf(r)
    oracle = mp.quad(lambda t: (e * e + 4 * rm * mp.sin(t / 2) ** 2) ** (-mp.mpf(rho) / 2),
                     _near_circle_panels(e)) / mp.pi
    prof = mean_value_radial_profile(rho, r)
    got = mean_value_transform(PotentialModel.isotropic(rho).tail_field(), (r, 0.0))
    assert abs(prof - oracle) <= 1e-12 * oracle
    assert abs(got - prof) <= 1e-12 * prof, (got, prof)


def _on_circle_tail_oracle(model, b_rescale, center, radius):
    """(1/2pi) int tail(c - R omega(th)) dth for |c| = R, with th = arg c +- s^2:
    the t^-rho singularity at th = arg c becomes the integrable s^(1-2rho)."""
    cx, cy, R = mp.mpf(center[0]), mp.mpf(center[1]), mp.mpf(radius)
    thc, rho = mp.atan2(cy, cx), mp.mpf(model.rho)

    def tail(x1, x2):
        if b_rescale is not None:
            x1, x2 = -x2 / mp.sqrt(b_rescale), -x1 / mp.sqrt(b_rescale)
        return ((x1 * x1 + x2 * x2) ** (-rho / 2)
                * (1 + mp.mpf(model.epsilon) * mp.cos(model.mode * mp.atan2(x2, x1))))

    def f(s):
        return sum(tail(cx - R * mp.cos(thc + sg * s * s), cy - R * mp.sin(thc + sg * s * s))
                   for sg in (1, -1)) * 2 * s
    return model.amplitude * mp.quad(f, [0, mp.sqrt(mp.pi)]) / (2 * mp.pi)


def test_singular_head_anisotropic_transform():
    # (0, 1) lies exactly on the unit circle about (0, 1): the circle meets
    # the singularity of the anisotropic tail
    got = mean_value_transform(ANISO.tail_field(), (0.0, 1.0))
    oracle = _on_circle_tail_oracle(ANISO, None, (0, 1), 1)
    assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_singular_head_rescaled_tail():
    # |(3, 4)| == 5 in floating point; the composed symbol tail_B keeps its
    # singularity at the origin
    got = circle_average(TailField(ANISO, b_rescale=2.0), (3.0, 4.0), 5.0)
    oracle = _on_circle_tail_oracle(ANISO, 2.0, (3, 4), 5)
    assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_transform_linearity():
    u = lambda x, y: np.exp(-0.3 * (x * x + y * y))
    v = lambda x, y: 1.0 / (1.0 + x * x + y * y)
    x0 = (1.2, -0.4)
    lin = lambda x, y: 2.0 * u(x, y) - 3.5 * v(x, y)
    got = mean_value_transform(lin, x0)
    ref = 2.0 * mean_value_transform(u, x0) - 3.5 * mean_value_transform(v, x0)
    assert abs(got - ref) < 1e-9


def test_transform_profile_identity_isotropic():
    for r in (0.4, 0.999, 1.0, 2.5, 10.0):
        direct = mean_value_transform(ISO.tail_field(), (r * math.cos(1.1), r * math.sin(1.1)))
        assert abs(direct - mean_value_radial_profile(0.5, r)) < 1e-8


@pytest.mark.parametrize("E, B", [(NAN, 1.0), (4.0, NAN), (INF, 1.0), (4.0, INF),
                                  (0.0, 1.0), (4.0, -1.0)],
                         ids=["E-nan", "B-nan", "E-inf", "B-inf", "E-zero", "B-negative"])
def test_orbit_average_requires_finite_positive_energy_and_field(E, B):
    with pytest.raises(ValueError, match="E and B must be finite and positive"):
        orbit_average(ISO, (1.0, 0.0), E, B)


def test_orbit_average_constant_potential():
    wide = PotentialModel.gaussian_bump(2.5, 1e8)
    assert abs(orbit_average(wide, (1.0, 2.0), 4.0, 1.0) - 2.5) < 1e-10


def test_orbit_average_centered_closed_form():
    # at c = 0 the orbit lies on one circle of radius sqrt(E)/B
    for (E, B) in ((4.0, 1.0), (100.0, 2.0)):
        got = orbit_average(ISO, (0.0, 0.0), E, B)
        assert abs(got - (1.0 + E / B ** 2) ** -0.25) < 1e-12


def test_orbit_average_dual_evaluation():
    got = orbit_average(ANISO, (1.5, -0.7), 9.0, 1.5)
    ref = circle_average(lambda x, y: ANISO.value(x, y), (1.5, -0.7),
                         math.sqrt(9.0) / 1.5)
    assert abs(got - ref) < 1e-9


def test_orbit_average_rescaled_tail_limit():
    # E^(rho/2) Av(V)(c, E) approaches B^rho at fixed c as E grows
    c = (2.0, 1.0)
    B = 1.0
    vals = []
    for E in (1e2, 1e3, 1e4):
        radius = math.sqrt(E) / B
        ref = mean_value_transform(
            ISO.tail_field(), (c[0] / radius, c[1] / radius)) * radius ** -ISO.rho
        got = orbit_average(ISO, c, E, B)
        vals.append(abs(got - ref) / ref)
    assert vals[-1] < 5e-3
    assert vals[-1] < vals[0]


def test_adaptive_average_reports_nonconvergence():
    from lcl.errors import QuadratureError
    hostile = lambda x, y: np.sin(3.0e5 * x)  # oscillation below panel reach
    with pytest.raises(QuadratureError) as err:
        mean_value_transform(hostile, (0.3, 0.1))
    assert err.value.estimate is not None and err.value.estimate > 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        PotentialModel.isotropic(1.2)
    with pytest.raises(ValueError):
        PotentialModel.anisotropic(0.5, 1.2, 2)
    with pytest.raises(ValueError):
        PotentialModel.anisotropic(0.5, 0.3, 0)
    with pytest.raises(ValueError):
        PotentialModel.gaussian_bump(1.0, -1.0)
    with pytest.raises(ValueError):
        PotentialModel("mystery-kind")


@pytest.mark.parametrize("build", [
    lambda: PotentialModel.anisotropic(0.5, 0.3, 2.5),
    lambda: PotentialModel.anisotropic(0.5, 0.3, True),
    lambda: PotentialModel.isotropic(0.5, math.nan),
    lambda: PotentialModel.isotropic(0.5, math.inf),
    lambda: PotentialModel.gaussian_bump(1.0, math.nan),
    lambda: PotentialModel.gaussian_bump(1.0, math.inf),
    lambda: PotentialModel.gaussian_bump(-math.inf, 1.0),
], ids=["mode-2.5", "mode-bool", "amplitude-nan", "amplitude-inf", "width-nan",
        "width-inf", "bump-amplitude-inf"])
def test_model_refuses_fields_that_break_later(build):
    # these used to be accepted: a fractional mode gave a wrong density
    # integral, a bool mode wrote "mode": true, a NaN wrote the token NaN
    with pytest.raises(ValueError, match="^(mode|amplitude|width) must"):
        build()


@pytest.mark.parametrize("kind", ["isotropic-long-range", "compact-gaussian-bump"])
def test_model_refuses_epsilon_outside_its_range_on_every_kind(kind):
    # a radial model's limiting side reads eps |g_m| with g_m = 0, so epsilon
    # must lie in [0, 1) on every kind, not only where it sets the anisotropy
    for eps in (math.nan, math.inf, -0.5, 1.0):
        with pytest.raises(ValueError, match="^epsilon must"):
            PotentialModel(kind, rho=0.5, epsilon=eps)


def test_model_accepts_a_numpy_integer_mode():
    model = PotentialModel.anisotropic(0.5, 0.3, np.int64(2))
    assert json.dumps(model.to_json()) == json.dumps(ANISO.to_json())


def test_json_round_trip():
    # an explicit amplitude of 0 must survive the trip, not become 1.0
    for model in (ISO, ANISO, BUMP, PotentialModel.isotropic(0.3, amplitude=-1.0),
                  PotentialModel.isotropic(0.5, amplitude=0.0),
                  PotentialModel.gaussian_bump(0.0, 2.0)):
        blob = json.dumps(model.to_json())
        back = PotentialModel.from_json(json.loads(blob))
        assert back == model


def test_angular_modes_structure():
    modes = {p.mode for p in ISO.angular_modes()}
    assert modes == {0}
    modes = {p.mode for p in ANISO.angular_modes()}
    assert modes == {0, 2, -2}
    v0 = next(p for p in ANISO.angular_modes() if p.mode == 0)
    assert float(v0.radial(np.asarray(0.0))) > 0.0


def test_negated_model_symmetry():
    neg = PotentialModel.isotropic(0.5, amplitude=-1.0)
    x = (1.3, 0.2)
    assert evaluate(neg, x) == -evaluate(ISO, x)
    assert evaluate_tail(neg, x) == -evaluate_tail(ISO, x)


def test_batched_profiles_give_each_row_its_own_rule():
    # a batch splits at delta == 0 and delta = 1: a row on the circle or near
    # it does not move the far rows off the 64-point rule
    r = np.array([1.0, 1.0 + 1e-9, 0.8, 2.7, 5.0, 40.0])
    far = r >= 2.7
    for f in (lambda x: mean_value_mode_profile(0.5, 2, x),
              lambda x: mean_value_radial_profile(0.5, x)):
        batch = f(r)
        assert np.array_equal(batch[far], f(r[far]))
        assert batch[0] == f(1.0)
        single = np.array([f(x) for x in r])
        assert np.max(np.abs(batch - single)) <= 1e-13


def test_far_rule_built_once_and_read_only():
    # the delta >= 1 rule depends on neither delta nor rho: one shared object;
    # so is every rule of a key in (0, 1), across rho (here the key 1/4)
    for deltas in ((1.0, 7.5, 1e300), (0.25, 0.3, 0.49)):
        rules = [next(_angle_rule_groups(np.array([d]), rho))[1:]
                 for d, rho in zip(deltas, (0.5, 0.1, 0.9))]
        assert all(r[0] is rules[0][0] and r[1] is rules[0][1] for r in rules)
    t, w = far = _angle_rule(1.0, None)
    assert next(_angle_rule_groups(np.array([2.0]), 0.3))[1] is t
    t_ref, w_ref = panel_rule([0.0, math.pi], 64)
    assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref / math.pi)
    for arr in far:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_jacobi_head_cached_read_only():
    # the Gauss-Jacobi head of the delta == 0 rule: one shared read-only
    # pair per (n, rho), equal to a fresh build, which building the angle
    # rule leaves untouched; the rule is the same cold and warm
    _gauss_jacobi01.cache_clear()
    _angle_rule.cache_clear()
    t_cold, w_cold = _angle_rule(0.0, 0.5)
    head = _gauss_jacobi01(24, 0.5)
    assert _gauss_jacobi01(24, 0.5) is head
    fresh = _gauss_jacobi01.__wrapped__(24, 0.5)
    t_warm, w_warm = _angle_rule(0.0, 0.5)
    for got, want in ((t_warm, t_cold), (w_warm, w_cold),
                      (head[0], fresh[0]), (head[1], fresh[1])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for arr in head:
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("u", [ISO, ISO.tail_field(), lambda x1, x2: x1 * x1 + x2 * x2],
                         ids=["model", "tail", "callable"])
def test_circle_average_refuses_nan_radius(u):
    with pytest.raises(ValueError, match="^radius must be"):
        circle_average(u, (1.0, 0.0), NAN)


@pytest.mark.parametrize("u", [ISO, ISO.tail_field(), lambda x1, x2: x1 * x1 + x2 * x2],
                         ids=["model", "tail", "callable"])
@pytest.mark.parametrize("center", [(NAN, 0.0), (0.0, NAN), (math.inf, 0.0), (0.0, -math.inf)],
                         ids=["x-nan", "y-nan", "x-inf", "y-minus-inf"])
def test_circle_average_refuses_non_finite_center(u, center):
    # a NaN center used to come back as NaN (0.0 for an infinite one on the
    # tail) and a callable as a non-converged QuadratureError
    for call in (lambda: circle_average(u, center, 1.0), lambda: mean_value_transform(u, center)):
        with pytest.raises(ValueError, match="^center must be finite"):
            call()
    with pytest.raises(ValueError, match="^center must be finite"):
        orbit_average(ISO, center, 2.0, 1.0)
