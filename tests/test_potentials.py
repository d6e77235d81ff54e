import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcl.potentials import (PotentialModel, TailField, circle_average,
                            evaluate, evaluate_tail, mean_value_radial_profile,
                            mean_value_transform, orbit_average)

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
    assert mean_value_radial_profile(0.5, 0.0) == 1.0
    rs = np.linspace(2.0, 40.0, 50)
    prof = mean_value_radial_profile(0.5, rs)
    assert np.all(np.diff(prof) < 0)


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
