import ast
import json
import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from lcl import measures, potentials, symbols
from lcl.eigen import _sturm_count, sym_eig
from lcl.errors import CapacityError, ContractError, MethodError
from lcl.landau import (LandauConfig, _block_summary, _level_bands, landau_level,
                        level_spectrum, radial_diagonal, toeplitz_matrix)
from lcl.measures import (ConvergenceRow, EmpiricalClusterMeasure,
                          LimitingMeasure, TestFunction, convergence_study,
                          eigenvalue_counting, limiting_density_integral,
                          mu_interval, rows_to_csv, schatten_norm, trace_functional)
from lcl.potentials import PotentialModel, mean_value_mode_profile, orbit_average
from lcl.specfun import panel_rule

ISO = PotentialModel.isotropic(0.5)
ANISO = PotentialModel.anisotropic(0.5, 0.3, 2)
PHI = TestFunction(0.5, 0.3)


def _mode_integrand(rho, m, e, r):
    # |x - w|^-rho cos(m arg(x - w)), x = (r, 0), w = (cos t, sin t), e = r - 1
    def f(t):
        s2 = mp.sin(t / 2) ** 2
        ang = mp.atan2(-mp.sin(t), e + 2 * s2)
        return (e * e + 4 * r * s2) ** (-mp.mpf(rho) / 2) * mp.cos(m * ang)
    return f


def test_mode_profile_on_circle_singular_head():
    # g_m(1) with t = s^2, which turns the t^-rho singularity into s^(1-2 rho)
    with mp.workdps(30):
        f = _mode_integrand(0.5, 2, mp.mpf(0), mp.mpf(1))
        oracle = mp.quad(lambda s: f(s * s) * 2 * s, [0, mp.sqrt(mp.pi)]) / mp.pi
    got = LimitingMeasure(ANISO, 1.0).mode_profile(1.0)
    assert abs(got - oracle) <= 1e-12


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("eps", [1e-15, 1e-14, 9e-14])
def test_mode_profile_just_off_the_circle(rho, eps):
    # at r = 1 + eps the angle arg(x - w) turns through pi/2 on the scale
    # t ~ eps; mpmath panels 0, e, 8e, 64e, ... pi resolve it
    r = 1.0 + eps
    with mp.workdps(30):
        e = mp.mpf(r) - 1
        br = [mp.mpf(0), e]
        while br[-1] * 8 < mp.pi:
            br.append(br[-1] * 8)
        oracle = mp.quad(_mode_integrand(rho, 2, e, mp.mpf(r)), br + [mp.pi]) / mp.pi
    got = LimitingMeasure(PotentialModel.anisotropic(rho, 0.3, 2), 1.0).mode_profile(r)
    assert abs(got - oracle) <= 1e-12, (got, float(oracle))


def test_bump_shape():
    assert PHI(0.5) == 1.0
    assert PHI(0.2) == 0.0 and PHI(0.8) == 0.0
    ts = np.linspace(-2.0, 2.0, 400)
    vals = PHI(ts)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert PHI.support == (0.2, 0.8)
    assert abs(PHI.support_abs_low - 0.2) < 1e-15


def test_bump_must_avoid_zero():
    with pytest.raises(ValueError):
        TestFunction(0.1, 0.2)
    with pytest.raises(ValueError):
        TestFunction(0.5, -0.1)
    TestFunction(-0.5, 0.3)  # negative center is fine


def test_trace_functional_support_above_spectrum():
    phi = TestFunction(10.0, 1.0)
    val = trace_functional(np.array([0.1, 0.2]), 9.0, 0.5, phi, tail_bound=0.01)
    assert val == 0.0


def test_trace_functional_peak_normalization():
    lam, rho = 9.0, 0.5
    e = 0.5 / lam ** (rho / 2.0)
    val = trace_functional(np.array([e]), lam, rho, PHI, tail_bound=0.01)
    assert abs(val - 1.0) < 1e-12


def test_trace_functional_matrix_function_oracle():
    # trace of phi(lambda^{rho/2} T) via full eigendecomposition, dense 50x50
    blk = toeplitz_matrix(ANISO, LandauConfig(B=1.0, q=2, k_max=47))
    lam = landau_level(1.0, 2)
    spec = sym_eig(blk.entries)
    got = trace_functional(spec, lam, 0.5, PHI, tail_bound=blk.truncation_tail_bound * 0.0 + 1e-3)
    vals, vecs = np.linalg.eigh(blk.entries)
    M = vecs @ np.diag(PHI(lam ** 0.25 * vals)) @ vecs.T
    assert abs(got - float(np.trace(M))) < 1e-10


def test_trace_functional_ignores_certified_tail():
    # values below the certified tail bound contribute exactly zero, so any
    # perturbation of discarded indices leaves the functional unchanged
    lam, rho, tail = 65.0, 0.5, 0.05
    kept = np.array([0.2, 0.15, 0.11])
    base = trace_functional(kept, lam, rho, PHI, tail_bound=tail)
    for extra in ([0.04, 0.01], [0.0499, -0.0499, 0.02]):
        spec = np.concatenate([kept, extra])
        assert trace_functional(spec, lam, rho, PHI, tail_bound=tail) == base


def test_trace_functional_certificate_errors():
    with pytest.raises(ContractError):
        trace_functional(np.array([0.1]), 9.0, 0.5, PHI, tail_bound=None)
    with pytest.raises(ContractError):
        trace_functional(np.array([0.1]), 9.0, 0.5, PHI, tail_bound=0.5)
    with pytest.raises(ContractError):
        trace_functional(np.array([0.1]), 9.0, 0.5, PHI, tail_bound=float("nan"))


def _measure_from(values, q=4, rho=0.5, B=1.0, tail=1e-6):
    lam = landau_level(B, q)
    return EmpiricalClusterMeasure.from_values(q, lam, rho, np.asarray(values), tail)


def test_counting_above_spectrum():
    m = _measure_from([0.01, 0.02, 0.03])
    assert eigenvalue_counting(m, 10.0, 11.0) == 0


def test_counting_full_range_scan_oracle():
    vals = np.array([0.05, 0.1, 0.2, 0.3, 0.4])
    m = _measure_from(vals)
    lam = m.lambda_q
    scaled = np.sort(lam ** 0.25 * vals)
    alpha = float(scaled[0]) - 1e-9
    beta = float(scaled[-1]) + 1e-9
    assert eigenvalue_counting(m, alpha, beta) == len(vals)
    mid = 0.5 * (scaled[1] + scaled[2])
    below = int(np.sum(scaled < mid))
    assert eigenvalue_counting(m, alpha, mid) == below


def test_counting_additive_over_split():
    m = _measure_from([0.05, 0.1, 0.2, 0.3])
    split = 0.31  # not a scaled eigenvalue
    total = eigenvalue_counting(m, 0.01, 1.5)
    assert (eigenvalue_counting(m, 0.01, split)
            + eigenvalue_counting(m, split + 1e-12, 1.5)) == total


def test_counting_rejects_interval_containing_zero():
    m = _measure_from([0.1])
    with pytest.raises(ValueError):
        eigenvalue_counting(m, -0.1, 0.1)


def test_mu_interval_above_sup():
    lim = LimitingMeasure(ISO, 1.0)
    assert lim.mu_interval(5.0, 6.0) == 0.0


def test_mu_interval_dual_method():
    lim = LimitingMeasure(ISO, 1.0, seed=20240801, samples=10_000_000)
    inv = lim.mu_interval(0.3, 0.6, "radial-inversion")
    mc = lim.mu_interval(0.3, 0.6, "monte-carlo")
    grid = lim.mu_interval(0.3, 0.6, "grid-2d")
    assert abs(inv - mc) / inv < 0.01
    assert abs(inv - grid) / inv < 0.01


def test_mu_interval_additivity():
    lim = LimitingMeasure(ISO, 1.0)
    a, b, c = 0.3, 0.45, 0.6
    left = lim.mu_interval(a, b, "radial-inversion")
    right = lim.mu_interval(b, c, "radial-inversion")
    total = lim.mu_interval(a, c, "radial-inversion")
    assert abs(left + right - total) < 1e-9 * total


def test_mu_interval_negative_amplitude_mirrors():
    neg = PotentialModel.isotropic(0.5, amplitude=-1.0)
    lim_n = LimitingMeasure(neg, 1.0, samples=1_000_000)
    lim_p = LimitingMeasure(ISO, 1.0, samples=1_000_000)
    for method in ("radial-inversion", "grid-2d", "monte-carlo"):
        got = lim_n.mu_interval(-0.6, -0.3, method)
        ref = lim_p.mu_interval(0.3, 0.6, method)
        assert abs(got - ref) < 1e-12 * ref, method


def test_mu_interval_method_errors():
    lim = LimitingMeasure(ISO, 1.0)
    # upper level reaching the non-monotone inner region
    with pytest.raises(MethodError):
        lim.mu_interval(0.9, 1.05, "radial-inversion")
    lim2 = LimitingMeasure(ANISO, 1.0)
    with pytest.raises(MethodError):
        lim2.mu_interval(0.3, 0.6, "radial-inversion")
    with pytest.raises(ValueError):
        lim.mu_interval(-0.1, 0.1)
    with pytest.raises(ValueError):
        lim.mu_interval(0.6, 0.3)


NAN = float("nan")


@pytest.mark.parametrize("call, name", [
    (lambda: LimitingMeasure(ISO, 1.0).mu_interval(0.3, NAN, "grid-2d"), "beta"),
    (lambda: LimitingMeasure(ISO, 1.0).mu_interval(NAN, 0.6, "grid-2d"), "alpha"),
    (lambda: LimitingMeasure(ISO, NAN), "B"),
    (lambda: LimitingMeasure(ISO, math.inf), "B"),
    (lambda: TestFunction(NAN, 0.3), "center"),
    (lambda: TestFunction(math.inf, 0.3), "center"),
    (lambda: TestFunction(0.5, NAN), "half_width"),
    (lambda: TestFunction(0.5, math.inf), "half_width"),
    (lambda: eigenvalue_counting(_measure_from([0.1, 0.2, 0.3]), NAN, 0.5), "alpha"),
    (lambda: eigenvalue_counting(_measure_from([0.1, 0.2, 0.3]), 0.1, NAN), "beta"),
], ids=["mu-beta", "mu-alpha", "B-nan", "B-inf",
        "center-nan", "center-inf", "half-width-nan", "half-width-inf",
        "counting-alpha", "counting-beta"])
def test_limiting_side_rejects_nan(call, name):
    # each check is written so that NaN fails it, and names the argument
    with pytest.raises(ValueError, match=name):
        call()


def test_density_integral_above_sup():
    lim = LimitingMeasure(ISO, 1.0)
    assert lim.density_integral(TestFunction(9.0, 0.5)) == 0.0


def test_density_integral_dual_methods():
    lim = LimitingMeasure(ISO, 1.0, seed=20240801, samples=5_000_000)
    rad = lim.density_integral(PHI, "radial")
    mc = lim.density_integral(PHI, "monte-carlo")
    grid = lim.density_integral(PHI, "grid-2d")
    assert abs(rad - mc) / rad < 0.01
    assert abs(rad - grid) / rad < 0.005


def _interp_transform(lim, r, th, tables):
    # T at the polar points (r, th): the table lookup in scratch of its own
    n = np.size(r)
    work = (np.empty(n), np.empty(n), np.empty(n), np.empty(n, np.intp), np.empty(n, bool))
    return lim._table_transform(r, lim._mode_factor(np.array(th, dtype=float)), tables, work)


@pytest.mark.parametrize("level", [0.2, 0.5])
@pytest.mark.parametrize("model", [ISO, ANISO], ids=["isotropic", "anisotropic"])
def test_table_lookup_matches_np_interp(model, level):
    # the indexed lookup on the uniform table against np.interp's search,
    # element by element: random radii, every node and its two float
    # neighbours, both ends and a radius past the table.  The scaled radius
    # rounds below a node's index on the level-0.2 tables and above it on
    # the level-0.5 ones, so each bracket correction is exercised.
    lim = LimitingMeasure(model, 1.0)
    r_out, = lim._level_radius([level])
    tables = lim._tables(r_out)
    rt, base, mode, *_ = tables
    rng = np.random.default_rng(7)
    r = np.concatenate([rng.uniform(0.0, r_out, 100_000), rt,
                        np.nextafter(rt, -np.inf)[1:], np.nextafter(rt, np.inf),
                        [0.0, r_out, np.nextafter(r_out, 0.0), 1.5 * r_out]])
    th = rng.uniform(0.0, 2.0 * math.pi, r.size)
    want = np.interp(r, rt, base)
    if model.kind == "anisotropic-long-range":
        want = want + model.epsilon * np.cos(model.mode * th) * np.interp(r, rt, mode)
    want = model.amplitude * want
    got = _interp_transform(lim, r, th, tables)
    assert rt[-1] == r_out
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# One-shot oracles of the blocked integrals: the whole integrand as one array.

def _one_shot_monte_carlo(lim, f, r_out):
    # all radii, then all angles, of one Philox(seed) stream
    rng = np.random.Generator(np.random.Philox(lim.seed))
    r = r_out * np.sqrt(rng.random(lim.samples))
    th = 2.0 * math.pi * rng.random(lim.samples)
    vals = _interp_transform(lim, r, th, lim._tables(r_out))
    return float(np.mean(f(vals))) * math.pi * r_out * r_out / (2.0 * math.pi * lim.B)


def _one_shot_grid(lim, f, r_out, method):
    # T and the area at every node of the polar rule, as 2-d arrays
    if method == "grid-2d":
        dr = r_out / measures._GRID_RADII
        r, wr = (np.arange(measures._GRID_RADII) + 0.5) * dr, dr
        dth = 2.0 * math.pi / measures._GRID_ANGLES
        psi, wpsi = lim.model.mode * ((np.arange(measures._GRID_ANGLES) + 0.5) * dth), dth
    else:
        r, wr = panel_rule(np.linspace(0.0, r_out, measures._RADIAL_PANELS + 1), 12)
        s, ws = panel_rule([0.0, 1.0], 48)
        psi, wpsi = math.pi * s, 2.0 * math.pi * ws
    area = (r * wr)[:, None]
    base = lim.model.amplitude * lim.base_profile(r)
    if lim.model.kind == "anisotropic-long-range":
        mode = lim.model.amplitude * lim.model.epsilon * lim.mode_profile(r)
        vals, area = base[:, None] + mode[:, None] * np.cos(psi)[None, :], area * wpsi
    else:
        vals, area = base[:, None], area * (2.0 * math.pi)
    return float(np.sum(f(vals) * area)) / (2.0 * math.pi * lim.B)


def _integrands(lim, alpha, beta, phi):
    # (name, f, r_out) of mu_interval([alpha, beta]) and density_integral(phi)
    # at B = 1, as the two evaluators pass them to _integral
    r_mu, = lim._level_radius([alpha])
    r_phi = lim._level_radius([phi.support_abs_low])[0] * 1.02
    return [("mu", lambda v: (v >= alpha) & (v <= beta), r_mu), ("density", phi, r_phi)]


@pytest.mark.parametrize("samples", [1001, 2 * measures.BLOCK_POINTS + 4099])
@pytest.mark.parametrize("model", [ISO, ANISO], ids=["isotropic", "anisotropic"])
def test_blocked_monte_carlo_is_the_one_shot_stream(model, samples):
    # 1001 samples are less than one block; 2 blocks + 4099 end in a part
    # block, and neither count is a multiple of Philox's 4 draws per step
    lim = LimitingMeasure(model, 1.0, seed=11, samples=samples)
    (_, ind, r_mu), (_, phi, r_phi) = _integrands(lim, 0.3, 0.6, PHI)
    mu, density = lim.mu_interval(0.3, 0.6, "monte-carlo"), lim.density_integral(PHI, "monte-carlo")
    assert mu == _one_shot_monte_carlo(lim, ind, r_mu)
    want = _one_shot_monte_carlo(lim, phi, r_phi)
    assert abs(density - want) <= 1e-15 * want
    # both integrands on one pass of the draws: the single calls' bits
    assert lim.monte_carlo(0.3, 0.6, PHI) == (mu, density)


@pytest.mark.parametrize("model", [ISO, ANISO], ids=["isotropic", "anisotropic"])
def test_monte_carlo_pair_early_values(model):
    # a negative amplitude mirrors the positive one bit for bit; an interval
    # on the other side of 0 or above the envelope's peak takes no integral,
    # beside an integrand that does, or alone
    neg = LimitingMeasure(replace(model, amplitude=-1.0), 1.0, seed=11, samples=5000)
    pos = LimitingMeasure(model, 1.0, seed=11, samples=5000)
    mirror = (-0.6, -0.3, TestFunction(-0.5, 0.3))
    assert neg.monte_carlo(*mirror) == pos.monte_carlo(0.3, 0.6, PHI)
    cases = [(neg, mirror), (neg, (0.3, 0.6, PHI)), (pos, (-0.6, -0.3, PHI)),
             (pos, (5.0, 6.0, PHI)), (pos, (0.3, 0.6, TestFunction(9.0, 0.5))),
             (pos, (5.0, 6.0, TestFunction(9.0, 0.5)))]
    for lim, (alpha, beta, phi) in cases:
        want = (lim.mu_interval(alpha, beta, "monte-carlo"),
                lim.density_integral(phi, "monte-carlo"))
        assert lim.monte_carlo(alpha, beta, phi) == want, (alpha, beta, phi)
    assert pos.monte_carlo(5.0, 6.0, TestFunction(9.0, 0.5)) == (0.0, 0.0)
    assert neg.monte_carlo(0.3, 0.6, PHI)[0] == 0.0


@pytest.mark.parametrize("model", [ISO, ANISO], ids=["isotropic", "anisotropic"])
def test_phi_on_the_other_side_of_zero_takes_no_integral(model, monkeypatch):
    # T has the amplitude's sign, so phi(B^rho T) is 0 everywhere for a phi
    # whose support lies on the other side of 0: the value is 0.0, taken with
    # no rule and no draw
    def refuse(*args):
        raise AssertionError("no integral expected")

    monkeypatch.setattr(LimitingMeasure, "_integral", refuse)
    monkeypatch.setattr(LimitingMeasure, "_monte_carlo", refuse)
    for amplitude, (alpha, beta, phi) in ((1.0, (-0.6, -0.3, TestFunction(-0.5, 0.3))),
                                          (-1.0, (0.3, 0.6, PHI))):
        lim = LimitingMeasure(replace(model, amplitude=amplitude), 1.0, samples=5000)
        for method in ("radial", "grid-2d", "monte-carlo"):
            assert lim.density_integral(phi, method) == 0.0, (amplitude, method)
        assert lim.monte_carlo(alpha, beta, phi) == (0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=1, max_value=8),
       st.floats(min_value=-5.0, max_value=5.0))
def test_epsilon_zero_is_the_isotropic_model(rho, m, amplitude):
    # with epsilon = 0 the tail a |x|^-rho (1 + eps cos(m th)) is radial:
    # one angular mode, and the limiting side's profiles of the isotropic model
    flat = PotentialModel.anisotropic(rho, 0.0, m, amplitude)
    iso = PotentialModel.isotropic(rho, amplitude)
    assert flat.radial and not replace(flat, epsilon=0.3).radial
    assert len(flat.angular_modes()) == 1
    r = np.linspace(0.0, 5.0, 201)
    for name in ("envelope", "mode_profile"):
        got, want = (getattr(LimitingMeasure(u, 1.0), name)(r) for u in (flat, iso))
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("model", [ISO, ANISO], ids=["isotropic", "anisotropic"])
def test_blocked_grid_matches_the_one_shot_sum(model):
    # the anisotropic grid-2d rule spans 44 blocks and may differ from the
    # one 2-d sum in its last bits; the radial rule and the isotropic grids
    # are one block each, and stay bit-identical
    lim = LimitingMeasure(model, 1.0)
    for name, f, r_out in _integrands(lim, 0.3, 0.6, PHI):
        for method in ("grid-2d", "radial"):
            got, want = lim._integral(f, r_out, method), _one_shot_grid(lim, f, r_out, method)
            if method == "radial" or model is ISO:
                assert got == want, (name, method)
            else:
                assert abs(got - want) <= 1e-15 * want, (name, method)


def test_mode_profile_does_not_depend_on_its_row_blocks(monkeypatch):
    # 8,192 table radii and radii within 1e-14 of the circle, where the
    # singular rule and the fine geometric ones take over, in blocks of one
    # row, of a few rows, and of all rows of a rule
    r = np.concatenate([np.linspace(0.0, 6.0, 8192), [1.0],
                        1.0 + np.arange(-10, 11) * 1e-15, 1.0 + np.array([-1e-14, 1e-14])])
    want = mean_value_mode_profile(0.5, 2, r)
    for block in (1, 1000, 1 << 30):
        monkeypatch.setattr(potentials, "BLOCK_POINTS", block)
        got = mean_value_mode_profile(0.5, 2, r)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), block


@pytest.mark.parametrize("call", [
    lambda lim: lim.density_integral(TestFunction(0.65, 0.15), "monte-carlo"),
    lambda lim: lim.density_integral(TestFunction(0.65, 0.15), "grid-2d"),
    lambda lim: lim.mu_interval(0.5, 0.8, "grid-2d"),
    lambda lim: lim.monte_carlo(0.5, 0.8, TestFunction(0.65, 0.15)),
], ids=["density-monte-carlo", "density-grid-2d", "mu-grid-2d", "pair-monte-carlo"])
def test_limiting_integrals_stay_in_bounded_memory(call):
    # the test-09 model at 2,000,000 samples: a block of 2^16 points takes
    # a few MB of scratch, the whole integrand as one array 48-118 MB
    lim = LimitingMeasure(ANISO, 1.0, samples=2_000_000)
    tracemalloc.start()
    try:
        call(lim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# the envelope m0 + eps |g_3| of this model peaks at r ~ 4.66 (value 1.5503),
# past the r <= 3 a scan once covered
LATE_PEAK = PotentialModel.anisotropic(0.1, 0.9, 3)


def test_envelope_peak_past_r3():
    assert LimitingMeasure(LATE_PEAK, 1.0).envelope_peak() > 1.55


def test_mu_interval_near_a_late_peak():
    lim = LimitingMeasure(LATE_PEAK, 1.0, samples=2_000_000)
    grid = lim.mu_interval(1.52, 1.6, "grid-2d")
    mc = lim.mu_interval(1.52, 1.6, "monte-carlo")
    assert grid > 0.0
    assert abs(grid - mc) / mc < 1e-2


def test_density_integral_near_a_late_peak():
    lim = LimitingMeasure(LATE_PEAK, 1.0)
    phi = TestFunction(1.56, 0.03)
    radial = lim.density_integral(phi, "radial")
    grid = lim.density_integral(phi, "grid-2d")
    assert radial > 0.0
    assert abs(radial - grid) / radial < 5e-3


def test_envelope_rising_at_scan_end_raises():
    lim = LimitingMeasure(PotentialModel.anisotropic(0.01, 0.99, 20), 1.0)
    with pytest.raises(MethodError, match="still rising"):
        lim.envelope_peak()
    with pytest.raises(MethodError, match="still rising"):
        lim.mu_interval(0.5, 0.6, "grid-2d")


def _level_radius_oracle(lim, level):
    """The level radius by plain scalar bisection: double out from the scanned
    peak radius until the envelope misses the level, then halve the bracket
    one envelope value at a time until its ends are adjacent floats."""
    r, _, i = lim._scan
    lo, hi = float(r[i]), max(2.0 * float(r[i]), 1.0)
    while lim.envelope(hi) >= level:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if lim.envelope(mid) >= level:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("model, levels", [
    (ISO, [0.5, 0.2, 0.05, 0.01]),
    (ANISO, [0.5, 0.2, 0.05, 0.01]),
    (LATE_PEAK, [1.5, 1.0, 0.5]),
], ids=["isotropic", "anisotropic", "late-peak"])
def test_level_radius_matches_scalar_bisection(model, levels):
    # levels near the peak, on the first rungs of the ladder and past r = 50
    # (0.01, or 0.5 at rho = 0.1), all in one call.  The envelope is not
    # monotone at the rounding level, so the two searches, which cut their
    # brackets at different radii, may see level crossings a rounding of the
    # envelope apart: 1 ulp plus 2 eps of the level, carried through the
    # envelope's slope.
    lim = LimitingMeasure(model, 1.0)
    levels = [0.9 * lim.envelope_peak()] + levels
    lo, hi = lim._level_bracket(levels)
    assert np.array_equal(np.nextafter(lo, np.inf), hi)
    assert lim._level_radius(levels) == hi.tolist()
    assert hi[-1] > 50.0
    for level, got in zip(levels, hi):
        _, want = _level_radius_oracle(lim, level)
        slope = abs(lim.envelope(want * (1 + 1e-6)) - lim.envelope(want * (1 - 1e-6))) / (
            2e-6 * want)
        tol = np.spacing(want) + 2.0 * np.finfo(float).eps * level / slope
        assert abs(got - want) <= tol, (level, got, want)


@pytest.mark.parametrize("model, lowest", [(ISO, 2e-3), (ANISO, 2e-3), (LATE_PEAK, 0.3)],
                         ids=["isotropic", "anisotropic", "late-peak"])
def test_level_radius_does_not_depend_on_its_batch(model, lowest):
    # every envelope value depends on its own radius only, so each level's
    # cuts and brackets are the same in a batch of 60 levels and alone
    lim = LimitingMeasure(model, 1.0)
    levels = lim.envelope_peak() * np.geomspace(0.95, lowest, 60)
    alone = [lim._level_radius([t])[0] for t in levels]
    assert lim._level_radius(levels) == alone
    assert lim._level_radius(levels[::-1]) == alone[::-1]


def test_level_radius_unbounded_raises():
    # m0(r) r^rho -> 1: a level below about (1e9)^-rho is still reached past 1e9
    lim = LimitingMeasure(ISO, 1.0)
    lim._level_radius([1e-4])  # reached out to about 1e8: bounded
    with pytest.raises(MethodError, match="unbounded"):
        lim._level_radius([0.3, 1e-5])


@pytest.mark.parametrize("kwargs", [
    {"samples": 0}, {"samples": -5}, {"samples": 2.5}, {"samples": True},
    {"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.0}, {"seed": False},
], ids=["samples-zero", "samples-negative", "samples-float", "samples-bool",
        "seed-negative", "seed-too-large", "seed-float", "seed-bool"])
def test_limiting_measure_checks_samples_and_seed(kwargs):
    (name, _), = kwargs.items()
    with pytest.raises(ValueError, match=name):
        LimitingMeasure(ISO, 1.0, **kwargs)


def test_density_integral_checks_method_first():
    # the method is checked before the early returns for a zero amplitude
    # and for a test function above the envelope peak
    zero = LimitingMeasure(PotentialModel.isotropic(0.5, amplitude=0.0), 1.0)
    high = LimitingMeasure(ISO, 1.0)
    for lim, phi in ((zero, PHI), (high, TestFunction(9.0, 0.5))):
        assert lim.density_integral(phi, "grid-2d") == 0.0
        with pytest.raises(ValueError, match="bogus"):
            lim.density_integral(phi, method="bogus")


def test_density_integral_stieltjes_partition_oracle():
    # int phi dmu by midpoint Riemann-Stieltjes sums over a partition of
    # supp phi, against the direct radial integral
    lim = LimitingMeasure(ISO, 1.0)
    direct = lim.density_integral(PHI, "radial")
    for n in (100, 400):
        edges = np.linspace(0.2, 0.8, n + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += float(PHI(0.5 * (a + b))) * lim.mu_interval(a, b, "radial-inversion")
        if n == 400:
            assert abs(total - direct) / direct < 0.005


def test_schatten_norm_examples():
    vals = np.array([3.0, -1.0, 2.0])
    assert abs(schatten_norm(vals, 1.0) - 6.0) < 1e-15
    A = np.array([[1.0, 0.3, 0.0], [0.3, -0.7, 0.1], [0.0, 0.1, 0.4]])
    spec = sym_eig(A)
    assert abs(schatten_norm(spec, 2.0) - np.linalg.norm(A, "fro")) < 1e-10
    e = 2.0 ** -np.arange(1, 21)
    ell = 3.0
    j = np.arange(1, 21, dtype=float)
    ref = float(np.max(j ** (1.0 / ell) * np.sort(e)[::-1]))
    assert abs(schatten_norm(e, ell, weak=True) - ref) < 1e-15
    with pytest.raises(ValueError):
        schatten_norm(vals, 0.5)


@pytest.mark.parametrize("ell", [math.inf, -math.inf, math.nan])
def test_schatten_norm_refuses_non_finite_ell(ell):
    # inf used to return max |e_j| and nan a NaN
    with pytest.raises(ValueError, match="ell"):
        schatten_norm([0.5, -0.25], ell)


def test_convergence_study_zero_potential():
    zero = PotentialModel.gaussian_bump(0.0, 1.0)
    rows = convergence_study(zero, 1.0, 0.5, PHI, [2, 4], 0.19)
    for r in rows:
        assert r.lhs == 0.0 and r.rhs == 0.0


def test_convergence_study_bump_scaled_clusters_shrink():
    bump = PotentialModel.gaussian_bump(1.0, 1.0)
    rows = convergence_study(bump, 1.0, 0.5, PHI, [8, 64], 0.19)
    assert rows[0].rhs == 0.0
    assert rows[1].lhs <= rows[0].lhs


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.5, PHI, [], 0.1)
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.5, PHI, [4, 2], 0.1)
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.5, PHI, [2, 4], 0.3)
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.7, PHI, [2], 0.1)
    # NaN used to pass the rho check; only the trace's certificate stopped it
    for model in (ISO, PotentialModel.gaussian_bump()):
        with pytest.raises(ValueError, match="^rho must be finite"):
            convergence_study(model, 1.0, float("nan"), PHI, [2], 0.1)


@pytest.mark.parametrize("mode,q", [(2, 2), (2, 8), (3, 4), (1, 2), (2, 32)])
def test_level_spectrum_chains_match_dense_oracle(mode, q):
    # mode m splits the block into m residue chains; mode 1 is one chain,
    # the whole block; the oracle is a dense eigh of the toeplitz_matrix
    # view; (2, 32) is the q = 32 level of criterion 09
    model = PotentialModel.anisotropic(0.5, 0.3, mode)
    values, k_max, tail, residual, summary = level_spectrum(model, 1.0, q, 0.47, 0.5)
    blk = toeplitz_matrix(model, LandauConfig(B=1.0, q=q, k_max=k_max))
    dense = np.linalg.eigh(blk.entries)[0]
    assert np.max(np.abs(values - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert summary == blk.summary()
    assert tail == blk.truncation_tail_bound
    assert residual <= 1e-12


@pytest.mark.parametrize("q", [8, 32])
def test_level_spectrum_summary_is_the_diagonal_summary(q):
    # the summary is taken from the level's diagonal in k order, as the block
    # summary is, not from the sorted spectrum, whose sum rounds differently
    values, k_max, tail, _, summary = level_spectrum(ISO, 1.0, q, 0.19, 0.5)
    diag = radial_diagonal(ISO, LandauConfig(B=1.0, q=q, k_max=k_max))
    assert summary == _block_summary(q, 1.0, k_max, 0, diag, tail)
    assert np.array_equal(values, np.sort(diag))


def _private_lcl_imports(source: str) -> list[str]:
    """The underscore-prefixed names that `source` imports from lcl modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "lcl":
            continue
        found += [a.name for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("source, found", [
    ("from .landau import _row_bound", True),
    ("from .landau import level_spectrum, _level_bands as bands", True),
    ("from lcl.eigen import _sturm_count", True),
    ("from . import _io", True),
    ("from .landau import level_spectrum", False),
    ("from ._io import write_csv", False),
    ("from .landau import landau_level as _level", False),
    ("from numpy.linalg import _umath_linalg", False),
    ("from __future__ import annotations", False),
], ids=range(9))
def test_private_import_scan_finds_private_names(source, found):
    assert bool(_private_lcl_imports(source)) == found


def test_measures_imports_no_private_lcl_name():
    # the level's internals stay in landau: measures reads a level only
    # through landau_level and level_spectrum; symbols reads a model's
    # radial profile only through its public methods
    for module in (measures, symbols):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert _private_lcl_imports(source) == [], module.__name__


def test_chain_solve_keeps_anisotropic_sweep_lhs():
    # lhs of the dense solve, recorded from the seed commit in
    # perfbench/reference/aniso-block.json
    want = {8: 4.569056824386879, 16: 4.562647548508397, 32: 4.559490773070477}
    rows = convergence_study(ANISO, 1.0, 0.5, TestFunction(0.65, 0.15),
                             [8, 16, 32], 0.47)
    for r in rows:
        assert abs(r.lhs - want[r.q]) <= 1e-9 * want[r.q], (r.q, r.lhs)


@pytest.mark.parametrize("amplitude", [1.0, -1.0])
def test_level_spectrum_window_is_the_full_spectrum_inside_it(amplitude):
    model = PotentialModel.anisotropic(0.5, 0.3, 2, amplitude=amplitude)
    lo, hi = sorted(amplitude * s * 17 ** -0.25 for s in (0.5, 0.8))
    full, k_max, tail, _, summary = level_spectrum(model, 1.0, 8, 0.47, 0.5)
    values, k_w, tail_w, residual, summary_w = level_spectrum(
        model, 1.0, 8, 0.47, 0.5, (lo, hi))
    want = full[(full > lo) & (full < hi)]
    assert len(values) == len(want) > 100
    assert np.max(np.abs(values - want)) <= 1e-12 * np.max(np.abs(full))
    assert (k_w, tail_w, summary_w) == (k_max, tail, summary)
    assert residual <= 1e-12


def test_sweep_and_spectrum_need_no_dense_solver(monkeypatch, tmp_path):
    # the criterion-09 sweep and `lcl spectrum` solve every chain by Sturm
    # counts; neither dense LAPACK solver is called.  The limiting side's
    # Gauss-Jacobi head (Golub-Welsch, 24 x 24 eigh) is built and cached first
    from lcl.cli import main

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    phi = TestFunction(0.65, 0.15)
    LimitingMeasure(ANISO, 1.0).density_integral(phi)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    want = {8: 4.569056824386879, 16: 4.562647548508397}
    rows = convergence_study(ANISO, 1.0, 0.5, phi, [8, 16], 0.47)
    for r in rows:
        assert abs(r.lhs - want[r.q]) <= 1e-9 * want[r.q], (r.q, r.lhs)
    cfg = {"model": {"kind": "anisotropic-long-range", "rho": 0.5, "epsilon": 0.3,
                     "mode": 2, "amplitude": 1.0},
           "B": 1.0, "rho": 0.5, "q_list": [8, 16, 32, 48],
           "phi": {"center": 0.65, "half_width": 0.15}, "delta": 0.47,
           "seed": 20240801, "output_dir": "out"}
    path = tmp_path / "aniso.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "spectrum"
    assert main(["spectrum", "--config", str(path), "--output", str(out), "--q", "8"]) == 0
    assert len((out / "spectrum_q8.csv").read_text().splitlines()) == 1 + 636


def test_level_spectrum_dense_cap_is_per_chain():
    # dimension 4676 > 4096 in four chains of 1169
    mode4 = PotentialModel.anisotropic(0.5, 0.3, 4)
    values, k_max, _, _, summary = level_spectrum(mode4, 1.0, 2, 0.2, 0.5)
    assert summary["dimension"] == len(values) == 4676
    diag, bands = _level_bands(mode4, LandauConfig(B=1.0, q=2, k_max=k_max))
    assert list(bands) == [4]
    band = bands[4]
    scale = float(np.max(np.abs(values)))
    tol = 1e-12 * len(values) * scale
    assert abs(np.sum(values) - np.sum(diag)) <= tol
    assert abs(np.sum(values ** 2) - np.sum(diag ** 2) - 2.0 * np.sum(band ** 2)) <= tol * scale
    # shifts in the middle of 64 gaps of the merged spectrum
    i = np.linspace(0, len(values) - 2, 64).astype(int)
    shifts = 0.5 * (values[i] + values[i + 1])
    counts = sum(_sturm_count(diag[r::4], band[r::4], shifts) for r in range(4))
    assert np.array_equal(counts, np.searchsorted(values, shifts))


def test_level_spectrum_chain_above_dense_cap():
    # mode 2 at q = 4: dimension 8418 in two chains of 4209
    with pytest.raises(CapacityError, match=r"\b4209\b.*\b4096\b"):
        level_spectrum(ANISO, 1.0, 4, 0.2, 0.5)


def test_rows_to_csv_format(tmp_path):
    rows = [ConvergenceRow(q=2, lambda_q=5.0, k_max=10, lhs=1.5, rhs=1.6,
                           relative_gap=0.0625)]
    path = tmp_path / "rows.csv"
    rows_to_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == "q,lambda_q,k_max,lhs,rhs,rel_gap"
    assert "0.0625" in text


def test_cluster_confinement_constant():
    # scaled spectral radius stays bounded: a 25% margin over the q = 8
    # calibration holds through q = 256, and so does the sharp limiting
    # bound sup B^rho |transform| = m(1)
    from lcl.potentials import mean_value_radial_profile
    B = 1.0
    caps = {}
    for q in (8, 32, 128, 256):
        cfg = LandauConfig(B=B, q=q, k_max=4 * q)
        d = radial_diagonal(ISO, cfg)
        lam = landau_level(B, q)
        caps[q] = lam ** 0.25 * float(np.max(np.abs(d)))
    C = 1.25 * caps[8]
    sharp = mean_value_radial_profile(0.5, 1.0) * (1.0 + 1e-3)
    assert all(v <= C for v in caps.values())
    assert all(v <= sharp for v in caps.values())


def test_counting_tracks_limiting_measure():
    # lambda^-1 mu_q([a,b]) approaches mu([a,b]); endpoints nudged off any
    # scaled eigenvalue so both endpoint measures vanish
    B, rho = 1.0, 0.5
    lim = LimitingMeasure(ISO, B)
    alpha, beta = 0.3, 0.6
    ref = lim.mu_interval(alpha, beta, "radial-inversion")
    gaps = {}
    for q in (8, 64):
        from lcl.landau import truncation_bound, _row_bound
        K = truncation_bound(ISO, B, q, 0.25)
        cfg = LandauConfig(B=B, q=q, k_max=K)
        d = radial_diagonal(ISO, cfg)
        lam = landau_level(B, q)
        m = EmpiricalClusterMeasure.from_values(q, lam, rho, d,
                                                _row_bound(ISO, B, q, K + 1))
        a, b = alpha, beta
        scaled = m.scaled_eigenvalues
        while np.any(np.abs(scaled - a) < 1e-9):
            a += 1e-9
        while np.any(np.abs(scaled - b) < 1e-9):
            b += 1e-9
        gaps[q] = abs(eigenvalue_counting(m, a, b) / lam - ref) / ref
    assert gaps[64] < 0.15
    assert gaps[64] <= gaps[8] + 1e-12


def test_averaging_principle_consistency():
    # Monte Carlo over orbit centers at E = lambda_q reproduces the
    # limiting-side integral within 10%
    B, rho = 1.0, 0.5
    E = landau_level(B, 128)
    lim = LimitingMeasure(ISO, B)
    ref = lim.density_integral(PHI, "radial")
    rng = np.random.Generator(np.random.Philox(20240801))
    r_out = 30.0 * math.sqrt(E) / B
    n = 4000
    rr = r_out * np.sqrt(rng.random(n))
    th = 2.0 * math.pi * rng.random(n)
    vals = np.array([orbit_average(ISO, (r * math.cos(t), r * math.sin(t)), E, B)
                     for r, t in zip(rr, th)])
    est = (float(np.mean(PHI(E ** (rho / 2.0) * vals)))
           * math.pi * r_out ** 2 * B / (2.0 * math.pi * E))
    assert abs(est - ref) / ref < 0.10


def test_schatten_bound_for_level_blocks():
    # ell-norms of the blocks against c lambda^(1/ell - rho/2) (1+ln lambda)^(1/ell)
    B, rho, ell = 1.0, 0.5, 8.0
    ratios = {}
    for q in (8, 32, 128):
        cfg = LandauConfig(B=B, q=q, k_max=30000)
        d = radial_diagonal(ISO, cfg)
        lam = landau_level(B, q)
        # analytic bound for the discarded indices, d_k <~ (2(q+k)+1)^(-rho/2),
        # summed as an integral; included in the norm instead of dropped
        u0 = 2.0 * (q + 30000) + 1.0
        tail = u0 ** (1.0 - ell * rho / 2.0) / (ell * rho - 2.0)
        norm = (float(np.sum(np.abs(d) ** ell)) + tail) ** (1.0 / ell)
        assert tail < 1e-2 * norm ** ell
        ratios[q] = norm / (lam ** (1.0 / ell - rho / 2.0)
                            * (1.0 + math.log(lam)) ** (1.0 / ell))
    c = max(ratios.values())
    assert all(v > 0.3 * c for v in ratios.values())
    # the p-norm bound (B/2pi) ||V||_p^p with p = 5 on the retained entries
    from lcl.specfun import legendre_rule
    x, w = legendre_rule(400)
    hi = 2000.0
    r = 0.5 * hi * (x + 1.0)
    wr = 0.5 * hi * w
    vp = float(np.dot(wr, (1.0 + r * r) ** (-0.5 * 5.0 / 2.0) * r)) * B  # /(2pi) * 2pi
    for q in (2, 8):
        cfg = LandauConfig(B=B, q=q, k_max=30000)
        d = radial_diagonal(ISO, cfg)
        assert float(np.sum(np.abs(d) ** 5)) <= vp
