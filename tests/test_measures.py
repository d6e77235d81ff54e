import math

import mpmath as mp
import numpy as np
import pytest

from lcl.eigen import sym_eig
from lcl.errors import ContractError, MethodError
from lcl.landau import LandauConfig, landau_level, radial_diagonal, toeplitz_matrix
from lcl.measures import (ConvergenceRow, EmpiricalClusterMeasure,
                          LimitingMeasure, TestFunction, convergence_study,
                          eigenvalue_counting, limiting_density_integral,
                          mu_interval, rows_to_csv, schatten_norm,
                          trace_functional)
from lcl.potentials import PotentialModel, orbit_average

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
    lim_n = LimitingMeasure(neg, 1.0)
    lim_p = LimitingMeasure(ISO, 1.0)
    got = lim_n.mu_interval(-0.6, -0.3, "radial-inversion")
    ref = lim_p.mu_interval(0.3, 0.6, "radial-inversion")
    assert abs(got - ref) < 1e-12 * ref


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


def test_convergence_study_parallel_matches_serial():
    rows1 = convergence_study(ISO, 1.0, 0.5, PHI, [2, 4], 0.19)
    rows2 = convergence_study(ISO, 1.0, 0.5, PHI, [2, 4], 0.19, jobs=2)
    assert rows1 == rows2


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.5, PHI, [], 0.1)
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.5, PHI, [4, 2], 0.1)
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.5, PHI, [2, 4], 0.3)
    with pytest.raises(ValueError):
        convergence_study(ISO, 1.0, 0.7, PHI, [2], 0.1)


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
