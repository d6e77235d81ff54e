import json
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebpts1, chebpts2

from lcl import landau, potentials
from lcl.errors import CapacityError, ContractError
from lcl.landau import (BasisIndex, LandauConfig, _level_rows, _window_quadrature,
                        eigen_residual_check, indicator_basis_mass,
                        landau_level, radial_basis, radial_diagonal,
                        toeplitz_entry, toeplitz_matrix, truncation_bound)
from lcl.measures import TestFunction, convergence_study
from lcl.potentials import PotentialModel
from lcl.specfun import gauss_nodes, laguerre_weighted, legendre_rule

ISO = PotentialModel.isotropic(0.5)
ANISO = PotentialModel.anisotropic(0.5, 0.3, 2)
BUMP = PotentialModel.gaussian_bump(1.0, 1.0)


def _exact_diagonal(model, B, q, ks):
    """Diagonal entries for k >= 0 by per-row quadrature alone: the oracle
    for the Chebyshev fit of the far window."""
    v0 = model.angular_modes()[0].radial
    ks = np.asarray(ks, dtype=float)
    order = landau._QUAD_BASE + math.ceil(landau._NODES_PER_N * q)  # the band's rule
    return np.concatenate([_window_quadrature(v0, B, *_level_rows(q, c), *_level_rows(q, c), order)
                           for c in np.array_split(ks, -(-len(ks) // 1024))])


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_landau_level_values():
    assert landau_level(1.0, 0) == 1.0
    assert landau_level(2.0, 3) == 14.0


def test_landau_level_gaps():
    B = 1.7
    levels = [landau_level(B, q) for q in range(6)]
    gaps = np.diff(levels)
    assert np.allclose(gaps, 2.0 * B)
    assert np.all(gaps > 0)


@pytest.mark.parametrize("B", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda B: landau_level(B, 2),
    lambda B: LandauConfig(B=B, q=1, k_max=3),
    lambda B: radial_basis(BasisIndex(2, 1), B, 0.5),
    lambda B: toeplitz_entry(ISO, B, 2, 0, 0),
], ids=["landau_level", "LandauConfig", "radial_basis", "toeplitz_entry"])
def test_field_strength_must_be_finite_and_positive(call, B):
    with pytest.raises(ValueError, match="B must be finite and positive"):
        call(B)


@pytest.mark.parametrize("q", [-1, True, 2.5, np.float64(2.0)],
                         ids=["negative", "bool", "fraction", "numpy-float"])
@pytest.mark.parametrize("call", [
    lambda q: landau_level(1.0, q),
    lambda q: LandauConfig(B=1.0, q=q, k_max=10),
    lambda q: truncation_bound(ISO, 1.0, q, 0.19),
    lambda q: toeplitz_entry(ISO, 1.0, q, 0, 0),
], ids=["landau_level", "LandauConfig", "truncation_bound", "toeplitz_entry"])
def test_level_index_must_be_a_nonnegative_integer(call, q):
    # landau_level(1.0, 2.5) used to return 6.0, and truncation_bound 2468
    with pytest.raises(ValueError, match="^q must be an integer >= 0"):
        call(q)


def test_level_index_may_be_a_numpy_integer():
    assert landau_level(2.0, np.int64(3)) == 14.0
    assert LandauConfig(B=1.0, q=np.int32(2), k_max=5).dimension == 8
    assert LandauConfig(B=1.0, q=2, k_max=np.int64(5)).dimension == 8


def test_basis_index_validation():
    with pytest.raises(ValueError):
        BasisIndex(3, -4)
    idx = BasisIndex(3, -2)
    assert idx.n == 1 and idx.alpha == 2
    idx = BasisIndex(3, 5)
    assert idx.n == 3 and idx.alpha == 5


def test_radial_basis_vanishes_at_origin_for_k_nonzero():
    assert radial_basis(BasisIndex(2, 1), 1.0, 0.0) == 0.0
    assert radial_basis(BasisIndex(2, -2), 1.0, 0.0) == 0.0
    assert radial_basis(BasisIndex(2, 0), 1.0, 0.0) == 1.0


def test_radial_basis_ground_state():
    # R_{0,0}(r) = sqrt(B) e^{-B r^2/4}
    for B in (1.0, 2.5):
        r = np.linspace(0.0, 3.0, 7)
        got = radial_basis(BasisIndex(0, 0), B, r)
        ref = math.sqrt(B) * np.exp(-B * r * r / 4.0)
        assert np.allclose(got, ref, rtol=1e-14)
    assert radial_basis(BasisIndex(0, 0), 1.0, 0.0) == 1.0


@pytest.mark.parametrize("r", [-1.0, [0.5, -1e-300], float("nan"), float("inf")],
                         ids=["negative", "array-negative", "nan", "inf"])
def test_radial_basis_checks_r(r):
    with pytest.raises(ValueError, match="r must be finite and >= 0"):
        radial_basis(BasisIndex(2, 1), 1.0, r)


@pytest.mark.parametrize("q,k", [(0, 0), (3, -3), (7, 2), (40, 200)])
def test_radial_basis_normalization_gauss_laguerre_oracle(q, k):
    # independent route: plain Gauss-Laguerre in xi with the e^{+x} part of
    # the integrand folded into the weights through the damped recurrence
    idx = BasisIndex(q, k)
    order = 160
    rule = gauss_nodes("laguerre", order)
    x = rule.nodes
    # w_i e^{x_i} = x_i / ((order+1) Lhat_{order+1}(x_i))^2, Lhat damped
    we = x / ((order + 1.0) * laguerre_weighted(order + 1, x)) ** 2
    from lcl.specfun import laguerre_function
    psi = laguerre_function(idx.n, float(idx.alpha), x)
    val = float(np.dot(we, psi * psi))
    assert abs(val - 1.0) < 1e-10


@pytest.mark.parametrize("q", [10, 40])
def test_lowest_angular_state_peaks_at_orbit_radius(q):
    B = 1.0
    r = np.linspace(1e-3, 2.0 * math.sqrt((2 * q + 1) / B), 40000)
    dens = r * radial_basis(BasisIndex(q, -q), B, r) ** 2
    r_star = r[int(np.argmax(dens))]
    assert abs(r_star - math.sqrt((2 * q + 1) / B)) / math.sqrt((2 * q + 1) / B) < 0.05


def test_eigen_residual_small_for_valid_convention():
    assert eigen_residual_check(BasisIndex(0, 0), 1.0) < 1e-6
    assert eigen_residual_check(BasisIndex(2, -1), 1.0) < 1e-5


def test_eigen_residual_detects_flipped_sign():
    assert eigen_residual_check(BasisIndex(2, -1), 1.0, operator_k=1) > 0.1


def test_cross_level_orthonormality():
    # Gram of {R_{k,q'}} for fixed k, q' in {q-1, q, q+1} under int . r dr
    from lcl.specfun import laguerre_function
    B, k, q = 1.0, 3, 6
    x, w = legendre_rule(400)
    hi = 120.0
    xi = 0.5 * hi * (x + 1.0)
    ww = 0.5 * hi * w
    gram = np.empty((3, 3))
    for i, qi in enumerate((q - 1, q, q + 1)):
        for j, qj in enumerate((q - 1, q, q + 1)):
            pi = laguerre_function(BasisIndex(qi, k).n, float(k), xi)
            pj = laguerre_function(BasisIndex(qj, k).n, float(k), xi)
            gram[i, j] = np.dot(ww, pi * pj)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8


def test_toeplitz_radial_is_diagonal():
    cfg = LandauConfig(B=1.0, q=3, k_max=20)
    blk = toeplitz_matrix(ISO, cfg)
    off = blk.entries - np.diag(np.diag(blk.entries))
    assert blk.bandwidth == 0
    assert np.max(np.abs(off)) == 0.0


@pytest.mark.parametrize("q", [0, 1, 2])
def test_bump_trace_identity(q):
    # sum of diagonal entries over all k equals (B/2pi) int V = A B w^2
    cfg = LandauConfig(B=1.0, q=q, k_max=80)
    d = radial_diagonal(BUMP, cfg)
    assert abs(float(d.sum()) - 1.0) < 1e-6


def test_bump_trace_identity_other_parameters():
    A, w, B = 0.7, 1.3, 2.0
    bump = PotentialModel.gaussian_bump(A, w)
    cfg = LandauConfig(B=B, q=1, k_max=120)
    d = radial_diagonal(bump, cfg)
    assert abs(float(d.sum()) - A * B * w * w) < 1e-6


def test_anisotropic_bandwidth_two():
    cfg = LandauConfig(B=1.0, q=2, k_max=24)
    blk = toeplitz_matrix(ANISO, cfg)
    assert blk.bandwidth == 2
    A = blk.entries
    assert np.max(np.abs(A - A.T)) == 0.0
    assert np.max(np.abs(np.triu(A, 3))) == 0.0
    band1 = np.diagonal(A, 1)
    assert np.max(np.abs(band1)) == 0.0
    assert np.max(np.abs(np.diagonal(A, 2))) > 0.0


def test_contraction_bound():
    sup = ANISO.sup_abs()
    cfg = LandauConfig(B=1.0, q=3, k_max=60)
    blk = toeplitz_matrix(ANISO, cfg)
    assert np.max(np.abs(blk.entries)) <= sup


def test_toeplitz_entry_consistency():
    # the single entry is a one-row band of the block: the same quadrature,
    # so the same bits
    cfg = LandauConfig(B=1.0, q=2, k_max=12)
    blk = toeplitz_matrix(ANISO, cfg)
    for (k1, k2) in ((0, 0), (3, 1), (-1, -1), (5, 3), (-2, 0), (0, -2), (-1, 1)):
        want = blk.entries[k1 + 2, k2 + 2]
        got = toeplitz_entry(ANISO, 1.0, 2, k1, k2)
        assert got == want
    assert toeplitz_entry(ANISO, 1.0, 2, 4, 1) == 0.0
    # q = 48: every k < 0 row of the band (its degrees q + k and q + k + 2 lie
    # below q when k < -2) and sampled k >= 0 rows, band and diagonal: the
    # rule is the level's, not the batch's, so a row alone has the block's bits
    q = 48
    diag, bands = landau._level_bands(ANISO, LandauConfig(B=1.0, q=q, k_max=64))
    ks = list(range(-q, 0)) + [0, 1, 5, 17, 40, 62]
    got = np.array([toeplitz_entry(ANISO, 1.0, q, k, k + 2) for k in ks])
    assert np.array_equal(got.view(np.int64), bands[2][np.add(ks, q)].view(np.int64))
    ks = [-q, -17, -3, -1, 0, 1, 40, 64]
    got = np.array([toeplitz_entry(ANISO, 1.0, q, k, k) for k in ks])
    assert np.array_equal(got.view(np.int64), diag[np.add(ks, q)].view(np.int64))
    # q = 130: the band's rows go in chunks of 128 from k = -q, so the first
    # chunk boundary falls between k = -3 and k = -2, among the k < 0 rows
    q = 130
    _, bands = landau._level_bands(ANISO, LandauConfig(B=1.0, q=q, k_max=12))
    ks = list(range(-q, 0)) + [0, 3, 10]
    got = np.array([toeplitz_entry(ANISO, 1.0, q, k, k + 2) for k in ks])
    assert np.array_equal(got.view(np.int64), bands[2][np.add(ks, q)].view(np.int64))
    # a fitted band window (criterion 09's q = 48, k in [192, 3578]): the
    # single entry is the exact row, within the fit's certificate
    q = 48
    _, bands = landau._level_bands(ANISO, LandauConfig(B=1.0, q=q, k_max=3580))
    for k in (192, 1000, 3578):
        want = bands[2][k + q]
        assert abs(toeplitz_entry(ANISO, 1.0, q, k + 2, k) - want) <= 1e-9 * abs(want), k


def test_toeplitz_entry_non_finite_fails_loudly(monkeypatch):
    # the diagonal comes from the Laplace-transform kernel
    monkeypatch.setattr(landau, "laguerre_laplace",
                        lambda n, a, c: np.full((len(n), len(c)), np.nan))
    with pytest.raises(ContractError, match=r"entry-quadrature.*q=640\b.*j=0\b.*k=0\b"):
        toeplitz_entry(ISO, 1.0, 640, 0, 0)


def test_toeplitz_entry_non_finite_band_fails_loudly(monkeypatch):
    # the anisotropic band stays on the batched quadrature: mode 2's profile
    # is NaN there, and the diagonal keeps its own
    modes = landau._mode_map
    monkeypatch.setattr(landau, "_mode_map",
                        lambda model: {**modes(model), 2: lambda r: np.full_like(r, np.nan)})
    with pytest.raises(ContractError, match=r"entry-quadrature.*q=40\b.*j=2\b.*k=-1\b"):
        toeplitz_entry(ANISO, 1.0, 40, 1, -1)
    assert math.isfinite(toeplitz_entry(ANISO, 1.0, 40, 1, 1))


def test_diagonal_sum_certificate_fails_loudly(monkeypatch):
    # 24 nodes in log s cannot resolve the mixture; the quadrature in xi sees it
    monkeypatch.setattr(potentials, "_EULER_NODES", 24)
    with pytest.raises(ContractError,
                       match=r"diagonal-sum.*q=8\b.*k=-?\d+:.*800-node quadrature differ by \d"):
        radial_diagonal(ISO, LandauConfig(B=1.0, q=8, k_max=24))


def test_diagonal_sum_certificate_catches_a_kernel_fault(monkeypatch):
    # a kernel off by 1e-9 passes any node-count comparison of the sum with
    # itself; the certificate's quadrature does not call the kernel
    kernel = landau.laguerre_laplace
    monkeypatch.setattr(landau, "laguerre_laplace",
                        lambda n, alpha, c: kernel(n, alpha, c) * (1.0 + 1e-9))
    with pytest.raises(ContractError, match=r"diagonal-sum.*q=8\b.*k=-?\d+:.*differ by \d\.\d+e-(09|10) "):
        radial_diagonal(ISO, LandauConfig(B=1.0, q=8, k_max=24))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("B", [1.0, 2.5])
def test_long_range_ground_entry_matches_mpmath(rho, B):
    # q = 0, k = 0: psi^2 = e^-t, so d = int e^-t (1 + 2t/B)^(-rho/2) dt
    with mp.workdps(30):
        want = float(mp.quad(lambda t: mp.exp(-t) * (1 + 2 * t / B) ** (-mp.mpf(rho) / 2),
                             [0, 1, 10, mp.inf]))
    got = toeplitz_entry(PotentialModel.isotropic(rho), B, 0, 0, 0)
    # measured: at most 4.3e-16
    assert abs(got - want) <= 1e-15 * want


def _diagonal_at_base(model, q, ks, base, monkeypatch):
    """The quadrature oracle: _band_rows with its rule base raised to `base`."""
    with monkeypatch.context() as m:
        m.setattr(landau, "_QUAD_BASE", base)
        return landau._band_rows(model.angular_modes()[0].radial, 1.0, q, ks, 0)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_diagonal_sum_matches_base_400_quadrature(rho, monkeypatch):
    # the quadrature at its production base 80 is off by up to ~2e-9 near
    # k = 0; at base 400 it agrees with the sum to rounding
    model = PotentialModel.isotropic(rho)
    worst, gap80 = 0.0, 0.0
    for q in (0, 1, 64, 256):
        ks = np.arange(max(-q, -3), 4)
        got = landau._diagonal_rows(model, 1.0, q, ks)
        want = _diagonal_at_base(model, q, ks, 400, monkeypatch)
        base80 = _diagonal_at_base(model, q, ks, landau._QUAD_BASE, monkeypatch)
        worst = max(worst, _max_rel(got, want))
        gap80 = max(gap80, _max_rel(base80, want))
    print(f"[rho={rho}] sum vs base 400: {worst:.2e}; base 80 vs base 400: {gap80:.2e}")
    assert worst <= 1e-12


def test_bump_diagonal_matches_mpmath(monkeypatch):
    # at B = w = 1 the bump's entry is E(1) = C(2q+k, n) 2^-(2q+k+1) exactly
    # (Chu-Vandermonde), n = q + min(k, 0); both quadrature bases are off by
    # up to 1.3e-12 at q = 256
    worst, gap80, gap400 = 0.0, 0.0, 0.0
    for q in (0, 1, 64, 256):
        ks = np.arange(max(-q, -3), 4)
        with mp.workdps(30):
            want = np.array([float(mp.binomial(2 * q + k, q + min(k, 0))
                                   / mp.mpf(2) ** (2 * q + k + 1)) for k in ks])
        worst = max(worst, _max_rel(landau._diagonal_rows(BUMP, 1.0, q, ks), want))
        gap80 = max(gap80, _max_rel(_diagonal_at_base(BUMP, q, ks, 80, monkeypatch), want))
        gap400 = max(gap400, _max_rel(_diagonal_at_base(BUMP, q, ks, 400, monkeypatch), want))
    print(f"[bump] sum vs mpmath: {worst:.2e}; base 80: {gap80:.2e}; base 400: {gap400:.2e}")
    # measured: 2.8e-14 at q = 256
    assert worst <= 5e-14


@pytest.mark.parametrize("q", [640, 1024])
def test_diagonal_sum_finite_at_high_level(q):
    # no RuntimeWarning either: the suite turns one into an error
    for model in (PotentialModel.isotropic(0.1), PotentialModel.isotropic(0.9), BUMP):
        ks = np.concatenate([np.arange(-q, -q + 4), np.arange(0, 4)])
        d = landau._diagonal_rows(model, 1.0, q, ks)
        assert np.all(np.isfinite(d)) and np.all(d > 0)


@pytest.mark.parametrize("rho", [0.1, 0.9])
def test_diagonal_sum_finite_at_tail_nodes_to_the_hard_cap(rho):
    # the 49 node values of a Chebyshev window [4q, K_HARD_CAP] at q = 256
    q = 256
    u_a, u_b = math.log(4 * q + q + 1.0), math.log(landau.K_HARD_CAP + q + 1.0)
    pts = np.concatenate([chebpts1(landau._CHEB_NODES), chebpts2(landau._CHEB_NODES + 1)])
    ks = np.exp(0.5 * (u_a + u_b) + 0.5 * (u_b - u_a) * pts) - q - 1.0
    d = landau._diagonal_rows(PotentialModel.isotropic(rho), 1.0, q, ks)
    assert np.all(np.isfinite(d)) and np.all(d > 0)
    assert abs(ks.max() - landau.K_HARD_CAP) < 1e-6 * landau.K_HARD_CAP


@pytest.mark.parametrize("model", [ISO, BUMP], ids=["iso", "bump"])
def test_diagonal_row_alone_equals_row_in_batch(model):
    # a width-scan level: k = -q .. 24 at q = 256, one batch
    q = 256
    ks = np.arange(-q, 25)
    batch = landau._diagonal_rows(model, 1.0, q, ks)
    for k in (-q, -q + 1, -37, -1, 0, 7, 24):
        alone = landau._diagonal_rows(model, 1.0, q, np.array([k]))
        assert alone[0] == batch[k + q], k


def test_dense_cap_enforced():
    with pytest.raises(CapacityError):
        toeplitz_matrix(ISO, LandauConfig(B=1.0, q=2, k_max=5000))


def test_band_rows_non_finite_entry_fails_loudly():
    # a profile that is infinite inside r < 1 makes every row non-finite; the
    # entry must not pass as inf or NaN
    def vfun(r):
        return np.where(r < 1.0, np.inf, 1.0)

    with pytest.raises(ContractError, match=r"entry-quadrature.*q=8\b.*j=0\b.*k=0\b"):
        landau._band_rows(vfun, 1.0, 8, np.arange(0, 4), 0)


@pytest.mark.parametrize("q", [640, 1024])
def test_band_rows_finite_at_high_degree(q):
    # the recurrence rescales by powers of two instead of overflowing near 4q
    v0 = ISO.angular_modes()[0].radial
    assert np.all(np.isfinite(landau._band_rows(v0, 1.0, q, np.arange(0, 4), 0)))


def test_truncation_bound_bump_small():
    K = truncation_bound(BUMP, 1.0, 4, 0.25, rho_scale=1.0)
    assert K < 60


def test_truncation_bound_post_hoc_check():
    # discarded diagonal must sit below delta * lambda^(-rho/2) by direct scan
    B, q, delta = 1.0, 16, 0.25
    K = truncation_bound(ISO, B, q, delta)
    lam = landau_level(B, q)
    thr = delta * lam ** (-0.25)
    # exact entries, not the Chebyshev fit, so the bound itself is checked
    d = _exact_diagonal(ISO, B, q, np.arange(K + 1, K + 17))
    assert np.all(d < thr)


def test_chebyshev_diagonal_every_row_q32():
    # test-01 level q = 32: every fitted row k in [4q, k_max] against the oracle
    q = 32
    K = truncation_bound(ISO, 1.0, q, 0.19)
    d = radial_diagonal(ISO, LandauConfig(B=1.0, q=q, k_max=K))
    ks = np.arange(4 * q, K + 1)
    assert _max_rel(d[ks + q], _exact_diagonal(ISO, 1.0, q, ks)) <= 1e-9


def test_chebyshev_diagonal_geometric_sample_q128():
    q = 128
    K = truncation_bound(ISO, 1.0, q, 0.19)
    d = radial_diagonal(ISO, LandauConfig(B=1.0, q=q, k_max=K))
    ks = np.unique(np.rint(np.geomspace(4 * q, K, 64)).astype(int))
    assert ks[0] == 4 * q and ks[-1] == K
    assert _max_rel(d[ks + q], _exact_diagonal(ISO, 1.0, q, ks)) <= 1e-9


def test_chebyshev_diagonal_keeps_trace_sweep_lhs():
    # lhs of the per-row quadrature at every k, recorded from the seed commit
    # in perfbench/reference/radial-sweep.json
    want = {8: 62.995151460829916, 16: 62.99026795698487,
            32: 62.98773423147794, 64: 62.98644312390308,
            128: 62.98579133524444}
    rows = convergence_study(ISO, 1.0, 0.5, TestFunction(0.5, 0.3),
                             [8, 16, 32, 64, 128], 0.19)
    for r in rows:
        assert abs(r.lhs - want[r.q]) <= 1e-9 * want[r.q], (r.q, r.lhs)


def test_chebyshev_certificate_fails_loudly(monkeypatch):
    monkeypatch.setattr(landau, "_CHEB_NODES", 8)
    with pytest.raises(ContractError, match=r"q=32\b.*error \d"):
        radial_diagonal(ISO, LandauConfig(B=1.0, q=32, k_max=26739))


def _aniso_band(q, delta):
    """Band 2 of ANISO's level q at delta as the block assembles it, its rows
    k, and its exact row function: the one the fit is built from."""
    K = truncation_bound(ANISO, 1.0, q, delta, rho_scale=0.5)
    _, bands = landau._level_bands(ANISO, LandauConfig(B=1.0, q=q, k_max=K))
    v2 = landau._mode_map(ANISO)[2]
    return bands[2], np.arange(-q, K - 1), lambda ks: landau._band_rows(v2, 1.0, q, ks, 2)


def test_chebyshev_band_every_row_q32():
    # criterion-09 level q = 32: every fitted row k in [4q, k_max - 2] against
    # the exact rows, and the rows before the split are the exact path's bits
    q = 32
    band, ks, exact = _aniso_band(q, 0.47)
    want = exact(ks)
    split = 4 * q + q
    assert len(ks) - split > 8 * landau._CHEB_NODES
    assert np.array_equal(band[:split].view(np.int64), want[:split].view(np.int64))
    assert _max_rel(band[split:], want[split:]) <= 1e-9


def test_chebyshev_band_geometric_sample_q64():
    # criterion-11 level q = 64 at the paper's delta, about 147,000 rows
    q = 64
    band, ks, exact = _aniso_band(q, 0.19)
    sample = np.unique(np.rint(np.geomspace(4 * q, ks[-1], 64)).astype(int))
    assert _max_rel(band[sample + q], exact(sample)) <= 1e-9


def test_chebyshev_band_certificate_fails_loudly(monkeypatch):
    # a diagonal that any fit reproduces exactly, so that the band's fit is
    # the one that fails, and says which band it is
    monkeypatch.setattr(landau, "_CHEB_NODES", 8)
    monkeypatch.setattr(landau, "_diagonal_rows",
                        lambda model, B, q, ks: (np.asarray(ks) + q + 1.0) ** -0.25)
    with pytest.raises(ContractError,
                       match=r"entry-fit.*q=48\b.*band j=2\b.*k in \[192, 3578\].*error \d"):
        landau._level_bands(ANISO, LandauConfig(B=1.0, q=48, k_max=3580))


def test_chebyshev_band_non_finite_node_fails_loudly(monkeypatch):
    # a non-finite node value of the fit names the node's own real k; the
    # diagonal's certificate, the same quadrature on equal rows, stays finite
    quad = landau._window_quadrature

    def far_nan(vfun, B, n1, a1, n2, a2, order):
        far_band = (a1 > 1000) & (a1 != a2)
        return np.where(far_band, np.nan, quad(vfun, B, n1, a1, n2, a2, order))

    monkeypatch.setattr(landau, "_window_quadrature", far_nan)
    with pytest.raises(ContractError, match=r"entry-quadrature.*q=48\b.*j=2\b.*k=1\d{3}\.\d"):
        landau._level_bands(ANISO, LandauConfig(B=1.0, q=48, k_max=3580))


def test_chebyshev_diagonal_zero_amplitude():
    zero = PotentialModel.isotropic(0.5, amplitude=0.0)
    d = radial_diagonal(zero, LandauConfig(B=1.0, q=8, k_max=4000))
    assert d.shape == (4009,) and not np.any(d)


@pytest.mark.parametrize("q", [0, 1])
def test_chebyshev_diagonal_low_levels(q):
    # the 32-row floor on k_split: with 4q alone the q <= 1 fits start at
    # k <= 4, where the scaled entry is not yet smooth in log k
    model = PotentialModel.isotropic(0.9)
    d = radial_diagonal(model, LandauConfig(B=1.0, q=q, k_max=40_000))
    ks = np.unique(np.rint(np.geomspace(32, 40_000, 64)).astype(int))
    assert _max_rel(d[ks + q], _exact_diagonal(model, 1.0, q, ks)) <= 1e-9


def test_truncation_bound_monotone_in_delta():
    ks = [truncation_bound(ISO, 1.0, 8, d) for d in (0.1, 0.2, 0.4)]
    assert ks[0] >= ks[1] >= ks[2]


def test_truncation_bound_capacity_error():
    with pytest.raises(CapacityError):
        truncation_bound(ISO, 1.0, 128, 1e-3)
    with pytest.raises(CapacityError):
        radial_diagonal(ISO, LandauConfig(B=1.0, q=4, k_max=landau.K_HARD_CAP + 1))


def test_truncation_bound_reaches_the_hard_cap():
    # K between 2^17 and K_HARD_CAP: the doubling search stops at the cap
    # instead of jumping to 2^18 and refusing the level
    thr = 0.0427
    K = truncation_bound(ISO, 1.0, 0, thr)
    assert 2 ** 17 < K <= landau.K_HARD_CAP
    assert landau._row_bound(ISO, 1.0, 0, K) < thr <= landau._row_bound(ISO, 1.0, 0, K - 1)


def test_indicator_mass_splits_at_radius():
    # whole-line mass is 1, so the r<R share must be in (0, 1) and increase
    idx = BasisIndex(6, 0)
    vals = [indicator_basis_mass(idx, 1.0, R) for R in (1.0, 3.0, 6.0, 30.0)]
    assert all(0.0 < v <= 1.0 + 1e-12 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 1.0) < 1e-9


def test_indicator_mass_rule_stops_at_the_window_edge(monkeypatch):
    # every radius here lies past the window edge, where psi is negligible:
    # the rule ends there, so its length does not grow with the radius, and
    # 1e300 no longer asks NumPy for an array beyond its size limit
    real, nodes = landau.panel_rule, []

    def recorded(interval, order):
        nodes.append(order)
        return real(interval, order)

    monkeypatch.setattr(landau, "panel_rule", recorded)
    for radius in (10.0, 1e3, 1e300):
        assert abs(indicator_basis_mass(BasisIndex(2, 1), 2.0, radius) - 1.0) <= 1e-14
    assert len(set(nodes)) == 1, nodes


def test_exports(tmp_path):
    cfg = LandauConfig(B=1.0, q=1, k_max=6)
    blk = toeplitz_matrix(ANISO, cfg)
    csv = tmp_path / "block.csv"
    blk.to_csv(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,k_prime,value"
    assert len(lines) > blk.dimension  # diagonal plus band entries
    js = tmp_path / "block.json"
    blk.summary_json(js)
    summary = json.loads(js.read_text())
    assert summary["q"] == 1 and summary["bandwidth"] == 2
    assert summary["dimension"] == blk.dimension


@pytest.mark.parametrize("call, name", [
    (lambda: truncation_bound(ISO, 1.0, 8, float("nan")), "delta"),
    (lambda: truncation_bound(ISO, 1.0, 8, float("inf")), "delta"),
    (lambda: indicator_basis_mass(BasisIndex(2, 1), 1.0, float("nan")), "radius"),
    (lambda: indicator_basis_mass(BasisIndex(2, 1), float("nan"), 0.5), "B"),
    (lambda: truncation_bound(ISO, 1.0, 8, 0.2, rho_scale=float("nan")), "rho_scale"),
    (lambda: truncation_bound(ISO, 1.0, 8, 0.2, rho_scale=float("inf")), "rho_scale"),
    (lambda: LandauConfig(B=1.0, q=2, k_max=2.5), "k_max"),
    (lambda: LandauConfig(B=1.0, q=2, k_max=float("nan")), "k_max"),
    (lambda: LandauConfig(B=1.0, q=2, k_max=True), "k_max"),
    (lambda: LandauConfig(B=1.0, q=2, k_max=np.float64(5.0)), "k_max"),
    (lambda: LandauConfig(B=1.0, q=2, k_max=-3), "k_max"),
    (lambda: indicator_basis_mass(BasisIndex(2, 1.5), 1.0, 1.0), "k"),
    (lambda: toeplitz_entry(ISO, 1.0, 2, 0.5, 0.5), "k"),
    (lambda: toeplitz_entry(ISO, 1.0, 2, float("nan"), 0), "k"),
    (lambda: BasisIndex(2, True), "k"),
    (lambda: BasisIndex(2, float("nan")), "k"),
    (lambda: BasisIndex(2.5, 0), "q"),
], ids=["truncation-delta-nan", "truncation-delta-inf", "indicator-radius-nan",
        "indicator-B-nan",
        "truncation-rho-scale-nan", "truncation-rho-scale-inf",
        "config-k-max-fraction", "config-k-max-nan", "config-k-max-bool",
        "config-k-max-numpy-float", "config-k-max-below-minus-q",
        "basis-k-fraction", "toeplitz-k-fraction", "toeplitz-k-nan", "basis-k-bool",
        "basis-k-nan", "basis-q-fraction"])
def test_nan_and_inf_are_refused(call, name):
    # each used to pass its check: k_max = 1, or an unrelated conversion
    # error; a k_max of 2.5 gave 6 diagonal rows for a dimension of 5.5, a
    # basis index k = 1.5 a Laguerre function of order 1.5 (mass 0.0904),
    # and toeplitz_entry at k = 0.5 a certificate failure deep inside
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
