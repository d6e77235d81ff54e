import json
import math

import numpy as np
import pytest

from lcl import landau
from lcl.errors import CapacityError, ContractError
from lcl.landau import (BasisIndex, LandauConfig, _band_batch,
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
    return np.concatenate([_band_batch(v0, B, q, c, q, c)
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


def test_toeplitz_entry_non_finite_fails_loudly(monkeypatch):
    monkeypatch.setattr(landau, "_band_batch",
                        lambda vfun, B, n1, a1, n2, a2: np.full(len(a1), np.nan))
    with pytest.raises(ContractError, match=r"entry-quadrature.*q=640\b.*j=0\b.*k=0\b"):
        toeplitz_entry(ISO, 1.0, 640, 0, 0)


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
