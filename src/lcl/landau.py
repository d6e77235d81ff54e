"""Angular-momentum basis of the Landau levels and truncated Berezin-Toeplitz matrices.

The level-q eigenspace of the Landau Hamiltonian (symmetric gauge, field
B > 0) carries the orthonormal basis

    phi_{k,q}(r, theta) = (2 pi)^(-1/2) e^{i k theta} R_{k,q}(r),  k >= -q,

with radial factor R_{k,q}(r) = sqrt(B) psi_n^(|k|)(B r^2 / 2), where psi is
the orthonormal Laguerre function and n = q + min(k, 0).  The convention is
certified by :func:`eigen_residual_check` against the radial operator
-R'' - R'/r + (k/r - B r/2)^2 R = B(2q+1) R.

Matrix elements of a potential with angular modes v_j couple k' = k + j:

    entries[k, k'] = int_0^inf v_{k-k'}(r) R_{k,q} R_{k',q} r dr
                   = int_0^inf v_{k-k'}(sqrt(2 xi / B)) psi psi' d xi.

Entries are integrated by Gauss-Legendre on the classical support window of
the Laguerre pair (turning points padded by eight Airy widths), which stays
accurate at any angular index; plain Gauss-Laguerre of the matching degree
would overflow beyond |k| ~ 1e3.  Every entry goes through one batched
quadrature, `_band_batch`, with one rule of 80 + 2.8 max(n) nodes per batch:
the diagonal and each off-diagonal band put all k < 0 rows (whose degrees
n = q + k differ; the one Laguerre recurrence reads each row off at its own
degree) in one batch, then the k >= 0 rows in chunks of 128.  A non-finite
entry raises ContractError naming the stage, q, the band and the first bad k.

For long-range models the diagonal rows k >= max(4q, 32), when there are more
than 8 x 24 of them, come from a 24-node Chebyshev interpolant of the scaled
entry (k+q+1)^(rho/2) d_k in u = log(k+q+1): node values from the same
quadrature at continuous alpha, Clenshaw evaluation at every integer k.  Each
fit is checked against exact entries at the window's 25 second-kind Chebyshev
points; a relative error above 1e-9 max(1, q/128), the quadrature's own jitter
between neighbouring k, raises ContractError.

A level is assembled once, as its diagonal and one band per positive mode.
Since modes couple only k and k + j, the block is the direct sum of
g = gcd(modes) residue chains (tridiagonal for one mode m = g); the chains are
what gets solved, and the dense block is only a view for tests and small cases.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts2

from .eigen import _check_dense_cap
from .errors import CapacityError, ContractError
from .potentials import PotentialModel
from .specfun import _lgamma_arr, laguerre_function, laguerre_function_multi, legendre_rule

__all__ = [
    "LandauConfig",
    "BasisIndex",
    "ToeplitzBlock",
    "landau_level",
    "radial_basis",
    "eigen_residual_check",
    "toeplitz_matrix",
    "radial_diagonal",
    "toeplitz_entry",
    "indicator_basis_mass",
    "truncation_bound",
]

K_HARD_CAP = 200_000
_QUAD_BASE = 80
_PAD_AIRY = 8.0
_NODES_PER_N = 2.8
_CHUNK = 128
_CHEB_NODES = 24


def landau_level(B: float, q: int) -> float:
    """The Landau level B(2q+1)."""
    if B <= 0:
        raise ValueError("B must be positive")
    if q < 0:
        raise ValueError("q must be >= 0")
    return B * (2.0 * q + 1.0)


@dataclass(frozen=True)
class LandauConfig:
    """Level index, field strength and angular cutoff."""

    B: float
    q: int
    k_max: int

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("B must be positive")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.k_max < -self.q:
            raise ValueError("k_max must be >= -q")

    @property
    def dimension(self) -> int:
        return self.k_max + self.q + 1

    @property
    def lambda_q(self) -> float:
        return landau_level(self.B, self.q)


@dataclass(frozen=True)
class BasisIndex:
    """Angular-momentum basis label (q, k), k >= -q."""

    q: int
    k: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.k < -self.q:
            raise ValueError(f"k must be >= -q, got k={self.k}, q={self.q}")

    @property
    def n(self) -> int:
        return self.q + min(self.k, 0)

    @property
    def alpha(self) -> int:
        return abs(self.k)


def radial_basis(idx: BasisIndex, B: float, r):
    """Radial factor R_{k,q}(r), normalized so int_0^inf R^2 r dr = 1."""
    if B <= 0:
        raise ValueError("B must be positive")
    r = np.asarray(r, dtype=float)
    xi = 0.5 * B * np.square(r)
    return math.sqrt(B) * laguerre_function(idx.n, float(idx.alpha), xi)


def eigen_residual_check(idx: BasisIndex, B: float, *, operator_k: int | None = None,
                         r_window=(0.2, 6.0), step: float = 1e-3) -> float:
    """Max-norm residual of the radial Landau operator on R_{k,q}.

    Applies -R'' - R'/r + (k/r - Br/2)^2 R - B(2q+1) R with 8th-order central
    differences on a uniform grid over `r_window`.  A small residual certifies
    the (n, alpha) = (q + min(k,0), |k|) convention; passing `operator_k` with
    the opposite sign is the negative control and yields an O(1) residual.
    """
    k_op = idx.k if operator_k is None else operator_k
    r0, r1 = r_window
    n_grid = int(round((r1 - r0) / step)) + 1
    r = r0 + step * np.arange(-4, n_grid + 4)
    R = radial_basis(idx, B, r)
    # 8th-order stencils
    c2 = np.array([-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
                   8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]) / step ** 2
    c1 = np.array([1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5, 0.0,
                   4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280]) / step
    d2 = sum(c2[j] * R[j:j + n_grid] for j in range(9))
    d1 = sum(c1[j] * R[j:j + n_grid] for j in range(9))
    ri = r[4:4 + n_grid]
    Ri = R[4:4 + n_grid]
    lam = landau_level(B, idx.q)
    resid = -d2 - d1 / ri + (k_op / ri - 0.5 * B * ri) ** 2 * Ri - lam * Ri
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# quadrature windows and batched entries
# ---------------------------------------------------------------------------

def _xi_window(n, alpha):
    """Classical support of psi_n^(alpha), padded by Airy widths, as 1-d
    arrays over the broadcast (n, alpha).

    Small windows (n + alpha small) decay like a plain exponential rather
    than an Airy tail, so they are extended until the squared envelope
    xi^(alpha+2n) e^-xi / (n! Gamma(n+alpha+1)) falls below 1e-36-ish.
    """
    n, a = np.broadcast_arrays(np.atleast_1d(np.asarray(n, dtype=float)),
                               np.atleast_1d(np.asarray(alpha, dtype=float)))
    c = 2.0 * n + a + 1.0
    half = 2.0 * np.sqrt((n + 0.5) * (n + a + 0.5))
    hi = c + half
    lo = np.maximum(c - half, 0.0)
    wA = (4.0 * hi * hi / np.maximum(hi - lo, 1.0)) ** (1.0 / 3.0)
    lo = np.maximum(lo - _PAD_AIRY * wA, 0.0)
    hi = hi + _PAD_AIRY * wA
    small = (a + 2.0 * n) <= 60.0
    if np.any(small):
        n_s, a_s, h = n[small], a[small], hi[small]
        const = _lgamma_arr(n_s + 1.0) + _lgamma_arr(a_s + n_s + 1.0)
        for _ in range(16):
            env = (a_s + 2.0 * n_s) * np.log(h) - h - const
            mask = env > -36.0
            if not np.any(mask):
                break
            h = np.where(mask, h + 8.0, h)
        hi[small] = h
    return lo, hi


def _psi_rows(n: np.ndarray, a: np.ndarray, xi: np.ndarray) -> np.ndarray:
    # a batch with one degree needs no per-row read-off
    if np.all(n == n[0]):
        return laguerre_function(int(n[0]), a, xi)
    return laguerre_function_multi(n, a, xi)


def _band_batch(vfun, B: float, n1, a1: np.ndarray, n2, a2: np.ndarray) -> np.ndarray:
    """entries = int v(r(xi)) psi_{n1}^{a1} psi_{n2}^{a2} d xi, batched over rows.

    Degrees are per row (a scalar serves every row); the batch shares one
    Gauss-Legendre rule, whose order follows its largest degree.
    """
    n1 = np.broadcast_to(np.asarray(n1, dtype=int), np.shape(a1))
    n2 = np.broadcast_to(np.asarray(n2, dtype=int), np.shape(a2))
    same = np.array_equal(n1, n2) and np.array_equal(a1, a2)
    M = _QUAD_BASE + math.ceil(_NODES_PER_N * int(max(n1.max(), n2.max())))
    x, w = legendre_rule(M)
    lo, hi = _xi_window(n1, a1)
    if not same:
        lo2, hi2 = _xi_window(n2, a2)
        lo, hi = np.minimum(lo, lo2), np.maximum(hi, hi2)
    xi = 0.5 * (hi - lo)[:, None] * (x[None, :] + 1.0) + lo[:, None]
    ww = 0.5 * (hi - lo)[:, None] * w[None, :]
    p1 = _psi_rows(n1, a1, xi)
    p2 = p1 if same else _psi_rows(n2, a2, xi)
    vals = vfun(np.sqrt(2.0 * xi / B))
    return np.einsum("ij,ij,ij,ij->i", ww, vals, p1, p2)


def _band_rows(vfun, B: float, q: int, ks: np.ndarray, j: int) -> np.ndarray:
    """Entries between phi_{k,q} and phi_{k+j,q} for the ascending integer rows
    `ks`: every k < 0 row in one batch, then the k >= 0 rows in chunks."""
    out = np.empty(len(ks))
    n_neg = int(np.searchsorted(ks, 0))
    for s in [slice(0, n_neg)] + [slice(i, i + _CHUNK) for i in range(n_neg, len(ks), _CHUNK)]:
        k1 = ks[s]
        if len(k1):
            n1, a1 = q + np.minimum(k1, 0), np.abs(k1).astype(float)
            k2 = k1 + j
            n2, a2 = (n1, a1) if j == 0 else (q + np.minimum(k2, 0), np.abs(k2).astype(float))
            vals = _band_batch(vfun, B, n1, a1, n2, a2)
            finite = np.isfinite(vals)
            if not finite.all():
                raise ContractError(
                    f"entry-quadrature: non-finite entry at q={q}, band j={j}, "
                    f"first at k={int(k1[np.argmin(finite)])}")
            out[s] = vals
    return out


def _mode_map(model: PotentialModel) -> dict:
    return {p.mode: p.radial for p in model.angular_modes()}


def _diagonal_window(model: PotentialModel, B: float, q: int, k_lo: int,
                     k_hi: int) -> np.ndarray:
    """Diagonal entries for k in [k_lo, k_hi]; the far window of a long-range
    model is a certified Chebyshev fit."""
    v0 = _mode_map(model)[0]
    k_split = max(k_lo, 4 * q, 32)
    if not model.long_range or k_hi - k_split + 1 <= 8 * _CHEB_NODES:
        k_split = k_hi + 1
    exact = _band_rows(v0, B, q, np.arange(k_lo, k_split), 0)
    if k_split > k_hi:
        return exact
    return np.concatenate([exact, _chebyshev_tail(v0, B, q, k_split, k_hi, model.rho)])


def _chebyshev_tail(v0, B: float, q: int, k_a: int, k_b: int,
                    rho: float) -> np.ndarray:
    """Diagonal entries for k in [k_a, k_b] by the certified Chebyshev fit."""
    def scaled(u):
        m = np.exp(u)
        return m ** (0.5 * rho) * _band_batch(v0, B, q, m - q - 1.0, q, m - q - 1.0)

    u_a, u_b = math.log(k_a + q + 1.0), math.log(k_b + q + 1.0)
    fit = Chebyshev.interpolate(scaled, _CHEB_NODES - 1, domain=[u_a, u_b])
    u_check = 0.5 * (u_a + u_b) + 0.5 * (u_b - u_a) * chebpts2(_CHEB_NODES + 1)
    exact = scaled(u_check)
    err = float(np.max(np.abs(fit(u_check) - exact)
                       / np.maximum(np.abs(exact), np.finfo(float).tiny)))
    tol = 1e-9 * max(1.0, q / 128.0)
    if not err <= tol:
        raise ContractError(
            f"radial_diagonal: Chebyshev fit at q={q}, k in [{k_a}, {k_b}] failed "
            f"its held-out certificate: relative error {err:.3e} > tolerance {tol:.3e}")
    m = np.arange(k_a, k_b + 1) + q + 1.0
    return fit(np.log(m)) / m ** (0.5 * rho)


def _check_cap(k_max: int) -> None:
    """The one angular capacity cap: k_max <= K_HARD_CAP."""
    if k_max > K_HARD_CAP:
        raise CapacityError(
            f"k_max {k_max} exceeds hard cap {K_HARD_CAP}; increase delta")


def radial_diagonal(model: PotentialModel, cfg: LandauConfig) -> np.ndarray:
    """Diagonal entries <V phi_{k,q}, phi_{k,q}> for k = -q .. k_max.

    This is the storage-free fast path for radial models (the full block is
    diagonal); it is also the diagonal of the banded anisotropic block.
    """
    _check_cap(cfg.k_max)
    return _diagonal_window(model, cfg.B, cfg.q, -cfg.q, cfg.k_max)


def toeplitz_entry(model: PotentialModel, B: float, q: int, k1: int, k2: int) -> float:
    """Single matrix element <V phi_{k2,q}, phi_{k1,q}>: one row of band
    |k1 - k2|, through the same quadrature and check as the block."""
    modes = _mode_map(model)
    if k1 - k2 not in modes:
        return 0.0
    k = np.array([BasisIndex(q, min(k1, k2)).k])  # rejects k < -q
    return float(_band_rows(modes[k1 - k2], B, q, k, abs(k1 - k2))[0])


@dataclass(frozen=True)
class ToeplitzBlock:
    """Truncated matrix of P_q V P_q in the angular-momentum basis."""

    q: int
    B: float
    k_max: int
    entries: np.ndarray = field(repr=False)
    bandwidth: int
    truncation_tail_bound: float

    @property
    def dimension(self) -> int:
        return self.k_max + self.q + 1

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.q, self.k_max + 1)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)

    def to_csv(self, path) -> None:
        ks = self.ks
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,k_prime,value\n")
            for i, k in enumerate(ks):
                jlo = max(0, i - self.bandwidth)
                jhi = min(len(ks), i + self.bandwidth + 1)
                for j in range(jlo, jhi):
                    fh.write(f"{k},{ks[j]},{self.entries[i, j]:.17g}\n")

    def summary(self) -> dict:
        return _block_summary(self.q, self.B, self.k_max, self.bandwidth,
                              self.diagonal, self.truncation_tail_bound)

    def summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")


def _block_summary(q: int, B: float, k_max: int, bandwidth: int,
                   diagonal: np.ndarray, tail: float) -> dict:
    return {
        "q": q,
        "B": B,
        "k_max": k_max,
        "dimension": k_max + q + 1,
        "bandwidth": bandwidth,
        "max_diagonal": float(np.max(diagonal)),
        "min_diagonal": float(np.min(diagonal)),
        "trace": float(np.sum(diagonal)),
        "truncation_tail_bound": tail,
    }


def _level_bands(model: PotentialModel, cfg: LandauConfig):
    """The level block as (diagonal, {j: band j}) over k = -q .. k_max.

    Band j > 0 holds the entries (k, k + j) for k = -q .. k_max - j, one per
    positive angular mode; the block is symmetric, so these are all of it.
    """
    modes = _mode_map(model)
    diag = radial_diagonal(model, cfg)
    bands = {j: _band_rows(modes[j], cfg.B, cfg.q, np.arange(-cfg.q, cfg.k_max - j + 1), j)
             for j in sorted(j for j in modes if j > 0)}
    return diag, bands


def _scatter(diag: np.ndarray, bands: dict, r: int = 0, g: int = 1) -> np.ndarray:
    """Dense matrix of the block's positions i = r (mod g); band j couples
    such a position with the one j // g further along."""
    A = np.diag(diag[r::g])
    for j, band in bands.items():
        e = band[r::g]
        i = np.arange(len(e))
        A[i, i + j // g] = A[i + j // g, i] = e
    return A


def _chains(diag: np.ndarray, bands: dict):
    """Dense blocks of the residue chains of a banded level block, one at a time.

    Every band offset is a multiple of g = gcd(offsets), so the positions
    i = r (mod g) couple only among themselves: the block is the direct sum
    of g chains, and its spectrum is the union of theirs.  A single mode m
    gives m tridiagonal chains.  The dense cap applies to the largest chain,
    r = 0, and is checked before any chain is stored.
    """
    g = math.gcd(*bands)
    _check_dense_cap(-(-len(diag) // g))
    return (_scatter(diag, bands, r, g) for r in range(g))


def toeplitz_matrix(model: PotentialModel, cfg: LandauConfig) -> ToeplitzBlock:
    """The level block as one dense matrix, scattered from its bands.

    This is the dense view of the block and the test oracle for the chain
    solve of ``measures.level_spectrum``, which never stores the whole block.
    Dense storage is capped at dimension 4096; radial models beyond that
    should use :func:`radial_diagonal`, which skips the matrix entirely.
    """
    _check_dense_cap(cfg.dimension)
    diag, bands = _level_bands(model, cfg)
    tail = _row_bound(model, cfg.B, cfg.q, cfg.k_max + 1)
    return ToeplitzBlock(q=cfg.q, B=cfg.B, k_max=cfg.k_max, entries=_scatter(diag, bands),
                         bandwidth=max(bands, default=0), truncation_tail_bound=tail)


def indicator_basis_mass(idx: BasisIndex, B: float, radius: float) -> float:
    """<1_radius phi_{k,q}, phi_{k,q}> = int_0^radius R^2 r dr.

    Integrated in s = sqrt(xi) where the Laguerre oscillations are uniform;
    the quadrature never crosses the indicator kink at r = radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    s_max = math.sqrt(0.5 * B) * radius
    _, hi = _xi_window(idx.n, float(idx.alpha))
    M = 64 + int(math.ceil(1.8 * s_max * math.sqrt(float(hi[0]))))
    x, w = legendre_rule(M)
    s = 0.5 * s_max * (x + 1.0)
    ws = 0.5 * s_max * w
    psi = laguerre_function(idx.n, float(idx.alpha), s * s)
    return float(np.dot(ws, 2.0 * s * psi * psi))


def _row_bound(model: PotentialModel, B: float, q: int, k: int) -> float:
    """Gershgorin-style bound for row k: orbit-radius heuristic evaluated at
    the inner orbit edge |r_center - r_orbit| (so it dominates the circle
    average that the true diagonal is), plus one band entry per off-diagonal
    mode on each side."""
    r = abs(math.sqrt((2.0 * (q + k) + 1.0) / B) - math.sqrt((2.0 * q + 1.0) / B))
    total = 0.0
    for p in model.angular_modes():
        # one diagonal entry from mode 0, one off-diagonal entry per signed mode
        total += abs(float(p.radial(np.asarray(r))))
    return total


def truncation_bound(model: PotentialModel, B: float, q: int, delta: float,
                     *, rho_scale: float | None = None) -> int:
    """Smallest k_max whose discarded rows are certified below the target.

    All rows k > k_max satisfy row_bound(k) < delta * lambda_q^(-rho/2); with
    delta below the scaled support edge of every registered test function,
    eigenvalues of the discarded tail cannot meet that support.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if rho_scale is None:
        if not model.long_range:
            raise ValueError("rho_scale is required for compactly supported models")
        rho_scale = model.rho
    lam = landau_level(B, q)
    thr = delta * lam ** (-rho_scale / 2.0)
    lo, hi = 0, 1
    while _row_bound(model, B, q, hi) >= thr:
        _check_cap(hi)
        lo, hi = hi, min(2 * hi, K_HARD_CAP + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if _row_bound(model, B, q, mid) >= thr:
            lo = mid
        else:
            hi = mid
    K = hi
    _check_cap(K)
    while _row_bound(model, B, q, K + 1) >= thr:  # guard against local bumps
        K += 1
        _check_cap(K)
    return K
