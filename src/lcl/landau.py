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
would overflow beyond |k| ~ 1e3.

For long-range models the diagonal rows k >= max(4q, 32), when there are more
than 8 x 24 of them, come from a 24-node Chebyshev interpolant of the scaled
entry (k+q+1)^(rho/2) d_k in u = log(k+q+1): node values from the same
quadrature at continuous alpha, Clenshaw evaluation at every integer k.  Each
fit is checked against exact entries at the window's 25 second-kind Chebyshev
points; a relative error above 1e-9 max(1, q/128), the quadrature's own jitter
between neighbouring k, raises ContractError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts2

from .eigen import DENSE_CAP
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
    """Level index, field strength, angular cutoff and quadrature base order."""

    B: float
    q: int
    k_max: int
    quad_order_base: int = 80

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("B must be positive")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.k_max < -self.q:
            raise ValueError("k_max must be >= -q")
        if self.quad_order_base < 16:
            raise ValueError("quad_order_base must be >= 16")

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

def _xi_window(n: int, alpha):
    """Classical support of psi_n^(alpha), padded by Airy widths.

    Small windows (n + alpha small) decay like a plain exponential rather
    than an Airy tail, so they are extended until the squared envelope
    xi^(alpha+2n) e^-xi / (n! Gamma(n+alpha+1)) falls below 1e-36-ish.
    """
    a = np.asarray(alpha, dtype=float)
    c = 2.0 * n + a + 1.0
    half = 2.0 * np.sqrt((n + 0.5) * (n + a + 0.5))
    hi = c + half
    lo = np.maximum(c - half, 0.0)
    wA = (4.0 * hi * hi / np.maximum(hi - lo, 1.0)) ** (1.0 / 3.0)
    lo = np.maximum(lo - _PAD_AIRY * wA, 0.0)
    hi = hi + _PAD_AIRY * wA
    small = (a + 2.0 * n) <= 60.0
    if np.any(small):
        a_s = a[small] if a.ndim else a
        const = math.lgamma(n + 1.0) + _lgamma_arr(a_s + n + 1.0)
        h = np.atleast_1d(hi[small] if a.ndim else hi).astype(float)
        for _ in range(16):
            env = (a_s + 2.0 * n) * np.log(h) - h - const
            mask = env > -36.0
            if not np.any(mask):
                break
            h = np.where(mask, h + 8.0, h)
        if a.ndim:
            hi = hi.copy()
            hi[small] = h
        else:
            hi = float(h[0])
    return lo, hi


def _band_batch(vfun, B: float, q: int, n1: int, a1: np.ndarray,
                n2: int, a2: np.ndarray, base: int) -> np.ndarray:
    """entries = int v(r(xi)) psi_{n1}^{a1} psi_{n2}^{a2} d xi, batched over rows."""
    nmax = max(n1, n2)
    M = int(base + math.ceil(_NODES_PER_N * nmax))
    x, w = legendre_rule(M)
    lo1, hi1 = _xi_window(n1, a1)
    lo2, hi2 = _xi_window(n2, a2)
    lo = np.minimum(lo1, lo2)
    hi = np.maximum(hi1, hi2)
    xi = 0.5 * (hi - lo)[:, None] * (x[None, :] + 1.0) + lo[:, None]
    ww = 0.5 * (hi - lo)[:, None] * w[None, :]
    p1 = laguerre_function(n1, a1, xi)
    p2 = p1 if (n1 == n2 and a1 is a2) else laguerre_function(n2, a2, xi)
    vals = vfun(np.sqrt(2.0 * xi / B))
    return np.einsum("ij,ij,ij,ij->i", ww, vals, p1, p2)


def _mode_map(model: PotentialModel) -> dict:
    return {p.mode: p.radial for p in model.angular_modes()}


def _diagonal_window(model: PotentialModel, B: float, q: int, k_lo: int,
                     k_hi: int, base: int) -> np.ndarray:
    """Diagonal entries for k in [k_lo, k_hi]; negative indices are batched
    through the shared multi-degree recurrence, and the far window of a
    long-range model is a certified Chebyshev fit."""
    v0 = _mode_map(model)[0]
    out = np.empty(k_hi - k_lo + 1)
    if k_lo < 0:
        ks = np.arange(k_lo, min(k_hi, -1) + 1)
        n_arr = q + ks
        a_arr = (-ks).astype(float)
        lo, hi = _xi_window_pair(n_arr, a_arr)
        M = int(base + math.ceil(_NODES_PER_N * int(np.max(n_arr))))
        x, w = legendre_rule(M)
        xi = 0.5 * (hi - lo)[:, None] * (x[None, :] + 1.0) + lo[:, None]
        ww = 0.5 * (hi - lo)[:, None] * w[None, :]
        psi = laguerre_function_multi(n_arr, a_arr, xi)
        vals = v0(np.sqrt(2.0 * xi / B))
        out[: len(ks)] = np.einsum("ij,ij,ij,ij->i", ww, vals, psi, psi)
    if k_hi >= 0:
        start = max(k_lo, 0)
        k_split = max(start, 4 * q, 32)
        if not model.long_range or k_hi - k_split + 1 <= 8 * _CHEB_NODES:
            k_split = k_hi + 1
        for k0 in range(start, k_split, _CHUNK):
            ks = np.arange(k0, min(k0 + _CHUNK, k_split), dtype=float)
            out[k0 - k_lo: k0 - k_lo + len(ks)] = _band_batch(
                v0, B, q, q, ks, q, ks, base)
        if k_split <= k_hi:
            out[k_split - k_lo:] = _chebyshev_tail(v0, B, q, k_split, k_hi,
                                                   base, model.rho)
    return out


def _chebyshev_tail(v0, B: float, q: int, k_a: int, k_b: int, base: int,
                    rho: float) -> np.ndarray:
    """Diagonal entries for k in [k_a, k_b] by the certified Chebyshev fit."""
    def scaled(u):
        m = np.exp(u)
        return m ** (0.5 * rho) * _band_batch(v0, B, q, q, m - q - 1.0,
                                              q, m - q - 1.0, base)

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


def _xi_window_pair(n_arr, a_arr):
    los = np.empty(len(n_arr))
    his = np.empty(len(n_arr))
    for i, (n, a) in enumerate(zip(n_arr, a_arr)):
        los[i], his[i] = _xi_window(int(n), float(a))
    return los, his


def radial_diagonal(model: PotentialModel, cfg: LandauConfig) -> np.ndarray:
    """Diagonal entries <V phi_{k,q}, phi_{k,q}> for k = -q .. k_max.

    This is the storage-free fast path for radial models (the full block is
    diagonal); it is also the diagonal of the banded anisotropic block.
    """
    if cfg.k_max + cfg.q + 1 > K_HARD_CAP + cfg.q + 1:
        raise CapacityError(f"k_max beyond hard cap {K_HARD_CAP}")
    return _diagonal_window(model, cfg.B, cfg.q, -cfg.q, cfg.k_max,
                            cfg.quad_order_base)


def toeplitz_entry(model: PotentialModel, B: float, q: int, k1: int, k2: int,
                   quad_order_base: int = 80) -> float:
    """Single matrix element <V phi_{k2,q}, phi_{k1,q}>."""
    modes = _mode_map(model)
    j = k1 - k2
    if j not in modes:
        return 0.0
    i1, i2 = BasisIndex(q, k1), BasisIndex(q, k2)
    val = _band_batch(modes[j], B, q, i1.n, np.array([float(i1.alpha)]),
                      i2.n, np.array([float(i2.alpha)]), quad_order_base)
    return float(val[0])


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


def toeplitz_matrix(model: PotentialModel, cfg: LandauConfig) -> ToeplitzBlock:
    """Assemble the dense (banded-content) truncated block.

    Dense storage is capped at dimension 4096; radial models beyond that
    should use :func:`radial_diagonal`, which skips the matrix entirely.
    """
    dim = cfg.dimension
    if dim > DENSE_CAP:
        raise CapacityError(
            f"dense dimension {dim} exceeds cap {DENSE_CAP}; "
            "use radial_diagonal for radial models")
    q, B = cfg.q, cfg.B
    modes = _mode_map(model)
    offs = sorted({j for j in modes if j > 0})
    A = np.zeros((dim, dim))
    A[np.arange(dim), np.arange(dim)] = radial_diagonal(model, cfg)
    for j in offs:
        vj = modes[j]
        # rows with k < 0 individually (n varies), k >= 0 in batches
        for k in range(-q, 0):
            if k + j > cfg.k_max:
                continue
            i1, i2 = BasisIndex(q, k), BasisIndex(q, k + j)
            val = _band_batch(vj, B, q, i1.n, np.array([float(i1.alpha)]),
                              i2.n, np.array([float(i2.alpha)]), cfg.quad_order_base)[0]
            A[k + q, k + j + q] = A[k + j + q, k + q] = val
        for k0 in range(0, cfg.k_max - j + 1, _CHUNK):
            ks = np.arange(k0, min(k0 + _CHUNK, cfg.k_max - j + 1), dtype=float)
            vals = _band_batch(vj, B, q, q, ks, q, ks + j, cfg.quad_order_base)
            idx = (ks + q).astype(int)
            A[idx, idx + j] = vals
            A[idx + j, idx] = vals
    bandwidth = max(offs) if offs else 0
    tail = _row_bound(model, B, q, cfg.k_max + 1)
    return ToeplitzBlock(q=q, B=B, k_max=cfg.k_max, entries=A,
                         bandwidth=bandwidth, truncation_tail_bound=tail)


def indicator_basis_mass(idx: BasisIndex, B: float, radius: float) -> float:
    """<1_radius phi_{k,q}, phi_{k,q}> = int_0^radius R^2 r dr.

    Integrated in s = sqrt(xi) where the Laguerre oscillations are uniform;
    the quadrature never crosses the indicator kink at r = radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    s_max = math.sqrt(0.5 * B) * radius
    _, hi = _xi_window(idx.n, float(idx.alpha))
    M = 64 + int(math.ceil(1.8 * s_max * math.sqrt(float(hi))))
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
                     *, rho_scale: float | None = None,
                     hard_cap: int = K_HARD_CAP) -> int:
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
    k = 1
    while _row_bound(model, B, q, k) >= thr:
        k *= 2
        if k + q + 1 > hard_cap:
            raise CapacityError(
                f"truncation bound exceeds hard cap {hard_cap}; increase delta")
    lo, hi = k // 2, k
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if _row_bound(model, B, q, mid) >= thr:
            lo = mid
        else:
            hi = mid
    K = hi
    while _row_bound(model, B, q, K + 1) >= thr:  # guard against local bumps
        K += 1
        if K + q + 1 > hard_cap:
            raise CapacityError(
                f"truncation bound exceeds hard cap {hard_cap}; increase delta")
    return K
