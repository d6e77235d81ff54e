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

The diagonal of a built-in model needs no grid in xi.  For a Gaussian
profile e^(-c xi) the entry is the Laplace transform E_{n,alpha}(c) of
psi^2, a finite sum of positive terms (Laguerre multiplication theorem,
`specfun.laguerre_laplace`).  On the model's Gaussian mixture of v_0,
a sum_i c_i e^(-s_i r^2) (`PotentialModel.gaussian_mixture`: one term for the
bump, Euler's integral for the others), an entry is a sum_i c_i E(2 s_i / B).
Every long-range call evaluates its first, last and largest-alpha rows again
by the band quadrature below, on a rule of 400 2^j >= 400 + 2.8 q nodes; a
relative gap above 1e-12 (plus 8 eps lgamma(alpha+1), the quadrature's own
rounding at large alpha) raises ContractError naming the stage, q and k.

Off-diagonal bands, and the generic profiles of the basis selfcheck, are
integrated by Gauss-Legendre on the classical support window of the Laguerre
pair (turning points padded by eight Airy widths), which stays accurate at
any angular index; plain Gauss-Laguerre of the matching degree would
overflow beyond |k| ~ 1e3.  They go through one batched quadrature,
`_window_quadrature`, on the one rule of level q, 80 + 2.8 q nodes, in
consecutive chunks of 128 rows from k = -q.  An entry does not depend on its
batch: the degrees n = q + min(k, 0) of a chunk may differ, and the one
Laguerre recurrence reads each row off at its own degree.  A non-finite entry, on
either path, raises ContractError naming the stage, q, the band and the
first bad k.

For long-range models the rows k >= max(4q, 32) of the diagonal and of every
band, when there are more than 8 x 24 of them, come from a 24-node Chebyshev
interpolant of the scaled entry (k+q+1)^(rho/2) b_k in u = log(k+q+1): node
values from the band's own row function at real k (the sum for the diagonal,
the quadrature for a band), Clenshaw evaluation at every integer k.  One fit
serves both, and each is checked against exact entries at the window's 25
second-kind Chebyshev points; a relative error above 1e-9 max(1, q/128)
raises ContractError naming q, the band and the window.

A level is assembled once, as its diagonal and one band per positive mode.
A model has at most one positive mode m, and it couples only k and k + m, so
the block is the direct sum of m tridiagonal residue chains: the positions
i = r (mod m) for r = 0 .. m - 1.  :func:`level_spectrum` truncates the
level, bounds its tail, summarises it from its diagonal, and hands the
diagonal, the band and its offset m to one call of Sturm counts and Newton
steps, which lays the chains side by side so that they share every count
pass, with no matrix formed (for the trace sweep, only the eigenvalues
inside phi's support); the dense block of :func:`toeplitz_matrix` is only a
view for tests and small cases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts2

from ._io import write_csv, write_json
from .eigen import _check_dense_cap, tridiagonal_eig
from .errors import CapacityError, ContractError
from .potentials import PotentialModel, _is_integer
from .specfun import (_lgamma_arr, laguerre_function, laguerre_function_multi,
                      laguerre_laplace, legendre_rule, panel_rule)

__all__ = [
    "LandauConfig",
    "BasisIndex",
    "ToeplitzBlock",
    "landau_level",
    "radial_basis",
    "eigen_residual_check",
    "toeplitz_matrix",
    "level_spectrum",
    "radial_diagonal",
    "toeplitz_entry",
    "indicator_basis_mass",
    "truncation_bound",
]

K_HARD_CAP = 1_000_000
_QUAD_BASE = 80
_PAD_AIRY = 8.0
_NODES_PER_N = 2.8
_CHUNK = 128
_CHEB_NODES = 24
_CERT_NODES = 400
_CERT_TOL = 1e-12


def _check_level_index(q) -> None:
    """The one check of a level index: an integer q >= 0, not a bool."""
    if not _is_integer(q) or q < 0:
        raise ValueError(f"q must be an integer >= 0, got {q!r}")


def landau_level(B: float, q: int) -> float:
    """The Landau level B(2q+1), and the one check of B and of the level index."""
    if not (math.isfinite(B) and B > 0):
        raise ValueError("B must be finite and positive")
    _check_level_index(q)
    return B * (2.0 * q + 1.0)


@dataclass(frozen=True)
class LandauConfig:
    """Level index, field strength and angular cutoff."""

    B: float
    q: int
    k_max: int

    def __post_init__(self):
        landau_level(self.B, self.q)
        if not _is_integer(self.k_max) or self.k_max < -self.q:
            raise ValueError(f"k_max must be an integer >= -q, got {self.k_max!r}")

    @property
    def dimension(self) -> int:
        return self.k_max + self.q + 1

    @property
    def lambda_q(self) -> float:
        return landau_level(self.B, self.q)


@dataclass(frozen=True)
class BasisIndex:
    """Angular-momentum basis label (q, k): integers q >= 0 and k >= -q."""

    q: int
    k: int

    def __post_init__(self):
        _check_level_index(self.q)
        if not _is_integer(self.k) or self.k < -self.q:
            raise ValueError(f"k must be an integer >= -q, got k={self.k!r}, q={self.q}")

    @property
    def n(self) -> int:
        return self.q + min(self.k, 0)

    @property
    def alpha(self) -> int:
        return abs(self.k)


def radial_basis(idx: BasisIndex, B: float, r):
    """Radial factor R_{k,q}(r), normalized so int_0^inf R^2 r dr = 1."""
    landau_level(B, idx.q)
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise ValueError("r must be finite and >= 0")
    xi = 0.5 * B * np.square(r)
    return math.sqrt(B) * laguerre_function(idx.n, float(idx.alpha), xi)


def eigen_residual_check(idx: BasisIndex, B: float, *,
                         operator_k: int | None = None) -> float:
    """Max-norm residual of the radial Landau operator on R_{k,q}.

    Applies -R'' - R'/r + (k/r - Br/2)^2 R - B(2q+1) R with 8th-order central
    differences on the grid of step 1e-3 over [0.2, 6].  A small residual certifies
    the (n, alpha) = (q + min(k,0), |k|) convention; passing `operator_k` with
    the opposite sign is the negative control and yields an O(1) residual.
    """
    k_op = idx.k if operator_k is None else operator_k
    r0, r1, step = 0.2, 6.0, 1e-3
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


def _level_rows(q: int, ks) -> tuple[np.ndarray, np.ndarray]:
    """The Laguerre indices of the rows ks of level q (integer, or real
    k >= 0): degrees n = q + min(k, 0) as int64 and orders alpha = |k|."""
    return q + np.minimum(ks, 0).astype(np.int64), np.abs(ks).astype(float)


def _window_quadrature(vfun, B: float, n1, a1, n2, a2, order: int) -> np.ndarray:
    """entries = int v(r(xi)) psi_{n1}^{a1} psi_{n2}^{a2} d xi, batched over
    rows (integer degrees and real orders, one of each per row), each on the
    Gauss-Legendre rule of `order` nodes mapped to its row's window."""
    x, w = legendre_rule(order)
    same = np.array_equal(n1, n2) and np.array_equal(a1, a2)
    lo, hi = _xi_window(n1, a1)
    if not same:
        lo2, hi2 = _xi_window(n2, a2)
        lo, hi = np.minimum(lo, lo2), np.maximum(hi, hi2)
    xi = 0.5 * (hi - lo)[:, None] * (x[None, :] + 1.0) + lo[:, None]
    ww = 0.5 * (hi - lo)[:, None] * w[None, :]
    p1 = laguerre_function_multi(n1, a1, xi)
    p2 = p1 if same else laguerre_function_multi(n2, a2, xi)
    vals = vfun(np.sqrt(2.0 * xi / B))
    return np.einsum("ij,ij,ij,ij->i", ww, vals, p1, p2)


def _check_entries(vals: np.ndarray, q: int, j: int, ks: np.ndarray) -> np.ndarray:
    """vals, the band-j entries at the rows ks, if all are finite; else the
    entry-quadrature error naming the first non-finite row."""
    finite = np.isfinite(vals)
    if not finite.all():
        raise ContractError(
            f"entry-quadrature: non-finite entry at q={q}, band j={j}, "
            f"first at k={ks[np.argmin(finite)]:.10g}")
    return vals


def _band_rows(vfun, B: float, q: int, ks: np.ndarray, j: int) -> np.ndarray:
    """Entries between phi_{k,q} and phi_{k+j,q} for the ascending rows `ks`
    (integer, or real k >= 0 at a Chebyshev fit's nodes), in consecutive
    chunks of _CHUNK rows."""
    order = _QUAD_BASE + math.ceil(_NODES_PER_N * q)
    out = np.empty(len(ks))
    for i in range(0, len(ks), _CHUNK):
        k1 = ks[i:i + _CHUNK]
        vals = _window_quadrature(vfun, B, *_level_rows(q, k1), *_level_rows(q, k1 + j), order)
        out[i:i + _CHUNK] = _check_entries(vals, q, j, k1)
    return out


def _mode_map(model: PotentialModel) -> dict:
    return {p.mode: p.radial for p in model.angular_modes()}


def _certificate_order(q: int) -> int:
    """The rule of the diagonal's quadrature certificate at level q: the
    smallest _CERT_NODES 2^j with at least _CERT_NODES + _NODES_PER_N q
    nodes, so that a few rules serve every level."""
    need = _CERT_NODES + math.ceil(_NODES_PER_N * q)
    order = _CERT_NODES
    while order < need:
        order *= 2
    return order


def _diagonal_rows(model: PotentialModel, B: float, q: int, ks) -> np.ndarray:
    """v0's diagonal entries at the rows ks (real for k >= 0): on the mixture
    a sum_i c_i e^(-s_i r^2), r^2 = 2 xi / B, they are a sum_i c_i E(2 s_i / B).
    A long-range model's first, last and largest-alpha rows are certified by
    Gauss-Legendre quadrature of v0 psi^2 on the classical window (an
    independent path through the Laguerre recurrence): the two must agree
    within _CERT_TOL plus the quadrature's own rounding at large alpha, relative."""
    ks = np.asarray(ks, dtype=float)
    n, alpha = _level_rows(q, ks)
    s, c = model.gaussian_mixture()
    # a row-wise sum, so a row's bits do not depend on the rows beside it
    vals = model.amplitude * (laguerre_laplace(n, alpha, 2.0 * s / B) * c).sum(axis=1)
    _check_entries(vals, q, 0, ks)
    if model.long_range and len(ks):
        i = sorted({0, len(ks) - 1, int(np.argmax(alpha))})
        n, a = n[i], alpha[i]
        order = _certificate_order(q)
        check = _window_quadrature(_mode_map(model)[0], B, n, a, n, a, order)
        gap = np.abs(vals[i] - check) / np.maximum(np.abs(check), np.finfo(float).tiny)
        # psi's normalization enters the quadrature through lgamma(alpha + 1),
        # whose rounding scales every node of the row alike
        tol = _CERT_TOL + 8.0 * np.finfo(float).eps * _lgamma_arr(a + 1.0)
        if not np.all(gap <= tol):
            worst = int(np.argmax(gap / tol))  # a NaN counts as the largest
            raise ContractError(
                f"diagonal-sum: quadrature certificate failed at q={q}, k={ks[i][worst]:.10g}: "
                f"the sum and {order}-node quadrature differ by {gap[worst]:.3e} "
                f"relative > {tol[worst]:.3e}")
    return vals


def _entry_window(rows, model: PotentialModel, q: int, j: int, k_lo: int,
                  k_hi: int) -> np.ndarray:
    """Band j's entries (j = 0: the diagonal) for k in [k_lo, k_hi] from
    `rows`, its row function of real k; the far window of a long-range model
    is a certified Chebyshev fit."""
    k_split = max(k_lo, 4 * q, 32)
    if not model.long_range or k_hi - k_split + 1 <= 8 * _CHEB_NODES:
        k_split = k_hi + 1
    exact = rows(np.arange(k_lo, k_split))
    if k_split > k_hi:
        return exact
    return np.concatenate([exact, _chebyshev_tail(rows, model.rho, q, j, k_split, k_hi)])


def _diagonal_window(model: PotentialModel, B: float, q: int, k_lo: int,
                     k_hi: int) -> np.ndarray:
    """Diagonal entries for k in [k_lo, k_hi]."""
    return _entry_window(partial(_diagonal_rows, model, B, q), model, q, 0, k_lo, k_hi)


def _chebyshev_tail(rows, rho: float, q: int, j: int, k_a: int, k_b: int) -> np.ndarray:
    """Band j's entries for k in [k_a, k_b] by the certified Chebyshev fit of
    its scaled row function (k+q+1)^(rho/2) rows(k) in log(k+q+1)."""

    def scaled(u):
        m = np.exp(u)
        return m ** (0.5 * rho) * rows(m - q - 1.0)

    u_a, u_b = math.log(k_a + q + 1.0), math.log(k_b + q + 1.0)
    fit = Chebyshev.interpolate(scaled, _CHEB_NODES - 1, domain=[u_a, u_b])
    u_check = 0.5 * (u_a + u_b) + 0.5 * (u_b - u_a) * chebpts2(_CHEB_NODES + 1)
    exact = scaled(u_check)
    err = float(np.max(np.abs(fit(u_check) - exact)
                       / np.maximum(np.abs(exact), np.finfo(float).tiny)))
    tol = 1e-9 * max(1.0, q / 128.0)
    if not err <= tol:
        raise ContractError(
            f"entry-fit: Chebyshev fit at q={q}, band j={j}, k in [{k_a}, {k_b}] failed "
            f"its held-out certificate: relative error {err:.3e} > tolerance {tol:.3e}")
    m = np.arange(k_a, k_b + 1) + q + 1.0
    return fit(np.log(m)) / m ** (0.5 * rho)


def _check_cap(k_max: int, q: int) -> None:
    """The one angular capacity cap: k_max <= K_HARD_CAP at level q."""
    if k_max > K_HARD_CAP:
        raise CapacityError(
            f"k_max {k_max} exceeds hard cap {K_HARD_CAP} at q={q}; increase delta")


def radial_diagonal(model: PotentialModel, cfg: LandauConfig) -> np.ndarray:
    """Diagonal entries <V phi_{k,q}, phi_{k,q}> for k = -q .. k_max.

    This is the storage-free fast path for radial models (the full block is
    diagonal); it is also the diagonal of the banded anisotropic block.
    """
    _check_cap(cfg.k_max, cfg.q)
    return _diagonal_window(model, cfg.B, cfg.q, -cfg.q, cfg.k_max)


def toeplitz_entry(model: PotentialModel, B: float, q: int, k1: int, k2: int) -> float:
    """Single matrix element <V phi_{k2,q}, phi_{k1,q}>: one row of band
    |k1 - k2|, through the same path and checks as the block, so with the
    same bits, except on a far window that the block fits, of the diagonal
    or of a band: there it is the exact row, which agrees with the fit within
    its certificate."""
    landau_level(B, q)
    k = np.array([min(BasisIndex(q, k1).k, BasisIndex(q, k2).k)])  # integers >= -q only
    modes = _mode_map(model)
    if k1 - k2 not in modes:
        return 0.0
    if k1 == k2:
        return float(_diagonal_rows(model, B, q, k)[0])
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
        ks, w = self.ks, self.bandwidth
        write_csv(path, "k,k_prime,value",
                  ((k, ks[j], self.entries[i, j]) for i, k in enumerate(ks)
                   for j in range(max(0, i - w), min(len(ks), i + w + 1))))

    def summary(self) -> dict:
        return _block_summary(self.q, self.B, self.k_max, self.bandwidth,
                              self.diagonal, self.truncation_tail_bound)

    def summary_json(self, path) -> None:
        write_json(path, self.summary())


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
    The diagonal and every band share one split: rows k < max(4q, 32) are
    exact, and a long window past them is a certified Chebyshev fit.
    """
    modes = _mode_map(model)
    diag = radial_diagonal(model, cfg)
    bands = {j: _entry_window(partial(_band_rows, modes[j], cfg.B, cfg.q, j=j), model,
                              cfg.q, j, -cfg.q, cfg.k_max - j)
             for j in sorted(j for j in modes if j > 0)}
    return diag, bands


def _scatter(diag: np.ndarray, bands: dict) -> np.ndarray:
    """Dense matrix of the block: band j holds the entries (i, i + j)."""
    A = np.diag(diag)
    for j, band in bands.items():
        i = np.arange(len(band))
        A[i, i + j] = A[i + j, i] = band
    return A


def toeplitz_matrix(model: PotentialModel, cfg: LandauConfig) -> ToeplitzBlock:
    """The level block as one dense matrix, scattered from its bands.

    This is the dense view of the block and the test oracle for the chain
    solves of :func:`level_spectrum`, which never store the whole block.
    Dense storage is capped at dimension 4096; radial models beyond that
    should use :func:`radial_diagonal`, which skips the matrix entirely.
    """
    _check_dense_cap(cfg.dimension)
    diag, bands = _level_bands(model, cfg)
    tail = _row_bound(model, cfg.B, cfg.q, cfg.k_max + 1)
    return ToeplitzBlock(q=cfg.q, B=cfg.B, k_max=cfg.k_max, entries=_scatter(diag, bands),
                         bandwidth=max(bands, default=0), truncation_tail_bound=tail)


def level_spectrum(model: PotentialModel, B: float, q: int, delta: float,
                   rho: float, window=None):
    """Sorted spectrum of the level-q block truncated where entries drop
    below `delta` (exponent `rho`): all of it, or with window=(lo, hi) on one
    side of 0 only the eigenvalues between lo and hi.

    Returns (values, k_max, tail bound, eigen residual bound, block summary
    dict); the summary is taken from the level's diagonal, as
    ``ToeplitzBlock.summary`` takes it.  Radial models skip the matrix, return
    every value whatever the window, and have residual 0.  An anisotropic
    block is the direct sum of m tridiagonal residue chains (diag[r::m],
    band[r::m]): its diagonal, its band and the offset m go to
    ``tridiagonal_eig`` as they are, and every Sturm count pass runs over all
    the chains at once, for eigenvalues only, found and certified by Sturm
    counts.  The block is never stored, so only K_HARD_CAP bounds its
    dimension, at K_HARD_CAP + q + 1.
    """
    k_max = truncation_bound(model, B, q, delta, rho_scale=rho)
    diag, bands = _level_bands(model, LandauConfig(B=B, q=q, k_max=k_max))
    tail = _row_bound(model, B, q, k_max + 1)
    summary = _block_summary(q, B, k_max, max(bands, default=0), diag, tail)
    if not bands:
        return np.sort(diag), k_max, tail, 0.0, summary
    (m, band), = bands.items()
    spec = tridiagonal_eig(diag, band, window, m=m)
    return spec.values, k_max, tail, spec.residual_bound, summary


def indicator_basis_mass(idx: BasisIndex, B: float, radius: float) -> float:
    """<1_radius phi_{k,q}, phi_{k,q}> = int_0^radius R^2 r dr.

    Integrated in s = sqrt(xi) where the Laguerre oscillations are uniform;
    the quadrature never crosses the indicator kink at r = radius.  Past the
    window edge sqrt(hi) psi is negligible, so the rule stops there and its
    length does not grow with the radius.
    """
    landau_level(B, idx.q)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    _, hi = _xi_window(idx.n, float(idx.alpha))
    edge = math.sqrt(float(hi[0]))
    s_max = min(math.sqrt(0.5 * B) * radius, edge)
    M = 64 + int(math.ceil(1.8 * s_max * edge))
    s, ws = panel_rule([0.0, s_max], M)
    psi = laguerre_function(idx.n, float(idx.alpha), s * s)
    return float(np.dot(ws, 2.0 * s * psi * psi))


def _row_bound(model: PotentialModel, B: float, q: int, k: int) -> float:
    """Gershgorin-style bound for row k: the mode envelope (one entry per signed
    mode) at the inner orbit edge |r_center - r_orbit|, so it dominates the
    circle average that the true diagonal is."""
    r = abs(math.sqrt((2.0 * (q + k) + 1.0) / B) - math.sqrt((2.0 * q + 1.0) / B))
    return float(model.mode_envelope(r))


def truncation_bound(model: PotentialModel, B: float, q: int, delta: float,
                     *, rho_scale: float | None = None) -> int:
    """Smallest k_max whose discarded rows are certified below the target.

    All rows k > k_max satisfy row_bound(k) < delta * lambda_q^(-rho/2); with
    delta below the scaled support edge of every registered test function,
    eigenvalues of the discarded tail cannot meet that support.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if rho_scale is None:
        if not model.long_range:
            raise ValueError("rho_scale is required for compactly supported models")
        rho_scale = model.rho
    if not math.isfinite(rho_scale):
        raise ValueError(f"rho_scale must be finite, got {rho_scale!r}")
    lam = landau_level(B, q)
    thr = delta * lam ** (-rho_scale / 2.0)
    lo, hi = 0, 1
    while _row_bound(model, B, q, hi) >= thr:
        _check_cap(hi, q)
        lo, hi = hi, 2 * hi
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if _row_bound(model, B, q, mid) >= thr:
            lo = mid
        else:
            hi = mid
    K = hi
    _check_cap(K, q)
    while _row_bound(model, B, q, K + 1) >= thr:  # guard against local bumps
        K += 1
        _check_cap(K, q)
    return K
