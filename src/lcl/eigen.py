"""Real-symmetric eigensolvers with certificates.

``sym_eig`` takes a dense matrix to LAPACK's `numpy.linalg.eigh`, every
eigenvector included, and certifies it by sampled eigenpair residuals.
``tridiagonal_eig`` takes a symmetric matrix with one band at offset m, the
direct sum of m tridiagonal residue chains (m = 1: one tridiagonal matrix),
as its diagonal d and band e to Sturm counts (Barth, Martin and Wilkinson,
*Numer. Math.* 9 (1967); Demmel, *Applied Numerical Linear Algebra*, §5.3),
with no matrix formed.  The chains lie side by side as the columns of
front-padded (L, m) arrays, so that row t of each is one row of the layout,
and every count pass runs one row loop, ``_sturm_rows``, over all of them,
one lane of shifts per chain: a multisection grid per chain, then passes of
one count per eigenvalue, which bisect each bracket that holds more than one
eigenvalue and take safeguarded Newton steps on det(T - x) inside each that
isolates one, their slope summed from the same pivots (Li and Zeng,
*SIAM J. Sci. Comput.* 15 (1994)).  Every eigenvalue, or only those in a
window, is proven to lie in its final bracket by fresh counts at both ends.
This module owns the contract around both: finite and well-shaped input, the
dense dimension cap (``eigh``, and each chain of a full banded spectrum), and
one certificate block (the eigenvalue error bound, then the trace and
Frobenius identities) that raises NumericalError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ContractError, NumericalError
from .specfun import BLOCK_POINTS

__all__ = ["EigenSpectrum", "sym_eig", "tridiagonal_eig", "DENSE_CAP"]

DENSE_CAP = 4096
_SYM_RTOL = 1e-12
_IDENT_RTOL = 1e-9
_N_RESIDUAL_SAMPLES = 8
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_TIGHT_RTOL = 2.0 ** 10 * _EPS  # final bracket width, relative to the Gershgorin norm
_BLOCK = 32  # most rows of a Sturm count between sign tallies and early-exit tests
_ONE = np.ones(())  # 1 as an array operand: a ufunc call costs less than with a float


@dataclass(frozen=True)
class EigenSpectrum:
    """Sorted eigenvalues and `residual_bound`, their certified error: the
    half-width of the widest Sturm-count bracket from ``tridiagonal_eig``,
    relative to its chain's Gershgorin bound on max |lambda|, or the worst sampled
    eigenpair residual from ``sym_eig``, relative to max |lambda|."""

    values: np.ndarray = field(repr=False)
    residual_bound: float
    dimension: int

    def __post_init__(self):
        if self.dimension != len(self.values):
            raise ValueError("dimension does not match the number of eigenvalues")


def _check_dense_cap(n: int) -> None:
    """The one dense-storage cap: dimension n <= DENSE_CAP."""
    if n > DENSE_CAP:
        raise CapacityError(f"dimension {n} exceeds dense cap {DENSE_CAP}")


class _Chains(NamedTuple):
    """A banded symmetric matrix, diagonal d plus one band at offset m, as its
    m tridiagonal residue chains: the columns of (L, m) arrays, chain c holding
    the rows i = c - pad (mod m), front-padded so that every chain ends at row
    L - 1.  A pad row is inert: +inf on the diagonal and no coupling, so its
    pivot is +inf, counts nothing and adds -0 to the slope.  Per chain: its
    Gershgorin interval [lo, hi], widened by 16 eps norm so that the rounded
    disc ends still bound it, and `norm`, its Gershgorin bound on max
    |lambda|."""

    d: np.ndarray  # the diagonal, with +0 for -0, +inf in the pad
    e2: np.ndarray  # e2[t] = e^2 couples rows t - 1 and t: 0 at a chain's first row
    e: np.ndarray  # |e|, likewise
    top: np.ndarray  # each row's disc top, -inf in the pad
    cut: np.ndarray  # the rows t > 0 where some chain has e2[t] = 0 below a real row
    size: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    norm: np.ndarray


def _chains(d, e, m) -> _Chains:
    """The banded matrix with diagonal d and band e at offset m, laid out as
    its m chains."""
    n = len(d)
    rows = -(-n // m)
    pad = rows * m - n
    dd, a = np.full(rows * m, np.inf), np.zeros((rows + 1) * m)
    dd[pad:], a[pad + m:pad + n] = d + 0.0, np.abs(e)
    dd, a = dd.reshape(rows, m), a.reshape(rows + 1, m)
    real, r = np.isfinite(dd), a[:-1] + a[1:]
    low, top = np.where(real, dd - r, np.inf), np.where(real, dd + r, -np.inf)
    norm = np.max(np.maximum(-low, top), axis=0, initial=_TINY / _EPS)
    edge = 16.0 * _EPS * norm
    e2 = np.square(a[:-1])
    cut = 1 + np.flatnonzero(np.any((e2[1:] == 0.0) & real[:-1], axis=1))
    return _Chains(dd, e2, a[:-1], top, cut, np.count_nonzero(real, axis=0),
                   np.min(low, axis=0, initial=np.inf) - edge,
                   np.max(top, axis=0, initial=-np.inf) + edge, norm)


def _sturm_rows(s: _Chains, x, chain, early_exit=False, slope=False):
    """The one Sturm loop: (counts, S) for shifts x, shift j on chain
    chain[j] of s.  Its count is the number of the chain's eigenvalues
    strictly below x_j, the negative pivots q_i = (d_i - x) - e_{i-1}^2 /
    q_{i-1} of the LDL^T factorization of T - x.

    Each chain's shifts fill its lane of w slots, w the most shifts on one
    chain; a spare slot holds the top of every chain's Gershgorin interval,
    so its pivots stay below -|e| and never hold up an early exit.  The loop
    runs on the (m, w) lanes in blocks of at most _BLOCK rows and, past one
    row, BLOCK_POINTS slots: d_i - x for a block by one broadcast
    subtraction, e_{i-1}^2 by one broadcast copy, each a contiguous slice of
    the layout, then two ufunc calls a row on arrays of one shape, with
    positional outputs, and the signs tallied once a block in uint8.

    IEEE arithmetic stands in for a pivot guard (Marques, Riedy and Vömel,
    *SIAM J. Sci. Comput.* 28 (2006)): d is taken with +0 for -0, so a zero
    pivot is +0, not counted, and the next one is -inf, counted.  e_i^2 = 0
    follows a pivot of +inf at a chain's first row and in its pad; a zero
    coupling inside a chain (s.cut) starts a block, whose chains with e_i^2 =
    0 there restart from the pivot +inf, so no 0/0 arises and the count is
    that of the chain's pieces, exactly.

    With `early_exit`, the rows past the last one whose Gershgorin disc
    reaches the least shift of its chain, less a rounding margin, lie below
    every shift.  Once every pivot there is <= -|e_i|, so is every later one
    (-e_i^2 / q_i <= |e_i| and the next disc lies below x), and the rows
    left are counted without being factored.

    With `slope`, S = sum_i q_i' / q_i is the derivative of log |det(T - x)|
    of the shift's chain, from the same pivots: u_i = q_i' / q_i with
    q_i' = (e_{i-1}^2 / q_{i-1}) u_{i-1} - 1.  Rows past an early exit add
    nothing to S: their pivots stay <= -|e_i|, so the terms left out vary
    smoothly with x and only change the remainder R in Newton's error
    e^2 R / (1 + e R).  A zero pivot makes S inf or NaN.  Without it S is 0.
    """
    nx = x.size
    count, total = np.zeros(nx, dtype=np.intp), np.zeros(nx)
    if not nx:
        return count, total
    rows, m = s.d.shape
    order = np.argsort(chain, kind="stable")
    k = np.bincount(chain, minlength=m)
    w = max(int(np.max(k)), 2)  # a ufunc call on one-element arrays costs about twice as much
    slot = np.repeat(np.arange(m) * w - (np.cumsum(k) - k), k) + np.arange(nx)
    xs = np.full((m, w), float(np.max(s.hi)))
    xs.flat[slot] = x[order]
    stop = rows
    if early_exit:
        margin = 16.0 * _EPS * (float(np.max(s.norm)) + float(np.max(np.abs(x))))
        least = np.full(m, np.inf)
        np.minimum.at(least, chain, x)
        reach = np.flatnonzero(np.any(s.top >= least - margin, axis=1))
        stop = int(np.max(reach, initial=-1)) + 1
    step = max(1, min(_BLOCK, BLOCK_POINTS // xs.size))
    restarts = set(s.cut.tolist())
    starts = sorted(restarts.union(range(0, rows, step)))
    counts, sums = np.zeros(xs.shape, dtype=np.intp), np.zeros(xs.shape)
    q0, u0, r = np.full(xs.shape, np.inf), np.zeros(xs.shape), np.empty(xs.shape)
    q, u = q0, u0  # the pivot and u of the row above
    qb, ub, eb = np.empty((3, step) + xs.shape)
    below = np.empty(qb.shape, dtype=bool)
    qrows, urows, erows = list(qb), list(ub), list(eb)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, end in zip(starts, starts[1:] + [rows]):
            if i in restarts:
                fresh = s.e2[i] == 0.0
                q0[fresh], u0[fresh] = np.inf, 0.0
            qs = qb[:end - i]
            np.subtract(s.d[i:end, :, None], xs, qs)
            np.copyto(eb[:end - i], s.e2[i:end, :, None])
            if slope:
                for qi, ui, ei in zip(qrows, urows, erows[:end - i]):
                    np.divide(ei, q, r)
                    np.subtract(np.multiply(r, u, ui), _ONE, ui)
                    q = np.subtract(qi, r, qi)
                    u = np.divide(ui, q, ui)
                sums += np.add.reduce(ub[:end - i], axis=0)
            else:
                for qi, ei in zip(qrows, erows[:end - i]):
                    q = np.subtract(qi, np.divide(ei, q, r), qi)
            counts += np.add.reduce(np.less(qs, 0.0, below[:end - i]), axis=0, dtype=np.uint8)
            if stop <= end < rows and np.all(q <= -s.e[end][:, None]):
                counts += rows - end
                break
            np.copyto(q0, q)
            np.copyto(u0, u)
            q, u = q0, u0
    count[order], total[order] = counts.ravel()[slot], sums.ravel()[slot]
    return count, total


def _sturm_count(d, e, x, early_exit=False, slope=False):
    """Eigenvalues of the symmetric tridiagonal (d, e) strictly below x,
    vectorized over shifts x, from one pass of ``_sturm_rows`` on the one
    chain (m = 1).  With `slope`, it returns (counts, S), S the derivative
    of log |det(T - x)|."""
    x = np.asarray(x, dtype=float)
    s = _chains(np.asarray(d, dtype=float), np.asarray(e, dtype=float), 1)
    count, total = (v.reshape(x.shape) for v in _sturm_rows(
        s, x.reshape(-1), np.zeros(x.size, dtype=np.intp), early_exit, slope))
    return (count, total) if slope else count


def _bisect(s: _Chains, lo, hi, chain, index):
    """Eigenvalues `index` (ascending within each chain) of the chains
    `chain` of s, each in [lo, hi] of its chain, and their radii relative to
    its norm, in two phases that share their count passes over all chains.
    Each eigenvalue keeps to its own chain: its grid, its tolerance
    tol = _TIGHT_RTOL norm, its bracket and its counts.

    1. One multisection pass of four cells per eigenvalue of each chain
       brackets each and keeps the counts at both ends of every bracket.
    2. Each refinement pass counts every eigenvalue not yet tol-bracketed
       once, at its iterate, which tightens its bracket, and sums the slope
       S = d/dx log|det(T - x)| from the same pivots.  A bracket whose end
       counts differ by more than one is bisected, with its width as its
       isolating width and t = 0.  Inside a bracket that isolated its
       eigenvalue before the pass, safeguarded Newton on det(T - x): the
       next iterate is x - 1/S if that lies inside the bracket and, after t
       passes, the bracket is at most 2^(1 - floor(t/2)) of its isolating
       width; otherwise it is the midpoint, so the bracket halves at least
       every two passes after the first two, and no isolated eigenvalue
       takes more than twice the passes of bisection, plus three.  A
       proposal passed over for the midpoint is kept while its step is the
       shorter.  A step below tol/4 is closed: the next iterate lies tol/4
       beyond it, so that its count ends the bracket under tol/2 wide, and a
       step that misjudged the distance costs only that count.

    The ends a_i, b_i of the final brackets are then counted afresh:
    count(a_i) <= i < count(b_i) proves eigenvalue i in [a_i, b_i]; a bracket
    that fails it has radius inf.
    """
    k, tol = len(index), _TIGHT_RTOL * s.norm[chain]
    # chain p's grid: 4 k_p + 1 points on [lo_p, hi_p], spaced as np.linspace
    # spaces them; its counts, offset by p (L + 1), rise across the chains
    n4 = 4 * np.bincount(chain, minlength=len(s.size))
    num = n4 + (n4 > 0)
    first = np.cumsum(num) - num
    at = np.repeat(np.arange(len(n4)), num)
    grid = (np.arange(at.size) - first[at]) * ((hi - lo) / np.maximum(n4, 1))[at] + lo[at]
    grid[first[n4 > 0] + n4[n4 > 0]] = hi[n4 > 0]
    counts = _sturm_rows(s, grid, at, True)[0]
    shift = s.d.shape[0] + 1
    j = np.searchsorted(counts + at * shift, index + chain * shift, side="right") - 1
    j = first[chain] + np.clip(j - first[chain], 0, n4[chain] - 1)
    a, b, ca, cb = grid[j], grid[j + 1], counts[j], counts[j + 1]
    x, start = 0.5 * (a + b), b - a  # the next iterate, the isolating width
    passes = np.zeros(k, dtype=np.intp)
    held, held_step = np.full(k, np.nan), np.full(k, np.inf)  # a proposal not taken
    done = b - a <= tol
    while not np.all(done):
        live = np.flatnonzero(~done)
        xl, tl = x[live], tol[live]
        alone = cb[live] - ca[live] == 1  # isolated before this pass
        c, slope = _sturm_rows(s, xl, chain[live], True, slope=True)
        up = c <= index[live]  # the eigenvalue lies above the iterate
        a[live], ca[live] = np.where(up, xl, a[live]), np.where(up, c, ca[live])
        b[live], cb[live] = np.where(up, b[live], xl), np.where(up, cb[live], c)
        al, bl = a[live], b[live]
        passes[live] = np.where(alone, passes[live] + 1, 0)
        start[live] = np.where(alone, start[live], bl - al)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -1.0 / slope
        size, prop = np.abs(step), xl + step
        close = (size < 0.25 * tl) & (al <= prop) & (prop <= bl)
        prop = np.where(close, prop + np.where(up, 0.25, -0.25) * tl, prop)
        # the held proposal, if its step is shorter or this one is NaN
        old = ~close & ~(held_step[live] >= size) & (al < held[live]) & (held[live] < bl)
        prop, size = np.where(old, held[live], prop), np.where(old, held_step[live], size)
        take = alone & ((al < prop) & (prop < bl)
                        & (bl - al <= np.ldexp(start[live], 1 - passes[live] // 2)))
        keep = alone & ~take
        x[live] = np.where(take, prop, 0.5 * (al + bl))
        held[live] = np.where(keep, prop, np.nan)
        held_step[live] = np.where(keep, size, np.inf)
        done[live] = bl - al <= tl
    counts = _sturm_rows(s, np.concatenate([a, b]), np.concatenate([chain, chain]), True)[0]
    proven = (counts[:k] <= index) & (index < counts[k:])
    return 0.5 * (a + b), np.where(proven, 0.5 * (b - a), np.inf) / s.norm[chain]


def _certify(vals, bound, worst, n, identities=None) -> EigenSpectrum:
    """The certificate block of every solve: the eigenvalue error `bound`,
    which must not exceed _IDENT_RTOL (`worst` is the index it was found at,
    n the dimension), then, for a full spectrum, the trace and Frobenius
    identities given as (trace, Frobenius norm^2, max |entry|)."""
    if not bound <= _IDENT_RTOL:
        raise NumericalError(
            f"eigen-residual: eigenvalue {worst} of dimension {n} is certified "
            f"only to {bound:.3e} max|lambda| > {_IDENT_RTOL:g}")
    if identities is not None:
        trace, frob, scale = identities
        tol = _IDENT_RTOL * max(n * scale, 1e-300)
        tr_err = abs(float(np.sum(vals)) - trace)
        if not tr_err <= tol:
            raise NumericalError(f"trace identity violated by {tr_err:.3e}")
        fr_err = abs(float(np.sum(vals * vals)) - frob)
        if not fr_err <= tol * max(scale, 1.0):
            raise NumericalError(f"Frobenius identity violated by {fr_err:.3e}")
    return EigenSpectrum(values=vals, residual_bound=bound, dimension=len(vals))


def sym_eig(matrix) -> EigenSpectrum:
    """All eigenvalues of a dense real symmetric matrix, ascending.

    Solved by a dense ``eigh`` and certified by sampled eigenpair residuals.
    Raises ContractError for non-finite or asymmetric input, CapacityError
    above the dense cap, NumericalError if LAPACK fails to converge or the
    residual certificate (``eigen-residual``) or the trace/Frobenius
    identities are violated.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    _check_dense_cap(n)
    scale = float(np.max(np.abs(A), initial=0.0))
    if not np.isfinite(scale):
        raise ContractError("matrix has a non-finite entry")
    asym = float(np.max(np.abs(A - A.T), initial=0.0))
    if scale > 0.0 and asym > _SYM_RTOL * scale:
        raise ContractError(
            f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}")
    if not n:
        return EigenSpectrum(values=np.empty(0), residual_bound=0.0, dimension=0)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    samples = list(range(0, n, max(1, n // _N_RESIDUAL_SAMPLES))) + [n - 1]
    residuals = [float(np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j]))
                 for j in samples]
    worst = samples[int(np.argmax(residuals))]
    bound = max(residuals) / max(float(np.max(np.abs(vals))), 1e-300)
    return _certify(vals, bound, worst, n,
                    (float(np.trace(A)), float(np.sum(A * A)), scale))


def tridiagonal_eig(d, e, window=None, *, m=1) -> EigenSpectrum:
    """Eigenvalues of the symmetric matrix with diagonal d and one band e at
    offset m, ascending: all n of them, or with window=(lo, hi) and 0 < lo <
    hi only those in [lo, hi).  m = 1 is a tridiagonal matrix; an offset m
    makes the matrix the direct sum of m tridiagonal residue chains, the
    rows i = r (mod m), as in an anisotropic level block.  A window lo < hi <
    0 is solved as (-hi, -lo) on (-d, e) and mirrored back, so its values lie
    in (lo, hi].

    The chains are laid out side by side, and every count pass of the solve
    runs over all of them in one row loop; each eigenvalue keeps its own
    chain's grid, tolerance, bracket and certificate.  The full spectrum is
    held to the dense cap per chain and, after the bracket certificate, to
    the trace and Frobenius identities of the whole matrix.  A window has no
    cap: its counts early-exit past the last row whose Gershgorin disc
    reaches lo.  Raises ContractError for ill-shaped or non-finite input or a
    window that straddles 0, CapacityError for a full spectrum with a chain
    above the dense cap, and NumericalError (``eigen-residual`` naming the
    index and n) for a bracket wider than 1e-9 of its chain's Gershgorin norm
    or not proven by its counts.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ContractError(f"band offset must be a positive integer, got {m!r}")
    if d.ndim != 1 or e.shape != (max(len(d) - m, 0),):
        raise ContractError(f"expected d of length n and e of length n - {m}, got "
                            f"shapes {d.shape} and {e.shape}")
    n = len(d)
    scale = float(np.max(np.abs(np.concatenate([d, e])), initial=0.0))
    if not np.isfinite(scale):
        raise ContractError("banded matrix has a non-finite entry")
    if window is not None:
        lo, hi = (float(w) for w in window)
        if not (math.isfinite(hi - lo) and lo < hi and (lo > 0.0 or hi < 0.0)):
            raise ContractError(f"window must be finite (lo, hi) with 0 < lo < hi "
                                f"or lo < hi < 0, got {window!r}")
    if scale == 0.0:  # every eigenvalue is 0, and no window holds 0
        vals = np.zeros(n if window is None else 0)
        return EigenSpectrum(values=vals, residual_bound=0.0, dimension=len(vals))
    # one power of two takes max|entry| into [1/2, 1), exactly, so that the
    # squares of e in the Sturm count neither overflow nor underflow
    p = math.frexp(scale)[1]
    d, e, scale = np.ldexp(d, -p), np.ldexp(e, -p), math.ldexp(scale, -p)
    if window is None:
        _check_dense_cap(-(-n // m))
        s = _chains(d, e, m)
        lo, hi, base, k = s.lo, s.hi, np.zeros_like(s.size), s.size
    else:
        lo, hi = math.ldexp(lo, -p), math.ldexp(hi, -p)
        if hi < 0.0:
            spec = tridiagonal_eig(-d, e, (-hi, -lo), m=m)
            return replace(spec, values=-np.ldexp(spec.values[::-1], p))
        s = _chains(d, e, m)
        c = _sturm_rows(s, np.repeat([lo, hi], m), np.tile(np.arange(m), 2), True)[0]
        lo, hi, base, k = np.full(m, lo), np.full(m, hi), c[:m], c[m:] - c[:m]
    if not np.sum(k):
        return EigenSpectrum(values=np.empty(0), residual_bound=0.0, dimension=0)
    chain = np.repeat(np.arange(len(k)), k)
    index = np.arange(len(chain)) - np.repeat(np.cumsum(k) - k - base, k)
    vals, radius = _bisect(s, lo, hi, chain, index)
    order = np.argsort(vals, kind="stable")
    vals, radius = vals[order], radius[order]
    worst = int(np.argmax(radius))
    identities = None
    if window is None:
        identities = (float(np.sum(d)), float(np.sum(d * d) + 2.0 * np.sum(e * e)), scale)
    spec = _certify(vals, float(radius[worst]), int(np.sum(base)) + worst, n, identities)
    return replace(spec, values=np.ldexp(spec.values, p))
