"""Real-symmetric eigensolvers with certificates.

``sym_eig`` takes a dense matrix to LAPACK's `numpy.linalg.eigh`, every
eigenvector included, and certifies it by sampled eigenpair residuals.
``tridiagonal_eig`` takes a symmetric tridiagonal matrix as its diagonal d and
off-diagonal e (a level block's residue chains, concatenated) to Sturm counts
(Barth, Martin and Wilkinson, *Numer. Math.* 9 (1967); Demmel, *Applied
Numerical Linear Algebra*, §5.3), with no matrix formed.  It splits the
matrix at its zero couplings into pieces, as LAPACK's ``dstebz`` does, and
every count pass runs one row loop, ``_sturm_rows``, over all of them, the
pieces side by side as lanes of shifts: a multisection grid per piece, then
multisection of the brackets that hold more than one eigenvalue, and
safeguarded Newton steps on det(T - x) inside each bracket that isolates one,
their slope summed from the same pivots (Li and Zeng, *SIAM J. Sci. Comput.*
15 (1994)).  Every eigenvalue, or only those in a window, is proven to lie in
its final bracket by fresh counts at both ends.  This module owns the
contract around both: finite and well-shaped input, the dense dimension cap
(``eigh``, and each piece of a full tridiagonal spectrum), and one
certificate block (the eigenvalue error bound, then the trace and Frobenius
identities) that raises NumericalError.
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
_PASS_SHIFTS = 2048  # shifts per refinement pass: below this, a count costs mostly per row


@dataclass(frozen=True)
class EigenSpectrum:
    """Sorted eigenvalues and `residual_bound`, their certified error: the
    half-width of the widest Sturm-count bracket from ``tridiagonal_eig``,
    relative to its piece's Gershgorin bound on max |lambda|, or the worst sampled
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


class _Pieces(NamedTuple):
    """A symmetric tridiagonal matrix split at its zero couplings (e_i^2 = 0)
    into pieces, rows start .. start + size - 1 each.  Its rows are flat,
    with one inert row appended at index n: +inf on the diagonal and no
    coupling, so its pivot is +inf, counts nothing and adds -0 to the slope.
    Per piece: its Gershgorin interval [lo, hi], widened by 16 eps norm so
    that the rounded disc ends still bound it, and `norm`, its Gershgorin
    bound on max |lambda|."""

    d: np.ndarray  # the diagonal, with +0 for -0
    e2: np.ndarray  # e2[i] = e^2 couples rows i - 1 and i: 0 at a piece's first row
    e: np.ndarray  # |e|, likewise
    top: np.ndarray  # each row's disc top
    start: np.ndarray
    size: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    norm: np.ndarray


def _split(d, e) -> _Pieces:
    """(d, e) split into the pieces between its zero couplings."""
    n, a, e2 = len(d), np.abs(e), np.square(e)
    start = np.flatnonzero(np.concatenate([[True], e2 == 0.0]))
    size = np.diff(np.append(start, n))
    r = np.concatenate([a, [0.0]]) + np.concatenate([[0.0], a])
    low, top, piece = d - r, d + r, np.repeat(np.arange(len(start)), size)
    norm, lo, hi = np.full((3, len(start)), [[_TINY / _EPS], [np.inf], [-np.inf]])
    np.fmax.at(norm, piece, np.maximum(-low, top))
    np.fmin.at(lo, piece, low)
    np.fmax.at(hi, piece, top)
    edge = 16.0 * _EPS * norm
    return _Pieces(np.append(d + 0.0, np.inf), np.concatenate([[0.0], e2, [0.0]]),
                   np.concatenate([[0.0], a, [0.0]]), top, start, size,
                   lo - edge, hi + edge, norm)


def _sturm_rows(s: _Pieces, x, piece, early_exit=False, slope=False):
    """The one Sturm loop: (counts, S) for shifts x, shift j on piece
    piece[j] of s.  Its count is the number of the piece's eigenvalues
    strictly below x_j, the negative pivots q_i = (d_i - x) - e_{i-1}^2 /
    q_{i-1} of the LDL^T factorization of T - x.

    Each piece's shifts fill lanes of w slots, the last slots of a lane
    repeating the piece's first shift; w is the most shifts on one piece or
    nx over the pieces that have any, whichever takes fewer slots.  The loop
    runs on (lanes, w) rows in blocks of at most _BLOCK rows and, past one
    row, BLOCK_POINTS slots: d_i - x and e_{i-1}^2 for a block by one
    broadcast each, then two ufunc calls a row on arrays of one shape, with
    positional outputs, and the signs tallied once a block in uint8.

    IEEE arithmetic stands in for a pivot guard (Marques, Riedy and Vömel,
    *SIAM J. Sci. Comput.* 28 (2006)): d is taken with +0 for -0, so a zero
    pivot is +0, not counted, and the next one is -inf, counted; e_i = 0
    only at the first row of a piece, after a pivot of +inf, so no 0/0
    arises.

    With `early_exit`, the rows past the last one whose Gershgorin disc
    reaches the least shift of its lane, less a rounding margin, lie below
    every shift.  Once every pivot there is <= -|e_i|, so is every later one
    (-e_i^2 / q_i <= |e_i| and the next disc lies below x), and the rows
    left are counted without being factored.

    With `slope`, S = sum_i q_i' / q_i is the derivative of log |det(T - x)|
    of the shift's piece, from the same pivots: u_i = q_i' / q_i with
    q_i' = (e_{i-1}^2 / q_{i-1}) u_{i-1} - 1.  Rows past an early exit add
    nothing to S: their pivots stay <= -|e_i|, so the terms left out vary
    smoothly with x and only change the remainder R in Newton's error
    e^2 R / (1 + e R).  A zero pivot makes S inf or NaN.  Without it S is 0.
    """
    nx = x.size
    count, total = np.zeros(nx, dtype=np.intp), np.zeros(nx)
    if not nx:
        return count, total
    order = np.argsort(piece, kind="stable")
    k = np.bincount(piece, minlength=len(s.size))
    w = min(int(np.max(k)), -(-nx // np.count_nonzero(k)),
            key=lambda w: w * int(np.sum(-(-k // w))))  # the fewer slots
    w = max(w, 2)  # a ufunc call on one-element arrays costs about twice as much
    lanes = -(-k // w)
    col, first = np.repeat(np.arange(len(k)), lanes), np.cumsum(k) - k
    slot = np.repeat((np.cumsum(lanes) - lanes) * w - first, k) + np.arange(nx)
    x = x[order]
    xs = np.repeat(x[first[col]], w)
    xs[slot] = x
    xs = xs.reshape(len(col), w)
    # the pieces aligned at their last row: lane c's row i is flat row
    # base[c] + i, or the inert row before its piece starts
    rows, inert = int(np.max(s.size)), len(s.d) - 1
    base, begin = s.start[col] - (rows - s.size[col]), s.start[col]
    step = max(1, min(_BLOCK, BLOCK_POINTS // xs.size))
    ramp = base + np.arange(step)[:, None]

    def flat(i, end):
        at = ramp[:end - i] + i
        return np.where(at < begin, inert, at)

    stop = rows
    if early_exit:
        margin = 16.0 * _EPS * (float(np.max(s.norm)) + float(np.max(np.abs(x))))
        least = np.full(len(k), np.inf)
        np.minimum.at(least, col, np.min(xs, axis=1))
        piece = np.repeat(np.arange(len(k)), s.size)
        reach = np.flatnonzero(s.top >= least[piece] - margin)
        reach += (rows - s.size - s.start)[piece[reach]]  # as aligned rows
        stop = int(np.max(reach, initial=-1)) + 1
    counts, sums = np.zeros(xs.shape, dtype=np.intp), np.zeros(xs.shape)
    q0, u0, r = np.full(xs.shape, np.inf), np.zeros(xs.shape), np.empty(xs.shape)
    q, u = q0, u0  # the pivot and u of the row above
    qb, ub, eb = np.empty((3, step) + xs.shape)
    below = np.empty(qb.shape, dtype=bool)
    qrows, urows, erows = list(qb), list(ub), list(eb)
    de2 = np.column_stack([s.d, s.e2])  # one gather a block for both
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(0, rows, step):
            end = min(i + step, rows)
            de, qs = de2[flat(i, end)], qb[:end - i]
            np.copyto(qs, de[:, :, :1])
            np.subtract(qs, xs, qs)
            np.copyto(eb[:end - i], de[:, :, 1:])
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
            if stop <= end < rows and np.all(q <= -s.e[flat(end, end + 1).T]):
                counts += rows - end
                break
            np.copyto(q0, q)
            np.copyto(u0, u)
            q, u = q0, u0
    count[order], total[order] = counts.ravel()[slot], sums.ravel()[slot]
    return count, total


def _sturm_count(d, e, x, early_exit=False, slope=False):
    """Eigenvalues of the symmetric tridiagonal (d, e) strictly below x,
    vectorized over shifts x: the counts of every piece between its zero
    couplings, summed, from one pass of ``_sturm_rows``.  With `slope`, it
    returns (counts, S), S the derivative of log |det(T - x)|, summed over
    the pieces likewise."""
    x = np.asarray(x, dtype=float)
    s = _split(np.asarray(d, dtype=float), np.asarray(e, dtype=float))
    m = len(s.size)
    count, total = (v.reshape(m, -1).sum(axis=0).reshape(x.shape) for v in _sturm_rows(
        s, np.tile(x.reshape(-1), m), np.repeat(np.arange(m), x.size), early_exit, slope))
    return (count, total) if slope else count


def _bisect(s: _Pieces, lo, hi, piece, index):
    """Eigenvalues `index` (ascending within each piece) of the pieces
    `piece` of s, each in [lo, hi] of its piece, and their radii relative to
    its norm, in three phases that share their count passes over all pieces.
    Each eigenvalue keeps to its own piece: its grid, its tolerance
    tol = _TIGHT_RTOL norm, its bracket and its counts.

    1. One multisection pass of four cells per eigenvalue of each piece
       brackets each and keeps the counts at both ends of every bracket.
    2. A bracket whose end counts differ by more than one is split into 2^b
       cells, with (2^b - 1) k <= _PASS_SHIFTS shifts in all, until it
       isolates its eigenvalue or is tol wide.
    3. Inside an isolating bracket, safeguarded Newton on det(T - x): each
       pass counts at the iterate, which tightens the bracket, and sums the
       slope S = d/dx log|det(T - x)| from the same pivots.  The next iterate
       is x - 1/S if that lies inside the bracket and, after t passes, the
       bracket is at most 2^(1 - floor(t/2)) of its isolating width;
       otherwise it is the midpoint, so the bracket halves at least every two
       passes after the first two, and no eigenvalue takes more than twice
       the passes of bisection, plus three.  A proposal passed over for the
       midpoint is kept while its step is the shorter.  A step below tol/4 is
       closed: the next iterate lies tol/4 beyond it, so that its count ends
       the bracket under tol/2 wide, and a step that misjudged the distance
       costs only that count.

    The ends a_i, b_i of the final brackets are then counted afresh:
    count(a_i) <= i < count(b_i) proves eigenvalue i in [a_i, b_i]; a bracket
    that fails it has radius inf.
    """
    k, tol = len(index), _TIGHT_RTOL * s.norm[piece]
    # piece p's grid: 4 k_p + 1 points on [lo_p, hi_p], spaced as np.linspace
    # spaces them; its counts, offset by p (n + 1), rise across the pieces
    n4 = 4 * np.bincount(piece, minlength=len(s.size))
    num = n4 + (n4 > 0)
    first = np.cumsum(num) - num
    at = np.repeat(np.arange(len(n4)), num)
    grid = (np.arange(at.size) - first[at]) * ((hi - lo) / np.maximum(n4, 1))[at] + lo[at]
    grid[first[n4 > 0] + n4[n4 > 0]] = hi[n4 > 0]
    counts = _sturm_rows(s, grid, at, True)[0]
    shift = len(s.d)
    j = np.searchsorted(counts + at * shift, index + piece * shift, side="right") - 1
    j = first[piece] + np.clip(j - first[piece], 0, n4[piece] - 1)
    a, b, ca, cb = grid[j], grid[j + 1], counts[j], counts[j + 1]
    x, start = 0.5 * (a + b), b - a  # the next Newton iterate, the isolating width
    passes = np.zeros(k, dtype=np.intp)
    held, held_step = np.full(k, np.nan), np.full(k, np.inf)  # a proposal not taken
    done = b - a <= tol
    while not np.all(done):
        live = np.flatnonzero(~done & (cb - ca == 1))
        split = np.flatnonzero(~done & (cb - ca != 1))
        m = 1
        if split.size:
            per_pass = max(1, int(math.log2(1 + _PASS_SHIFTS / split.size)))
            bits = math.ceil(math.log2(float(np.max((b[split] - a[split]) / tol[split]))))
            m = 2 ** min(per_pass, max(bits, 1))
        cells = a[split, None] + (b - a)[split, None] * (np.arange(m + 1) / m)
        cells[:, -1] = b[split]
        c, slope = _sturm_rows(s, np.concatenate([x[live], cells[:, 1:-1].ravel()]),
                               np.concatenate([piece[live], np.repeat(piece[split], m - 1)]),
                               True, slope=True)
        if split.size:
            cc = np.column_stack([ca[split], c[live.size:].reshape(split.size, m - 1),
                                  cb[split]])
            j = np.count_nonzero(cc[:, 1:-1] <= index[split, None], axis=1)
            rows = np.arange(split.size)
            a[split], b[split] = cells[rows, j], cells[rows, j + 1]
            ca[split], cb[split] = cc[rows, j], cc[rows, j + 1]
            x[split], start[split] = 0.5 * (a[split] + b[split]), b[split] - a[split]
            done[split] = b[split] - a[split] <= tol[split]
        if live.size:
            xl, c, tl = x[live], c[:live.size], tol[live]
            up = c <= index[live]  # the eigenvalue lies above the iterate
            a[live], ca[live] = np.where(up, xl, a[live]), np.where(up, c, ca[live])
            b[live], cb[live] = np.where(up, b[live], xl), np.where(up, cb[live], c)
            al, bl = a[live], b[live]
            passes[live] += 1
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -1.0 / slope[:live.size]
            size, prop = np.abs(step), xl + step
            close = (size < 0.25 * tl) & (al <= prop) & (prop <= bl)
            prop = np.where(close, prop + np.where(up, 0.25, -0.25) * tl, prop)
            # the held proposal, if its step is shorter or this one is NaN
            old = ~close & ~(held_step[live] >= size) & (al < held[live]) & (held[live] < bl)
            prop, size = np.where(old, held[live], prop), np.where(old, held_step[live], size)
            take = ((al < prop) & (prop < bl)
                    & (bl - al <= np.ldexp(start[live], 1 - passes[live] // 2)))
            x[live] = np.where(take, prop, 0.5 * (al + bl))
            held[live] = np.where(take, np.nan, prop)
            held_step[live] = np.where(take, np.inf, size)
            done[live] = bl - al <= tl
    counts = _sturm_rows(s, np.concatenate([a, b]), np.concatenate([piece, piece]), True)[0]
    proven = (counts[:k] <= index) & (index < counts[k:])
    return 0.5 * (a + b), np.where(proven, 0.5 * (b - a), np.inf) / s.norm[piece]


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


def tridiagonal_eig(d, e, window=None) -> EigenSpectrum:
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, ascending: all n of them, or with window=(lo, hi) and
    0 < lo < hi only those in [lo, hi).  A window lo < hi < 0 is solved as
    (-hi, -lo) on (-d, e) and mirrored back, so its values lie in (lo, hi].

    The matrix is split at its zero couplings (e_i^2 = 0 after scaling) into
    pieces, as LAPACK's ``dstebz`` splits it, and every count pass of the
    solve runs over all of them in one row loop; each eigenvalue keeps its
    own piece's grid, tolerance, bracket and certificate.  The full spectrum
    is held to the dense cap per piece and, after the bracket certificate,
    to the trace and Frobenius identities of the whole matrix.  A window has
    no cap: its counts early-exit past the last row whose Gershgorin disc
    reaches lo.  Raises ContractError for ill-shaped or non-finite input or a
    window that straddles 0, CapacityError for a full spectrum with a piece
    above the dense cap, and NumericalError (``eigen-residual`` naming the
    index and n) for a bracket wider than 1e-9 of its piece's Gershgorin norm
    or not proven by its counts.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (max(len(d) - 1, 0),):
        raise ContractError(f"expected d of length n and e of length n - 1, got "
                            f"shapes {d.shape} and {e.shape}")
    n = len(d)
    scale = float(np.max(np.abs(np.concatenate([d, e])), initial=0.0))
    if not np.isfinite(scale):
        raise ContractError("tridiagonal matrix has a non-finite entry")
    # one power of two takes max|entry| into [1/2, 1), exactly, so that the
    # squares of e in the Sturm count neither overflow nor underflow
    p = math.frexp(scale)[1]
    d, e, scale = np.ldexp(d, -p), np.ldexp(e, -p), math.ldexp(scale, -p)
    if window is None:
        if scale == 0.0:
            return EigenSpectrum(values=np.zeros(n), residual_bound=0.0, dimension=n)
        s = _split(d, e)
        _check_dense_cap(int(np.max(s.size)))
        lo, hi, base, k = s.lo, s.hi, np.zeros_like(s.size), s.size
    else:
        lo, hi = (float(w) for w in window)
        if not (math.isfinite(hi - lo) and lo < hi and (lo > 0.0 or hi < 0.0)):
            raise ContractError(f"window must be finite (lo, hi) with 0 < lo < hi "
                                f"or lo < hi < 0, got {window!r}")
        lo, hi = math.ldexp(lo, -p), math.ldexp(hi, -p)
        if hi < 0.0:
            spec = tridiagonal_eig(-d, e, (-hi, -lo))
            return replace(spec, values=-np.ldexp(spec.values[::-1], p))
        s = _split(d, e)
        m = len(s.size)
        c = _sturm_rows(s, np.repeat([lo, hi], m), np.tile(np.arange(m), 2), True)[0]
        lo, hi, base, k = np.full(m, lo), np.full(m, hi), c[:m], c[m:] - c[:m]
    if not np.sum(k):
        return EigenSpectrum(values=np.empty(0), residual_bound=0.0, dimension=0)
    piece = np.repeat(np.arange(len(k)), k)
    index = np.arange(len(piece)) - np.repeat(np.cumsum(k) - k - base, k)
    vals, radius = _bisect(s, lo, hi, piece, index)
    order = np.argsort(vals, kind="stable")
    vals, radius = vals[order], radius[order]
    worst = int(np.argmax(radius))
    identities = None
    if window is None:
        identities = (float(np.sum(d)), float(np.sum(d * d) + 2.0 * np.sum(e * e)), scale)
    spec = _certify(vals, float(radius[worst]), int(np.sum(base)) + worst, n, identities)
    return replace(spec, values=np.ldexp(spec.values, p))
