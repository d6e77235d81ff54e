"""Real-symmetric eigensolvers with certificates.

``sym_eig`` takes a dense matrix to LAPACK's `numpy.linalg.eigh`, every
eigenvector included, and certifies it by sampled eigenpair residuals.
``tridiagonal_eig`` takes a symmetric tridiagonal matrix as its diagonal d and
off-diagonal e (each residue chain of a level block) to Sturm counts (Barth,
Martin and Wilkinson, *Numer. Math.* 9 (1967); Demmel, *Applied Numerical
Linear Algebra*, §5.3), with no matrix formed: a multisection grid, then
multisection of the brackets that hold more than one eigenvalue, and
safeguarded Newton steps on det(T - x) inside each bracket that isolates one,
their slope summed from the same pivots (Li and Zeng, *SIAM J. Sci. Comput.*
15 (1994)).  Every eigenvalue, or only those in a window, is proven to lie in
its final bracket by fresh counts at both ends.  This module owns the
contract around both: finite and well-shaped input, the dense dimension cap
(``eigh`` and a full tridiagonal spectrum), and one certificate block (the
eigenvalue error bound, then the trace and Frobenius identities) that raises
NumericalError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityError, ContractError, NumericalError

__all__ = ["EigenSpectrum", "sym_eig", "tridiagonal_eig", "DENSE_CAP"]

DENSE_CAP = 4096
_SYM_RTOL = 1e-12
_IDENT_RTOL = 1e-9
_N_RESIDUAL_SAMPLES = 8
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_TIGHT_RTOL = 2.0 ** 10 * _EPS  # final bracket width, relative to the Gershgorin norm
_BLOCK = 32  # rows of a Sturm count between sign tallies and early-exit tests
_PASS_SHIFTS = 2048  # shifts per refinement pass: below this, a count costs mostly per row


@dataclass(frozen=True)
class EigenSpectrum:
    """Sorted eigenvalues and `residual_bound`, their certified error: the
    half-width of the widest Sturm-count bracket from ``tridiagonal_eig``,
    relative to the Gershgorin bound on max |lambda|, or the worst sampled
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


def _gershgorin(d, e):
    """Each row's Gershgorin disc [low_i, top_i], and max_i |d_i| + r_i, a
    bound on max |lambda|."""
    a = np.abs(e)
    r = np.concatenate([a, [0.0]]) + np.concatenate([[0.0], a])
    return d - r, d + r, float(np.max(np.abs(d) + r, initial=0.0))


def _sturm_count(d, e, x, early_exit=False, slope=False):
    """Eigenvalues of the symmetric tridiagonal (d, e) strictly below x: the
    negative pivots q_i = (d_i - x) - e_{i-1}^2 / q_{i-1} of the LDL^T
    factorization of T - x, vectorized over shifts x in O(shifts) memory.

    IEEE arithmetic stands in for a pivot guard (Marques, Riedy and Vömel,
    *SIAM J. Sci. Comput.* 28 (2006)): d is taken with +0 for -0, so a zero
    pivot is +0, not counted, and the next one is -inf, counted; e_i = 0
    restarts the recurrence, so no 0/0 arises.  Signs are tallied once per
    _BLOCK rows.

    With `early_exit`, the rows past the last one whose Gershgorin disc
    reaches min(x), less a rounding margin, lie below every shift.  Once
    every pivot there is <= -|e_i|, so is every later one (-e_i^2 / q_i <=
    |e_i| and the next disc lies below x), and the rows left are counted
    without being factored.

    With `slope`, it returns (counts, S) with S = sum_i q_i' / q_i, the
    derivative of log |det(T - x)|, from the same pivots: u_i = q_i' / q_i
    with q_i' = (e_{i-1}^2 / q_{i-1}) u_{i-1} - 1.  Rows past an early exit
    add nothing to S: their pivots stay <= -|e_i|, so the terms left out vary
    smoothly with x and only change the remainder R in Newton's error
    e^2 R / (1 + e R).  A zero pivot makes S inf or NaN.
    """
    x = np.asarray(x, dtype=float)
    d, e = np.asarray(d, dtype=float) + 0.0, np.asarray(e, dtype=float)
    n, nx = len(d), -x.reshape(-1)
    stop = n
    if early_exit and nx.size:
        _, top, norm = _gershgorin(d, e)
        margin = 16.0 * _EPS * (norm + float(np.max(np.abs(nx))))
        reach = np.flatnonzero(top >= -float(np.max(nx)) - margin)
        stop = int(reach[-1]) + 1 if reach.size else 0
    e2 = np.square(np.concatenate([[0.0], e]))  # e2[i] couples rows i - 1 and i
    count, total = np.zeros(nx.size, dtype=np.intp), np.zeros(nx.size)
    block, shifted, q = np.empty((_BLOCK, nx.size)), np.empty(nx.size), None
    ublock = np.empty((_BLOCK, nx.size)) if slope else None  # u_i, tallied like q_i
    rows, urows, u = list(block), list(ublock) if slope else [None] * _BLOCK, None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            end = min(start + _BLOCK, n)
            for q_new, u_new, di, e2i in zip(rows, urows, d[start:end].tolist(),
                                             e2[start:end].tolist()):
                if e2i:
                    np.divide(e2i, q, out=q_new)
                    if slope:
                        np.subtract(np.multiply(q_new, u, out=u_new), 1.0, out=u_new)
                    np.subtract(np.add(nx, di, out=shifted), q_new, out=q_new)
                else:
                    np.add(nx, di, out=q_new)
                    if slope:
                        u_new.fill(-1.0)
                if slope:
                    u = np.divide(u_new, q_new, out=u_new)
                q = q_new
            count += np.count_nonzero(block[:end - start] < 0.0, axis=0)
            if slope:
                total += np.sum(ublock[:end - start], axis=0)
            if stop <= end < n and np.all(q <= -abs(e[end - 1])):
                count += n - end
                break
    count = count.reshape(x.shape)
    return (count, total.reshape(x.shape)) if slope else count


def _bisect(d, e, lo: float, hi: float, index, norm: float):
    """Eigenvalues `index` (ascending) of (d, e), all in [lo, hi], and their
    radii relative to `norm`, in three phases that share their count passes.

    1. One multisection pass of four cells per eigenvalue brackets each and
       keeps the counts at both ends of every bracket.
    2. A bracket whose end counts differ by more than one is split into 2^b
       cells, with (2^b - 1) k <= _PASS_SHIFTS shifts in all, until it
       isolates its eigenvalue or is tol = _TIGHT_RTOL norm wide.
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
    k, tol = len(index), _TIGHT_RTOL * norm
    grid = np.linspace(lo, hi, 4 * k + 1)
    counts = _sturm_count(d, e, grid, True)
    j = np.clip(np.searchsorted(counts, index, side="right") - 1, 0, 4 * k - 1)
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
            bits = math.ceil(math.log2(float(np.max(b[split] - a[split])) / tol))
            m = 2 ** min(per_pass, max(bits, 1))
        cells = a[split, None] + (b - a)[split, None] * (np.arange(m + 1) / m)
        cells[:, -1] = b[split]
        c, slope = _sturm_count(d, e, np.concatenate([x[live], cells[:, 1:-1].ravel()]),
                                True, slope=True)
        if split.size:
            cc = np.column_stack([ca[split], c[live.size:].reshape(split.size, m - 1),
                                  cb[split]])
            j = np.count_nonzero(cc[:, 1:-1] <= index[split, None], axis=1)
            rows = np.arange(split.size)
            a[split], b[split] = cells[rows, j], cells[rows, j + 1]
            ca[split], cb[split] = cc[rows, j], cc[rows, j + 1]
            x[split], start[split] = 0.5 * (a[split] + b[split]), b[split] - a[split]
            done[split] = b[split] - a[split] <= tol
        if live.size:
            xl, c = x[live], c[:live.size]
            up = c <= index[live]  # the eigenvalue lies above the iterate
            a[live], ca[live] = np.where(up, xl, a[live]), np.where(up, c, ca[live])
            b[live], cb[live] = np.where(up, b[live], xl), np.where(up, cb[live], c)
            al, bl = a[live], b[live]
            passes[live] += 1
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -1.0 / slope[:live.size]
            size, prop = np.abs(step), xl + step
            close = (size < 0.25 * tol) & (al <= prop) & (prop <= bl)
            prop = np.where(close, prop + np.where(up, 0.25, -0.25) * tol, prop)
            # the held proposal, if its step is shorter or this one is NaN
            old = ~close & ~(held_step[live] >= size) & (al < held[live]) & (held[live] < bl)
            prop, size = np.where(old, held[live], prop), np.where(old, held_step[live], size)
            take = ((al < prop) & (prop < bl)
                    & (bl - al <= np.ldexp(start[live], 1 - passes[live] // 2)))
            x[live] = np.where(take, prop, 0.5 * (al + bl))
            held[live] = np.where(take, np.nan, prop)
            held_step[live] = np.where(take, np.inf, size)
            done[live] = bl - al <= tol
    counts = _sturm_count(d, e, np.concatenate([a, b]), True)
    proven = (counts[:k] <= index) & (index < counts[k:])
    return 0.5 * (a + b), np.where(proven, 0.5 * (b - a), np.inf) / norm


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

    The full spectrum is held to the dense cap and, after the bracket
    certificate, to the trace and Frobenius identities.  A window has no cap:
    its counts early-exit past the last row whose Gershgorin disc reaches lo.
    Raises ContractError for ill-shaped or non-finite input or a window that
    straddles 0, CapacityError for a full spectrum above the dense cap, and
    NumericalError (``eigen-residual`` naming the index and n) for a bracket
    wider than 1e-9 of the Gershgorin norm or not proven by its counts.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (max(len(d) - 1, 0),):
        raise ContractError(f"expected d of length n and e of length n - 1, got "
                            f"shapes {d.shape} and {e.shape}")
    n = len(d)
    if window is None:
        _check_dense_cap(n)
    scale = float(np.max(np.abs(np.concatenate([d, e])), initial=0.0))
    if not np.isfinite(scale):
        raise ContractError("tridiagonal matrix has a non-finite entry")
    # one power of two takes max|entry| into [1/2, 1), exactly, so that the
    # squares of e in the Sturm count neither overflow nor underflow
    p = math.frexp(scale)[1]
    d, e, scale = np.ldexp(d, -p), np.ldexp(e, -p), math.ldexp(scale, -p)
    low, top, norm = _gershgorin(d, e)
    norm = max(norm, _TINY / _EPS)
    if window is None:
        if scale == 0.0:
            return EigenSpectrum(values=np.zeros(n), residual_bound=0.0, dimension=n)
        pad = 16.0 * _EPS * norm  # the disc ends, rounded, still bound the spectrum
        lo, hi, index = float(np.min(low)) - pad, float(np.max(top)) + pad, np.arange(n)
    else:
        lo, hi = (float(w) for w in window)
        if not (math.isfinite(hi - lo) and lo < hi and (lo > 0.0 or hi < 0.0)):
            raise ContractError(f"window must be finite (lo, hi) with 0 < lo < hi "
                                f"or lo < hi < 0, got {window!r}")
        lo, hi = math.ldexp(lo, -p), math.ldexp(hi, -p)
        if hi < 0.0:
            spec = tridiagonal_eig(-d, e, (-hi, -lo))
            return replace(spec, values=-np.ldexp(spec.values[::-1], p))
        index = np.arange(*_sturm_count(d, e, [lo, hi], True))
    if not len(index):
        return EigenSpectrum(values=np.empty(0), residual_bound=0.0, dimension=0)
    vals, radius = _bisect(d, e, lo, hi, index, norm)
    worst = int(np.argmax(radius))
    identities = None
    if window is None:
        identities = (float(np.sum(d)), float(np.sum(d * d) + 2.0 * np.sum(e * e)), scale)
    spec = _certify(vals, float(radius[worst]), int(index[worst]), n, identities)
    return replace(spec, values=np.ldexp(spec.values, p))
