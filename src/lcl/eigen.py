"""Real-symmetric eigensolver with certificates.

A dense matrix goes to LAPACK's `numpy.linalg.eigh`, every eigenvector
included.  A tridiagonal one (each residue chain of a level block of a model
with one positive mode) goes to `numpy.linalg.eigvalsh` for eigenvalues only,
and its sampled eigenvectors come from inverse iteration on the tridiagonal
(Demmel, *Applied Numerical Linear Algebra*, §5.3), so no n×n eigenvector
matrix is formed.  This module owns the contract around both: symmetry
checking, the dense dimension cap, and one certificate block (trace and
Frobenius identities, sampled eigenpair residuals) that raises NumericalError.
``measures.level_spectrum`` passes each residue chain here, so the cap and
the certificates apply per chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractError, NumericalError

__all__ = ["EigenSpectrum", "sym_eig", "DENSE_CAP"]

DENSE_CAP = 4096
_SYM_RTOL = 1e-12
_IDENT_RTOL = 1e-9
_N_RESIDUAL_SAMPLES = 8
_MAX_INVERSE_STEPS = 8


@dataclass(frozen=True)
class EigenSpectrum:
    """Sorted eigenvalues with a sampled residual certificate."""

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


def _sturm_count(d, e, x):
    """Eigenvalues of the symmetric tridiagonal (d, e) strictly below x: the
    negative pivots of the LDL^T factorization of T - x, vectorized over
    shifts x."""
    x = np.asarray(x, dtype=float)
    count, q = np.zeros(x.shape, dtype=int), np.ones(x.shape)
    for i in range(len(d)):
        e2 = e[i - 1] ** 2 if i > 0 else 0.0
        q = d[i] - x - e2 / np.where(q != 0.0, q, 1e-300)
        count += q < 0.0
    return count


def _tridiag_lu(d, e, s, tiny):
    """Row-pivoted LU of the tridiagonal T - s (LAPACK dgttrf), from lists of
    floats d, e: U's diagonal and two superdiagonals, L's multipliers and the
    row swaps.  A pivot below `tiny` becomes `tiny`, as inverse iteration at
    an exact eigenvalue needs.  Plain float loops, one shift at a time: at
    n = 1815 nine shifts take 6 ms, against 70 ms for numpy calls on the
    nine-wide rows of a loop vectorized over shifts (2-core x86, NumPy 2.4).
    """
    n = len(d)
    u0 = [x - s for x in d]
    u1 = e + [0.0]
    u2 = [0.0] * n
    mult = [0.0] * n
    swap = [False] * n
    for i in range(n - 1):
        p, ei = u0[i], e[i]
        if abs(ei) > abs(p):
            f = p / ei
            c0, c1, c2 = u1[i], u0[i + 1], u1[i + 1]
            u0[i], u1[i], u2[i], swap[i] = ei, c1, c2, True
            u0[i + 1], u1[i + 1] = c0 - f * c1, -f * c2
        else:
            if abs(p) < tiny:
                p = math.copysign(tiny, p)
            f = ei / p
            u0[i] = p
            u0[i + 1] -= f * u1[i]
        mult[i] = f
    if abs(u0[-1]) < tiny:
        u0[-1] = math.copysign(tiny, u0[-1])
    return u0, u1, u2, mult, swap


def _lu_solve(lu, b):
    """Solve (T - s) x = b from the factors of `_tridiag_lu`."""
    u0, u1, u2, mult, swap = lu
    n = len(u0)
    x = b.tolist() + [0.0, 0.0]
    for i in range(n - 1):
        if swap[i]:
            x[i], x[i + 1] = x[i + 1], x[i] - mult[i] * x[i + 1]
        else:
            x[i + 1] -= mult[i] * x[i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
    return np.array(x[:n])


def _inverse_iteration(d, e, shifts, scale):
    """Smallest residual ||T v - s v||, v of unit norm, that inverse iteration
    reaches at each shift s: one factorization per shift, a fixed start
    vector (reruns are identical), steps while the residual keeps halving.
    """
    tiny = np.finfo(float).eps * scale if scale > 0.0 else 1.0
    dl, el = d.tolist(), e.tolist()
    start = np.random.Generator(np.random.Philox(0)).uniform(-1.0, 1.0, len(d))
    out = []
    for s in shifts.tolist():
        lu = _tridiag_lu(dl, el, s, tiny)
        v, best = start, math.inf
        for _ in range(_MAX_INVERSE_STEPS):
            v = _lu_solve(lu, v)
            v /= np.max(np.abs(v))
            v /= np.linalg.norm(v)
            r = (d - s) * v
            r[:-1] += e * v[1:]
            r[1:] += e * v[:-1]
            res = float(np.linalg.norm(r))
            if not res < 0.5 * best:
                best = min(best, res)
                break
            best = res
        out.append(best)
    return np.array(out)


def _certify(vals, trace, frob, scale, residuals, samples) -> EigenSpectrum:
    """The certificate block of every solve: trace and Frobenius identities
    and the worst sampled eigenpair residual, relative to max |lambda|."""
    n = len(vals)
    tol = _IDENT_RTOL * max(n * scale, 1e-300)
    tr_err = abs(float(np.sum(vals)) - trace)
    if tr_err > tol:
        raise NumericalError(f"trace identity violated by {tr_err:.3e}")
    fr_err = abs(float(np.sum(vals * vals)) - frob)
    if fr_err > tol * max(scale, 1.0):
        raise NumericalError(f"Frobenius identity violated by {fr_err:.3e}")
    residual = 0.0
    if n:
        norm = max(float(np.max(np.abs(vals))), 1e-300)
        worst = int(np.argmax(residuals))
        residual = float(residuals[worst]) / norm
        if residual > _IDENT_RTOL:
            raise NumericalError(
                f"eigen-residual: sampled eigenpair {samples[worst]} of dimension {n} "
                f"has residual {residual:.3e} > {_IDENT_RTOL:g}")
    return EigenSpectrum(values=vals, residual_bound=residual, dimension=n)


def sym_eig(matrix) -> EigenSpectrum:
    """All eigenvalues of a dense real symmetric matrix, ascending.

    A tridiagonal matrix is solved for eigenvalues only, and its sampled
    eigenpairs are certified by inverse iteration; any other matrix by a
    dense ``eigh``.  Raises ContractError for asymmetric input, CapacityError
    above the dense cap, NumericalError if LAPACK fails to converge or the
    trace/Frobenius identities or the sampled residuals (``eigen-residual``)
    are violated.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    _check_dense_cap(n)
    d, e, e_up = np.diagonal(A), np.diagonal(A, -1), np.diagonal(A, 1)
    tridiagonal = np.count_nonzero(A) == (np.count_nonzero(d) + np.count_nonzero(e)
                                          + np.count_nonzero(e_up))
    if tridiagonal:
        # every other entry is zero: scale and asymmetry without n x n temporaries
        scale = float(np.max(np.abs(np.concatenate([d, e, e_up])), initial=0.0))
        asym = float(np.max(np.abs(e - e_up), initial=0.0))
    else:
        scale = float(np.max(np.abs(A)))
        asym = float(np.max(np.abs(A - A.T)))
    if scale > 0.0 and asym > _SYM_RTOL * scale:
        raise ContractError(
            f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}")
    step = max(1, n // _N_RESIDUAL_SAMPLES)
    samples = list(range(0, n, step)) + [n - 1] if n else []
    try:
        if tridiagonal:
            vals = np.linalg.eigvalsh(A)
        else:
            vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    if tridiagonal:
        residuals = _inverse_iteration(d, e, vals[samples], scale)
        trace, frob = float(np.sum(d)), float(np.sum(d * d) + 2.0 * np.sum(e * e))
    else:
        residuals = np.array([float(np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j]))
                              for j in samples])
        trace, frob = float(np.trace(A)), float(np.sum(A * A))
    return _certify(vals, trace, frob, scale, residuals, samples)
