"""Real-symmetric eigensolvers with certificates.

``sym_eig`` takes a dense matrix to LAPACK's `numpy.linalg.eigh`, every
eigenvector included, and certifies it by sampled eigenpair residuals.
``tridiagonal_eig`` takes a symmetric tridiagonal matrix as its diagonal d and
off-diagonal e (each residue chain of a level block) to `numpy.linalg.eigvalsh`
for eigenvalues only, and certifies every eigenvalue by Sturm counts at both
ends of an enclosure (Barth, Martin and Wilkinson, *Numer. Math.* 9 (1967);
Demmel, *Applied Numerical Linear Algebra*, §5.3), so no eigenvector is
formed.  This module owns the contract around both: finite and well-shaped
input, the dense dimension cap (``eigvalsh`` too needs dense storage), and one
certificate block (trace and Frobenius identities, the eigenvalue error bound)
that raises NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractError, NumericalError

__all__ = ["EigenSpectrum", "sym_eig", "tridiagonal_eig", "DENSE_CAP"]

DENSE_CAP = 4096
_SYM_RTOL = 1e-12
_IDENT_RTOL = 1e-9
_N_RESIDUAL_SAMPLES = 8
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_TIGHT_RTOL = 2.0 ** 10 * _EPS


@dataclass(frozen=True)
class EigenSpectrum:
    """Sorted eigenvalues and `residual_bound`, their certified error relative
    to max |lambda|: the Sturm enclosure radius of every eigenvalue from
    ``tridiagonal_eig``, the worst sampled eigenpair residual from
    ``sym_eig``."""

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
    shifts x.  A pivot smaller than LAPACK dstebz's pivmin = tiny max(1, e^2)
    becomes +pivmin, so no division overflows and an eigenvalue at x is not
    counted."""
    x = np.asarray(x, dtype=float)
    e2 = np.square(np.asarray(e, dtype=float))
    pivmin = _TINY * max(1.0, float(np.max(e2, initial=0.0)))
    count, q, nx = np.zeros(x.size, dtype=int), np.ones(x.size), -x.reshape(-1)
    for di, e2i in zip(np.asarray(d, dtype=float).tolist(), [0.0] + e2.tolist()):
        q = (nx + di) - e2i / q
        q[np.abs(q) < pivmin] = pivmin
        count += q < 0.0
    return count.reshape(x.shape)


def _enclosure(d, e, vals):
    """The first rung rtol of (_TIGHT_RTOL, _IDENT_RTOL) at which every computed
    vals[i] lies within tau = rtol max|lambda| of the i-th eigenvalue of the
    tridiagonal (d, e), proved by Sturm counts at the 2n shifts vals -+ tau:
    count(vals[i] - tau) <= i < count(vals[i] + tau).  Returns (rtol, 0), or
    (inf, first index outside the wider rung).  max|lambda| is floored at
    tiny/eps so that tau stays above the count's pivot guard."""
    n = len(vals)
    norm = max(float(np.max(np.abs(vals), initial=0.0)), _TINY / _EPS)
    index = np.arange(n)
    for rtol in (_TIGHT_RTOL, _IDENT_RTOL):
        tau = rtol * norm
        counts = _sturm_count(d, e, np.concatenate([vals - tau, vals + tau]))
        bad = (counts[:n] > index) | (counts[n:] <= index)
        if not bad.any():
            return rtol, 0
    return np.inf, int(np.argmax(bad))


def _certify(vals, trace, frob, scale, bound, worst) -> EigenSpectrum:
    """The certificate block of every solve: trace and Frobenius identities,
    and the eigenvalue error `bound` relative to max |lambda|, which must not
    exceed _IDENT_RTOL (`worst` is the index it was found at)."""
    n = len(vals)
    tol = _IDENT_RTOL * max(n * scale, 1e-300)
    tr_err = abs(float(np.sum(vals)) - trace)
    if not tr_err <= tol:
        raise NumericalError(f"trace identity violated by {tr_err:.3e}")
    fr_err = abs(float(np.sum(vals * vals)) - frob)
    if not fr_err <= tol * max(scale, 1.0):
        raise NumericalError(f"Frobenius identity violated by {fr_err:.3e}")
    if not bound <= _IDENT_RTOL:
        raise NumericalError(
            f"eigen-residual: eigenvalue {worst} of dimension {n} is certified "
            f"only to {bound:.3e} max|lambda| > {_IDENT_RTOL:g}")
    return EigenSpectrum(values=vals, residual_bound=bound, dimension=n)


def sym_eig(matrix) -> EigenSpectrum:
    """All eigenvalues of a dense real symmetric matrix, ascending.

    Solved by a dense ``eigh`` and certified by sampled eigenpair residuals.
    Raises ContractError for non-finite or asymmetric input, CapacityError
    above the dense cap, NumericalError if LAPACK fails to converge or the
    trace/Frobenius identities or the residual certificate
    (``eigen-residual``) are violated.
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
    return _certify(vals, float(np.trace(A)), float(np.sum(A * A)), scale, bound, worst)


def tridiagonal_eig(d, e) -> EigenSpectrum:
    """All eigenvalues of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, ascending, each certified by a Sturm-count enclosure.

    Raises ContractError for ill-shaped or non-finite input, CapacityError
    above the dense cap (``eigvalsh`` stores the matrix), and NumericalError
    as ``sym_eig`` does.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (max(len(d) - 1, 0),):
        raise ContractError(f"expected d of length n and e of length n - 1, got "
                            f"shapes {d.shape} and {e.shape}")
    n = len(d)
    _check_dense_cap(n)
    scale = float(np.max(np.abs(np.concatenate([d, e])), initial=0.0))
    if not np.isfinite(scale):
        raise ContractError("tridiagonal matrix has a non-finite entry")
    A = np.diag(d)
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = e
    try:
        vals = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    bound, worst = _enclosure(d, e, vals)
    frob = float(np.sum(d * d) + 2.0 * np.sum(e * e))
    return _certify(vals, float(np.sum(d)), frob, scale, bound, worst)
