"""Dense real-symmetric eigensolver with certificates.

The solve itself is LAPACK's orthogonal-tridiagonalization + implicit-shift
iteration (`numpy.linalg.eigh`); this module owns the contract around it:
symmetry checking, the dense dimension cap, trace/Frobenius certificates on
every solve, and sampled eigenpair residuals.  An anisotropic level block is
never solved whole: ``measures.level_spectrum`` passes each of its residue
chains here, so the cap and the certificates apply per chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractError, NumericalError

__all__ = ["EigenSpectrum", "sym_eig", "DENSE_CAP"]

DENSE_CAP = 4096
_SYM_RTOL = 1e-12
_IDENT_RTOL = 1e-9
_N_RESIDUAL_SAMPLES = 8


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


def sym_eig(matrix) -> EigenSpectrum:
    """All eigenvalues of a dense real symmetric matrix, ascending.

    Raises ContractError for asymmetric input, CapacityError above the dense
    cap, NumericalError if LAPACK fails to converge or the trace/Frobenius
    identities are violated.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    _check_dense_cap(n)
    scale = float(np.max(np.abs(A))) if n else 0.0
    asym = float(np.max(np.abs(A - A.T))) if n else 0.0
    if scale > 0.0 and asym > _SYM_RTOL * scale:
        raise ContractError(
            f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}")
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    tol = _IDENT_RTOL * max(n * scale, 1e-300)
    tr_err = abs(float(np.sum(vals)) - float(np.trace(A)))
    if tr_err > tol:
        raise NumericalError(f"trace identity violated by {tr_err:.3e}")
    fr_err = abs(float(np.sum(vals * vals)) - float(np.sum(A * A)))
    if fr_err > tol * max(scale, 1.0):
        raise NumericalError(f"Frobenius identity violated by {fr_err:.3e}")
    residual = 0.0
    if n:
        norm = max(float(np.max(np.abs(vals))), 1e-300)
        step = max(1, n // _N_RESIDUAL_SAMPLES)
        for j in list(range(0, n, step)) + [n - 1]:
            r = A @ vecs[:, j] - vals[j] * vecs[:, j]
            residual = max(residual, float(np.linalg.norm(r)) / norm)
    return EigenSpectrum(values=vals, residual_bound=residual, dimension=n)
