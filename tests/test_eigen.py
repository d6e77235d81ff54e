import numpy as np
import pytest

from lcl.eigen import EigenSpectrum, sym_eig
from lcl.errors import CapacityError, ContractError


def test_diagonal_matrix():
    spec = sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(spec.values, [-1.0, 2.0, 3.0])
    assert spec.dimension == 3


def test_two_by_two_closed_form():
    spec = sym_eig(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(spec.values, [-1.0, 3.0])


def _householder_tridiag(A):
    # test-side reduction to tridiagonal form (independent of the solver)
    A = A.copy()
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1:, k].copy()
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += np.sign(x[0]) * norm if x[0] != 0 else norm
        v /= np.linalg.norm(v)
        H = np.eye(n)
        H[k + 1:, k + 1:] -= 2.0 * np.outer(v, v)
        A = H @ A @ H
    return np.diag(A), np.diag(A, 1)


def _sturm_count(d, e, x):
    # eigenvalues of the tridiagonal (d, e) strictly below x: the negative
    # pivots of the LDL^T factorization of T - x, vectorized over shifts x
    x = np.asarray(x, dtype=float)
    count, q = np.zeros(x.shape, dtype=int), np.ones(x.shape)
    for i in range(len(d)):
        e2 = e[i - 1] ** 2 if i > 0 else 0.0
        q = d[i] - x - e2 / np.where(q != 0.0, q, 1e-300)
        count += q < 0.0
    return count


def _sturm_eigenvalues(A, tol=1e-12):
    d, e = _householder_tridiag(A)
    lo = float(np.min(d) - 2.0 * np.sum(np.abs(e)) - 1.0)
    hi = float(np.max(d) + 2.0 * np.sum(np.abs(e)) + 1.0)
    out = []
    n = len(d)
    for j in range(1, n + 1):
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if _sturm_count(d, e, mid) >= j:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return np.array(out)


def test_random_symmetric_vs_sturm_bisection_oracle():
    rng = np.random.Generator(np.random.Philox(1234))
    A = rng.standard_normal((6, 6))
    A = 0.5 * (A + A.T)
    spec = sym_eig(A)
    oracle = _sturm_eigenvalues(A)
    assert np.max(np.abs(spec.values - oracle)) < 1e-9


def test_trace_and_frobenius_certificates():
    rng = np.random.Generator(np.random.Philox(99))
    A = rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)
    spec = sym_eig(A)
    assert abs(np.sum(spec.values) - np.trace(A)) < 1e-9 * 40 * np.max(np.abs(A))
    assert abs(np.sum(spec.values ** 2) - np.sum(A * A)) < 1e-9 * 40 * np.max(np.abs(A)) ** 2
    assert spec.residual_bound < 1e-12


def test_permutation_similarity_invariance():
    rng = np.random.Generator(np.random.Philox(7))
    A = rng.standard_normal((12, 12))
    A = 0.5 * (A + A.T)
    base = sym_eig(A).values
    for _ in range(3):
        p = rng.permutation(12)
        vals = sym_eig(A[np.ix_(p, p)]).values
        assert np.max(np.abs(vals - base)) < 1e-10


def test_radial_block_equals_sorted_diagonal():
    from lcl.landau import LandauConfig, toeplitz_matrix
    from lcl.potentials import PotentialModel
    blk = toeplitz_matrix(PotentialModel.isotropic(0.5),
                          LandauConfig(B=1.0, q=2, k_max=30))
    spec = sym_eig(blk.entries)
    assert np.max(np.abs(spec.values - np.sort(blk.diagonal))) < 1e-12


def test_asymmetric_input_rejected():
    A = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(ContractError):
        sym_eig(A)


def test_non_square_rejected():
    with pytest.raises(ContractError):
        sym_eig(np.zeros((3, 4)))


def test_dimension_cap():
    with pytest.raises(CapacityError):
        sym_eig(np.zeros((4097, 4097)))


def test_spectrum_dataclass_validation():
    with pytest.raises(ValueError):
        EigenSpectrum(values=np.zeros(3), residual_bound=0.0, dimension=4)
