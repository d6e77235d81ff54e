import warnings

import numpy as np
import pytest

from lcl.eigen import EigenSpectrum, _sturm_count, sym_eig, tridiagonal_eig
from lcl.errors import CapacityError, ContractError, NumericalError


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
    with pytest.raises(CapacityError, match=r"\b4097\b.*\b4096\b"):
        tridiagonal_eig(np.zeros(4097), np.zeros(4096))


def test_spectrum_dataclass_validation():
    with pytest.raises(ValueError):
        EigenSpectrum(values=np.zeros(3), residual_bound=0.0, dimension=4)


def _tridiag(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _chain(n, seed=3):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def test_dense_input_keeps_the_eigh_path_bit_for_bit():
    # a tridiagonal matrix too: sym_eig has one path, whatever the structure
    rng = np.random.Generator(np.random.Philox(5))
    A = rng.standard_normal((30, 30))
    for A in (0.5 * (A + A.T), _tridiag(*_chain(30))):
        vals, vecs = np.linalg.eigh(A)
        spec = sym_eig(A)
        assert np.array_equal(spec.values, vals)
        want = max(float(np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j]))
                   for j in list(range(0, 30, 3)) + [29]) / float(np.max(np.abs(vals)))
        assert spec.residual_bound == want


def test_tridiagonal_input_forms_no_eigenvectors(monkeypatch):
    d, e = _chain(300)
    T = _tridiag(d, e)
    want = np.linalg.eigh(T)[0]
    values_only = np.linalg.eigvalsh(T)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on a tridiagonal matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    spec = tridiagonal_eig(d, e)
    assert np.array_equal(spec.values, values_only)
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert spec.residual_bound <= 1e-12
    # shifts at the gap midpoints: Sturm counts agree with the spectrum
    mid = 0.5 * (spec.values[:-1] + spec.values[1:])
    assert np.array_equal(_sturm_count(d, e, mid), np.arange(1, 300))


@pytest.mark.parametrize("moved", [0, 1, 1001])
def test_residual_certificate_fails_loudly(monkeypatch, moved):
    # one eigenvalue moved by 1e-7 max|lambda| stays inside the trace and
    # Frobenius tolerances and inside its neighbours' gaps; only the Sturm
    # enclosure of that index sees it, whichever index it is
    n, b = 2000, 1.0
    d, e = np.zeros(n), np.full(n - 1, b)
    exact = np.sort(2.0 * b * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    shifted = exact.copy()
    shifted[moved] += 1e-7 * np.max(np.abs(exact))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: shifted.copy())
    with pytest.raises(NumericalError, match=rf"eigen-residual.*\b{moved}\b.*\b2000\b"):
        tridiagonal_eig(d, e)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: exact.copy())
    assert tridiagonal_eig(d, e).residual_bound <= 1e-12


def test_residual_certificate_fails_loudly_on_dense_input(monkeypatch):
    # the sampled eigenvalue nearest 0 moved by 1e-8 max|lambda|: inside the
    # trace and Frobenius tolerances, outside the residual one
    rng = np.random.Generator(np.random.Philox(5))
    A = rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)
    vals, vecs = np.linalg.eigh(A)
    j = min(range(0, 40, 5), key=lambda i: abs(vals[i]))
    vals[j] += 1e-8 * np.max(np.abs(vals))
    monkeypatch.setattr(np.linalg, "eigh", lambda M: (vals, vecs))
    with pytest.raises(NumericalError, match=rf"eigen-residual.*\b{j}\b.*\b40\b"):
        sym_eig(A)


def _repeated():
    # two copies of one chain, uncoupled
    d, e = _chain(40)
    return np.concatenate([d, d]), np.concatenate([e, [0.0], e])


@pytest.mark.parametrize("d,e", [
    ([3.0, -1.0, 2.0, 2.0, 0.0], np.zeros(4)),   # e = 0: every shift is exact
    ([0.0, 0.0], [1.0]),                          # zero leading pivot
    _repeated(),                                  # every eigenvalue twice
    ([2.5], []),
    ([1.0, 1.0], [-3.0]),
    ([1.0, 0.0, -1.0], [1e-3, 2.0]),
    (np.zeros(3), np.zeros(2)),
    ([], []),                                     # an empty chain of a level with dimension < mode
], ids=["diagonal", "zero-pivot", "repeated", "n1", "n2", "n3", "zero", "n0"])
def test_tridiagonal_edge_cases(d, e):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = tridiagonal_eig(d, e)
    assert spec.residual_bound <= 1e-12


@pytest.mark.parametrize("solve,match", [
    (lambda: sym_eig(np.array([[np.nan]])), "non-finite"),
    (lambda: sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]])), "non-finite"),
    (lambda: sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]])), "non-finite"),
    (lambda: tridiagonal_eig([1.0, np.nan], [0.5]), "non-finite"),
    (lambda: tridiagonal_eig([1.0, 2.0], [np.inf]), "non-finite"),
    (lambda: tridiagonal_eig([1.0, 2.0], [0.5, 0.5]), "length n - 1"),
    (lambda: tridiagonal_eig(np.eye(2), [0.5]), "length n - 1"),
], ids=["nan", "nan-band", "inf", "tridiagonal-nan", "tridiagonal-inf",
        "length-mismatch", "two-dimensional-diagonal"])
def test_non_finite_input_rejected(solve, match):
    with pytest.raises(ContractError, match=match):
        solve()


def test_sturm_count_pivot_guard_does_not_overflow():
    # e^2 = 4e8: a zero pivot guarded by 1e-300 would overflow e^2 / pivot;
    # eigenvalues 0 and +-2e4 sqrt(2), and the one at 0 is not below 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        counts = _sturm_count(np.zeros(3), [2e4, 2e4], [-1.0, 0.0, 1.0, 3e4])
    assert counts.tolist() == [1, 1, 2, 3]
