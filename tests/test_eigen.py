import warnings

import numpy as np
import pytest

from lcl import eigen
from lcl.eigen import DENSE_CAP, EigenSpectrum, _sturm_count, sym_eig, tridiagonal_eig
from lcl.errors import CapacityError, ContractError, NumericalError
from lcl.landau import LandauConfig, _level_bands, level_spectrum, truncation_bound
from lcl.potentials import PotentialModel


def test_diagonal_matrix():
    spec = sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(spec.values, [-1.0, 2.0, 3.0])
    assert spec.dimension == 3


def test_two_by_two_closed_form():
    spec = sym_eig(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(spec.values, [-1.0, 3.0])


def test_empty_matrix_has_the_empty_spectrum():
    # as tridiagonal_eig([], []) has
    spec = sym_eig(np.zeros((0, 0)))
    assert spec.dimension == 0 and spec.values.shape == (0,) and spec.residual_bound == 0.0


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
    # the cap holds per chain: one tridiagonal chain of 4097 rows
    with pytest.raises(CapacityError, match=r"\b4097\b.*\b4096\b"):
        tridiagonal_eig(np.zeros(4097), np.ones(4096))


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
    want = np.linalg.eigh(_tridiag(d, e))[0]

    def no_dense(*args, **kwargs):
        raise AssertionError("dense solver called on a tridiagonal matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    spec = tridiagonal_eig(d, e)
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert spec.residual_bound <= 1e-12
    # shifts at the gap midpoints: Sturm counts agree with the spectrum
    mid = 0.5 * (spec.values[:-1] + spec.values[1:])
    assert np.array_equal(_sturm_count(d, e, mid), np.arange(1, 300))


@pytest.mark.parametrize("moved", [0, 1, 1001])
def test_residual_certificate_fails_loudly(monkeypatch, moved):
    # eigenvalue i of this chain lies within 0.13 of i; the multisection pass
    # does not count eigenvalue `moved` until moved + 0.7, so it is bracketed
    # above itself, as if isolated there; its Newton steps leave that bracket,
    # so the safeguard's midpoints shrink it onto its lower end; only the
    # fresh counts at the ends of its final bracket see it, whichever index
    # it is
    n = 2000
    d, e = np.arange(n, dtype=float), np.full(n - 1, 0.25)
    real, calls = eigen._sturm_rows, []

    def miscount(s, x, piece, early_exit=False, slope=False):
        counts, total = real(s, x, piece, early_exit, slope)
        if not calls:
            counts = counts - ((x < moved + 0.7) & (counts == moved + 1))
        calls.append(np.size(x))
        return counts, total

    monkeypatch.setattr(eigen, "_sturm_rows", miscount)
    with pytest.raises(NumericalError, match=rf"eigen-residual.*\b{moved}\b.*\b2000\b"):
        tridiagonal_eig(d, e)
    monkeypatch.setattr(eigen, "_sturm_rows", real)
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
    (lambda: tridiagonal_eig([1.0, 2.0], [0.5], (-1.0, 1.0)), "window"),
    (lambda: tridiagonal_eig([1.0, 2.0], [0.5], (0.0, 1.0)), "window"),
    (lambda: tridiagonal_eig([1.0, 2.0], [0.5], (2.0, 1.0)), "window"),
    (lambda: tridiagonal_eig([1.0, 2.0], [0.5], (1.0, np.nan)), "window"),
    (lambda: tridiagonal_eig([1.0, 2.0], [0.5], (1.0, np.inf)), "window"),
], ids=["nan", "nan-band", "inf", "tridiagonal-nan", "tridiagonal-inf",
        "length-mismatch", "two-dimensional-diagonal", "window-straddles-0",
        "window-at-0", "window-reversed", "window-nan", "window-inf"])
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


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e200, 1e300])
@pytest.mark.parametrize("window", [None, "positive", "negative"])
def test_tridiagonal_extreme_scales(scale, window):
    # the Sturm count squares e: at these scales e^2 underflows (the chain
    # decoupled, both values read about 1e-184 at 1e-170) or overflows (no
    # value in a window, eigen-residual for the whole spectrum).  One power
    # of two brings the chain to unit scale and back, exactly.
    d, e = scale * np.array([0.0, 0.5, 0.0]), scale * np.array([1.0, 0.25])
    want = np.linalg.eigvalsh(np.diag(d / scale) + np.diag(e / scale, 1)
                              + np.diag(e / scale, -1)) * scale
    bounds = {None: None, "positive": (1e-3 * scale, 2.0 * scale),
              "negative": (-2.0 * scale, -1e-3 * scale)}[window]
    if bounds is not None:
        want = want[(want > bounds[0]) & (want < bounds[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = tridiagonal_eig(d, e, bounds)
    assert len(spec.values) == len(want) > 0
    assert np.all(np.abs(spec.values - want) <= 1e-12 * scale)
    assert spec.residual_bound <= 1e-12


def _criterion_09_chains(q, amplitude):
    # the two residue chains of the criterion-09 level q (delta = 0.47)
    model = PotentialModel.anisotropic(0.5, 0.3, 2, amplitude=amplitude)
    k_max = truncation_bound(model, 1.0, q, 0.47, rho_scale=0.5)
    diag, bands = _level_bands(model, LandauConfig(B=1.0, q=q, k_max=k_max))
    return [(diag[r::2], bands[2][r::2]) for r in range(2)]


@pytest.mark.parametrize("amplitude", [1.0, -1.0])
@pytest.mark.parametrize("q", [8, 16, 32])
def test_window_matches_eigvalsh_on_criterion_09_chains(q, amplitude):
    # phi = (0.65, 0.15) scaled back by lambda_q^(-1/4), mirrored with the
    # amplitude; the oracle is a dense eigvalsh, in tests only
    lo, hi = sorted(amplitude * s * (2 * q + 1) ** -0.25 for s in (0.5, 0.8))
    for d, e in _criterion_09_chains(q, amplitude):
        ref = np.linalg.eigvalsh(_tridiag(d, e))
        want = ref[(ref > lo) & (ref < hi)]
        spec = tridiagonal_eig(d, e, (lo, hi))
        assert spec.dimension == len(want) > 50
        assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(ref))
        assert spec.residual_bound <= 1e-12


def test_early_exit_count_matches_full_count():
    d, e = _criterion_09_chains(16, 1.0)[0]
    top = float(np.max(d)) + 2.0 * float(np.max(np.abs(e)))
    rng = np.random.Generator(np.random.Philox(17))
    x = rng.uniform(0.5 * 33 ** -0.25, 1.2 * top, 512)
    full = _sturm_count(d, e, x)
    assert np.array_equal(_sturm_count(d, e, x, early_exit=True), full)
    # the exit fires before the last rows: NaN there is never read
    poisoned = e.copy()
    poisoned[-8:] = np.nan
    assert np.array_equal(_sturm_count(d, poisoned, x, early_exit=True), full)


@pytest.mark.parametrize("slope", [False, True])
def test_per_shift_exit_counts_match_on_three_lanes(slope):
    # three chains at offset 3, of 199, 200 and 200 rows, on Gershgorin
    # intervals of their own; chain 2 has a zero coupling inside it.  Each
    # lane holds its own number of shifts: its chain's eigenvalues, each
    # nudged both ways, the disc tops that end its rows' reach, and uniform
    # ones spanning its interval and past both ends.  Every shift exits at
    # its own reach.
    rng = np.random.Generator(np.random.Philox(31))
    n, m = 599, 3
    d = rng.standard_normal(n) * np.resize([1.0, 3.0, 0.2], n) + np.resize([0.0, 5.0, -1.0], n)
    e = rng.standard_normal(n - m) * np.resize([1.0, 2.0, 0.1], n - m)
    e[3 * 120 + 1] = 0.0
    s = eigen._chains(d, e, m)
    chains = [np.flatnonzero((np.arange(n) + s.d.size - n) % m == c) for c in range(m)]
    # the oracle, in tests only: each chain's eigvalsh
    vals = [np.linalg.eigvalsh(_banded(d, e, m)[np.ix_(rows, rows)]) for rows in chains]
    x, chain = [], []
    for c, size in enumerate([300, 40, 170]):
        span = s.hi[c] - s.lo[c]
        tops = np.unique(s.reach[:, c])
        x += [vals[c] * (1.0 - 1e-12), vals[c] * (1.0 + 1e-12), tops,
              rng.uniform(s.lo[c] - 0.1 * span, s.hi[c] + 0.1 * span, size)]
        chain.append(np.full(2 * len(vals[c]) + len(tops) + size, c))
    x, chain = np.concatenate(x), np.concatenate(chain)
    full = eigen._sturm_rows(s, x, chain, False, slope)[0]
    assert np.array_equal(eigen._sturm_rows(s, x, chain, True, slope)[0], full)
    for c in range(m):
        below = np.count_nonzero(vals[c][None, :] < x[chain == c, None], axis=1)
        assert np.array_equal(full[chain == c], below)


def test_window_outside_the_spectrum_is_empty():
    d, e = _chain(50)
    top = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    for window in [(top, 2.0 * top), (-2.0 * top, -top)]:
        spec = tridiagonal_eig(d, e, window)
        assert spec.dimension == 0 and spec.residual_bound == 0.0
    assert tridiagonal_eig(np.zeros(4), np.zeros(3), (1e-300, 1.0)).dimension == 0


def _wilkinson():
    # W21+: d = |i - 10|, e = 1; its eigenvalues come in pairs that close in
    # toward the top, where the two agree to about 1e-13
    return np.abs(np.arange(-10.0, 11.0)), np.ones(20)


def _glued_wilkinson():
    # three copies of W21+ glued by e = 1e-12: every eigenvalue three or six
    # times over, within about 1e-12
    d, e = _wilkinson()
    return np.tile(d, 3), np.concatenate([e, [1e-12], e, [1e-12], e])


def _weak_first_row():
    # row 0 is coupled by 1e-9, so its eigenvalue lies within about 1e-18 of
    # d_0 = 0.5: one-point Newton steps from above overshoot past it
    return np.array([0.5, 2.0, 3.0, 4.0, 5.0]), np.array([1e-9, 1.0, 1.0, 1.0])


def _zero_pivot_row(window):
    # the weak row 0 again, with d_0 moved to the midpoint of the grid cell
    # that holds its eigenvalue: 4k cells on the Gershgorin interval or the
    # window, after the solver's exact scaling by 2^-3.  That midpoint is the
    # first refinement iterate, and there the pivot q_0 is +0, q_1 is -inf
    # and the slope NaN.  Row 0 is no end of the Gershgorin interval, so
    # moving d_0 does not move the grid.
    d, e = np.array([2.1, 2.0, 3.0, 4.0, 5.0]), np.array([1e-9, 1.0, 1.0, 1.0])
    if window is None:
        s = eigen._chains(d / 8.0, e / 8.0, 1)
        lo, hi, k = s.lo[0], s.hi[0], len(d)
    else:
        d[0], (lo, hi), k = 0.5, np.divide(window, 8.0), 1
    width = (hi - lo) / (4 * k)
    j = (d[0] / 8.0 - lo) // width
    d[0] = 4.0 * ((j * width + lo) + ((j + 1) * width + lo))
    return d, e


@pytest.mark.parametrize("chain,window", [
    (_wilkinson, None), (_wilkinson, (0.5, 11.0)), (_wilkinson, (-2.0, -0.5)),
    (_glued_wilkinson, None), (_glued_wilkinson, (0.5, 11.0)),
    (_glued_wilkinson, (-2.0, -0.5)),
    (_zero_pivot_row, None), (_zero_pivot_row, (0.25, 1.0)),
], ids=["wilkinson", "wilkinson-window", "wilkinson-negative", "glued", "glued-window",
        "glued-negative", "zero-pivot", "zero-pivot-window"])
def test_clustered_and_glued_chains_match_eigvalsh(monkeypatch, chain, window):
    d, e = chain(window) if chain is _zero_pivot_row else chain()
    ref = np.linalg.eigvalsh(_tridiag(d, e))  # the oracle, in tests only
    want = ref if window is None else ref[(ref > window[0]) & (ref < window[1])]
    real, newton_shifts = eigen._sturm_rows, []

    def record(s, x, piece, early_exit=False, slope=False):
        if slope:
            newton_shifts.append((float(s.d[0, 0]), np.array(x)))
        return real(s, x, piece, early_exit, slope)

    monkeypatch.setattr(eigen, "_sturm_rows", record)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = tridiagonal_eig(d, e, window)
    assert spec.dimension == len(want) > 0
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(ref))
    assert spec.residual_bound <= 1e-12
    if chain is _zero_pivot_row:
        # the zero pivot is on the refinement path, as the chain intends
        assert any(np.any(x == d0) for d0, x in newton_shifts)
    # each refinement pass counts an unfinished eigenvalue once, a cluster's
    # bracket bisected, and a finished one no more
    sizes = [spec.dimension] + [x.size for _, x in newton_shifts]
    assert all(later <= sooner for sooner, later in zip(sizes, sizes[1:])), sizes


def _counted_passes(monkeypatch):
    real, calls = eigen._sturm_rows, []

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(eigen, "_sturm_rows", counted)
    return calls


@pytest.mark.parametrize("window", [None, (0.25, 1.0)], ids=["full", "window"])
def test_eigenvalue_at_its_bracket_end_takes_few_count_passes(monkeypatch, window):
    # Newton steps from above land past d_0, where the eigenvalue lies, so a
    # one-point step left the midpoint to bisect it a bit a pass (27 and 17
    # passes); the two-point step's far field takes in the rest of the chain
    d, e = _weak_first_row()
    ref = np.linalg.eigvalsh(_tridiag(d, e))
    want = ref if window is None else ref[(ref > window[0]) & (ref < window[1])]
    calls = _counted_passes(monkeypatch)
    spec = tridiagonal_eig(d, e, window)
    assert spec.dimension == len(want) > 0
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(ref))
    assert spec.residual_bound <= 1e-12
    assert len(calls) <= 10, calls


@pytest.mark.parametrize("fake", [
    lambda x, slope: np.ones_like(slope),
    lambda x, slope: np.full_like(slope, np.nan),
    lambda x, slope: x,
], ids=["equal-slopes", "nan-slope", "negative-discriminant"])
def test_two_point_step_falls_back_quietly(monkeypatch, fake):
    # slopes that break the two-point model: equal at both points (the
    # quadratic divides by 0), NaN, and rising with x (dS/dx = 1, so the
    # discriminant h^2 - 4 is negative); the step falls back to Newton and
    # the safeguard to bisection, warning-free, and every bracket is proven
    d, e = _chain(12, 3)
    ref = np.linalg.eigvalsh(_tridiag(d, e))
    real = eigen._sturm_rows

    def faked(s, x, piece, early_exit=False, slope=False):
        counts, total = real(s, x, piece, early_exit, slope)
        return counts, (fake(x, total) if slope else total)

    monkeypatch.setattr(eigen, "_sturm_rows", faked)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = tridiagonal_eig(d, e)
    assert np.max(np.abs(spec.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert spec.residual_bound <= 1e-12


@pytest.mark.parametrize("amplitude", [1.0, -1.0])
def test_full_chain_takes_few_count_passes(monkeypatch, amplitude):
    # every q = 48 chain of criterion 09 in at most 12 passes: the grid, the
    # Newton passes and the certificate (31 with bisection to the same width)
    chains = _criterion_09_chains(48, amplitude)
    calls = _counted_passes(monkeypatch)
    for d, e in chains:
        calls.clear()
        spec = tridiagonal_eig(d, e)
        assert spec.dimension == len(d) and spec.residual_bound <= 1e-12
        assert len(calls) <= 12, calls


def test_windowed_chain_takes_no_more_count_passes(monkeypatch):
    # criterion 09's window at q = 32: the window count, the grid, the
    # refinement and the certificate took 13 passes with multisection
    q = 32
    lo, hi = (s * (2 * q + 1) ** -0.25 for s in (0.5, 0.8))
    chains = _criterion_09_chains(q, 1.0)
    calls = _counted_passes(monkeypatch)
    for d, e in chains:
        calls.clear()
        assert tridiagonal_eig(d, e, (lo, hi)).dimension > 50
        assert len(calls) <= 13, calls


@pytest.mark.parametrize("early_exit", [False, True])
def test_slope_mode_counts_as_the_plain_count(early_exit):
    d, e = _criterion_09_chains(16, 1.0)[0]
    top = float(np.max(d)) + 2.0 * float(np.max(np.abs(e)))
    rng = np.random.Generator(np.random.Philox(23))
    x = rng.uniform(0.5 * 33 ** -0.25, 1.2 * top, 512)
    counts, slope = _sturm_count(d, e, x, early_exit, slope=True)
    plain = _sturm_count(d, e, x, early_exit)
    assert counts.dtype == plain.dtype and np.array_equal(counts, plain)
    assert slope.shape == x.shape
    if not early_exit:
        # S = d/dx log|det(T - x)| = sum_j 1 / (x - lambda_j), checked between
        # eigenvalues, where the oracle's own rounding does not dominate
        ref = np.linalg.eigvalsh(_tridiag(d, e))
        mid = 0.5 * (ref[:-1] + ref[1:])
        terms = 1.0 / (mid[:, None] - ref[None, :])
        _, slope = _sturm_count(d, e, mid, slope=True)
        err = np.abs(slope - terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
        assert np.max(err) <= 1e-9


def _glue(*chains):
    # the direct sum of tridiagonal chains: one matrix, zero between each pair
    d = np.concatenate([np.asarray(c[0], dtype=float) for c in chains])
    e = np.concatenate([np.append(0.0, c[1]) for c in chains])[1:]
    return d, e


def _each_alone(*chains):
    # the oracle, in tests only: every piece's eigvalsh, merged
    return np.sort(np.concatenate([np.linalg.eigvalsh(_tridiag(*c)) for c in chains]))


def _split_chain():
    # one chain with an exact zero coupling inside it
    d, e = _chain(60)
    return (d[:26], e[:25]), (d[26:], e[26:])


def _unequal():
    return _chain(50, 1), _chain(7, 2), ([0.3], []), _chain(23, 4)


def _apart():
    # the second piece lies above the first: (8, 14) holds none of the first
    d, e = _chain(20, 6)
    return _chain(40, 5), (d + 11.0, e)


@pytest.mark.parametrize("chains,window", [
    (_split_chain, None), (_split_chain, (0.2, 2.0)), (_split_chain, (-2.0, -0.2)),
    (_unequal, None), (_unequal, (0.1, 3.0)), (_unequal, (-3.0, -0.1)),
    (_apart, None), (_apart, (8.0, 14.0)), (_apart, (0.5, 9.0)),
], ids=["zero-coupling", "zero-coupling-window", "zero-coupling-negative", "unequal",
        "unequal-window", "unequal-negative", "apart", "window-misses-a-piece",
        "window-spans-the-gap"])
def test_direct_sum_is_each_piece_alone(chains, window):
    pieces = chains()
    d, e = _glue(*pieces)
    ref = _each_alone(*pieces)
    want = ref if window is None else ref[(ref > window[0]) & (ref < window[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = tridiagonal_eig(d, e, window)
    assert spec.dimension == len(want) > 0
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(ref))
    assert spec.residual_bound <= 1e-12
    if window is None:
        # the whole-matrix count at each gap midpoint is the values below it
        mid = 0.5 * (spec.values[:-1] + spec.values[1:])
        gap = spec.values[1:] - spec.values[:-1] > 1e-9
        assert np.array_equal(_sturm_count(d, e, mid[gap]), np.flatnonzero(gap) + 1)


def _toeplitz_chain(n, a, b):
    # d = a, e = b: eigenvalues a + 2b cos(j pi / (n + 1)), j = 1 .. n
    return np.full(n, a), np.full(n - 1, b)


def test_dense_cap_holds_per_chain():
    # 4097 rows at offset 2, in chains of 2049 and 2048: solved
    sizes = [(2049, 0.0, 1.0), (2048, 0.5, 0.75)]
    d, e = np.empty(4097), np.empty(4095)
    for r, size in enumerate(sizes):
        d[r::2], e[r::2] = _toeplitz_chain(*size)
    assert len(d) > DENSE_CAP
    want = np.sort(np.concatenate([a + 2.0 * b * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
                                   for n, a, b in sizes]))
    spec = tridiagonal_eig(d, e, m=2)
    assert spec.dimension == len(d)
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert spec.residual_bound <= 1e-12
    # a chain of 4097 rows at offset 2: refused, naming that chain
    with pytest.raises(CapacityError, match=r"\b4097\b.*\b4096\b"):
        tridiagonal_eig(np.zeros(8193), np.ones(8191), m=2)


def _banded(d, e, m):
    # the dense matrix of diagonal d and band e at offset m, in tests only
    return np.diag(d) + np.diag(e, m) + np.diag(e, -m)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("window", [None, (0.2, 2.0), (-2.0, -0.2)],
                         ids=["full", "positive", "negative"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_banded_form_matches_eigvalsh(m, window, sign):
    # 61 rows: at m = 2, 3, 5 the chains differ by a row, so the layout pads
    rng = np.random.Generator(np.random.Philox(40 + m))
    d, e = sign * rng.standard_normal(61), sign * rng.standard_normal(61 - m)
    ref = np.linalg.eigvalsh(_banded(d, e, m))  # the oracle, in tests only
    want = ref if window is None else ref[(ref > window[0]) & (ref < window[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = tridiagonal_eig(d, e, window, m=m)
    assert spec.dimension == len(want) > 0
    assert np.max(np.abs(spec.values - want)) <= 1e-12 * np.max(np.abs(ref))
    assert spec.residual_bound <= 1e-12


@pytest.mark.parametrize("m,match", [(0, "offset"), (1.5, "offset"), (2, "length n - 2")])
def test_band_offset_rejected(m, match):
    with pytest.raises(ContractError, match=match):
        tridiagonal_eig(np.ones(4), np.ones(3), m=m)


@pytest.mark.parametrize("window", [None, (0.5, 0.8)], ids=["full", "window"])
def test_level_without_anisotropy_is_its_diagonal(window, monkeypatch):
    # epsilon = 0: V is radial, so the level has no band and takes no Sturm
    # pass; its spectrum is the sorted diagonal, all of it whatever the
    # window, as for the isotropic model
    q, model = 8, PotentialModel.anisotropic(0.5, 0.0, 2)
    k_max = truncation_bound(model, 1.0, q, 0.47, rho_scale=0.5)
    cfg = LandauConfig(B=1.0, q=q, k_max=k_max)
    diag, bands = _level_bands(model, cfg)
    assert bands == {}
    assert np.array_equal(diag, _level_bands(PotentialModel.isotropic(0.5), cfg)[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a radial level takes no Sturm pass")

    monkeypatch.setattr(eigen, "_sturm_rows", refuse)
    if window is not None:
        window = tuple(s * (2 * q + 1) ** -0.25 for s in window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, _, _, residual, summary = level_spectrum(model, 1.0, q, 0.47, 0.5, window)
    assert len(values) == len(diag) > 50
    assert np.array_equal(values, np.sort(diag))
    assert residual == 0.0 and summary["bandwidth"] == 0


def test_shift_on_a_decoupled_entry_counts_exactly():
    # a shift equal to a diagonal entry with no coupling above it: the rows
    # below restart, so that entry is not counted, whatever the pivot above
    rng = np.random.Generator(np.random.Philox(29))
    d = rng.integers(-4, 5, 40).astype(float)
    counts = _sturm_count(d, np.zeros(39), d)
    assert np.array_equal(counts, np.count_nonzero(d[None, :] < d[:, None], axis=1))
    # [[1, 1], [1, 1]] has the eigenvalue 2, so its last pivot at x = 2 is
    # +0, and the zero coupling below it restarts the count at d = 3
    d, e = [1.0, 1.0, 3.0], [1.0, 0.0]
    assert _sturm_count(d, e, [2.0, 3.0]).tolist() == [1, 2]
    # the window [2, 3) holds the eigenvalue at its lower end, and not the one at its upper
    for m in (1, 2):
        spec = tridiagonal_eig([1.0, 2.0, 3.0], [0.0] * (3 - m), (2.0, 3.0), m=m)
        assert spec.dimension == 1 and abs(spec.values[0] - 2.0) <= 1e-12 * 3.0


@pytest.mark.parametrize("early_exit", [False, True])
@pytest.mark.parametrize("slope", [False, True])
def test_count_above_a_long_chain_does_not_wrap(early_exit, slope):
    # signs are tallied in uint8 a block at a time: 1000 rows must count 1000
    d, e = _chain(1000, 8)
    top = float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    counts = _sturm_count(d, e, [-top - 1.0, top + 1.0], early_exit, slope)
    counts = counts[0] if slope else counts
    assert counts.tolist() == [0, 1000]


@pytest.mark.parametrize("window", [None, (0.5, 0.8)], ids=["full", "window"])
def test_level_takes_one_set_of_count_passes(monkeypatch, window):
    # the test-09 level q = 48: its two chains share every count pass, so the
    # level takes what one chain took (22 and 24 passes in two chain solves)
    q, model = 48, PotentialModel.anisotropic(0.5, 0.3, 2)
    if window is not None:
        window = tuple(s * (2 * q + 1) ** -0.25 for s in window)
    calls = _counted_passes(monkeypatch)
    values, _, _, residual, summary = level_spectrum(model, 1.0, q, 0.47, 0.5, window)
    assert len(calls) <= (12 if window is None else 13), calls
    assert residual <= 1e-12
    assert len(values) == summary["dimension"] if window is None else len(values) > 100
