import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcl import PotentialModel, landau, specfun
from lcl.errors import ConfigurationError
from lcl.landau import _window_quadrature, _xi_window
from lcl.specfun import (QuadratureRule, assoc_laguerre, bessel_j0, gauss_nodes,
                         laguerre, laguerre_bessel_gap, laguerre_function,
                         laguerre_function_multi, laguerre_laplace, laguerre_weighted,
                         legendre_rule)
from lcl.symbols import psi_q

mp.mp.dps = 40


def test_laguerre_low_orders():
    assert laguerre(0, 7.3) == 1.0
    assert laguerre(1, 2.0) == -1.0
    assert laguerre(2, 1.0) == -0.5


def test_laguerre_matches_sum_form():
    # independent oracle: explicit binomial sum at 40 digits
    worst = 0.0
    for q in (0, 1, 2, 3, 5, 8, 13, 20):
        for t in (-30.0, -7.5, -1.0, 0.0, 0.3, 4.0, 17.0, 30.0):
            exact = float(mp.fsum(mp.binomial(q, k) * (-mp.mpf(t)) ** k / mp.factorial(k)
                                  for k in range(q + 1)))
            got = laguerre(q, t)
            worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    assert worst < 1e-9


def test_laguerre_weighted_at_zero():
    for q in (0, 1, 7, 50, 311):
        assert laguerre_weighted(q, 0.0) == 1.0


def test_laguerre_weighted_product_oracle():
    got = laguerre_weighted(5, 10.0)
    ref = laguerre(5, 10.0) * math.exp(-5.0)
    assert abs(got - ref) / abs(ref) < 1e-10


def test_laguerre_weighted_large_arguments():
    # frozen from the 40-digit damped evaluation: L_200(800) e^{-400}
    ref = float(mp.laguerre(200, 0, 800) * mp.e ** (-400))
    got = laguerre_weighted(200, 800.0)
    assert abs(got) <= 1.0
    assert abs(got - ref) < 1e-12
    # deep in the underflow-guard regime
    ref2 = float(mp.laguerre(500, 0, 1600) * mp.e ** (-800))
    got2 = laguerre_weighted(500, 1600.0)
    assert abs(got2 - ref2) < 1e-10 * max(1.0, abs(ref2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=500),
       st.floats(min_value=0.0, max_value=5000.0, allow_nan=False))
def test_laguerre_weighted_classical_bound(q, t):
    assert abs(laguerre_weighted(q, t)) <= 1.01


def test_assoc_laguerre_low_orders():
    for alpha in (0, 1, 5):
        assert assoc_laguerre(0, alpha, 3.3) == 1.0
    assert assoc_laguerre(1, 3, 2.0) == 2.0


def test_assoc_laguerre_sum_form_oracle():
    # oracle: finite sum binom(n+alpha, n-k) (-t)^k / k! at 40 digits
    n, alpha, t = 4, 2, 1.5
    exact = float(mp.fsum(mp.binomial(n + alpha, n - k) * (-mp.mpf(t)) ** k / mp.factorial(k)
                          for k in range(n + 1)))
    assert abs(assoc_laguerre(n, alpha, t) - exact) < 1e-12


def _psi_inner_product(n, m, a, scale=1.0):
    """int_0^inf psi_n psi_m dt with psi scaled by `scale`: 200 Gauss-Legendre
    nodes on each of the panels [0, 1], [1, 4N + 2a + 4], [.., 8N + 4a + 60]
    (N = max(n, m)), one laguerre_function call per panel and degree."""
    x, w = np.polynomial.legendre.leggauss(200)
    N = max(n, m)
    edges = [0.0, 1.0, 4 * N + 2 * a + 4, 8 * N + 4 * a + 60]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * (x + 1.0) + lo
        pn = scale * laguerre_function(n, a, t)
        pm = pn if m == n else scale * laguerre_function(m, a, t)
        total += 0.5 * (hi - lo) * float(np.dot(w, pn * pm))
    return total


def test_laguerre_function_orthonormal():
    # int_0^inf psi_n psi_m dt = delta_{nm}; measured errors <= 4.7e-15.  The
    # negative control: psi scaled by 1 + 1e-9 is off by 2e-9 on the diagonal
    for (n, m, a) in ((0, 0, 0.0), (3, 3, 2.0), (3, 4, 2.0), (10, 10, 37.0)):
        delta = 1.0 if n == m else 0.0
        assert abs(_psi_inner_product(n, m, a) - delta) < 1e-10, (n, m, a)
        if n == m:
            assert abs(_psi_inner_product(n, m, a, scale=1.0 + 1e-9) - delta) > 1e-10, (n, m, a)


def _psi_oracle(n, a, t):
    # psi_n^(a)(t) from mpmath's L_n^(a) at 50 digits
    with mp.workdps(50):
        t = mp.mpf(t)
        return float(mp.sqrt(mp.factorial(n) / mp.gamma(n + a + 1)) * t ** (mp.mpf(a) / 2)
                     * mp.exp(-t / 2) * mp.laguerre(n, a, t))


@pytest.mark.parametrize("n", [700, 1024, 4096])
@pytest.mark.parametrize("a", [0, 37])
def test_laguerre_function_high_degree_oracle(n, a):
    # nodes across the oscillatory range, through the upper turning point
    # 4n + 2a + 2 and out to where psi has decayed by orders of magnitude:
    # the region where an unscaled recurrence overflows
    edge = 4 * n + 2 * a + 2
    ts = np.concatenate([np.geomspace(16.0, 0.9 * edge, 10),
                         edge + np.array([-20.0, -5.0, 0.0, 5.0, 20.0, 50.0, 120.0])])
    ref = np.array([_psi_oracle(n, a, t) for t in ts])
    got = laguerre_function(n, float(a), ts)
    assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("a", [0.0, 37.0])
def test_laguerre_function_gram_degree_1000(a):
    # <psi_1000, psi_1000> = 1 and <psi_1000, psi_999> = 0 by the entry
    # quadrature with a unit profile
    alpha, n = np.array([a]), np.array([1000])
    order = landau._QUAD_BASE + math.ceil(landau._NODES_PER_N * 1000)  # level 1000's band rule
    norm = _window_quadrature(np.ones_like, 1.0, n, alpha, n, alpha, order)[0]
    cross = _window_quadrature(np.ones_like, 1.0, n, alpha, n - 1, alpha, order)[0]
    assert abs(norm - 1.0) < 1e-10
    assert abs(cross) < 1e-10


def test_laguerre_function_multi_rows_match_single_degree():
    # one recurrence to max(n) read off per row must give each row exactly
    # what the scalar-degree front end gives it (NumPy integer degrees)
    rng = np.random.default_rng(7)
    n = np.array([0, 1, 5, 1, 0, 12, 3, 40], dtype=np.int32)
    a = np.array([0.0, 2.0, 1.5, 0.0, 7.0, 3.0, 160.0, 0.5])
    t = np.sort(rng.uniform(0.0, 150.0, (len(n), 33)), axis=1)
    t[:, 0] = 0.0
    rows = np.array([laguerre_function(k, b, x) for k, b, x in zip(n, a, t)])
    assert np.array_equal(laguerre_function_multi(n, a, t), rows)


def test_finished_rows_leave_the_recurrence_bitwise_at_high_degree():
    # the k < 0 batch of a q = 1024 level: degrees 0..1023, alpha = |k|, each
    # row on nodes of its own window; the recurrence rescales on the way
    q = 1024
    k = np.arange(-q, 0)
    n, a = q + k, np.abs(k).astype(float)
    lo, hi = _xi_window(n, a)
    x, _ = legendre_rule(40)
    xi = 0.5 * (hi - lo)[:, None] * (x[None, :] + 1.0) + lo[:, None]
    rows = laguerre_function_multi(n, a, xi)
    # the per-row oracle costs a Python loop of n_i steps, so check a sample
    for i in np.r_[0:q:37, q - 1]:
        assert np.array_equal(rows[i], laguerre_function(int(n[i]), a[i], xi[i])), i
    perm = np.random.default_rng(3).permutation(q)
    assert np.array_equal(laguerre_function_multi(n[perm], a[perm], xi[perm]), rows[perm])


def test_laguerre_function_at_zero():
    # psi_n^(a)(0) = 0 for a > 0; for a = 0 it is L_n(0) = 1
    assert laguerre_function(2, 3.0, 0.0) == 0.0
    assert laguerre_function(3, 0.0, 0.0) == 1.0
    vals = laguerre_function_multi([2, 0, 4], [1.0, 2.0, 0.0], np.zeros((3, 2)))
    assert np.array_equal(vals, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("call", [
    lambda t: laguerre_function(3, 2.0, t),
    lambda t: laguerre_weighted(3, t),
    lambda t: landau.radial_basis(landau.BasisIndex(3, 0), 1.0, t),
    lambda t: psi_q(3, t, t),
    lambda t: laguerre_bessel_gap(3, t),
], ids=["laguerre_function", "laguerre_weighted", "radial_basis", "psi_q", "gap"])
def test_empty_argument_gives_an_empty_result(call):
    # the recurrence's scale max(t, 1) had no identity on an empty t
    assert np.size(call(np.empty(0))) == 0


def _laplace_oracle(n, a, c):
    """E_{n,a}(c) at 30 digits, from mpmath hyp2f1 in its convergent form:
    l^(a+1) C(n+a, n) (1-l)^(2n) 2F1(-n, -n; a+1; c^-2) for c >= 1, and the
    reversed sum l^(2n+a+1) 2F1(-n, -n-a; 1; c^2) for c < 1, l = 1/(1+c)."""
    with mp.workdps(30):
        c = mp.mpf(c)
        lam, one_minus = 1 / (1 + c), c / (1 + c)
        if c < 1:
            return lam ** (2 * n + a + 1) * mp.hyp2f1(-n, -n - a, 1, c * c)
        return (lam ** (a + 1) * mp.binomial(n + mp.mpf(a), n) * one_minus ** (2 * n)
                * mp.hyp2f1(-n, -n, a + 1, 1 / (c * c)))


_LAPLACE_N = [0, 1, 7, 64, 256, 1024]
_LAPLACE_ALPHA = [0.0, 0.5, 3.0, 24.0, 1e3, 2e5]
_LAPLACE_C = [1e-16, 1e-6, 0.3, 1.0, 2.0, 1e3]


@pytest.mark.parametrize("n", _LAPLACE_N)
def test_laguerre_laplace_matches_mpmath_hyp2f1(n):
    # every alpha and c of the grid in one call: rows by nodes
    got = laguerre_laplace(np.full(len(_LAPLACE_ALPHA), n), _LAPLACE_ALPHA, _LAPLACE_C)
    worst = 0.0
    for i, a in enumerate(_LAPLACE_ALPHA):
        for j, c in enumerate(_LAPLACE_C):
            ref = _laplace_oracle(n, a, c)
            if ref < 1e-290:
                # below the normal range, e.g. 2^-200001 at (0, 2e5, 1)
                assert 0.0 <= got[i, j] <= 1e-290
                continue
            worst = max(worst, float(abs(got[i, j] - ref) / ref))
    # measured: 2.0e-13 at (1024, 1e3, 1), rounding of logarithms of size ~2n + alpha
    assert worst <= 3e-13, worst


def test_laguerre_laplace_exact_cases():
    a = np.array([0.0, 0.5, 3.0, 24.0, 1e3, 2e5])
    assert np.all(laguerre_laplace(np.array([0, 1, 7, 64, 256, 1024]), a, [0.0]) == 1.0)
    c = np.array([0.0, 1e-16, 1e-6, 0.3, 1.0, 2.0, 1e3])
    got = laguerre_laplace([0], [0.0], c)[0]
    assert np.max(np.abs(got * (1.0 + c) - 1.0)) <= 4.5e-16  # two roundings


def test_laguerre_laplace_sorts_rows_and_matches_alone():
    n = np.array([5, 0, 300, 5, 17])
    a = np.array([2.0, 0.0, 1.5, 40.0, 3.0])
    c = np.array([1e-4, 0.5, 1.0, 7.0])
    got = laguerre_laplace(n, a, c)
    for i in range(len(n)):
        assert np.array_equal(got[i], laguerre_laplace(n[i:i + 1], a[i:i + 1], c)[0])
    # lanes whose truncation points J run from 0 (c = 0, n = 0) to n = 300
    # (c = 1), and whose sums pass 2^512 at (300, 0, 1)
    n, a = (np.array(v).ravel() for v in np.meshgrid([0, 1, 300], [0.0, 2e5], indexing="ij"))
    c = np.array([0.0, 1e-16, 1e-3, 1.0, 1e3])
    got = laguerre_laplace(n, a, c)
    for i in range(len(n)):
        assert np.array_equal(got[i], laguerre_laplace(n[i:i + 1], a[i:i + 1], c)[0])


def _laplace_untruncated(n, a, c):
    """The Laplace sum as summed before each lane stopped at its truncation
    point: rows sorted by n, each branch by one Horner pass over every row
    from j = n_i.  Returns E and where the sum passed 2^512 (exponent e > 0)."""
    n, a, c = np.asarray(n, dtype=np.int64), np.asarray(a, dtype=float), np.asarray(c, dtype=float)
    order = np.argsort(n, kind="stable")
    n, a = n[order], a[order]
    split = int(np.searchsorted(c, 1.0))
    cr, cf = c[:split], c[split:]
    nf = n.astype(float)
    nn, aa = nf[:, None], a[:, None]
    j = np.arange(int(n.max(initial=0)), dtype=float)[:, None]

    def horner(ratio, x):
        m = np.ones((n.size, x.size))
        one = np.ones_like(m)
        e = np.zeros(m.shape, dtype=np.int64)
        start = np.searchsorted(n, np.arange(ratio.shape[0] + 1), side="right").tolist()
        carry = specfun._power_of_two_carry(2.0 + float(np.max(ratio, initial=0.0)))
        for jj in range(ratio.shape[0] - 1, -1, -1):
            r = slice(start[jj], None)
            mr, onr = m[r], one[r]
            mr *= ratio[jj, r, None]
            mr *= x
            mr += onr
            carry(jj, e[r], mr, onr)
        return np.log(m) + e * math.log(2.0), e > 0

    out, carried = np.empty((n.size, c.size)), np.empty((n.size, c.size), dtype=bool)
    logs, carried[:, :split] = horner((nf - j) * (nf - j + a) / np.square(j + 1.0), np.square(cr))
    out[:, :split] = np.exp(logs - (2.0 * nn + aa + 1.0) * np.log1p(cr))
    logs, carried[:, split:] = horner(np.square(nf - j) / ((j + 1.0) * (j + 1.0 + a)),
                                      np.square(1.0 / cf))
    out[:, split:] = np.exp(logs + specfun._log_binomial(nf, a)[:, None]
                            - 2.0 * nn * np.log1p(1.0 / cf) - (aa + 1.0) * np.log1p(cf))
    values, past = np.empty_like(out), np.empty_like(carried)
    values[order], past[order] = out, carried
    return values, past


def _radial_rows(q, k_hi):
    ks = np.arange(-q, k_hi, dtype=float)
    return q + np.minimum(ks, 0.0).astype(np.int64), np.abs(ks)


def test_laguerre_laplace_truncation_keeps_the_diagonal_bits():
    # the width-scan benchmark's 64 levels for seed 5 (one level from each of
    # 64 equal strata of [8, 256], rows k in [-q, 24]) and the radial rows
    # k in [-q, 4q), on the isotropic rho = 0.5 mixture at B = 1: every entry
    # bit-identical to the untruncated sum (no sum there passes 2^512)
    s, _ = PotentialModel.isotropic(0.5).gaussian_mixture()
    c = 2.0 * s
    edges = np.linspace(8, 257, 65).astype(int)
    rng = np.random.default_rng(5)
    rows = [_radial_rows(int(rng.integers(lo, hi)), 25) for lo, hi in zip(edges[:-1], edges[1:])]
    rows += [_radial_rows(q, 4 * q) for q in (8, 32, 128)]
    for n, a in rows:
        want, carried = _laplace_untruncated(n, a, c)
        assert not carried.any()
        assert np.array_equal(laguerre_laplace(n, a, c).view(np.int64), want.view(np.int64))


def test_laguerre_laplace_truncation_on_a_random_grid():
    # n <= 1,100, alpha <= 4e5, c in [1e-16, 1e3] with 17 nodes near 1.
    # Where the sum stays below 2^512 the truncated sum must agree with the
    # untruncated one within 1e-15 (measured: every entry bit-identical).
    # Where it passes 2^512 (c near 1 at large n, or large alpha: 533 of
    # 3,120 entries) the power-of-two carries come at other steps for the
    # c >= 1 nodes, and 32 entries move by one or two ulps of log S (up to
    # 2.3e-13).  There both sums must be within 2 eps L of mpmath, with
    # L = (2n + alpha + 1) log(1 + max(c, 1/c)) the size of the logarithms
    # that the closing rounds: measured 1.03 eps L (3.6e-13) for both
    rng = np.random.default_rng(0)
    n = rng.integers(0, 1101, 48)
    a = np.where(rng.random(48) < 0.2, 0.0, 10.0 ** rng.uniform(-2.0, math.log10(4e5), 48))
    c = np.sort(np.concatenate([10.0 ** rng.uniform(-16.0, 3.0, 48),
                                1.0 + rng.uniform(-0.3, 0.3, 16), [1.0]]))
    got = laguerre_laplace(n, a, c)
    want, carried = _laplace_untruncated(n, a, c)
    below = ~carried
    assert np.all(np.abs(got[below] - want[below]) <= 1e-15 * want[below])
    assert carried.sum() > 100
    eps = np.finfo(float).eps
    for i, k in zip(*np.nonzero(carried)):
        ref = _laplace_oracle(int(n[i]), float(a[i]), float(c[k]))
        if ref < 1e-290:
            continue
        tol = 2.0 * eps * (2 * n[i] + a[i] + 1) * math.log1p(max(c[k], 1.0 / c[k]))
        for value in (got[i, k], want[i, k]):
            assert float(abs(value - ref) / ref) <= tol, (n[i], a[i], c[k])


def test_laguerre_laplace_stays_in_bounded_memory():
    # the q = 128 radial rows (640 rows x 201 nodes): lanes go in blocks of
    # at most 2^16; the untruncated sum read 5.5 MiB here, the lanes 4.5 MiB
    s, _ = PotentialModel.isotropic(0.5).gaussian_mixture()
    n, a = _radial_rows(128, 512)
    laguerre_laplace(n, a, 2.0 * s)
    tracemalloc.start()
    try:
        laguerre_laplace(n, a, 2.0 * s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


@pytest.mark.parametrize("n, a, c", [
    ([-1], [0.0], [1.0]), ([1.5], [0.0], [1.0]), ([1], [-0.5], [1.0]),
    ([1], [np.nan], [1.0]), ([1], [0.0], [-1.0]), ([1], [0.0], [np.inf]),
    ([1], [0.0], [2.0, 1.0]),
], ids=["n-negative", "n-fractional", "alpha-negative", "alpha-nan", "c-negative",
        "c-inf", "c-descending"])
def test_laguerre_laplace_rejects_bad_input(n, a, c):
    with pytest.raises(ValueError):
        laguerre_laplace(n, a, c)


@pytest.mark.parametrize("call, name", [
    (lambda: laguerre_function(2.5, 0.0, 1.0), "n"),
    (lambda: laguerre_function(-1, 0.0, 1.0), "n"),
    (lambda: laguerre_function(True, 0.0, 1.0), "n"),
    (lambda: laguerre_function(2, np.nan, 1.0), "alpha"),
    (lambda: laguerre_function(2, [0.0, np.inf], [1.0, 2.0]), "alpha"),
    (lambda: laguerre_function(2, -0.5, 1.0), "alpha"),
    (lambda: laguerre_function(2, 0.0, np.nan), "t"),
    (lambda: laguerre_function(2, 0.0, np.inf), "t"),
    (lambda: laguerre_function(2, 0.0, -1.0), "t"),
    (lambda: laguerre_weighted(2, -1.0), "t"),
    (lambda: laguerre_function_multi([1.5, 2.0], [0.0, 0.0], np.ones((2, 3))), "n"),
    (lambda: laguerre_function_multi([1, -2], [0.0, 0.0], np.ones((2, 3))), "n"),
    (lambda: laguerre_function_multi([1, 2], [0.0, np.nan], np.ones((2, 3))), "alpha"),
    (lambda: laguerre_function_multi([1, 2], [0.0, -1.0], np.ones((2, 3))), "alpha"),
    (lambda: laguerre_function_multi([1, 2], [0.0, 0.0], [[1.0, np.nan], [1.0, 2.0]]), "t"),
    (lambda: laguerre_function_multi([1, 2], [0.0, 0.0], [[1.0, 2.0], [1.0, np.inf]]), "t"),
    (lambda: laguerre_function_multi([1, 2], [0.0, 0.0], [[1.0, 2.0], [-1.0, 2.0]]), "t"),
], ids=["n-fractional", "n-negative", "n-bool", "alpha-nan", "alpha-inf", "alpha-negative",
        "t-nan", "t-inf", "t-negative", "weighted-t-negative", "multi-n-fractional",
        "multi-n-negative", "multi-alpha-nan", "multi-alpha-negative", "multi-t-nan",
        "multi-t-inf", "multi-t-negative"])
def test_laguerre_function_rejects_bad_input(call, name):
    # a fractional degree used to be truncated, a NaN alpha failed on an
    # integer conversion, and t = inf or t < 0 gave NaN or a finite value
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def _j0_integral_oracle(r, order=400):
    # (1/pi) int_0^pi cos(r sin t) dt by high-order quadrature
    x, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * math.pi * (x + 1.0)
    return 0.5 * float(np.dot(w, np.cos(r * np.sin(t))))


def test_bessel_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_bessel_j0_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _j0_integral_oracle(mid) > 0:
            lo = mid
        else:
            hi = mid
    zero = 0.5 * (lo + hi)
    assert abs(zero - 2.404825557695773) < 1e-12
    assert abs(bessel_j0(2.404825557695773)) < 1e-10


def test_bessel_j0_at_one():
    # frozen from the 400-point quadrature oracle of the integral form
    assert abs(bessel_j0(1.0) - 0.7651976865579666) < 1e-9


def test_bessel_j0_matches_oracle_across_switchover():
    for r in (0.5, 3.0, 11.9, 12.0, 12.1, 30.0, 113.0):
        assert abs(bessel_j0(r) - _j0_integral_oracle(r)) < 1e-12


def test_bessel_j0_matches_mpmath():
    # one batch over [0, 300] and each value alone, around the old switch
    # at 12 too: the midpoint rule stays within rounding of the arguments
    r = np.concatenate([np.linspace(0.0, 300.0, 3001), [12.0 - 1e-9, 12.0, 12.0 + 1e-9],
                        np.random.default_rng(3).uniform(0.0, 300.0, 1000)])
    want = np.array([float(mp.besselj(0, mp.mpf(x))) for x in r])
    assert np.max(np.abs(bessel_j0(r) - want)) <= 2e-15
    alone = np.array([bessel_j0(x) for x in r])
    assert np.max(np.abs(alone - want)) <= 2e-15
    assert bessel_j0(0.0) == 1.0 and bessel_j0(np.zeros(3)).tolist() == [1.0] * 3


def test_bessel_j0_does_not_depend_on_its_batch():
    # each value takes its own node count: 0, the first zeros, the rungs of
    # the node ladder (multiples of 32) and r up to 300, batched and alone
    zeros = [2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281]
    r = np.concatenate([[0.0], zeros, [32.0, 32.0 + 1e-12, 64.0, 300.0],
                        np.random.default_rng(5).uniform(0.0, 300.0, 399)])
    batch = bessel_j0(r)
    for other in (np.array([bessel_j0(x) for x in r]), bessel_j0(r[::-1])[::-1],
                  bessel_j0(r.reshape(3, -1)).ravel()):
        assert np.array_equal(batch.view(np.int64), other.view(np.int64))


def test_bessel_j0_does_not_depend_on_its_row_blocks(monkeypatch):
    # every rung of the node ladder, in blocks of one row, of a few rows
    # (1,000 // N) and of all rows of a node count
    r = np.concatenate([[0.0, 32.0, 32.0 + 1e-12],
                        np.random.default_rng(7).uniform(0.0, 300.0, 2000)])
    want = bessel_j0(r)
    for block in (1, 1000, 1 << 30):
        monkeypatch.setattr(specfun, "BLOCK_POINTS", block)
        assert np.array_equal(bessel_j0(r).view(np.int64), want.view(np.int64)), block


@pytest.mark.parametrize("call", [
    lambda: bessel_j0(float("nan")),
    lambda: bessel_j0([1.0, float("inf")]),
    lambda: bessel_j0(-1.0),
    lambda: laguerre_bessel_gap(4, float("nan")),
    lambda: laguerre_bessel_gap(4, [0.5, -0.5]),
], ids=["j0-nan", "j0-inf", "j0-negative", "gap-nan", "gap-negative"])
def test_bessel_arguments_name_r(call):
    # NaN used to fail on an integer conversion of the node count
    with pytest.raises(ValueError, match="^r must be finite and >= 0"):
        call()


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
def test_bessel_j0_bounded(r):
    assert abs(bessel_j0(r)) <= 1.0 + 1e-13


def test_gauss_legendre_order_one():
    rule = gauss_nodes("legendre", 1)
    assert np.allclose(rule.nodes, [0.0])
    assert np.allclose(rule.weights, [2.0])


def test_gauss_laguerre_order_one():
    rule = gauss_nodes("laguerre", 1)
    assert np.allclose(rule.nodes, [1.0])
    assert np.allclose(rule.weights, [1.0])


def test_gauss_legendre_exactness_degree_three():
    rule = gauss_nodes("legendre", 2)
    assert abs(rule.integrate(lambda t: t * t) - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34])
def test_legendre_rule_invariants(order):
    rule = gauss_nodes("legendre", order)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    for j in range(2 * order):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        err = abs(rule.integrate(lambda t, j=j: t ** j) - exact)
        assert err < 1e-12, (order, j, err)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34])
def test_laguerre_rule_invariants(order):
    rule = gauss_nodes("laguerre", order)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    for j in range(2 * order):
        exact = math.factorial(j)
        err = abs(rule.integrate(lambda t, j=j: t ** j) - exact) / exact
        assert err < 1e-12, (order, j, err)


def _legendre_node_oracle(n, x):
    """Node of P_n refined at 40 digits from x by two Newton steps, and its
    Gauss weight 2 / ((1 - x^2) P_n'(x)^2)."""
    x = mp.mpf(x)
    for _ in range(2):
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x -= p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("order", [2, 3, 80, 81, 452, 801])
def test_legendre_rule_is_exactly_symmetric(order):
    x, w = legendre_rule(order)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    if order % 2:
        assert x[order // 2] == 0.0


@pytest.mark.parametrize("order", [81, 452, 801])
def test_legendre_rule_matches_mpmath(order):
    # the rule is exactly symmetric, so the half in [-1, 0] covers it; the
    # weights err most near the ends, so the first 8 nodes are all checked
    x, w = legendre_rule(order)
    half = (order + 1) // 2
    for i in np.r_[0:8, 8:half:16, half - 1]:
        xo, wo = _legendre_node_oracle(order, x[i])
        assert abs(float(xo - x[i])) <= 1e-16, (i, float(xo - x[i]))
        assert abs(float((w[i] - wo) / wo)) <= 2e-12, (i, float((w[i] - wo) / wo))


def _laguerre_node_oracle(n, x):
    """Node of L_n refined at 40 digits from x by two Newton steps, and its
    Gauss weight x / ((n + 1) L_{n+1}(x))^2."""
    def values(x):  # L_{n-1}(x), L_n(x), L_{n+1}(x)
        p0, p1, p2 = mp.mpf(0), mp.mpf(1), 1 - x
        for k in range(1, n + 1):
            p0, p1, p2 = p1, p2, ((2 * k + 1 - x) * p2 - k * p1) / (k + 1)
        return p0, p1, p2

    x = mp.mpf(x)
    for _ in range(2):
        lm1, ln, _ = values(x)
        x -= ln / (n * (ln - lm1) / x)
    return x, x / ((n + 1) * values(x)[2]) ** 2


@pytest.mark.parametrize("order", [34, 100, 160])
def test_laguerre_rule_matches_mpmath(order):
    # measured relative errors at orders 34/100/160: nodes 2.9e-15/8.3e-14/
    # 1.0e-13 from the Jacobi-matrix start (1.7e-14/3.1e-14/1.1e-13 from the
    # former node-by-node search); weights 8.2e-13/1.4e-11/5.9e-11 (1.3e-12/
    # 1.3e-11/5.2e-11).  The bounds, 1.5e-15 n and 4e-15 n^2, leave at least
    # 1.5x headroom over both.
    rule = gauss_nodes("laguerre", order)
    ref = [_laguerre_node_oracle(order, x) for x in rule.nodes]
    node_err = max(abs(float((x - xo) / xo)) for x, (xo, _) in zip(rule.nodes, ref))
    weight_err = max(abs(float((w - wo) / wo)) for w, (_, wo) in zip(rule.weights, ref))
    assert node_err <= 1.5e-15 * order, node_err
    assert weight_err <= 4e-15 * order ** 2, weight_err


def test_laguerre_rule_largest_orders(monkeypatch):
    # e^{-x} at the largest node underflows the weights from order 195 (x =
    # 748.1; at 194, x = 744.2 and e^{-x} is the smallest subnormal)
    assert np.all(gauss_nodes("laguerre", 194).weights > 0.0)
    # such an order is refused from its Golub-Welsch nodes, before Newton
    # starts; at order 260 and above Newton itself would run out of steps
    monkeypatch.setattr(specfun, "_newton", lambda *args: pytest.fail("Newton started"))
    for order in (195, 260, 400):
        with pytest.raises(ConfigurationError, match=rf"order {order}\b.*order too large"):
            gauss_nodes("laguerre", order)


def test_gauss_nodes_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        gauss_nodes("legendre", 0)
    with pytest.raises(ConfigurationError):
        gauss_nodes("chebyshev", 4)
    # a bool used to build the order-1 rule; a float escaped as NumPy's TypeError
    for order in (True, 2.5):
        with pytest.raises(ConfigurationError, match="order must be an integer"):
            gauss_nodes("legendre", order)


def test_rules_are_cached_and_immutable():
    r1 = gauss_nodes("legendre", 7)
    r2 = gauss_nodes("legendre", 7)
    assert r1 is r2
    assert isinstance(r1, QuadratureRule)
    # the cached arrays are shared by every caller, so writes must fail
    x, w = legendre_rule(7)
    with pytest.raises(ValueError):
        x += 1.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        gauss_nodes("laguerre", 7).nodes[0] = 0.0


def test_gap_vanishes_at_zero():
    for q in (0, 3, 17, 64):
        gap, normalized = laguerre_bessel_gap(q, 0.0)
        assert gap == 0.0
        assert math.isnan(normalized)


def test_gap_direct_oracle_q0():
    gap, _ = laguerre_bessel_gap(0, 1.0)
    ref = abs(math.exp(-0.5) - _j0_integral_oracle(math.sqrt(2.0)))
    assert abs(gap - ref) < 1e-10


def test_gap_normalized_sup_stable_under_refinement():
    sups = []
    for npts in (250, 500):
        grid = np.linspace(0.01, 50.0, npts)
        sup = 0.0
        for q in range(0, 65, 4):
            _, normalized = laguerre_bessel_gap(q, grid)
            sup = max(sup, float(np.nanmax(normalized)))
        sups.append(sup)
    assert all(math.isfinite(s) for s in sups)
    assert abs(sups[1] - sups[0]) / sups[0] < 0.05
