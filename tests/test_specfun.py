import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcl.errors import ConfigurationError
from lcl.landau import _band_batch
from lcl.specfun import (QuadratureRule, assoc_laguerre, bessel_j0, gauss_nodes,
                         laguerre, laguerre_bessel_gap, laguerre_function,
                         laguerre_function_multi, laguerre_weighted)

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


def test_laguerre_function_orthonormal():
    # int_0^inf psi_n psi_m dt = delta_{nm}, checked with mpmath quadrature
    for (n, m, a) in ((0, 0, 0.0), (3, 3, 2.0), (3, 4, 2.0), (10, 10, 37.0)):
        f = lambda t: (laguerre_function(n, a, float(t))
                       * laguerre_function(m, a, float(t)))
        val = mp.quad(f, [0, 1, 4 * max(n, m) + 2 * a + 4, 8 * max(n, m) + 4 * a + 60])
        assert abs(float(val) - (1.0 if n == m else 0.0)) < 1e-10


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
    alpha = np.array([a])
    norm = _band_batch(np.ones_like, 1.0, 1000, alpha, 1000, alpha)[0]
    cross = _band_batch(np.ones_like, 1.0, 1000, alpha, 999, alpha)[0]
    assert abs(norm - 1.0) < 1e-10
    assert abs(cross) < 1e-10


def test_laguerre_function_multi_rows_match_single_degree():
    # one recurrence to max(n) read off per row must give each row exactly
    # what the scalar-degree front end gives it
    rng = np.random.default_rng(7)
    n = np.array([0, 1, 5, 1, 0, 12, 3, 40])
    a = np.array([0.0, 2.0, 1.5, 0.0, 7.0, 3.0, 160.0, 0.5])
    t = np.sort(rng.uniform(0.0, 150.0, (len(n), 33)), axis=1)
    t[:, 0] = 0.0
    rows = np.array([laguerre_function(int(k), b, x) for k, b, x in zip(n, a, t)])
    assert np.array_equal(laguerre_function_multi(n, a, t), rows)


def test_laguerre_function_at_zero():
    # psi_n^(a)(0) = 0 for a > 0; for a = 0 it is L_n(0) = 1
    assert laguerre_function(2, 3.0, 0.0) == 0.0
    assert laguerre_function(3, 0.0, 0.0) == 1.0
    vals = laguerre_function_multi([2, 0, 4], [1.0, 2.0, 0.0], np.zeros((3, 2)))
    assert np.array_equal(vals, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


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


def test_gauss_nodes_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        gauss_nodes("legendre", 0)
    with pytest.raises(ConfigurationError):
        gauss_nodes("chebyshev", 4)


def test_rules_are_cached_and_immutable():
    r1 = gauss_nodes("legendre", 7)
    r2 = gauss_nodes("legendre", 7)
    assert r1 is r2
    assert isinstance(r1, QuadratureRule)


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
