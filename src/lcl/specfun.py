"""Numerically stable special functions and Gaussian quadrature rules.

Everything downstream (basis functions, matrix elements, symbol integrals)
is built on the four families here:

* Laguerre polynomials ``L_n^(a)`` by the plain three-term recurrence
  (:func:`assoc_laguerre`, with :func:`laguerre` its ``a = 0`` case),
* orthonormal generalized-Laguerre functions
  ``psi_n^(a)(t) = sqrt(n!/Gamma(n+a+1)) t^{a/2} e^{-t/2} L_n^(a)(t)``,
  evaluated by one normalized recurrence with log-gamma starting values and
  power-of-two rescaling, finite at every degree.  It serves
  :func:`laguerre_function`, :func:`laguerre_function_multi`, the damped
  polynomial :func:`laguerre_weighted` (``L_q(t) e^{-t/2} = psi_q^(0)(t)``)
  and the Newton iteration of the Gauss-Laguerre rule,
* the Bessel function ``J_0`` (power series below the switchover, quadrature
  of the cosine integral representation above it),
* Gauss-Legendre and Gauss-Laguerre rules found by Newton iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "laguerre",
    "laguerre_weighted",
    "assoc_laguerre",
    "laguerre_function",
    "bessel_j0",
    "QuadratureRule",
    "gauss_nodes",
    "legendre_rule",
    "laguerre_bessel_gap",
]

# Switch between the J0 power series and the integral representation.
_J0_SWITCH = 12.0

# Overflow guard of the normalized recurrence: a starting value below
# e^_LOG_FLOOR starts near e^_LOG_FLOOR with the rest in a binary exponent,
# and a node whose |p| passes 2^_RESCALE_EXP is scaled back by a power of two.
_LOG_FLOOR = -600.0
_RESCALE_EXP = 512


def laguerre(q: int, t):
    """Laguerre polynomial L_q(t) = L_q^(0)(t) by the three-term recurrence.

    Overflows for large q and t; use :func:`laguerre_weighted` in that regime.
    """
    return assoc_laguerre(q, 0, t)


def laguerre_weighted(q: int, t):
    """Damped Laguerre polynomial L_q(t) e^{-t/2} = psi_q^(0)(t) for t >= 0.

    Bounded by 1 for every order and argument (the classical bound), and
    finite at any order through the rescaled normalized recurrence.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    return laguerre_function(q, 0.0, t)


def assoc_laguerre(n: int, alpha: int, t):
    """Generalized Laguerre polynomial L_n^(alpha)(t) by stable recurrence."""
    if n < 0 or alpha < 0:
        raise ValueError("n and alpha must be >= 0")
    t = np.asarray(t, dtype=float)
    p0 = np.ones_like(t)
    if n == 0:
        return p0 if p0.ndim else float(p0)
    p1 = alpha + 1.0 - t
    for k in range(1, n):
        p0, p1 = p1, ((2.0 * k + alpha + 1.0 - t) * p1 - (k + alpha) * p0) / (k + 1.0)
    return p1 if p1.ndim else float(p1)


def laguerre_function(n: int, alpha, t):
    """Orthonormal Laguerre function psi_n^(alpha)(t) on (0, inf).

    psi = sqrt(n!/Gamma(n+alpha+1)) t^{alpha/2} e^{-t/2} L_n^(alpha)(t), so
    that int_0^inf psi_n psi_m dt = delta_{nm}.  The normalization enters
    through a log-gamma difference (factorial ratios overflow near n ~ 85)
    and the recurrence is run on the normalized sequence, rescaled by powers
    of two so it is finite at every (n, alpha, t).  `alpha` may be a vector
    broadcast against `t`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t2 = np.atleast_2d(t) if t.ndim <= 1 else t
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(a < 0):
        raise ValueError("alpha must be >= 0")
    a = a.reshape((-1,) + (1,) * (t2.ndim - 1))
    out = _laguerre_function_core(n, a, t2)
    if scalar:
        return float(out.reshape(-1)[0])
    return out.reshape(t.shape) if np.ndim(alpha) == 0 else out


def laguerre_function_multi(n_arr, alpha_arr, t):
    """psi_{n_i}^(alpha_i)(t_i) rows with per-row degree n_i; `t` has shape (m, M)."""
    n_arr = np.asarray(n_arr, dtype=int)
    a = np.asarray(alpha_arr, dtype=float)[:, None]
    if np.any(n_arr < 0) or np.any(a < 0):
        raise ValueError("n and alpha must be >= 0")
    return _laguerre_function_core(n_arr, a, np.asarray(t, dtype=float))


def _laguerre_function_core(n, a, t):
    """psi_{n_i}^(a_i)(t_i) with rows along axis 0 and a degree n_i per row
    (a scalar n serves every row): one recurrence runs to max n_i and each
    row is read off at its own degree.

    Every node carries psi = p 2^e, a mantissa p and an integer exponent e;
    the exponent is applied once, as its row is read off.  Scaling by powers
    of two is exact, so the rescaled recurrence gives the values of the plain
    one wherever the plain one stays finite.
    """
    # Centered exponent: evaluating log psi_0 relative to a reference point
    # keeps the node-to-node jitter at machine precision even for huge alpha.
    tc = np.clip(np.max(t, axis=-1, keepdims=True), 1.0, None)
    lg = _lgamma_arr(a + 1.0)
    const = 0.5 * (a * np.log(tc) - tc) - 0.5 * lg
    with np.errstate(divide="ignore", invalid="ignore"):
        logp0 = const + 0.5 * (a * np.log(t / tc) - (t - tc))
    logp0 = np.where(t > 0.0, logp0, np.where(a == 0.0, const + 0.5 * tc, -np.inf))
    if np.any(logp0 > 690.0):
        raise ConfigurationError("laguerre_function starting value overflows")
    # psi vanishes where logp0 = -inf (t = 0, alpha > 0): exponent 0 there
    low = (logp0 < _LOG_FLOOR) & (logp0 > -np.inf)
    e = np.where(low, np.ceil((logp0 - _LOG_FLOOR) / math.log(2.0)), 0.0).astype(np.int32)
    p0 = np.exp(logp0 - e * math.log(2.0))
    n = np.asarray(n)
    n_max = int(np.max(n)) if n.size else 0
    if n_max == 0:
        return np.ldexp(p0, e)
    # rows that stop at degree d, read off with their exponents applied
    stops = {} if n.ndim == 0 else {d: np.flatnonzero(n == d) for d in np.unique(n).tolist()}
    out = np.empty_like(p0) if stops else None

    def read_off(p, d):
        if d in stops:
            out[stops[d]] = np.ldexp(p[stops[d]], e[stops[d]])

    read_off(p0, 0)
    p1 = (a + 1.0 - t) / np.sqrt(a + 1.0) * p0
    read_off(p1, 1)
    # Before its division by sqrt((j+1)(j+1+a)) >= 1, a step is at most
    #   (|2j+1+a-t| + sqrt(j(j+a))) max(|p_j|, |p_{j-1}|) <= growth max(...)
    # with growth = t + 3n + 2a + 1 over the batch.  So from below
    # 2^_RESCALE_EXP at the start (|psi_0| <= 1) or at a check, the `every`
    # steps to the next check stay below 2^1023 and cannot overflow (for growth
    # below 2^511; a window has t, n and a below 2^21).  The check is one
    # reduction per array; only when it trips are the large nodes' pairs
    # scaled back into [1/2, 1).
    growth = float(np.nanmax(t, initial=0.0) + 3.0 * n_max + 2.0 * np.max(a)) + 1.0
    every = max(1, int((1023 - _RESCALE_EXP) / math.log2(growth)))
    hi = 2.0 ** _RESCALE_EXP
    buf = np.empty_like(p0)
    for j in range(1, n_max):
        np.subtract(2.0 * j + 1.0 + a, t, out=buf)
        buf *= p1
        p0 *= np.sqrt(j * (j + a))
        buf -= p0
        # divide rather than multiply by the reciprocal: L_q(0) = 1 stays exact
        buf /= np.sqrt((j + 1.0) * (j + 1.0 + a))
        p0, p1, buf = p1, buf, p0
        if j % every == 0 and max(p0.max(), -p0.min(), p1.max(), -p1.min()) > hi:
            mag = np.maximum(np.abs(p0), np.abs(p1))
            s = np.where(mag > hi, np.frexp(mag)[1], 0)
            np.ldexp(p0, -s, out=p0)
            np.ldexp(p1, -s, out=p1)
            e += s
        read_off(p1, j + 1)
    return out if stops else np.ldexp(p1, e)


def _lgamma_arr(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.vectorize(math.lgamma, otypes=[float])(x)


# J0 power-series coefficients (-x/4)^k / (k!)^2, enough terms for r <= 12.
_J0_TERMS = 44


def bessel_j0(r):
    """J_0(r) for r >= 0 to ~1e-13 absolute accuracy.

    Power series up to the switchover (compensated summation; the series at
    r = 12 cancels by ~4e3), quadrature of (1/pi) int_0^pi cos(r sin t) dt
    beyond it.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("r must be >= 0")
    out = np.empty_like(r)
    small = r <= _J0_SWITCH
    if np.any(small):
        out[small] = [_j0_series(x) for x in r[small]]
    if np.any(~small):
        out[~small] = _j0_integral(r[~small])
    return float(out[0]) if scalar else out


def _j0_series(x: float) -> float:
    q = -0.25 * x * x
    term, terms = 1.0, [1.0]
    for k in range(1, _J0_TERMS):
        term *= q / (k * k)
        terms.append(term)
        if abs(term) < 1e-18:
            break
    return math.fsum(terms)


def _j0_integral(r):
    order = int(64 + 1.5 * float(np.max(r)))
    x, w = legendre_rule(order)
    t = 0.5 * math.pi * (x + 1.0)
    wt = 0.5 * w  # includes the 1/pi of the representation
    return np.cos(np.multiply.outer(r, np.sin(t))) @ wt


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule: `legendre` on [-1, 1] or `laguerre` on [0, inf)."""

    kind: str
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


_rule_cache: dict = {}


def gauss_nodes(kind: str, order: int) -> QuadratureRule:
    """Build a Gaussian rule by Newton iteration on the recurrence values.

    `legendre`: weight 1 on [-1, 1].  `laguerre`: weight e^{-t} on [0, inf).
    Nodes ascending, weights strictly positive.
    """
    if order < 1:
        raise ConfigurationError(f"quadrature order must be >= 1, got {order}")
    key = (kind, order)
    if key in _rule_cache:
        return _rule_cache[key]
    if kind == "legendre":
        x, w = _newton_legendre(order)
    elif kind == "laguerre":
        x, w = _newton_laguerre(order)
    else:
        raise ConfigurationError(f"unknown quadrature kind {kind!r}")
    rule = QuadratureRule(kind, order, x, w)
    _rule_cache[key] = rule
    return rule


def legendre_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] (cached)."""
    rule = gauss_nodes("legendre", order)
    return rule.nodes, rule.weights


def _legendre_value_derivative(n, x):
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def _newton_legendre(n):
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    i = np.arange(1, n + 1)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))
    for it in range(100):
        p, dp = _legendre_value_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    else:
        raise ConfigurationError(f"Legendre Newton iteration failed at order {n}")
    _, dp = _legendre_value_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x[::-1].copy(), w[::-1].copy()


def _newton_laguerre(n):
    rows = np.array([n + 1, n, n - 1])

    def damped(z):
        """(L_{n+1}, L_n, L_{n-1})(z) e^{-z/2}, i.e. psi^(0) at these degrees."""
        return _laguerre_function_core(rows, np.zeros((3, 1)), np.full((3, 1), z))[:, 0]

    x = np.empty(n)
    w = np.empty(n)
    z = 0.0
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * n)
        else:
            ai = i - 1.0
            z += ((1.0 + 2.55 * ai) / (1.9 * ai)) * (z - x[i - 2])
        for it in range(100):
            _, ln, lnm1 = damped(z)
            dl = n * (ln - lnm1) / z  # d/dz of L_n, damped consistently
            dz = ln / dl
            z -= dz
            if abs(dz) <= 1e-14 * max(1.0, abs(z)):
                break
        else:
            raise ConfigurationError(f"Laguerre Newton iteration failed at order {n}")
        x[i] = z
        lnp1 = damped(z)[0]
        w[i] = z * math.exp(-z) / ((n + 1.0) * lnp1) ** 2
    if np.any(w <= 0.0) or np.any(~np.isfinite(w)):
        raise ConfigurationError(
            f"Gauss-Laguerre order {n} produced non-positive weights (order too large)"
        )
    return x, w


def laguerre_bessel_gap(q: int, r):
    """Pointwise gap |L_q(r) e^{-r/2} - J_0(sqrt((4q+2) r))| and its normalized form.

    The normalization divides by (q+1)^{-3/4} r^{5/4} + (q+1)^{-1} r^3, the
    combination with a uniform-in-q bound; it is undefined at r = 0 and
    reported as NaN there.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("r must be >= 0")
    gap = np.abs(laguerre_weighted(q, r) - bessel_j0(np.sqrt((4.0 * q + 2.0) * r)))
    denom = (q + 1.0) ** (-0.75) * r ** 1.25 + (q + 1.0) ** (-1.0) * r ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(r > 0.0, gap / denom, np.nan)
    if scalar:
        return float(gap[0]), float(normalized[0])
    return gap, normalized
