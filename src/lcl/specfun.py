"""Numerically stable special functions and Gaussian quadrature rules.

Everything downstream (basis functions, matrix elements, symbol integrals)
is built on the five families here:

* Laguerre polynomials ``L_n^(a)`` by the plain three-term recurrence
  (:func:`assoc_laguerre`, with :func:`laguerre` its ``a = 0`` case),
* orthonormal generalized-Laguerre functions
  ``psi_n^(a)(t) = sqrt(n!/Gamma(n+a+1)) t^{a/2} e^{-t/2} L_n^(a)(t)``,
  evaluated by one normalized recurrence with log-gamma starting values and
  power-of-two rescaling, finite at every degree; a row of a mixed-degree
  batch leaves the recurrence once read off.  It serves
  :func:`laguerre_function`, :func:`laguerre_function_multi`, the damped
  polynomial :func:`laguerre_weighted` (``L_q(t) e^{-t/2} = psi_q^(0)(t)``)
  and the Newton iteration of the Gauss-Laguerre rule,
* the Laplace transform ``int e^{-ct} psi_n^(a)(t)^2 dt`` of a squared
  Laguerre function (:func:`laguerre_laplace`), a finite sum of positive
  terms whose ratio falls: each (row, node) lane stops at the term J past
  which, by AM-GM, every ratio is below 2^-h, so the dropped tail is below
  2^-60 of the sum, and all lanes, sorted by J, share one rescaled Horner
  loop,
* the Bessel function ``J_0``, by one midpoint rule on its integral
  representation, written as ``1 - mean(2 sin^2(r sin t / 2))`` and summed
  in row blocks of at most BLOCK_POINTS points,
* Gauss-Legendre and Gauss-Laguerre rules, their nodes polished together by
  one Newton iteration: the Legendre one from Tricomi's start on the half
  rule in [-1, 0], mirrored (exactly symmetric), the Laguerre one from the
  eigenvalues of its Jacobi matrix.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "laguerre",
    "laguerre_weighted",
    "assoc_laguerre",
    "laguerre_function",
    "laguerre_laplace",
    "bessel_j0",
    "QuadratureRule",
    "gauss_nodes",
    "legendre_rule",
    "panel_rule",
    "laguerre_bessel_gap",
]

# Overflow guard of the normalized recurrence: a starting value below
# e^_LOG_FLOOR starts near e^_LOG_FLOOR with the rest in a binary exponent,
# and a node whose |p| passes 2^_RESCALE_EXP is scaled back by a power of two.
_LOG_FLOOR = -600.0
_RESCALE_EXP = 512
# the largest array of points an evaluator builds at once: the lanes of a
# Laplace sum and the rows x nodes of J_0 here, the mode profile's rows x
# angles in `potentials`, the limiting measure's nodes x samples in `measures`
BLOCK_POINTS = 1 << 16


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
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t2 = np.atleast_2d(t) if t.ndim <= 1 else t
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    _check_psi_args(np.asarray(n), a, t)
    a = a.reshape((-1,) + (1,) * (t2.ndim - 1))
    out = _laguerre_function_core(n, a, t2)
    if scalar:
        return float(out.reshape(-1)[0])
    return out.reshape(t.shape) if np.ndim(alpha) == 0 else out


def laguerre_function_multi(n_arr, alpha_arr, t):
    """psi_{n_i}^(alpha_i)(t_i) rows with per-row degree n_i; `t` has shape (m, M)."""
    n_arr = np.asarray(n_arr)
    a = np.asarray(alpha_arr, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)
    _check_psi_args(n_arr, a, t)
    return _laguerre_function_core(n_arr, a, t)


def _check_psi_args(n, a, t):
    """Refuse the degrees, orders and arguments psi_n^(a)(t) is not defined
    for, naming the argument: min and max propagate NaN, which fails >=."""
    if not np.issubdtype(n.dtype, np.integer) or np.any(n < 0):
        raise ValueError("n must be integers >= 0")
    if not (a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < math.inf):
        raise ValueError("alpha must be finite and >= 0")
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) < math.inf):
        raise ValueError("t must be finite and >= 0")


def _laguerre_function_core(n, a, t):
    """psi_{n_i}^(a_i)(t_i) with rows along axis 0 and a degree n_i per row
    (a scalar n serves every row): one recurrence runs to max n_i over rows in
    ascending degree (unsorted ones are sorted into a copy), and each row
    leaves it once read off at its own degree.

    Every node carries psi = p 2^e, a mantissa p and an integer exponent e;
    the exponent is applied once, as its row is read off.  Scaling by powers
    of two is exact, so the rescaled recurrence gives the values of the plain
    one wherever the plain one stays finite.
    """
    n = np.asarray(n)
    if n.ndim and np.any(n[1:] < n[:-1]):
        order = np.argsort(n, kind="stable")
        out = np.empty(np.broadcast_shapes(a.shape, t.shape))
        out[order] = _laguerre_function_core(n[order], a[order], t[order])
        return out
    # Centered exponent: evaluating log psi_0 relative to a reference point
    # keeps the node-to-node jitter at machine precision even for huge alpha.
    tc = np.max(t, axis=-1, keepdims=True, initial=1.0)
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
    n_max = int(np.max(n)) if n.size else 0
    if n_max == 0:
        return np.ldexp(p0, e)
    # rows of degree d are start[d]:start[d + 1]; rows from start[d] on reach d
    start = np.searchsorted(np.broadcast_to(n, p0.shape[:1]), np.arange(n_max + 2)).tolist()
    out = np.empty_like(p0)

    def read_off(p, d):
        r = slice(start[d], start[d + 1])
        np.ldexp(p[r], e[r], out=out[r])

    read_off(p0, 0)
    p1 = (a + 1.0 - t) / np.sqrt(a + 1.0) * p0
    read_off(p1, 1)
    # Before its division by sqrt((j+1)(j+1+a)) >= 1, a step is at most
    #   (|2j+1+a-t| + sqrt(j(j+a))) max(|p_j|, |p_{j-1}|) <= growth max(...)
    # with growth = t + 3n + 2a + 1 over the batch (below 2^511: a window has
    # t, n and a below 2^21), and |psi_0| <= 1 starts below 2^_RESCALE_EXP.
    growth = float(np.nanmax(t, initial=0.0) + 3.0 * n_max + 2.0 * np.max(a)) + 1.0
    carry = _power_of_two_carry(growth)
    buf = np.empty_like(p0)
    # step j's coefficients 2j+1+a, sqrt(j(j+a)) and sqrt((j+1)(j+1+a)), by
    # row, built once with the same float operations
    js = np.arange(n_max, dtype=float).reshape((-1,) + (1,) * a.ndim)
    grow, back = 2.0 * js + 1.0 + a, np.sqrt(js * (js + a))
    scale = np.sqrt((js + 1.0) * (js + 1.0 + a))
    for j in range(1, n_max):
        r = slice(start[j + 1], None)  # the rows that reach degree j + 1
        q0, q1, b = p0[r], p1[r], buf[r]
        np.subtract(grow[j, r], t[r], b)
        np.multiply(b, q1, b)
        np.multiply(q0, back[j, r], q0)
        np.subtract(b, q0, b)
        # divide rather than multiply by the reciprocal: L_q(0) = 1 stays exact
        np.divide(b, scale[j, r], b)
        p0, p1, buf = p1, buf, p0
        carry(j, e[r], q1, b)
        read_off(p1, j + 1)
    return out


def _power_of_two_carry(growth: float):
    """carry(j, e, *mantissas) for a loop that keeps each node as mantissas
    times 2^e and whose step multiplies a node's largest |mantissa| by at most
    `growth`: from below 2^_RESCALE_EXP at a check, the `every` steps to the
    next check cannot overflow.  Only when a check trips are the large nodes'
    mantissas scaled back into [1/2, 1), in place, and the shift added to e
    (a view).  Powers of two are exact, so a node's value m 2^e does not
    depend on the other nodes of the call.  carry returns whether it scaled.
    """
    every = max(1, int((1023 - _RESCALE_EXP) / math.log2(growth)))
    hi = 2.0 ** _RESCALE_EXP

    def carry(j: int, e, *mantissas) -> bool:
        if j % every == 0 and max(max(m.max(), -m.min()) for m in mantissas) > hi:
            mag = functools.reduce(np.maximum, map(np.abs, mantissas))
            s = np.where(mag > hi, np.frexp(mag)[1], 0)
            for m in mantissas:
                np.ldexp(m, -s, out=m)
            e += s
            return True
        return False
    return carry


def _lgamma_arr(x):
    """math.lgamma of every entry, in the shape of np.atleast_1d(x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def laguerre_laplace(n, alpha, c):
    """E_{n_i,alpha_i}(c) = int_0^inf e^{-ct} psi_{n_i}^(alpha_i)(t)^2 dt, as an
    array of rows i (integer n_i >= 0, real alpha_i >= 0) by ascending nodes
    c >= 0.

    By the Laguerre multiplication theorem (DLMF 18.18), with l = 1/(1+c),

        E = l^(alpha+1) sum_j C(n,j) C(n+alpha,n-j) l^(2j) (1-l)^(2(n-j)),

    a sum of positive terms, i.e. 2F1(-n,-n;alpha+1;c^-2) times its j = 0
    term.  Nodes c >= 1 sum the series forward in x = c^-2 from j = 0; nodes
    c < 1 sum it reversed in x = c^2 from j = n, whose term is l^(2n).
    Either way it is S = sum_j t_j, t_j = prod_{l<j} ratio_l x, with
    ratio_l = (n-l)(n-l+alpha)/(l+1)^2 for c < 1 and
    (n-l)^2/((l+1)(l+1+alpha)) for c >= 1, both falling in l.

    A lane, one (row, node) pair, sums only t_0 .. t_J.  By AM-GM,
    (n-l)(n-l+alpha) <= (n-l+alpha/2)^2, so ratio_l x <= 2^-h for every
    l >= j_h, the least j with j + 1 >= A sqrt(x) / (2^(-h/2) + sqrt(x)),
    A = n+1+alpha/2 for c < 1 and n+1 for c >= 1.  Past j_h the terms
    shrink by 2^-h a step, so with J = min(n, j_h + ceil(61/h)) over
    h in {2, 16} the dropped tail is below 2^-60 t_{j_h} <= 2^-60 S.  J
    depends on the lane alone, so the terms a row sums do not depend on the
    rows beside it.  The lanes, sorted by J, run one Horner loop from the
    largest J down, step j updating the lanes with J > j, in blocks of at
    most BLOCK_POINTS lanes.  The term ratio is at most n(n+alpha), so a
    lane carries a power-of-two exponent checked every few steps, as in the
    Laguerre recurrence, and the prefactor goes in through logarithms.
    """
    n, a = np.broadcast_arrays(np.atleast_1d(np.asarray(n)),
                               np.atleast_1d(np.asarray(alpha, dtype=float)))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if n.ndim != 1 or c.ndim != 1:
        raise ValueError("n, alpha and c must be one-dimensional")
    if not np.all(np.isfinite(a) & (a >= 0)) or np.any(n < 0) or np.any(n != np.floor(n)):
        raise ValueError("n must be integers >= 0 and alpha finite and >= 0")
    if not (np.all(np.isfinite(c) & (c >= 0)) and np.all(c[1:] >= c[:-1])):
        raise ValueError("c must be finite, >= 0 and ascending")
    n = n.astype(np.int64)
    split = int(np.searchsorted(c, 1.0))
    cr, cf = c[:split], c[split:]
    x = np.concatenate([np.square(cr), np.square(1.0 / cf)])
    out = np.empty((n.size, c.size))
    step = max(BLOCK_POINTS // max(c.size, 1), 1)
    for i in range(0, n.size, step):
        nb, ab, ob = n[i:i + step], a[i:i + step], out[i:i + step]
        logs = _laplace_log_sums(nb, ab, x, split).T
        nf = nb.astype(float)
        nn, aa = nf[:, None], ab[:, None]
        ob[:, :split] = np.exp(logs[:, :split] - (2.0 * nn + aa + 1.0) * np.log1p(cr))
        ob[:, split:] = np.exp(logs[:, split:] + _log_binomial(nf, ab)[:, None]
                               - 2.0 * nn * np.log1p(1.0 / cf) - (aa + 1.0) * np.log1p(cf))
    return out


def _laplace_log_sums(n, a, x, split):
    """log S of every lane (node, row i), as nodes by rows, the nodes below
    `split` summed in x = c^2 and the rest in x = c^-2, each only to its
    truncation point J (see :func:`laguerre_laplace`), by Horner from J.

    S = m 2^e is carried as a mantissa m under :func:`_power_of_two_carry`,
    a step taking S to 1 + ratio x S <= (1 + max(ratio)) max(S, 1); the 1
    that a step adds is held as 2^-e, exactly.
    """
    rows, nodes = n.size, x.size
    nf = n.astype(float)
    # J = min(n, j_2 + 31, j_16 + 4) per lane, nodes by rows, with
    # j_h = ceil(A sqrt(x) / (2^(-h/2) + sqrt(x))) - 1 (x = 0 gives j_h = -1:
    # every term past t_0 vanishes there)
    root = np.sqrt(x)
    J, J16 = np.empty((nodes, rows)), np.empty((nodes, rows))
    for lo, A in ((slice(None, split), nf + 1.0 + 0.5 * a), (slice(split, None), nf + 1.0)):
        np.multiply(root[lo, None] / (0.5 + root[lo, None]), A, out=J[lo])
        np.multiply(root[lo, None] / (2.0 ** -8 + root[lo, None]), A, out=J16[lo])
    np.ceil(J, out=J)
    J += 30.0
    np.ceil(J16, out=J16)
    J16 += 3.0
    np.minimum(J, J16, out=J)
    np.minimum(J, nf, out=J)
    del J16
    steps = int(J.max(initial=0.0))
    J = J.astype(np.min_scalar_type(steps))  # small integers sort by radix
    order = np.argsort(J, axis=None, kind="stable").astype(np.int32)
    start = np.cumsum(np.bincount(J.ravel(), minlength=steps + 1))[:steps].tolist()
    del J
    # step j's ratios, of the c < 1 nodes in columns i and of the others in i + rows
    j = np.arange(steps, dtype=float)[:, None]
    table = np.empty((steps, 2 * rows))
    lo, hi = table[:, :rows], table[:, rows:]
    np.subtract(nf, j, out=lo)
    np.square(lo, out=hi)
    lo *= lo + a
    lo /= np.square(j + 1.0)
    a1 = j + 1.0 + a
    a1 *= j + 1.0
    hi /= a1
    del a1
    # a lane's column of the table and its x; order is in range
    col = np.take(np.arange(rows) + rows * (np.arange(nodes) >= split)[:, None], order,
                  mode="clip")
    xl = np.take(x, order // rows, mode="clip")
    m = np.ones(order.size)
    e = np.zeros(order.size, dtype=np.int32)
    buf = np.empty_like(m)
    one = 1.0  # 2^-e, the 1 a step adds: a scalar until the first carry
    carry = _power_of_two_carry(2.0 + float(np.max(table, initial=0.0)))
    for jj in range(steps - 1, -1, -1):
        r = slice(start[jj], None)  # the lanes with J > jj
        mr, b = m[r], buf[r]
        np.take(table[jj], col[r], out=b, mode="clip")  # "clip" writes b unbuffered
        mr *= b
        mr *= xl[r]
        mr += one if isinstance(one, float) else one[r]
        if carry(jj, e[r], mr):
            one = np.ldexp(1.0, -e)
    del col, xl, buf
    np.log(m, out=m)
    m += e * math.log(2.0)
    out = np.empty(order.size)
    out[order] = m
    return out.reshape(nodes, rows)


def _log_binomial(n, a):
    """log C(n + a, n) for real n, a >= 0, to a few ulp of the result.

    lgamma(n + a + 1) - lgamma(n + 1) - lgamma(a + 1) cancels terms of size
    (n + a) log(n + a), so past 20 the log-gamma ratios go through Stirling's
    series with the leading terms as log1p, which cancel nothing.
    """
    lo, hi = np.minimum(n, a), np.maximum(n, a)
    both = lo >= 20.0
    mixed = (hi >= 20.0) & ~both
    out = _lgamma_arr(n + a + 1.0) - _lgamma_arr(n + 1.0) - _lgamma_arr(a + 1.0)
    lo1, hi1 = lo[mixed], hi[mixed]
    out[mixed] = ((hi1 + 0.5) * np.log1p(lo1 / hi1) + lo1 * np.log(hi1 + lo1) - lo1
                + _stirling_tail(hi1 + lo1) - _stirling_tail(hi1) - _lgamma_arr(lo1 + 1.0))
    n2, a2 = n[both], a[both]
    out[both] = (n2 * np.log1p(a2 / n2) + a2 * np.log1p(n2 / a2)
                 + 0.5 * np.log((n2 + a2) / (2.0 * math.pi * n2 * a2))
                 + _stirling_tail(n2 + a2) - _stirling_tail(n2) - _stirling_tail(a2))
    return out


def _stirling_tail(y):
    """log y! - (y + 1/2) log y + y - log(2 pi)/2, to 2e-15 for y >= 20."""
    y2 = 1.0 / np.square(y)
    return (1.0 / 12.0 - y2 * (1.0 / 360.0 - y2 * (1.0 / 1260.0 - y2 / 1680.0))) / y


def bessel_j0(r):
    """J_0(r) for finite r >= 0, to about 1.5e-15 absolute accuracy on [0, 300].

    J_0(r) = (2/pi) int_0^(pi/2) cos(r sin t) dt (DLMF 10.9.1), written as
    1 - mean(2 sin^2(r sin t / 2)) over N midpoints of [0, pi/2]: the terms
    are >= 0, so nothing cancels near r = 0 and J_0(0) = 1 exactly.  By the
    symmetries of sin, these are the trapezoidal rule of the periodic
    integrand on 4N points of the whole circle, whose error is about
    2 |J_4N(r)|.  Each value takes its own N = 64 + 64 ceil(r/32) >= 64 + 2r:
    far below rounding, with extra nodes to average the rounding of r sin t.
    The values of one N are summed in blocks of BLOCK_POINTS // N rows.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise ValueError("r must be finite and >= 0")
    flat = r.ravel()
    nodes = 64 + 64 * np.ceil(flat / 32.0).astype(np.int64)
    out = np.empty(flat.shape)
    for n in sorted(set(nodes.tolist())):
        sin_t = np.sin((np.arange(n) + 0.5) * (0.5 * math.pi / n))
        rows, step = np.flatnonzero(nodes == n), max(BLOCK_POINTS // n, 1)
        for i in range(0, rows.size, step):
            blk = rows[i:i + step]
            w = np.multiply.outer(flat[blk], sin_t)
            w *= 0.5
            np.sin(w, out=w)
            np.square(w, out=w)
            w *= 2.0
            out[blk] = 1.0 - np.mean(w, axis=-1)  # row-wise: no bit depends on the block
    return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule: `legendre` on [-1, 1] or `laguerre` on [0, inf)."""

    kind: str
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_nodes(kind: str, order: int) -> QuadratureRule:
    """Build a Gaussian rule, its nodes polished by Newton's iteration.

    `legendre`: weight 1 on [-1, 1].  `laguerre`: weight e^{-t} on [0, inf).
    Nodes ascending, weights strictly positive; the arrays are read-only.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise ConfigurationError(f"quadrature order must be an integer >= 1, got {order!r}")
    if kind not in ("legendre", "laguerre"):
        raise ConfigurationError(f"unknown quadrature kind {kind!r}")
    return _gauss_rule(kind, int(order))


@functools.cache
def _gauss_rule(kind: str, order: int) -> QuadratureRule:
    """The rule of a checked kind and order, built on first use."""
    x, w = (_newton_legendre if kind == "legendre" else _newton_laguerre)(order)
    # every caller shares the cached arrays, so none may write into them
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(kind, order, x, w)


def legendre_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] (cached)."""
    rule = gauss_nodes("legendre", order)
    return rule.nodes, rule.weights


def panel_rule(edges, n: int):
    """n-point Gauss-Legendre on each panel [edges[i], edges[i+1]], as one
    flat array of nodes and one of weights."""
    edges = np.asarray(edges, dtype=float)
    x, w = legendre_rule(n)
    h = 0.5 * np.diff(edges)[:, None]
    return (h * (x[None, :] + 1.0) + edges[:-1, None]).ravel(), (h * w[None, :]).ravel()


def _legendre_value_derivative(n, x):
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def _newton(kind: str, n: int, x: np.ndarray, step) -> None:
    """Newton's iteration x -= step(x) on every node at once, in place, until
    every |dx| <= 1e-14 max(1, |x|)."""
    for _ in range(100):
        dx = step(x)
        x -= dx
        if np.all(np.abs(dx) <= 1e-14 * np.maximum(1.0, np.abs(x))):
            return
    raise ConfigurationError(f"{kind} Newton iteration failed at order {n}")


def _newton_legendre(n):
    # Newton on the ceil(n/2) nodes in [-1, 0] from Tricomi's start; the rest mirror them
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    i = np.arange(1, (n + 1) // 2 + 1)
    x = -(1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(math.pi * (i - 0.25) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly, so Newton leaves it there
    _newton("Legendre", n, x, lambda z: np.divide(*_legendre_value_derivative(n, z)))
    _, dp = _legendre_value_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([x, -x[n // 2 - 1::-1]]), np.concatenate([w, w[n // 2 - 1::-1]])


def _newton_laguerre(n):
    """Nodes from the eigenvalues of the Jacobi matrix of L_n (diagonal 2i+1,
    off-diagonal i; Golub-Welsch), polished together by Newton on L_n."""
    i = np.arange(n, dtype=float)
    x = np.linalg.eigvalsh(np.diag(2.0 * i + 1.0) + np.diag(i[1:], -1))  # the lower half
    # the largest node's weight carries e^{-x}: once that underflows, no
    # Newton step can make the weight positive, so refuse before iterating
    if math.exp(-x[-1]) == 0.0:
        raise ConfigurationError(
            f"Gauss-Laguerre order {n}: the weight of its largest node, x = {x[-1]:.1f}, "
            f"underflows (order too large)")
    rows = np.array([n - 1, n, n + 1])

    def damped(z):
        """(L_{n-1}, L_n, L_{n+1})(z) e^{-z/2}, i.e. psi^(0) at these degrees."""
        return _laguerre_function_core(rows, np.zeros((3, 1)), np.broadcast_to(z, (3, n)))

    def step(z):
        lnm1, ln, _ = damped(z)
        return ln / (n * (ln - lnm1) / z)  # d/dz of L_n, damped consistently

    _newton("Laguerre", n, x, step)
    w = x * np.exp(-x) / ((n + 1.0) * damped(x)[2]) ** 2
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
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise ValueError("r must be finite and >= 0")
    gap = np.abs(laguerre_weighted(q, r) - bessel_j0(np.sqrt((4.0 * q + 2.0) * r)))
    denom = (q + 1.0) ** (-0.75) * r ** 1.25 + (q + 1.0) ** (-1.0) * r ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(r > 0.0, gap / denom, np.nan)
    if scalar:
        return float(gap[0]), float(normalized[0])
    return gap, normalized
