"""Potential models, homogeneous tails, and circle averages.

The built-in family:

* ``isotropic-long-range``   V(x) = a (1+|x|^2)^(-rho/2)
* ``anisotropic-long-range`` V(x) = a [ (1+r^2)^(-rho/2)
                                       + eps r^m cos(m th) (1+r^2)^(-(rho+m)/2) ]
* ``compact-gaussian-bump``  V(x) = a exp(-|x|^2 / (2 w^2))

The long-range kinds have homogeneous tails a |x|^(-rho) and
a |x|^(-rho) (1 + eps cos(m th)); the anisotropic correction is damped with a
harmonic polynomial r^m cos(m th) so V stays smooth at the origin.  The
difference V - tail decays two orders faster than the tail itself.  Besides
its angular modes v_j, a model gives the envelope sum_j |v_j(r)| behind
`sup_abs` and the level's row bound, and v_0 as the Gaussian mixture that the
Laplace-sum diagonal and the Fourier transform read: one term for the bump,
Euler's integral on 200 nodes in log s and one head node for the others.

The power-cosine average (1/pi) int_0^pi (a - b cos t)^(-rho/2) dt behind
the radial profile m0 and the Hilbert-Schmidt distance is a Gauss
hypergeometric function (`power_cos_average`): its series and those of its
connection formula, each on [0, 1/2], are economized once per rho from 64
Taylor terms to about 21 Chebyshev-truncated ones and summed by Horner in one
vectorized pass whatever the size of the input, so callers pass batches.  The
mean-value transform (average over the unit circle centered at x), the mode
profile g_m and every other circle average of a model or tail run on one
angle rule, `_angle_rule`, for (1/pi) int_0^pi f(t) dt where f varies on the
angular scale delta near t = 0.  The rule is keyed by min(2^floor(log2 delta),
1): one 64-point Gauss-Legendre panel for delta >= 1, geometric 24-point
panels from the key for 0 < delta < 1, and for delta == 0 -- the circle
passes exactly through the tail's singularity, the only singular case -- a
Gauss-Jacobi head carrying the t^(-rho) weight.  Each rule is built once and
shared read-only; batched averages group their rows by key, so every row is
averaged on the rule of its own delta.  Integrands even in t are averaged on
the half circle; the others as the mean of f(t) and f(-t) about the angle
nearest the singularity.  Arbitrary callables get an adaptive panel-doubling
average instead.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .errors import AccuracyError, QuadratureError
from .specfun import BLOCK_POINTS, panel_rule

__all__ = [
    "PotentialModel",
    "AngularModeProfile",
    "TailField",
    "evaluate",
    "evaluate_tail",
    "mean_value_transform",
    "mean_value_radial_profile",
    "mean_value_mode_profile",
    "orbit_average",
]

_KINDS = ("isotropic-long-range", "anisotropic-long-range", "compact-gaussian-bump")
_EULER_S = (1e-16, 50.0)
_EULER_NODES = 200


@dataclass(frozen=True)
class AngularModeProfile:
    """One angular Fourier mode of a potential: V = sum_j v_j(r) e^{ij theta}."""

    mode: int
    radial: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PotentialModel:
    """A bounded continuous potential with known tail and angular structure.

    `amplitude` scales every kind (the JSON schema carries it for all of
    them); `width` applies to the Gaussian bump only.
    """

    kind: str
    rho: float = 0.0
    epsilon: float = 0.0
    mode: int = 0
    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"width must be positive and finite, got {self.width!r}")
        if self.kind != "compact-gaussian-bump":
            if not 0.0 < self.rho < 1.0:
                raise ValueError("rho must lie in (0, 1) for long-range kinds")
        if not 0.0 <= self.epsilon < 1.0:  # every kind: the envelope reads eps |g_m|
            raise ValueError("epsilon must lie in [0, 1)")
        if self.kind == "anisotropic-long-range":
            if not _is_integer(self.mode) or self.mode < 1:
                raise ValueError(f"mode must be a positive integer, got {self.mode!r}")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def isotropic(rho: float, amplitude: float = 1.0) -> "PotentialModel":
        return PotentialModel("isotropic-long-range", rho=rho, amplitude=amplitude)

    @staticmethod
    def anisotropic(rho: float, epsilon: float, mode: int,
                    amplitude: float = 1.0) -> "PotentialModel":
        return PotentialModel("anisotropic-long-range", rho=rho, epsilon=epsilon,
                              mode=mode, amplitude=amplitude)

    @staticmethod
    def gaussian_bump(amplitude: float = 1.0, width: float = 1.0) -> "PotentialModel":
        return PotentialModel("compact-gaussian-bump", amplitude=amplitude, width=width)

    # -- evaluation -----------------------------------------------------
    @property
    def long_range(self) -> bool:
        return self.kind != "compact-gaussian-bump"

    @property
    def radial(self) -> bool:
        """V depends on |x| alone: every model but an anisotropic one with eps > 0."""
        return self.kind != "anisotropic-long-range" or self.epsilon == 0.0

    def value(self, x1, x2):
        """V(x) = sum_j v_j(|x|) cos(j arg x) over the angular modes,
        broadcasting over coordinate arrays."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        r, th = np.hypot(x1, x2), np.arctan2(x2, x1)
        return sum(p.radial(r) * np.cos(p.mode * th) for p in self.angular_modes())

    def tail_field(self) -> "TailField":
        return TailField(self)

    def angular_modes(self) -> tuple[AngularModeProfile, ...]:
        """Nonzero modes of V(r, theta) = sum_j v_j(r) e^{ij theta}."""
        a = self.amplitude
        if not self.long_range:
            w2 = self.width ** 2
            return (AngularModeProfile(0, lambda r: a * np.exp(-np.square(r) / (2 * w2))),)
        rho = self.rho
        v0 = AngularModeProfile(0, lambda r: a * (1.0 + np.square(r)) ** (-rho / 2.0))
        if self.radial:
            return (v0,)
        eps, m = self.epsilon, self.mode
        def vm(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * a * eps * r ** m * (1.0 + r * r) ** (-(rho + m) / 2.0)
        return (v0, AngularModeProfile(m, vm), AngularModeProfile(-m, vm))

    def mode_envelope(self, r):
        """sum_j |v_j(r)|, a bound on |V| over the circle of radius r."""
        return sum(np.abs(p.radial(np.asarray(r, dtype=float))) for p in self.angular_modes())

    def sup_abs(self) -> float:
        """Numerical sup of |V|: the max of the mode envelope on r <= 60."""
        return float(np.max(self.mode_envelope(np.linspace(0.0, 60.0, 20001))))

    def gaussian_mixture(self):
        """(s, c), s ascending, with v_0(r) = amplitude sum_i c_i e^(-s_i r^2): the
        bump's one term, or Euler's integral (1+r^2)^(-nu) = Gamma(nu)^(-1) int
        s^nu e^(-s) e^(-s r^2) d(log s), nu = rho/2, on _EULER_NODES nodes over
        _EULER_S = [s0, s1] and, for [0, s0], one node at s0 nu/(nu+1) of weight
        s0^nu/nu, exact for s^(nu-1) (alpha - beta s)."""
        if not self.long_range:
            return np.array([1.0 / (2.0 * self.width ** 2)]), np.ones(1)
        nu = 0.5 * self.rho
        s0, s1 = _EULER_S
        u, w = panel_rule([math.log(s0), math.log(s1)], _EULER_NODES)
        s = np.concatenate([[s0 * nu / (nu + 1.0)], np.exp(u)])
        c = np.concatenate([[s0 ** nu / nu * math.exp(-s[0])], w * np.exp(nu * u - s[1:])])
        return s, c / math.gamma(nu)

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rho": self.rho if self.long_range else None,
            "epsilon": self.epsilon if self.kind == "anisotropic-long-range" else None,
            "mode": int(self.mode) if self.kind == "anisotropic-long-range" else None,
            "amplitude": self.amplitude,
            "width": self.width if self.kind == "compact-gaussian-bump" else None,
        }

    @staticmethod
    def from_json(obj: dict) -> "PotentialModel":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("model: expected an object with a 'kind' field")
        # an explicit 0 is a value; only a missing or null field is absent
        for key in ("rho", "epsilon", "amplitude", "width"):
            if obj.get(key) is not None and not _is_number(obj[key]):
                raise ValueError(f"model.{key}: must be a number")
        mode = obj.get("mode")
        if mode is not None and not _is_integer(mode):
            raise ValueError("model.mode: must be an integer")

        def opt(key, default):
            return default if obj.get(key) is None else obj[key]

        kind = obj["kind"]
        kwargs = {"amplitude": opt("amplitude", 1.0)}
        if kind in ("isotropic-long-range", "anisotropic-long-range"):
            if obj.get("rho") is None:
                raise ValueError("model.rho: required for long-range kinds")
            kwargs["rho"] = float(obj["rho"])
        if kind == "anisotropic-long-range":
            kwargs["epsilon"] = float(opt("epsilon", 0.0))
            kwargs["mode"] = opt("mode", 0)
        if kind == "compact-gaussian-bump":
            kwargs["width"] = float(opt("width", 1.0))
        return PotentialModel(kind, **kwargs)


def _is_integer(v) -> bool:
    """True for an int or a NumPy integer that is not a bool."""
    return not isinstance(v, bool) and isinstance(v, (int, np.integer))


def _is_number(v) -> bool:
    """True for a finite int or float that is not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class TailField:
    """The homogeneous tail of a long-range model, as a standalone evaluator.

    With `b_rescale` set to a field strength B, evaluates the composed symbol
    tail(-x2/sqrt(B), -x1/sqrt(B)); the singularity stays at the origin, so
    the singular-aware circle averages apply unchanged.
    """

    model: PotentialModel
    b_rescale: float | None = None

    def __post_init__(self):
        b = self.b_rescale
        if b is not None and not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"b_rescale must be finite and positive, got {b!r}")

    @property
    def rho(self) -> float:
        return self.model.rho

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return self._at(x1, x2, x1 * x1 + x2 * x2)

    def _at(self, x1, x2, r2):
        """Values at (x1, x2), given their squared norms r2 (the circle
        averages pass a cancellation-free form)."""
        model = self.model
        if not model.long_range:
            raise ValueError("the Gaussian bump has no homogeneous tail")
        if np.any(r2 == 0.0):
            raise ValueError("tail is singular at the origin")
        if self.b_rescale is not None:  # tail(-x2/sqrt(B), -x1/sqrt(B))
            x1, x2, r2 = -x2, -x1, r2 / self.b_rescale
        out = r2 ** (-model.rho / 2.0)
        if not model.radial:
            out = out * (1.0 + model.epsilon * np.cos(model.mode * np.arctan2(x2, x1)))
        return model.amplitude * out


def evaluate(model: PotentialModel, x) -> float:
    """V(x) at a single point x = (x1, x2)."""
    return float(model.value(x[0], x[1]))


def evaluate_tail(model: PotentialModel, x) -> float:
    """Tail value at a nonzero point; raises ValueError at the origin."""
    return float(TailField(model)(x[0], x[1]))


# ---------------------------------------------------------------------------
# the angle rule behind every circle average
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_jacobi01(n: int, rho: float):
    """Nodes/weights for int_0^1 x^(-rho) f(x) dx (weight included), built
    on first use, then shared read-only."""
    a, b = 0.0, -rho
    i = np.arange(n, dtype=float)
    ab = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        diag = np.where(i == 0, (b - a) / (ab + 2.0),
                        (b * b - a * a) / ((2 * i + ab) * (2 * i + ab + 2.0)))
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + ab
    off = np.sqrt(4.0 * j * (j + a) * (j + b) * (j + ab) / (s * s * (s * s - 1.0)))
    T = np.zeros((n, n))
    T[np.arange(n), np.arange(n)] = diag
    T[np.arange(n - 1), np.arange(1, n)] = off
    T[np.arange(1, n), np.arange(n - 1)] = off
    ev, evec = np.linalg.eigh(T)
    mu0 = 2.0 ** (ab + 1.0) / (ab + 1.0)
    w = mu0 * evec[0, :] ** 2 / 2.0 ** (b + 1.0)
    x = 0.5 * (ev + 1.0)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _angle_rule(key: float, rho):
    """Nodes t and weights w with f(t) @ w = (1/pi) int_0^pi f(t) dt, for an
    f that varies near t = 0 on an angular scale whose key (see
    `_angle_rule_groups`) is `key`; built on first use, then shared read-only.

    key 1: one 64-point Gauss-Legendre panel.  0 < key < 1: 24-point panels
    [0, key], [key, 2 key], ... up to pi.  key 0 is the one singular case,
    f ~ t^(-rho) at 0: the panels start at 0.05 and the first, [0, 0.05], is
    a Gauss-Jacobi head whose weights carry the factor t^rho.  Only this rule
    depends on rho; the others take rho = None, so every rho shares them.
    """
    edges = [0.0, {0.0: 0.05, 1.0: math.pi}.get(key, key)]
    while edges[-1] < math.pi:
        edges.append(min(2.0 * edges[-1], math.pi))
    t, w = panel_rule(edges, 64 if key == 1.0 else 24)
    if key == 0.0:
        xh, wh = _gauss_jacobi01(24, rho)
        t[:24] = edges[1] * xh
        w[:24] = wh * edges[1] ** (1.0 - rho) * t[:24] ** rho
    w /= math.pi
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _angle_rule_groups(delta: np.ndarray, rho: float):
    """Yield (rows, t, w) for the rows of `delta` that share an angle rule.

    A row's rule is keyed by its own angular scale: min(2^floor(log2 delta), 1),
    exact by frexp, and 0 for delta == 0, so no row moves another's rule.
    """
    if not np.all(delta >= 0.0):
        raise ValueError("angle rule: every delta must be >= 0")
    keys = np.where(delta > 0.0, np.ldexp(0.5, np.frexp(np.minimum(delta, 1.0))[1]), 0.0)
    for key in sorted(set(keys.tolist())):
        yield (keys == key, *_angle_rule(key, rho if key == 0.0 else None))


# ---------------------------------------------------------------------------
# the power-cosine average as a Gauss hypergeometric series
# ---------------------------------------------------------------------------

_SERIES_TERMS = 64
_SERIES_TOL = 2.0 ** -56
_CERT_ULPS = 4


class _PowerCosSeries(NamedTuple):
    """The polynomials behind `power_cos_average` for one rho: each series on
    its argument v in [0, 1/2] as a polynomial in y = 4v - 1, its
    coefficients highest power first."""

    nu: float
    near: tuple  # (F(nu, 1/2; 1; z) - 1) / z, so that F(nu, 1/2; 1; 0) = 1
    far: tuple   # (A1 d, A2 e), the two series of the connection formula


def _taylor_tables(rho: float):
    """The _SERIES_TERMS Taylor coefficients, lowest order first, of
    F(nu, 1/2; 1; z) and of the two series A1 d and A2 e of its connection
    formula at 1 - z (A&S 15.3.6), nu = rho/2.  Before the factors A1 and A2
    every coefficient lies in (0, 1]; the tables are certified: the first
    omitted term at argument 1/2 stays below 2^-56 of the sum."""
    nu = 0.5 * rho
    tables = []
    for p, c in ((nu, 1.0), (nu, nu + 0.5), (1.0 - nu, 1.5 - nu)):
        coef = [1.0]
        for k in range(_SERIES_TERMS):
            coef.append(coef[-1] * (p + k) * (0.5 + k) / ((c + k) * (k + 1.0)))
        head = sum(ck * 0.5 ** k for k, ck in enumerate(coef[:-1]))
        if not coef[-1] * 0.5 ** _SERIES_TERMS < _SERIES_TOL * head:
            raise AccuracyError(
                f"hypergeometric series for rho={rho} not converged in "
                f"{_SERIES_TERMS} terms at argument 1/2")
        tables.append(np.array(coef[:-1]))
    near, d, e = tables
    a1 = math.gamma(0.5 - nu) / (math.sqrt(math.pi) * math.gamma(1.0 - nu))
    a2 = math.gamma(nu - 0.5) / (math.sqrt(math.pi) * math.gamma(nu))
    return near, a1 * d, a2 * e


def _economize(coef):
    """sum_k coef[k] v^k on [0, 1/2] as a polynomial in y = 4v - 1, lowest
    power first: its Chebyshev series in y without the trailing coefficients
    whose absolute sum stays below _SERIES_TOL of coef[0].  The series
    converges like (3 + 2 sqrt 2)^-n, as its only singularity is at v = 1
    (Trefethen, ATAP ch. 8).  coef is all of one sign, so re-expanding it in
    y and taking its Chebyshev series add terms of one sign only."""
    in_y = np.zeros(coef.size)
    for k, c in enumerate(coef[::-1]):  # Horner: in_y <- in_y (1 + y) / 4 + c
        in_y[1:k + 1] += in_y[:k]
        in_y *= 0.25
        in_y[0] += c
    cheb = C.poly2cheb(in_y)
    tail = np.cumsum(np.abs(cheb[::-1]))[::-1]  # tail[n]: sum of |cheb[n:]|
    return C.cheb2poly(cheb[:np.count_nonzero(tail >= _SERIES_TOL * abs(coef[0]))])


@functools.cache
def _power_cos_series(rho: float) -> _PowerCosSeries:
    """The Taylor tables of `_taylor_tables`, the near one without its
    constant 1, each economized by `_economize` (about 21 terms where the
    Taylor series takes 64), built on first use.  The build certifies each
    polynomial against its Taylor sum at 65 Chebyshev points of [0, 1/2]:
    within _CERT_ULPS ulps."""
    v = 0.25 * (1.0 + np.cos(np.linspace(0.0, math.pi, 65)))
    near, p, q = _taylor_tables(rho)
    polys = []
    for coef in (near[1:], p, q):
        poly = _economize(coef)[::-1]
        want, got = P.polyval(v, coef), _horner(4.0 * v - 1.0, poly)
        if not np.all(np.abs(got - want) <= _CERT_ULPS * np.spacing(np.abs(want))):
            raise AccuracyError(
                f"economized hypergeometric series for rho={rho} off its "
                f"Taylor sum by more than {_CERT_ULPS} ulps")
        polys.append(tuple(poly.tolist()))
    near, p, q = polys
    return _PowerCosSeries(0.5 * rho, near, (p, q))


def _horner(y, poly):
    """sum_j poly[j] y^(n-1-j), highest power first, in one array."""
    acc = np.full(np.shape(y), poly[0])
    for c in poly[1:]:
        acc *= y
        acc += c
    return acc


def _near_sum(z, ser: _PowerCosSeries):
    """F(nu, 1/2; 1; z), z in [0, 1/2]; exactly 1 at z = 0."""
    return 1.0 + z * _horner(4.0 * z - 1.0, ser.near)


def _far_sum(w, ser: _PowerCosSeries):
    """F(nu, 1/2; 1; 1 - w), w in [0, 1/2], by the connection formula."""
    y = 4.0 * w - 1.0
    p, q = ser.far
    return _horner(y, p) + w ** (0.5 - ser.nu) * _horner(y, q)


def power_cos_average(a, b, rho: float, *, gap=None):
    """(1/pi) int_0^pi (a - b cos t)^(-rho/2) dt, broadcast over a >= b >= 0.

    This is the circle average of |.|^(-rho)-type kernels; a = b is the
    on-circle singular case (finite for 0 < rho < 1).  With nu = rho/2,
    s = a + b and z = 2b/s it equals s^(-nu) F(nu, 1/2; 1; z): the power
    series in z for z <= 1/2, above that the connection formula in
    w = 1 - z = (a-b)/s (A&S 15.3.6).  Each series is summed by Horner on
    its economized polynomial in 4z - 1 or 4w - 1 (`_power_cos_series`,
    within a few ulps of its 64-term Taylor sum, itself within 2^-56), on
    all of its terms, so a value does not depend on the rest of the call.
    s, z and w are formed from b and gap = a - b, which does not cancel
    near the circle if the caller knows it in a cancellation-free form (for
    instance (r-1)^2 for the radial profile) and passes it as `gap`.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    ser = _power_cos_series(float(rho))
    a_arr, b_arr = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                       np.atleast_1d(np.asarray(b, dtype=float)))
    if gap is None:
        gap = a_arr - b_arr
    else:
        gap = np.broadcast_to(np.asarray(gap, dtype=float), a_arr.shape)
    if not (np.isfinite(a_arr).all() and np.isfinite(b_arr).all()
            and np.isfinite(gap).all()):
        raise ValueError("power_cos_average requires finite a, b and gap")
    if not (b_arr >= 0.0).all():
        raise ValueError("power_cos_average requires b >= 0")
    if np.any(gap < -1e-12 * np.abs(a_arr)):
        raise ValueError("power_cos_average requires a >= b")
    gap, b_arr = np.maximum(gap, 0.0).ravel(), b_arr.ravel()
    s = gap + 2.0 * b_arr
    if not (s > 0.0).all():
        raise ValueError("power_cos_average diverges at a = b = 0")
    z, w = 2.0 * b_arr / s, gap / s
    out = np.empty(s.shape)
    near = z <= 0.5
    out[near] = _near_sum(z[near], ser)
    out[~near] = _far_sum(w[~near], ser)
    out *= s ** -ser.nu
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out[0])
    return out.reshape(a_arr.shape)


def mean_value_radial_profile(rho: float, r):
    """m(r) = (1/2pi) int_0^{2pi} (r^2 - 2 r cos t + 1)^(-rho/2) dt.

    Finite and continuous for every r >= 0 when rho < 1 (including r = 1,
    where the integrand is singular); m(0) = 1 and m(r) r^rho -> 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    r_arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r_arr) & (r_arr >= 0)):
        raise ValueError("r must be finite and >= 0")
    return power_cos_average(r_arr * r_arr + 1.0, 2.0 * r_arr, rho,
                             gap=(r_arr - 1.0) ** 2)


def mean_value_mode_profile(rho: float, m: int, r):
    """g_m(r) = (1/pi) int_0^pi |x - w|^-rho cos(m arg(x - w)) dt, x = (r, 0),
    w = (cos t, sin t): the mean-value transform of |x|^-rho cos(m arg x) is
    g_m(|x|) cos(m arg x).  Singular only at r = 1."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not _is_integer(m):
        raise ValueError(f"m must be an integer, got {m!r}")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(np.isfinite(r_arr) & (r_arr >= 0)):
        raise ValueError("r must be finite and >= 0")
    out = np.empty_like(r_arr)
    delta = np.abs(r_arr - 1.0) / np.sqrt(np.maximum(r_arr, 1e-2))
    groups = [(np.flatnonzero(rows), t, w, max(BLOCK_POINTS // t.size, 1))
              for rows, t, w in _angle_rule_groups(delta, rho)]
    # scratch of the largest block, allocated once per call: |x - w|^2, then
    # the summand; arg(x - w), then its weighted cosine
    size = max((min(step, rows.size) * t.size for rows, t, _, step in groups), default=0)
    d2_buf, ang_buf = np.empty((2, size))
    for rows, t, w, step in groups:
        # x - w = ((r-1) + 2 sin^2(t/2), -sin t) and |x - w|^2 =
        # (r-1)^2 + 4 r sin^2(t/2): no cancellation near (1, 0)
        s2, neg_sin = np.sin(0.5 * t) ** 2, -np.sin(t)
        for i in range(0, rows.size, step):
            blk = rows[i:i + step]
            rv = r_arr[blk][:, None]
            d2 = d2_buf[:blk.size * t.size].reshape(blk.size, t.size)
            ang = ang_buf[:d2.size].reshape(d2.shape)
            np.add((rv - 1.0) ** 2, np.multiply(4.0 * rv, s2, out=d2), out=d2)
            np.arctan2(neg_sin, np.add(rv - 1.0, 2.0 * s2, out=ang), out=ang)
            np.power(d2, -rho / 2.0, out=d2)
            np.multiply(np.cos(np.multiply(m, ang, out=ang), out=ang), w, out=ang)
            # a row-wise sum, not BLAS, so a row's bits depend neither on the
            # other rows nor on the block it is in
            out[blk] = np.multiply(d2, ang, out=d2).sum(axis=1)
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# circle averages
# ---------------------------------------------------------------------------

def _adaptive_circle_average(f, cx: float, cy: float, radius: float) -> float:
    """Panel-doubling average for arbitrary callables, with error control:
    8 panels, doubled at most 10 times, until two averages agree to 1e-10."""

    def eval_panels(n_panels: int) -> float:
        t, w = panel_rule(np.linspace(0.0, 2.0 * math.pi, n_panels + 1), 16)
        vals = f(cx - radius * np.cos(t), cy - radius * np.sin(t))
        return float(np.dot(w, vals)) / (2.0 * math.pi)

    n = 8
    prev = eval_panels(n)
    for _ in range(10):
        n *= 2
        cur = eval_panels(n)
        est = abs(cur - prev)
        if est <= 1e-10 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"circle average did not converge (estimate {est:.3e})",
        value=cur, estimate=est)


def circle_average(u, center, radius: float) -> float:
    """Average of u over the circle of given radius centered at `center`.

    A PotentialModel or TailField is averaged with the angle rule about the
    point of the circle nearest the origin; any other callable u(x1, x2),
    broadcasting over arrays, by panel doubling.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"center must be finite, got {center!r}")
    if not isinstance(u, (PotentialModel, TailField)):
        return _adaptive_circle_average(u, cx, cy, radius)
    # the points c - R omega(arg c + t) pass nearest the origin at t = 0;
    # delta is the angular scale on which u varies there
    s = math.hypot(cx, cy)
    sr = max(s * radius, 1e-300)
    if isinstance(u, TailField):
        delta = abs(s - radius) / math.sqrt(sr)
    elif not u.long_range:
        delta = u.width * math.sqrt(2.0 / sr)
    else:
        delta = math.sqrt((1.0 + (s - radius) ** 2) / sr)
    (_, t, w), = _angle_rule_groups(np.array([delta]), u.rho)
    tt = np.stack([t, -t])
    ang = math.atan2(cy, cx) + tt
    x1, x2 = cx - radius * np.cos(ang), cy - radius * np.sin(ang)
    if isinstance(u, TailField):
        # the squared distance to the singularity, without cancellation
        vals = u._at(x1, x2, (s - radius) ** 2 + 4.0 * s * radius * np.sin(0.5 * tt) ** 2)
    else:
        vals = u.value(x1, x2)
    return float(0.5 * (vals[0] + vals[1]) @ w)


def mean_value_transform(u, x) -> float:
    """Average of u over the unit circle centered at x."""
    return circle_average(u, x, 1.0)


def orbit_average(model: PotentialModel, c, E: float, B: float) -> float:
    """Average of V along the projected cyclotron orbit: circle of radius
    sqrt(E)/B centered at c."""
    if not (math.isfinite(E) and E > 0 and math.isfinite(B) and B > 0):
        raise ValueError("E and B must be finite and positive")
    return circle_average(model, c, math.sqrt(E) / B)
