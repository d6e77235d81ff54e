"""Potential models, homogeneous tails, and circle averages.

The built-in family:

* ``isotropic-long-range``   V(x) = a (1+|x|^2)^(-rho/2)
* ``anisotropic-long-range`` V(x) = a [ (1+r^2)^(-rho/2)
                                       + eps r^m cos(m th) (1+r^2)^(-(rho+m)/2) ]
* ``compact-gaussian-bump``  V(x) = a exp(-|x|^2 / (2 w^2))

The long-range kinds have homogeneous tails a |x|^(-rho) and
a |x|^(-rho) (1 + eps cos(m th)); the anisotropic correction is damped with a
harmonic polynomial r^m cos(m th) so V stays smooth at the origin.  The
difference V - tail decays two orders faster than the tail itself.

The mean-value transform (average over the unit circle centered at x) and
every other circle average of a model or tail run on one angle rule,
`_angle_rule(delta, rho)`, for (1/pi) int_0^pi f(t) dt where f varies on the
angular scale delta near t = 0: one 64-point Gauss-Legendre panel for
delta >= 1, geometric 24-point panels from delta for 0 < delta < 1, and for
delta == 0 -- the circle passes exactly through the tail's singularity, the
only singular case -- a Gauss-Jacobi head carrying the t^(-rho) weight.
Integrands even in t are averaged on the half circle; the others as the
mean of f(t) and f(-t) about the angle nearest the singularity.  Arbitrary
callables get an adaptive panel-doubling average instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .specfun import legendre_rule

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
        if self.kind != "compact-gaussian-bump":
            if not 0.0 < self.rho < 1.0:
                raise ValueError("rho must lie in (0, 1) for long-range kinds")
        if self.kind == "anisotropic-long-range":
            if not 0.0 <= self.epsilon < 1.0:
                raise ValueError("epsilon must lie in [0, 1)")
            if self.mode < 1:
                raise ValueError("mode must be a positive integer")
        if self.kind == "compact-gaussian-bump" and self.width <= 0.0:
            raise ValueError("width must be positive")

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

    def value(self, x1, x2):
        """V(x), broadcasting over coordinate arrays."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        r2 = x1 * x1 + x2 * x2
        if self.kind == "compact-gaussian-bump":
            return self.amplitude * np.exp(-r2 / (2.0 * self.width ** 2))
        out = (1.0 + r2) ** (-self.rho / 2.0)
        if self.kind == "anisotropic-long-range":
            # Re[(x1+ix2)^m] damped: smooth everywhere, ~ eps r^-rho cos at infinity
            harm = np.real((x1 + 1j * x2) ** self.mode)
            out = out + self.epsilon * harm * (1.0 + r2) ** (-(self.rho + self.mode) / 2.0)
        return self.amplitude * out

    def tail_value(self, x1, x2):
        """Homogeneous tail, singular at the origin."""
        return TailField(self)(x1, x2)

    def tail_field(self) -> "TailField":
        return TailField(self)

    def angular_modes(self) -> tuple[AngularModeProfile, ...]:
        """Nonzero modes of V(r, theta) = sum_j v_j(r) e^{ij theta}."""
        a = self.amplitude
        if self.kind == "compact-gaussian-bump":
            w2 = self.width ** 2
            return (AngularModeProfile(0, lambda r: a * np.exp(-np.square(r) / (2 * w2))),)
        rho = self.rho
        v0 = AngularModeProfile(0, lambda r: a * (1.0 + np.square(r)) ** (-rho / 2.0))
        if self.kind == "isotropic-long-range":
            return (v0,)
        eps, m = self.epsilon, self.mode
        def vm(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * a * eps * r ** m * (1.0 + r * r) ** (-(rho + m) / 2.0)
        return (v0, AngularModeProfile(m, vm), AngularModeProfile(-m, vm))

    def sup_abs(self, grid: int = 20001, rmax: float = 60.0) -> float:
        """Numerical sup of |V| (scanned along the extremal rays)."""
        r = np.linspace(0.0, rmax, grid)
        if self.kind == "anisotropic-long-range":
            base = (1.0 + r * r) ** (-self.rho / 2.0)
            bump = self.epsilon * r ** self.mode * (1.0 + r * r) ** (-(self.rho + self.mode) / 2.0)
            return abs(self.amplitude) * float(np.max(np.abs(base) + np.abs(bump)))
        return abs(self.amplitude)

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rho": self.rho if self.long_range else None,
            "epsilon": self.epsilon if self.kind == "anisotropic-long-range" else None,
            "mode": self.mode if self.kind == "anisotropic-long-range" else None,
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
        if mode is not None and (isinstance(mode, bool) or not isinstance(mode, int)):
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
        if model.kind == "anisotropic-long-range":
            out = out * (1.0 + model.epsilon * np.cos(model.mode * np.arctan2(x2, x1)))
        return model.amplitude * out


def evaluate(model: PotentialModel, x) -> float:
    """V(x) at a single point x = (x1, x2)."""
    return float(model.value(x[0], x[1]))


def evaluate_tail(model: PotentialModel, x) -> float:
    """Tail value at a nonzero point; raises ValueError at the origin."""
    return float(model.tail_value(x[0], x[1]))


# ---------------------------------------------------------------------------
# the angle rule behind every circle average
# ---------------------------------------------------------------------------

_jacobi_cache: dict = {}


def _gauss_jacobi01(n: int, rho: float):
    """Nodes/weights for int_0^1 x^(-rho) f(x) dx (weight included)."""
    key = (n, round(rho, 14))
    if key in _jacobi_cache:
        return _jacobi_cache[key]
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
    _jacobi_cache[key] = (x, w)
    return x, w


def _panel_rule(edges: np.ndarray, n: int):
    """n-point Gauss-Legendre on each panel [edges[i], edges[i+1]]."""
    x, w = legendre_rule(n)
    h = 0.5 * np.diff(edges)[:, None]
    return (h * (x[None, :] + 1.0) + edges[:-1, None]).ravel(), (h * w[None, :]).ravel()


def _angle_rule(delta: float, rho: float):
    """Nodes t and weights w with f(t) @ w = (1/pi) int_0^pi f(t) dt, for an
    f that varies on the angular scale `delta` near t = 0.

    delta >= 1: one 64-point Gauss-Legendre panel.  0 < delta < 1: 24-point
    panels [0, delta], [delta, 2 delta], ... up to pi.  delta == 0 is the one
    singular case, f ~ t^(-rho) at 0: the panels start at 0.05 and the first,
    [0, 0.05], is a Gauss-Jacobi head whose weights carry the factor t^rho.
    """
    if delta >= 1.0:
        t, w = _panel_rule(np.array([0.0, math.pi]), 64)
        return t, w / math.pi
    edges = [0.0, delta if delta > 0.0 else 0.05]
    while edges[-1] < math.pi:
        edges.append(min(2.0 * edges[-1], math.pi))
    t, w = _panel_rule(np.array(edges), 24)
    if delta == 0.0:
        xh, wh = _gauss_jacobi01(24, rho)
        t[:24] = edges[1] * xh
        w[:24] = wh * edges[1] ** (1.0 - rho) * t[:24] ** rho
    return t, w / math.pi


def power_cos_average(a, b, rho: float, *, gap=None):
    """(1/pi) int_0^pi (a - b cos t)^(-rho/2) dt, broadcast over a, b >= 0.

    This is the circle average of |.|^(-rho)-type kernels; a = b is the
    on-circle singular case (finite for rho < 1).  The kernel is evaluated
    as ((a-b) + 2 b sin^2(t/2))^(-rho/2), which does not cancel near t = 0;
    callers that know a - b in a cancellation-free form (for instance
    (r-1)^2 for the radial profile) should pass it as `gap`.
    """
    a_arr, b_arr = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                       np.atleast_1d(np.asarray(b, dtype=float)))
    if gap is None:
        gap = a_arr - b_arr
    else:
        gap = np.broadcast_to(np.asarray(gap, dtype=float), a_arr.shape)
    if np.any(gap < -1e-12 * np.abs(a_arr)):
        raise ValueError("power_cos_average requires a >= b")
    gap = np.maximum(gap, 0.0)
    out = np.empty(a_arr.shape)
    trivial = b_arr <= 1e-300
    out[trivial] = a_arr[trivial] ** (-rho / 2.0)
    for part in (~trivial & (gap == 0.0), ~trivial & (gap != 0.0)):
        if np.any(part):
            gv, bv = gap[part][:, None], b_arr[part][:, None]
            t, w = _angle_rule(float(np.min(np.sqrt(2.0 * gv / bv))), rho)
            out[part] = (gv + 2.0 * bv * np.sin(0.5 * t) ** 2) ** (-rho / 2.0) @ w
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out.reshape(-1)[0])
    return out


def mean_value_radial_profile(rho: float, r):
    """m(r) = (1/2pi) int_0^{2pi} (r^2 - 2 r cos t + 1)^(-rho/2) dt.

    Finite and continuous for every r >= 0 when rho < 1 (including r = 1,
    where the integrand is singular); m(0) = 1 and m(r) r^rho -> 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("r must be >= 0")
    return power_cos_average(r_arr * r_arr + 1.0, 2.0 * r_arr, rho,
                             gap=(r_arr - 1.0) ** 2)


def mean_value_mode_profile(rho: float, m: int, r):
    """g_m(r) = (1/pi) int_0^pi |x - w|^-rho cos(m arg(x - w)) dt, x = (r, 0),
    w = (cos t, sin t): the mean-value transform of |x|^-rho cos(m arg x) is
    g_m(|x|) cos(m arg x).  Singular only at r = 1."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r_arr)
    for part in (r_arr == 1.0, r_arr != 1.0):
        if np.any(part):
            rv = r_arr[part][:, None]
            delta = float(np.min(np.abs(rv - 1.0) / np.sqrt(np.maximum(rv, 1e-2))))
            t, w = _angle_rule(delta, rho)
            # x - w = ((r-1) + 2 sin^2(t/2), -sin t) and |x - w|^2 =
            # (r-1)^2 + 4 r sin^2(t/2): no cancellation near (1, 0)
            s2 = np.sin(0.5 * t) ** 2
            d2 = (rv - 1.0) ** 2 + 4.0 * rv * s2
            ang = np.arctan2(-np.sin(t), (rv - 1.0) + 2.0 * s2)
            out[part] = d2 ** (-rho / 2.0) * np.cos(m * ang) @ w
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# circle averages
# ---------------------------------------------------------------------------

def _adaptive_circle_average(f, cx: float, cy: float, radius: float,
                             tol: float = 1e-10, max_rounds: int = 10) -> float:
    """Panel-doubling average for arbitrary callables, with error control."""

    def eval_panels(n_panels: int) -> float:
        t, w = _panel_rule(np.linspace(0.0, 2.0 * math.pi, n_panels + 1), 16)
        vals = f(cx - radius * np.cos(t), cy - radius * np.sin(t))
        return float(np.dot(w, vals)) / (2.0 * math.pi)

    n = 8
    prev = eval_panels(n)
    for _ in range(max_rounds):
        n *= 2
        cur = eval_panels(n)
        est = abs(cur - prev)
        if est <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"circle average did not converge (estimate {est:.3e})",
        value=cur, estimate=est)


def circle_average(u, center, radius: float, *, tol: float = 1e-10) -> float:
    """Average of u over the circle of given radius centered at `center`.

    A PotentialModel or TailField is averaged with the angle rule about the
    point of the circle nearest the origin; any other callable u(x1, x2),
    broadcasting over arrays, adaptively to `tol`.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    cx, cy = float(center[0]), float(center[1])
    if not isinstance(u, (PotentialModel, TailField)):
        return _adaptive_circle_average(u, cx, cy, radius, tol=tol)
    # the points c - R omega(arg c + t) pass nearest the origin at t = 0;
    # delta is the angular scale on which u varies there
    s = math.hypot(cx, cy)
    sr = max(s * radius, 1e-300)
    if isinstance(u, TailField):
        delta = abs(s - radius) / math.sqrt(sr)
    elif u.kind == "compact-gaussian-bump":
        delta = u.width * math.sqrt(2.0 / sr)
    else:
        delta = math.sqrt((1.0 + (s - radius) ** 2) / sr)
    t, w = _angle_rule(delta, u.rho)
    tt = np.stack([t, -t])
    ang = math.atan2(cy, cx) + tt
    x1, x2 = cx - radius * np.cos(ang), cy - radius * np.sin(ang)
    if isinstance(u, TailField):
        # the squared distance to the singularity, without cancellation
        vals = u._at(x1, x2, (s - radius) ** 2 + 4.0 * s * radius * np.sin(0.5 * tt) ** 2)
    else:
        vals = u.value(x1, x2)
    return float(0.5 * (vals[0] + vals[1]) @ w)


def mean_value_transform(u, x, *, tol: float = 1e-10) -> float:
    """Average of u over the unit circle centered at x."""
    return circle_average(u, x, 1.0, tol=tol)


def orbit_average(model: PotentialModel, c, E: float, B: float) -> float:
    """Average of V along the projected cyclotron orbit: circle of radius
    sqrt(E)/B centered at c."""
    if E <= 0 or B <= 0:
        raise ValueError("E and B must be positive")
    return circle_average(model, c, math.sqrt(E) / B)
