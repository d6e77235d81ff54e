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
every other circle average in the package run on one quadrature engine:
geometric theta-panels clustered at the near-singular angle, with a
Gauss-Jacobi head panel carrying the t^(-rho) weight when the circle passes
through the tail's singularity exactly.
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
        if not self.long_range:
            raise ValueError("the Gaussian bump has no homogeneous tail")
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        r2 = x1 * x1 + x2 * x2
        if np.any(r2 == 0.0):
            raise ValueError("tail is singular at the origin")
        out = r2 ** (-self.rho / 2.0)
        if self.kind == "anisotropic-long-range":
            out = out * (1.0 + self.epsilon * np.cos(self.mode * np.arctan2(x2, x1)))
        return self.amplitude * out

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

        def opt(key, default):  # an explicit 0 is a value, not a missing field
            return default if obj.get(key) is None else obj[key]

        kind = obj["kind"]
        kwargs = {"amplitude": opt("amplitude", 1.0)}
        if kind in ("isotropic-long-range", "anisotropic-long-range"):
            if obj.get("rho") is None:
                raise ValueError("model.rho: required for long-range kinds")
            kwargs["rho"] = float(obj["rho"])
        if kind == "anisotropic-long-range":
            kwargs["epsilon"] = float(opt("epsilon", 0.0))
            kwargs["mode"] = int(opt("mode", 0))
        if kind == "compact-gaussian-bump":
            kwargs["width"] = float(opt("width", 1.0))
        return PotentialModel(kind, **kwargs)


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
        if self.b_rescale is None:
            return self.model.tail_value(x1, x2)
        s = 1.0 / math.sqrt(self.b_rescale)
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return self.model.tail_value(-s * x2, -s * x1)


def evaluate(model: PotentialModel, x) -> float:
    """V(x) at a single point x = (x1, x2)."""
    return float(model.value(x[0], x[1]))


def evaluate_tail(model: PotentialModel, x) -> float:
    """Tail value at a nonzero point; raises ValueError at the origin."""
    return float(model.tail_value(x[0], x[1]))


# ---------------------------------------------------------------------------
# angular quadrature engine
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


def _one_sided_mesh(delta: float, tmax: float = math.pi, n_per: int = 24,
                    rho_head: float | None = None):
    """Quadrature for int_0^tmax f(t) dt with structure at scale `delta` near 0.

    delta > 0: geometric panels starting at `delta`.  delta == 0 with
    `rho_head`: the innermost panel carries the t^(-rho) weight by
    Gauss-Jacobi; callers must then supply f(t) * t^rho on the head nodes.
    Returns (nodes, weights, head_nodes, head_weights); head arrays are
    empty when no singular head is needed.
    """
    xg, wg = legendre_rule(n_per)
    edges = []
    if delta <= 0.0:
        if rho_head is None:
            raise ValueError("singular mesh requested without a grading exponent")
        t0 = min(0.05, tmax / 8.0)
        xh, wh = _gauss_jacobi01(n_per, rho_head)
        head = (t0 * xh, wh * t0 ** (1.0 - rho_head))
        lo = t0
    else:
        lo = min(delta, tmax)
        head = (np.empty(0), np.empty(0))
        edges.append((0.0, lo))
    t = lo
    while t < tmax:
        t2 = min(2.0 * t, tmax)
        edges.append((t, t2))
        t = t2
        if len(edges) > 4096:
            raise QuadratureError("angular mesh exceeded panel budget")
    a = np.array([e[0] for e in edges])
    b = np.array([e[1] for e in edges])
    nodes = (0.5 * (b - a)[:, None] * (xg[None, :] + 1.0) + a[:, None]).ravel()
    weights = (0.5 * (b - a)[:, None] * wg[None, :]).ravel()
    return nodes, weights, head[0], head[1]


def power_cos_average(a, b, rho: float, n_per: int = 24, *, gap=None):
    """(1/pi) int_0^pi (a - b cos t)^(-rho/2) dt, broadcast over a, b >= 0.

    This is the circle average of |.|^(-rho)-type kernels; a = b is the
    on-circle singular case (finite for rho < 1).  The kernel is evaluated
    as ((a-b) + 2 b sin^2(t/2))^(-rho/2), which does not cancel near t = 0;
    callers that know a - b in a cancellation-free form (for instance
    (r-1)^2 for the radial profile) should pass it as `gap`.
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=float))
    b_arr = np.atleast_1d(np.asarray(b, dtype=float))
    a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    out = np.empty(a_arr.shape)
    if gap is None:
        gap = a_arr - b_arr
    else:
        gap = np.broadcast_to(np.asarray(gap, dtype=float), a_arr.shape)
    if np.any(gap < -1e-12 * np.abs(a_arr)):
        raise ValueError("power_cos_average requires a >= b")
    gap = np.maximum(gap, 0.0)
    trivial = b_arr <= 1e-300
    sing = (~trivial) & (gap <= 0.0)
    regular = ~(trivial | sing)
    if np.any(trivial):
        out[trivial] = a_arr[trivial] ** (-rho / 2.0)
    if np.any(sing):
        for idx in np.argwhere(sing):
            out[tuple(idx)] = _pca_single(b_arr[tuple(idx)], rho, n_per)
    if np.any(regular):
        gv, bv = gap[regular], b_arr[regular]
        delta = np.sqrt(2.0 * gv / bv)
        dmin = float(np.min(delta))
        if dmin >= 1.0:
            x, w = legendre_rule(64)
            t = 0.5 * math.pi * (x + 1.0)
            wt = 0.5 * math.pi * w
        else:
            t, wt, _, _ = _one_sided_mesh(dmin, n_per=n_per)
        s2 = np.sin(0.5 * t) ** 2
        vals = (gv[:, None] + 2.0 * bv[:, None] * s2[None, :]) ** (-rho / 2.0)
        out[regular] = (vals @ wt) / math.pi
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out.reshape(-1)[0])
    return out


def _pca_single(b: float, rho: float, n_per: int = 24) -> float:
    # a == b: kernel (2 b sin^2(t/2))^(-rho/2); the head factor
    # t^rho * kernel is smooth
    t, wt, th, wh = _one_sided_mesh(0.0, n_per=n_per, rho_head=rho)
    tot = np.dot(wt, (2.0 * b * np.sin(0.5 * t) ** 2) ** (-rho / 2.0))
    tot += np.dot(wh, th ** rho * (2.0 * b * np.sin(0.5 * th) ** 2) ** (-rho / 2.0))
    return tot / math.pi


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


# ---------------------------------------------------------------------------
# generic circle averages
# ---------------------------------------------------------------------------

def _circle_average_points(f_xy, cx: float, cy: float, radius: float,
                           delta: float, rho_head: float | None,
                           theta_star: float, n_per: int = 24) -> float:
    """(1/2pi) int f(center - radius * omega(t)) dt with structure at theta_star.

    The mesh clusters around t = theta_star on both sides; with rho_head set
    and delta == 0 the head panels integrate the |t|^(-rho) weight exactly.
    """
    t, wt, th, wh = _one_sided_mesh(delta, n_per=n_per, rho_head=rho_head)
    total = 0.0
    for sgn in (+1.0, -1.0):
        ang = theta_star + sgn * t
        vals = f_xy(cx - radius * np.cos(ang), cy - radius * np.sin(ang))
        total += float(np.dot(wt, vals))
        if th.size:
            ang = theta_star + sgn * th
            vals = f_xy(cx - radius * np.cos(ang), cy - radius * np.sin(ang))
            total += float(np.dot(wh, th ** rho_head * vals))
    return total / (2.0 * math.pi)


def _tail_values_polar(tail: TailField, cx: float, cy: float, radius: float,
                       u: np.ndarray) -> np.ndarray:
    """Tail values at points c - radius*omega(theta_c + u), evaluated through
    the cancellation-free squared distance (r-R)^2 + 4 r R sin^2(u/2)."""
    model = tail.model
    r = math.hypot(cx, cy)
    d2 = (r - radius) ** 2 + 4.0 * r * radius * np.sin(0.5 * u) ** 2
    if tail.b_rescale is not None:
        d2 = d2 / tail.b_rescale
    vals = d2 ** (-model.rho / 2.0)
    if model.kind == "anisotropic-long-range":
        theta_c = math.atan2(cy, cx)
        ang = theta_c + u
        x1 = cx - radius * np.cos(ang)
        x2 = cy - radius * np.sin(ang)
        if tail.b_rescale is not None:
            x1, x2 = -x2, -x1
        vals = vals * (1.0 + model.epsilon * np.cos(model.mode * np.arctan2(x2, x1)))
    return model.amplitude * vals


def _tail_circle_average(tail: TailField, cx: float, cy: float, radius: float) -> float:
    # distance from the circle {c - R omega} to the tail singularity at 0
    # behaves like sqrt((r-R)^2 + 4 r R sin^2(u/2)) around the closest angle
    s = math.hypot(cx, cy)
    if radius <= 0:
        raise ValueError("radius must be positive")
    delta = abs(s - radius) / math.sqrt(max(s * radius, 1e-300))
    singular = delta < 1e-13
    rho = tail.rho
    t, wt, th, wh = _one_sided_mesh(0.0 if singular else min(delta, math.pi),
                                    rho_head=rho if singular else None)
    total = 0.0
    for sgn in (+1.0, -1.0):
        total += float(np.dot(wt, _tail_values_polar(tail, cx, cy, radius, sgn * t)))
        if th.size:
            vals = _tail_values_polar(tail, cx, cy, radius, sgn * th)
            total += float(np.dot(wh, th ** rho * vals))
    return total / (2.0 * math.pi)


def _model_circle_average(model: PotentialModel, cx: float, cy: float,
                          radius: float) -> float:
    # points c + R*omega; the integrand peaks where the orbit comes closest
    # to the origin, at omega-angle arg(c) + pi, with the angular scale below
    s = math.hypot(cx, cy)
    if model.kind == "compact-gaussian-bump":
        scale = model.width * math.sqrt(2.0 / max(s * radius, 1e-300))
    else:
        scale = math.sqrt((1.0 + (s - radius) ** 2) / max(s * radius, 1e-300))
    delta = min(scale, math.pi)
    theta_star = math.atan2(cy, cx) + math.pi  # harmless when s == 0
    return _circle_average_points(model.value, cx, cy, -radius, delta, None, theta_star)


def _adaptive_circle_average(f, cx: float, cy: float, radius: float,
                             tol: float = 1e-10, max_rounds: int = 10) -> float:
    """Panel-doubling average for arbitrary callables, with error control."""
    xg, wg = legendre_rule(16)

    def eval_panels(n_panels: int) -> float:
        edges = np.linspace(0.0, 2.0 * math.pi, n_panels + 1)
        a, b = edges[:-1], edges[1:]
        t = (0.5 * (b - a)[:, None] * (xg[None, :] + 1.0) + a[:, None]).ravel()
        w = (0.5 * (b - a)[:, None] * wg[None, :]).ravel()
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


def mean_value_transform(u, x, *, tol: float = 1e-10) -> float:
    """Average of u over the unit circle centered at x.

    `u` may be a PotentialModel, a TailField (handled with the singular
    mesh when the circle meets the tail's singularity), or any callable
    u(x1, x2) broadcasting over arrays (handled adaptively).
    """
    cx, cy = float(x[0]), float(x[1])
    if isinstance(u, PotentialModel):
        return _model_circle_average(u, cx, cy, 1.0)
    if isinstance(u, TailField):
        return _tail_circle_average(u, cx, cy, 1.0)
    return _adaptive_circle_average(u, cx, cy, 1.0, tol=tol)


def circle_average(u, center, radius: float, *, tol: float = 1e-10) -> float:
    """Average of u over the circle of given radius centered at `center`."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    cx, cy = float(center[0]), float(center[1])
    if isinstance(u, PotentialModel):
        return _model_circle_average(u, cx, cy, radius)
    if isinstance(u, TailField):
        return _tail_circle_average(u, cx, cy, radius)
    return _adaptive_circle_average(u, cx, cy, radius, tol=tol)


def orbit_average(model: PotentialModel, c, E: float, B: float) -> float:
    """Average of V along the projected cyclotron orbit: circle of radius
    sqrt(E)/B centered at c."""
    if E <= 0 or B <= 0:
        raise ValueError("E and B must be positive")
    return circle_average(model, c, math.sqrt(E) / B)
