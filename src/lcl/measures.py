"""Both sides of the cluster trace formula.

Spectral side: scaled trace functionals and empirical cluster measures built
from eigenvalues of the truncated level blocks, which `landau.level_spectrum`
gives one level at a time.  Limiting side: the measure

    mu([a, b]) = (1/2piB) |{x : a B^-rho <= T(x) <= b B^-rho}|

and the density integral (1/2piB) int phi(B^rho T(x)) dx, where T is the
mean-value (circle-average) transform of the model's homogeneous tail.  For
the built-in models T reduces to two radial profiles,

    T(r, th) = a [ m0(r) + eps cos(m th) g_m(r) ].

Both are (1/2piB) int f(T(x)) dx, f the indicator of [a, b] B^-rho or
phi(B^rho .): one integrator takes either on a polar rule (the 2-d midpoint
grid, or Gauss-Legendre panels in r and half-period angles for the density)
or by counter-based Monte Carlo over profile tables, beside radial inversion
(mu, radial model).  One Monte Carlo pass of the draws sums any number of
integrands (`LimitingMeasure.monte_carlo` takes both).  The integrand is
summed in blocks of at most BLOCK_POINTS points, never built as one array,
so scratch memory does not grow with the rule or the sample count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._io import write_csv
from .eigen import EigenSpectrum
from .errors import ContractError, MethodError
from .landau import landau_level, level_spectrum
from .potentials import PotentialModel, mean_value_mode_profile, mean_value_radial_profile
from .specfun import BLOCK_POINTS, panel_rule

__all__ = [
    "TestFunction",
    "EmpiricalClusterMeasure",
    "LimitingMeasure",
    "trace_functional",
    "eigenvalue_counting",
    "mu_interval",
    "limiting_density_integral",
    "schatten_norm",
    "ConvergenceRow",
    "convergence_study",
    "rows_to_csv",
]


@dataclass(frozen=True)
class TestFunction:
    """Smooth bump e * exp(-1/(1-s^2)), s = (t-center)/half_width, peak 1.

    The support [center-w, center+w] must exclude 0.
    """

    __test__ = False  # not a pytest class, despite the name

    center: float
    half_width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width!r}")
        if abs(self.center) <= self.half_width:
            raise ValueError("the support of the test function must exclude 0")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    @property
    def support_abs_low(self) -> float:
        """Distance from 0 to the support."""
        return abs(self.center) - self.half_width

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = self._into(np.array(t, ndmin=1))
        return s if t.ndim else float(s[0])

    def _into(self, s):
        """The bump at the points s, a float array, in place of s."""
        s -= self.center
        s /= self.half_width
        inside = (s > -1.0) & (s < 1.0)  # |s| < 1, with no float temporary
        x = s[inside]  # exp(1 - 1/(1 - s^2)), in place
        np.square(x, out=x)
        np.subtract(1.0, x, out=x)
        np.divide(1.0, x, out=x)
        np.subtract(1.0, x, out=x)
        np.exp(x, out=x)
        s[...] = 0.0
        s[inside] = x
        return s


def _values_of(spec) -> np.ndarray:
    if isinstance(spec, EigenSpectrum):
        return spec.values
    return np.asarray(spec, dtype=float)


def trace_functional(spec, lambda_q: float, rho: float, phi: TestFunction,
                     *, tail_bound: float | None) -> float:
    """Sum_j phi(lambda_q^(rho/2) e_j) over the retained eigenvalues.

    `tail_bound` is the certified bound on discarded (unscaled) eigenvalues;
    the sum only represents the full trace when the scaled bound stays below
    the support of phi, so a missing or violated certificate is a contract
    error.
    """
    values = _values_of(spec)
    scale = lambda_q ** (rho / 2.0)
    if tail_bound is None:
        raise ContractError("truncation certificate missing")
    if not scale * tail_bound < phi.support_abs_low:
        raise ContractError(
            f"truncation certificate violated: scaled tail bound "
            f"{scale * tail_bound:.3e} meets the support of phi "
            f"(|support| >= {phi.support_abs_low:.3e})")
    return float(np.sum(phi(scale * values)))


@dataclass(frozen=True)
class EmpiricalClusterMeasure:
    """Scaled eigenvalues lambda_q^(rho/2) e_j of one cluster."""

    q: int
    lambda_q: float
    scaled_eigenvalues: np.ndarray = field(repr=False)
    truncation_tail_bound: float

    @staticmethod
    def from_values(q: int, lambda_q: float, rho: float, values,
                    tail_bound: float) -> "EmpiricalClusterMeasure":
        scale = lambda_q ** (rho / 2.0)
        scaled = np.sort(scale * _values_of(values))
        return EmpiricalClusterMeasure(q, lambda_q, scaled, scale * tail_bound)


def eigenvalue_counting(measure: EmpiricalClusterMeasure, alpha: float,
                        beta: float) -> int:
    """Number of scaled eigenvalues in [alpha, beta]; 0 must lie outside."""
    if not alpha < beta:
        raise ValueError("alpha must be < beta")
    if alpha <= 0.0 <= beta:
        raise ValueError("the counting interval must exclude 0")
    v = measure.scaled_eigenvalues
    return int(np.searchsorted(v, beta, side="right")
               - np.searchsorted(v, alpha, side="left"))


# ---------------------------------------------------------------------------
# limiting measure
# ---------------------------------------------------------------------------

_METHODS = ("radial-inversion", "grid-2d", "monte-carlo")  # of mu_interval
_DENSITY_METHODS = ("radial", "grid-2d", "monte-carlo")
_TABLE_POINTS = 8192  # uniform profile-table nodes on [0, r_out] for Monte Carlo
_GRID_RADII = 4000  # grid-2d midpoint cells in r
_GRID_ANGLES = 720  # ... and in theta (a radial model takes one angle)
_RADIAL_PANELS = 96  # 12-point Gauss-Legendre panels in r of the radial rule
_SCAN_RADII = 5001  # the envelope scan: radii 0, 0.01, ..., 50
_LEVEL_CUTS = 64  # cells per bracket and pass of the level-radius search


@dataclass(frozen=True)
class LimitingMeasure:
    """Evaluators of the limiting cluster measure for a long-range model."""

    model: PotentialModel
    B: float
    seed: int = 20240801
    samples: int = 10_000_000

    def __post_init__(self):
        if not self.model.long_range:
            raise ValueError("the limiting measure requires a long-range model")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ValueError(f"B must be positive and finite, got {self.B!r}")
        if type(self.samples) is not int or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

    @property
    def rho(self) -> float:
        return self.model.rho

    # -- profiles -------------------------------------------------------
    def base_profile(self, r):
        """m0(r): mean-value transform of |x|^-rho (amplitude not applied)."""
        return mean_value_radial_profile(self.rho, r)

    def mode_profile(self, r):
        """g_m(r): radial profile of the cos(m theta) component (zeros if radial)."""
        if not self.model.radial:
            return mean_value_mode_profile(self.rho, self.model.mode, r)
        return np.zeros(np.shape(r)) if np.ndim(r) else 0.0

    def envelope(self, r):
        """Upper bound for |T| on the circle of radius r."""
        base = self.base_profile(r) + self.model.epsilon * np.abs(self.mode_profile(r))
        return abs(self.model.amplitude) * base

    @functools.cached_property
    def _scan(self):
        """(radii, envelope, peak index) on the 0.01 grid of [0, 50], built
        once; the peak must lie inside the grid."""
        r = np.linspace(0.0, 50.0, _SCAN_RADII)
        env = self.envelope(r)
        i = int(np.argmax(env))
        if i == _SCAN_RADII - 1:
            raise MethodError("the envelope is still rising at r = 50")
        return r, env, i

    def envelope_peak(self) -> float:
        _, env, i = self._scan
        return float(env[i])

    def _level_radius(self, levels) -> list[float]:
        """Largest radius where the envelope still reaches each level (none
        above the peak): the upper end of `_level_bracket`."""
        return self._level_bracket(levels)[1].tolist()

    def _level_bracket(self, levels):
        """Adjacent floats lo < hi per level, the envelope reaching the level
        at lo and not at hi.  The first bracket is read off one envelope call
        on the doubling ladder h_k = max(2 r_peak, 1) 2^k, k = 0..30, above
        the scanned peak radius: [h_(k-1), h_k] for the first rung h_k it
        misses ([r_peak, h_0] for k = 0), and a level still reached at the
        first rung past 1e9 is unbounded.  Each pass then cuts every bracket
        into _LEVEL_CUTS cells, all levels in one envelope call, and keeps
        the cell after the last cut that the envelope reaches."""
        r, _, i = self._scan
        t = np.asarray(levels, dtype=float)
        ladder = max(2.0 * r[i], 1.0) * 2.0 ** np.arange(31)
        below = self.envelope(ladder)[None, :] < t[:, None]
        k = np.argmax(below, axis=1)
        if not np.all(below.any(axis=1) & (k <= np.argmax(ladder > 1e9))):
            raise MethodError("level set unbounded; lower edge too close to 0")
        lo, hi = np.where(k > 0, ladder[k - 1], r[i]), ladder[k]
        frac, rows = np.arange(_LEVEL_CUTS + 1) / _LEVEL_CUTS, np.arange(len(t))
        while np.any(np.nextafter(lo, np.inf) < hi):
            cuts = np.minimum(lo[:, None] + (hi - lo)[:, None] * frac, hi[:, None])
            cuts[:, -1] = hi
            up = self.envelope(cuts.ravel()).reshape(cuts.shape) >= t[:, None]
            # a cut on an end keeps that end's side, whatever the envelope reads
            up = (up & (cuts < hi[:, None])) | (cuts == lo[:, None])
            j = _LEVEL_CUTS - np.argmax(up[:, ::-1], axis=1)  # the last cut reached
            lo, hi = cuts[rows, j], cuts[rows, j + 1]
        return lo, hi

    def _tables(self, r_out: float):
        """The uniform table's nodes on [0, r_out], m0 and g_m at them, and
        each profile's slope on each cell, a zero last one appended."""
        r = np.linspace(0.0, r_out, _TABLE_POINTS)
        base, mode = self.base_profile(r), self.mode_profile(r)
        slopes = (np.append(np.diff(f) / np.diff(r), 0.0) for f in (base, mode))
        return r, base, mode, *slopes

    # -- the limiting-side integrals ----------------------------------------
    def mu_interval(self, alpha: float, beta: float,
                    method: str = "radial-inversion") -> float:
        """(1/2piB) Lebesgue area of {x : alpha B^-rho <= T(x) <= beta B^-rho}."""
        return self._value(self._integrand(method, interval=(alpha, beta)), method)

    def density_integral(self, phi: TestFunction, method: str = "radial") -> float:
        """(1/2piB) int phi(B^rho T(x)) dx."""
        return self._value(self._integrand(method, phi=phi), method)

    def monte_carlo(self, alpha: float, beta: float,
                    phi: TestFunction) -> tuple[float, float]:
        """mu_interval(alpha, beta) and density_integral(phi), both by
        "monte-carlo", on one pass of the draws: the two calls' values, bit
        for bit."""
        parts = [self._integrand("monte-carlo", interval=(alpha, beta)),
                 self._integrand("monte-carlo", phi=phi)]
        live = [p for p in parts if isinstance(p, tuple)]
        sums = iter(self._monte_carlo(live) if live else ())
        mu, density = (next(sums) if isinstance(p, tuple) else p for p in parts)
        return mu, density

    def _value(self, part, method: str) -> float:
        return self._integral(*part, method) if isinstance(part, tuple) else part

    def _integrand(self, method: str, interval=None, phi=None):
        """The integrand (f, r_out) of mu_interval(*interval) or, given phi,
        of density_integral(phi) by `method`, or the value where that takes
        no integral: 0 for a zero amplitude, for an interval or a support of
        phi on the other side of 0 from T (T has the amplitude's sign) and for
        a level above the envelope's peak, and the radial inversion's area."""
        if phi is None:
            alpha, beta = interval
            if not alpha < beta:
                raise ValueError("alpha must be < beta")
            if alpha <= 0.0 <= beta:
                raise ValueError("the interval must exclude 0")
        elif phi.support_abs_low <= 0.0:
            raise ValueError("the support of phi must exclude 0")
        if method not in (_METHODS if phi is None else _DENSITY_METHODS):
            raise ValueError(f"unknown method {method!r}")
        amp = self.model.amplitude
        if amp == 0.0:
            return 0.0
        # the ends of the interval or of phi's support as levels of |T|, nearer 0 first
        a, b = interval if phi is None else phi.support
        lo, hi = (a, b) if amp > 0.0 else (-b, -a)
        down = self.B ** (-self.rho)
        t_lo, t_hi = lo * down, hi * down
        if hi < 0.0 or t_lo > self.envelope_peak():
            return 0.0
        if phi is not None:
            up = self.B ** self.rho
            return (lambda v: phi._into(np.multiply(v, up, out=v)),
                    self._level_radius([t_lo])[0] * 1.02)
        if method == "radial-inversion":
            return self._mu_radial_inversion(t_lo, t_hi)
        r_out, = self._level_radius([t_lo])
        t_a, t_b = alpha * down, beta * down
        return lambda v: (v >= t_a) & (v <= t_b), r_out

    def _mu_radial_inversion(self, t_lo: float, t_hi: float) -> float:
        if not self.model.radial:
            raise MethodError("radial-inversion applies to a radial model; use grid-2d")
        _, env, i = self._scan
        if np.any(np.diff(env[i:]) >= 0.0):
            raise MethodError("profile not monotone beyond its peak; use grid-2d")
        if t_hi >= float(np.min(env[:i + 1])):
            raise MethodError("interval reaches the non-monotone inner region; use grid-2d")
        # the unique roots of |amplitude| m0(r) = t on the decreasing branch:
        # the outer radius (lower level) and the inner one (upper level)
        r_lo, r_hi = self._level_radius([t_lo, t_hi])
        return max(r_lo * r_lo - r_hi * r_hi, 0.0) / (2.0 * self.B)

    def _grid(self, r_out: float, method: str):
        """A polar rule on the disc of radius r_out as radial and angular
        factors (base, mode, area, c, w): T at node (i, j) is base[i] +
        mode[i] c[j], c = cos(psi) at the mode's angle psi = m theta, and its
        area is area[i] w[j].  Midpoint cells ("grid-2d"), or Gauss-Legendre
        panels in r and, as T is even in psi, Gauss-Legendre in psi over a
        half period ("radial"); a radial model takes one angle, psi = 0."""
        if method == "grid-2d":
            dr = r_out / _GRID_RADII
            r, wr = (np.arange(_GRID_RADII) + 0.5) * dr, dr
            dth = 2.0 * math.pi / _GRID_ANGLES
            psi, wpsi = self.model.mode * ((np.arange(_GRID_ANGLES) + 0.5) * dth), dth
        else:
            r, wr = panel_rule(np.linspace(0.0, r_out, _RADIAL_PANELS + 1), 12)
            s, ws = panel_rule([0.0, 1.0], 48)
            psi, wpsi = math.pi * s, 2.0 * math.pi * ws
        if self.model.radial:
            psi, wpsi = np.zeros(1), 2.0 * math.pi
        amp = self.model.amplitude
        return (amp * self.base_profile(r), amp * self.model.epsilon * self.mode_profile(r),
                r * wr, np.cos(psi), wpsi)

    def _mode_factor(self, th):
        """eps cos(m th), in place of the angles th; None for a radial model,
        whose T does not read them."""
        if self.model.radial:
            return None
        th *= self.model.mode
        np.cos(th, out=th)
        th *= self.model.epsilon
        return th

    def _table_transform(self, r, c, tables, work):
        """T at radii r >= 0 and mode factors c (see `_mode_factor`), each
        profile linear between the uniform table's nodes: the bracket
        rt[j] <= r < rt[j+1] is the scaled r rounded down, corrected once
        each way, and a zero last slope holds r >= rt[-1] at the last value.
        Computed in `work`, scratch of r's size (three float arrays, an intp
        and a bool one), and returned in one of its arrays."""
        rt, base, mode, base_slope, mode_slope = tables
        dr, vals, g, j, up = work
        np.multiply(r, (_TABLE_POINTS - 1) / rt[-1], out=dr)  # r - rt[j] at the end
        np.copyto(j, dr, casting="unsafe")  # truncated, as astype
        np.clip(j, 0, _TABLE_POINTS - 2, out=j)
        j -= np.greater(np.take(rt, j, out=dr, mode="clip"), r, out=up)
        j += np.less_equal(np.take(rt[1:], j, out=dr, mode="clip"), r, out=up)
        np.subtract(r, np.take(rt, j, out=dr, mode="clip"), out=dr)
        # each profile as slope * (r - rt[j]) + f[j], in this order
        np.multiply(np.take(base_slope, j, out=vals, mode="clip"), dr, out=vals)
        if c is None:
            vals += np.take(base, j, out=dr, mode="clip")
        else:
            np.multiply(np.take(mode_slope, j, out=g, mode="clip"), dr, out=g)
            g += np.take(mode, j, out=dr, mode="clip")
            vals += np.take(base, j, out=dr, mode="clip")
            vals += np.multiply(g, c, out=g)  # (eps cos(m th)) g
        return np.multiply(vals, self.model.amplitude, out=vals)

    def _integral(self, f, r_out: float, method: str) -> float:
        """(1/2piB) int f(T(x)) dx, the integrand 0 outside the disc of radius
        r_out: `_monte_carlo`, or a polar rule ("grid-2d" or "radial", see
        `_grid`) summed in blocks of whole radii, at most BLOCK_POINTS points
        (a radial model's grids and radial rule are one block), in scratch
        allocated once per call.  f is vectorised and may overwrite its
        argument."""
        if method == "monte-carlo":
            return self._monte_carlo([(f, r_out)])[0]
        base, mode, area, c, w = self._grid(r_out, method)
        total, step = 0.0, max(BLOCK_POINTS // c.size, 1)
        vals = np.empty((min(step, base.size), c.size))  # T, then f(T) area
        areas = np.empty((vals.shape[0], np.size(w)))
        for i in range(0, base.size, step):
            blk = slice(i, i + step)
            n = area[blk].size
            v = np.multiply(mode[blk, None], c, out=vals[:n])
            v += base[blk, None]
            wa = np.multiply(area[blk, None], w, out=areas[:n])
            total += np.sum(np.multiply(f(v), wa, out=vals[:n]))
        return float(total) / (2.0 * math.pi * self.B)

    def _monte_carlo(self, integrands) -> list[float]:
        """`_integral` of each (f, r_out) by self.samples uniform Philox(seed)
        points, all on one pass of the draws: unit-disc points (sqrt(u), th),
        scaled by each r_out.  Consecutive samples are summed in blocks of at
        most BLOCK_POINTS, in scratch allocated once per call.  The angles
        come from a second Philox(seed) advanced past all radii's draws, so
        the points are those of one unblocked stream; a radial model draws
        none."""
        tables = [self._tables(r_out) for _, r_out in integrands]
        aniso = not self.model.radial
        u, r, th, dr, vals, g = np.empty((6, min(self.samples, BLOCK_POINTS)))
        scratch = (dr, vals, g, np.empty(u.size, np.intp), np.empty(u.size, bool))
        radii = np.random.Generator(np.random.Philox(self.seed))
        if aniso:
            # past the radii: Philox makes 4 draws per counter step, a double takes 1
            angles = np.random.Generator(np.random.Philox(self.seed).advance(self.samples // 4))
            angles.random(self.samples % 4)
        totals, c = [0.0] * len(integrands), None
        for i in range(0, self.samples, BLOCK_POINTS):
            n = min(BLOCK_POINTS, self.samples - i)
            root = np.sqrt(radii.random(out=u[:n]), out=u[:n])
            if aniso:  # one mode factor per point, shared by the integrands
                c = angles.random(out=th[:n])
                c *= 2.0 * math.pi
                c = self._mode_factor(c)
            work = [a[:n] for a in scratch]
            for k, ((f, r_out), tab) in enumerate(zip(integrands, tables)):
                vals = self._table_transform(np.multiply(root, r_out, out=r[:n]), c, tab, work)
                totals[k] += np.sum(f(vals))
        return [float(t / self.samples) * math.pi * r_out * r_out / (2.0 * math.pi * self.B)
                for t, (_, r_out) in zip(totals, integrands)]


def mu_interval(lim: LimitingMeasure, alpha: float, beta: float,
                method: str = "radial-inversion") -> float:
    return lim.mu_interval(alpha, beta, method)


def limiting_density_integral(lim: LimitingMeasure, phi: TestFunction,
                              method: str = "radial") -> float:
    return lim.density_integral(phi, method)


def schatten_norm(spec, ell: float | None = None, *, weak: bool = False) -> float:
    """(sum |e_j|^ell)^(1/ell), or the weak quasinorm sup_j j^(1/ell) |e|_(j)."""
    values = np.abs(_values_of(spec))
    if ell is None or not (math.isfinite(ell) and ell >= 1.0):
        raise ValueError(f"ell must be finite and >= 1, got {ell!r}")
    if weak:
        dec = np.sort(values)[::-1]
        j = np.arange(1, len(dec) + 1, dtype=float)
        return float(np.max(j ** (1.0 / ell) * dec)) if len(dec) else 0.0
    return float(np.sum(values ** ell) ** (1.0 / ell))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    q: int
    lambda_q: float
    k_max: int
    lhs: float
    rhs: float
    relative_gap: float


def _study_row(model, B, rho, phi, delta, q, rhs) -> ConvergenceRow:
    lam = landau_level(B, q)
    # only eigenvalues inside phi's support, scaled back, enter the trace
    window = tuple(s * lam ** (-rho / 2.0) for s in phi.support)
    values, k_max, tail, _, _ = level_spectrum(model, B, q, delta, rho, window)
    lhs = trace_functional(values, lam, rho, phi, tail_bound=tail) / lam
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-12)
    return ConvergenceRow(q=q, lambda_q=lam, k_max=k_max, lhs=lhs, rhs=rhs,
                          relative_gap=gap)


def convergence_study(model: PotentialModel, B: float, rho: float,
                      phi: TestFunction, q_list, delta: float, *,
                      rhs_method: str = "radial") -> list[ConvergenceRow]:
    """One row per level: lhs = lambda_q^-1 tr phi(lambda_q^(rho/2) T_q)
    against the constant limiting-side integral."""
    q_list = list(q_list)
    if not q_list or any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be nonempty and strictly ascending")
    if delta >= phi.support_abs_low:
        raise ValueError("delta must stay below the support edge of phi")
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho!r}")
    if model.long_range and abs(rho - model.rho) > 1e-12:
        raise ValueError("rho must match the model's decay order")
    if model.long_range and model.amplitude != 0.0:
        rhs = LimitingMeasure(model, B).density_integral(phi, method=rhs_method)
    else:
        rhs = 0.0
    return [_study_row(model, B, rho, phi, delta, q, rhs) for q in q_list]


def rows_to_csv(rows, path) -> None:
    write_csv(path, "q,lambda_q,k_max,lhs,rhs,rel_gap",
              ((r.q, r.lambda_q, r.k_max, r.lhs, r.rhs, r.relative_gap) for r in rows))
