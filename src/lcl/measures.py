"""Both sides of the cluster trace formula.

Spectral side: scaled trace functionals and empirical cluster measures built
from eigenvalues of the truncated level blocks.  Limiting side: the measure

    mu([a, b]) = (1/2piB) |{x : a B^-rho <= tail_transform(x) <= b B^-rho}|

and the density integral (1/2piB) int phi(B^rho tail_transform(x)) dx, where
tail_transform is the mean-value (circle-average) transform of the model's
homogeneous tail.  For the built-in models the transform reduces to two
radial profiles,

    tail_transform(r, th) = a [ m0(r) + eps cos(m th) g_m(r) ],

so every evaluation method (radial inversion, 2-d midpoint grid, counter-based
Monte Carlo) runs on cheap profile tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .eigen import EigenSpectrum, sym_eig
from .errors import ContractError, MethodError
from .landau import (LandauConfig, landau_level, radial_diagonal,
                     toeplitz_matrix, truncation_bound, _block_summary, _row_bound)
from .potentials import (PotentialModel, mean_value_mode_profile,
                         mean_value_radial_profile)
from .specfun import legendre_rule

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
    "level_spectrum",
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
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
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
        s = (t - self.center) / self.half_width
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - np.square(s[inside])))
        return out if out.ndim else float(out)


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
    if scale * tail_bound >= phi.support_abs_low:
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
    if alpha >= beta:
        raise ValueError("alpha must be < beta")
    if alpha <= 0.0 <= beta:
        raise ValueError("the counting interval must exclude 0")
    v = measure.scaled_eigenvalues
    return int(np.searchsorted(v, beta, side="right")
               - np.searchsorted(v, alpha, side="left"))


# ---------------------------------------------------------------------------
# limiting measure
# ---------------------------------------------------------------------------

_METHODS = ("radial-inversion", "grid-2d", "monte-carlo")


@dataclass(frozen=True)
class LimitingMeasure:
    """Evaluators of the limiting cluster measure for a long-range model."""

    model: PotentialModel
    B: float
    method: str = "radial-inversion"
    seed: int = 20240801
    samples: int = 10_000_000

    def __post_init__(self):
        if not self.model.long_range:
            raise ValueError("the limiting measure requires a long-range model")
        if self.B <= 0:
            raise ValueError("B must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def rho(self) -> float:
        return self.model.rho

    # -- profiles -------------------------------------------------------
    def base_profile(self, r):
        """m0(r): mean-value transform of |x|^-rho (amplitude not applied)."""
        return mean_value_radial_profile(self.rho, r)

    def mode_profile(self, r):
        """g_m(r): radial profile of the cos(m theta) component (or zeros)."""
        if self.model.kind == "anisotropic-long-range":
            return mean_value_mode_profile(self.rho, self.model.mode, r)
        return np.zeros(np.shape(r)) if np.ndim(r) else 0.0

    def tail_transform(self, x1, x2):
        """Mean-value transform of the tail at (x1, x2), via the profiles."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        r = np.hypot(x1, x2)
        out = self.base_profile(r)
        if self.model.kind == "anisotropic-long-range":
            out = out + self.model.epsilon * np.cos(
                self.model.mode * np.arctan2(x2, x1)) * self.mode_profile(r)
        return self.model.amplitude * out

    def envelope(self, r):
        """Upper bound for |tail_transform| on the circle of radius r."""
        base = self.base_profile(r)
        if self.model.kind == "anisotropic-long-range":
            base = base + self.model.epsilon * np.abs(self.mode_profile(r))
        return abs(self.model.amplitude) * base

    def envelope_peak(self) -> float:
        return float(np.max(self.envelope(np.linspace(0.0, 3.0, 301))))

    def _envelope_radius(self, level: float) -> float:
        """Largest radius where the envelope still reaches `level`."""
        r = 2.0
        while float(self.envelope(r)) >= level:
            r *= 2.0
            if r > 1e9:
                raise MethodError("level set unbounded; lower edge too close to 0")
        lo, hi = r / 2.0, r
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(self.envelope(mid)) >= level:
                lo = mid
            else:
                hi = mid
        return hi

    def _tables(self, r_out: float, n: int = 8192):
        r = np.linspace(0.0, r_out, n)
        base = self.base_profile(r)
        mode = (self.mode_profile(r)
                if self.model.kind == "anisotropic-long-range" else np.zeros(n))
        return r, base, mode

    # -- interval measure -------------------------------------------------
    def mu_interval(self, alpha: float, beta: float,
                    method: str | None = None) -> float:
        """(1/2piB) Lebesgue area of {x : alpha B^-rho <= transform <= beta B^-rho}."""
        if alpha >= beta:
            raise ValueError("alpha must be < beta")
        if alpha <= 0.0 <= beta:
            raise ValueError("the interval must exclude 0")
        method = method or self.method
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        amp = self.model.amplitude
        if amp == 0.0:
            return 0.0
        if amp < 0.0:
            flipped = replace(self, model=replace(self.model, amplitude=-amp))
            return flipped.mu_interval(-beta, -alpha, method)
        # amplitude > 0: the transform is positive, negative intervals are empty
        if beta < 0.0:
            return 0.0
        t_lo = alpha * self.B ** (-self.rho)
        t_hi = beta * self.B ** (-self.rho)
        if t_lo > self.envelope_peak():
            return 0.0
        if method == "radial-inversion":
            return self._mu_radial_inversion(t_lo, t_hi)
        if method == "grid-2d":
            return self._mu_grid(t_lo, t_hi)
        return self._mu_monte_carlo(t_lo, t_hi)

    def _decreasing_branch(self):
        """(r_peak, profile function) with a verified decreasing tail."""
        if self.model.kind != "isotropic-long-range":
            raise MethodError(
                "radial-inversion applies to the isotropic model; use grid-2d")
        rs = np.linspace(0.0, 3.0, 601)
        prof = self.model.amplitude * self.base_profile(rs)
        i_peak = int(np.argmax(prof))
        r_peak = rs[i_peak]
        check = self.model.amplitude * self.base_profile(np.linspace(r_peak, 50.0, 400))
        if np.any(np.diff(check) >= 0.0):
            raise MethodError(
                "profile not monotone beyond its peak; use grid-2d")
        return r_peak, prof[: i_peak + 1]

    def _mu_radial_inversion(self, t_lo: float, t_hi: float) -> float:
        r_peak, inner = self._decreasing_branch()
        if t_hi >= float(np.min(inner)):
            raise MethodError(
                "interval reaches the non-monotone inner region; use grid-2d")

        def invert(t: float) -> float:
            # unique root of amplitude*m0(r) = t on the decreasing branch
            lo, hi = r_peak, 2.0
            while self.model.amplitude * float(self.base_profile(hi)) > t:
                hi *= 2.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if self.model.amplitude * float(self.base_profile(mid)) > t:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        r_lo = invert(t_lo)  # outer radius (lower level)
        r_hi = invert(t_hi)  # inner radius (upper level)
        return max(r_lo * r_lo - r_hi * r_hi, 0.0) / (2.0 * self.B)

    def _grid(self, r_out: float, nr: int = 4000, ntheta: int | None = None):
        if ntheta is None:
            ntheta = 720 if self.model.kind == "anisotropic-long-range" else 1
        dr = r_out / nr
        rc = (np.arange(nr) + 0.5) * dr
        base = self.model.amplitude * self.base_profile(rc)
        if self.model.kind == "anisotropic-long-range":
            dth = 2.0 * math.pi / ntheta
            thc = (np.arange(ntheta) + 0.5) * dth
            mode = self.model.amplitude * self.model.epsilon * self.mode_profile(rc)
            vals = base[:, None] + mode[:, None] * np.cos(self.model.mode * thc)[None, :]
            area_row = rc * dr * dth
            return vals, area_row
        return base[:, None], (rc * dr * 2.0 * math.pi)

    def _mu_grid(self, t_lo: float, t_hi: float) -> float:
        r_out = self._envelope_radius(t_lo)
        vals, area_row = self._grid(r_out)
        inside = (vals >= t_lo) & (vals <= t_hi)
        return float(np.sum(inside * area_row[:, None])) / (2.0 * math.pi * self.B)

    def _mc_points(self, r_out: float):
        rng = np.random.Generator(np.random.Philox(self.seed))
        u = rng.random(self.samples)
        th = 2.0 * math.pi * rng.random(self.samples)
        return r_out * np.sqrt(u), th

    def _interp_transform(self, r, th, tables):
        rt, base, mode = tables
        vals = np.interp(r, rt, base)
        if self.model.kind == "anisotropic-long-range":
            vals = vals + (self.model.epsilon * np.cos(self.model.mode * th)
                           * np.interp(r, rt, mode))
        return self.model.amplitude * vals

    def _mu_monte_carlo(self, t_lo: float, t_hi: float) -> float:
        r_out = self._envelope_radius(t_lo)
        r, th = self._mc_points(r_out)
        vals = self._interp_transform(r, th, self._tables(r_out))
        frac = float(np.mean((vals >= t_lo) & (vals <= t_hi)))
        return frac * math.pi * r_out * r_out / (2.0 * math.pi * self.B)

    # -- density integral -------------------------------------------------
    def density_integral(self, phi: TestFunction, method: str = "radial") -> float:
        """(1/2piB) int phi(B^rho tail_transform(x)) dx."""
        if phi.support_abs_low <= 0.0:
            raise ValueError("the support of phi must exclude 0")
        if self.model.amplitude == 0.0:
            return 0.0
        level = phi.support_abs_low * self.B ** (-self.rho)
        if level > self.envelope_peak():
            return 0.0
        r_hi = self._envelope_radius(level) * 1.02
        scale = self.B ** self.rho
        if method == "radial":
            x, w = legendre_rule(12)
            n_pan = 96
            edges = np.linspace(0.0, r_hi, n_pan + 1)
            rr = (0.5 * np.diff(edges)[:, None] * (x[None, :] + 1.0)
                  + edges[:-1, None]).ravel()
            wr = (0.5 * np.diff(edges)[:, None] * w[None, :]).ravel()
            base = self.model.amplitude * self.base_profile(rr)
            if self.model.kind == "anisotropic-long-range":
                mode = self.model.amplitude * self.model.epsilon * self.mode_profile(rr)
                xt, wt = legendre_rule(48)
                psi = math.pi * (xt + 1.0) * 0.5  # half period, integrand even in psi
                vals = base[:, None] + mode[:, None] * np.cos(psi)[None, :]
                angular = phi(scale * vals) @ (wt * 0.5)  # mean over the circle
            else:
                angular = phi(scale * base)
            return float(np.dot(wr, angular * rr)) / self.B
        if method == "grid-2d":
            vals, area_row = self._grid(r_hi)
            return float(np.sum(phi(scale * vals) * area_row[:, None])) / (2.0 * math.pi * self.B)
        if method == "monte-carlo":
            r, th = self._mc_points(r_hi)
            vals = self._interp_transform(r, th, self._tables(r_hi))
            return (float(np.mean(phi(scale * vals)))
                    * math.pi * r_hi * r_hi / (2.0 * math.pi * self.B))
        raise ValueError(f"unknown method {method!r}")


def mu_interval(lim: LimitingMeasure, alpha: float, beta: float,
                method: str | None = None) -> float:
    return lim.mu_interval(alpha, beta, method)


def limiting_density_integral(lim: LimitingMeasure, phi: TestFunction,
                              method: str = "radial") -> float:
    return lim.density_integral(phi, method)


def schatten_norm(spec, ell: float | None = None, *, weak: bool = False) -> float:
    """(sum |e_j|^ell)^(1/ell), or the weak quasinorm sup_j j^(1/ell) |e|_(j)."""
    values = np.abs(_values_of(spec))
    if ell is None or ell < 1.0:
        raise ValueError("ell must be >= 1")
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


def level_spectrum(model: PotentialModel, B: float, q: int, delta: float,
                   rho: float):
    """Sorted spectrum of the level-q block truncated where entries drop
    below `delta` (exponent `rho`).

    Returns (values, k_max, tail bound, eigen residual bound, block summary
    dict); radial models skip the matrix and have residual 0.
    """
    k_max = truncation_bound(model, B, q, delta, rho_scale=rho)
    cfg = LandauConfig(B=B, q=q, k_max=k_max)
    if model.kind == "anisotropic-long-range":
        block = toeplitz_matrix(model, cfg)
        spec = sym_eig(block.entries)
        return (spec.values, k_max, block.truncation_tail_bound,
                spec.residual_bound, block.summary())
    values = np.sort(radial_diagonal(model, cfg))
    tail = _row_bound(model, B, q, k_max + 1)
    return values, k_max, tail, 0.0, _block_summary(q, B, k_max, 0, values, tail)


def _study_row(model, B, rho, phi, delta, q, rhs) -> ConvergenceRow:
    lam = landau_level(B, q)
    values, k_max, tail, _, _ = level_spectrum(model, B, q, delta, rho)
    lhs = trace_functional(values, lam, rho, phi, tail_bound=tail) / lam
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-12)
    return ConvergenceRow(q=q, lambda_q=lam, k_max=k_max, lhs=lhs, rhs=rhs,
                          relative_gap=gap)


def convergence_study(model: PotentialModel, B: float, rho: float,
                      phi: TestFunction, q_list, delta: float, *,
                      jobs: int = 1, rhs_method: str = "radial") -> list[ConvergenceRow]:
    """One row per level: lhs = lambda_q^-1 tr phi(lambda_q^(rho/2) T_q)
    against the constant limiting-side integral."""
    q_list = list(q_list)
    if not q_list or any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be nonempty and strictly ascending")
    if delta >= phi.support_abs_low:
        raise ValueError("delta must stay below the support edge of phi")
    if model.long_range and abs(rho - model.rho) > 1e-12:
        raise ValueError("rho must match the model's decay order")
    if model.long_range and model.amplitude != 0.0:
        rhs = LimitingMeasure(model, B).density_integral(phi, method=rhs_method)
    else:
        rhs = 0.0
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_study_row, model, B, rho, phi, delta, q, rhs)
                       for q in q_list]
            return [f.result() for f in futures]
    return [_study_row(model, B, rho, phi, delta, q, rhs) for q in q_list]


def rows_to_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("q,lambda_q,k_max,lhs,rhs,rel_gap\n")
        for r in rows:
            fh.write(f"{r.q},{r.lambda_q:.17g},{r.k_max},{r.lhs:.17g},"
                     f"{r.rhs:.17g},{r.relative_gap:.17g}\n")
