"""Weyl-symbol side: rescaled potentials, the Laguerre kernel, circle symbols.

The level-q compression of a potential V is unitarily equivalent to the Weyl
quantization of V_B * Psi_q, where V_B is the swap-negate-rescale of V and

    Psi_q(x, xi) = ((-1)^q / pi) L_q(2(x^2+xi^2)) e^{-(x^2+xi^2)}

is (1/2pi times) the Weyl symbol of the q-th oscillator projection.  For
large q that smoothing kernel concentrates on the circle of radius
sqrt(2q+1), so V_B * Psi_q approaches the plain circle average
V_B * delta_{sqrt(2q+1)}; this module computes both symbols, their
Hilbert-Schmidt distance (physical side, with a Fourier-side cross check),
and the homogeneity identity that drives the semiclassical limit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._io import write_csv
from .errors import AccuracyError, MethodError
from .potentials import (PotentialModel, TailField, circle_average, mean_value_transform,
                         power_cos_average)
from .specfun import BLOCK_POINTS, bessel_j0, laguerre_weighted, panel_rule
from .landau import landau_level

__all__ = [
    "RadialSymbolProfile",
    "v_B",
    "psi_q",
    "circle_convolution",
    "laguerre_smoothing",
    "hs_distance",
    "hs_distance_fourier",
    "i_rho",
    "scaled_symbol_identity",
    "smoothed_symbol_profile",
    "circle_symbol_profile",
]


def _swap_negate(z):
    return (-float(z[1]), -float(z[0]))


def v_B(model: PotentialModel, B: float, x) -> float:
    """V_B(x) = V(-x2/sqrt(B), -x1/sqrt(B))."""
    if not (math.isfinite(B) and B > 0):
        raise ValueError("B must be finite and positive")
    s = 1.0 / math.sqrt(B)
    return float(model.value(-s * x[1], -s * x[0]))


def psi_q(q: int, x, xi):
    """The Laguerre smoothing kernel Psi_q(x, xi), stable at any order."""
    landau_level(1.0, q)  # the one check of the level index
    t = 2.0 * (np.square(np.asarray(x, dtype=float)) + np.square(np.asarray(xi, dtype=float)))
    sign = -1.0 if q % 2 else 1.0
    return sign / math.pi * laguerre_weighted(q, t)


def circle_convolution(f, k: float, z) -> float:
    """(f * delta_k)(z): the average of f over the circle of radius k at z."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"k must be positive and finite, got {k!r}")
    return circle_average(f, z, k)


def _psi_q_radial_rule(q: int):
    """Quadrature in the kernel radius t for int 2 t |Psi_q|-type integrals.

    Nodes cover the support of L_q(2t^2) e^{-t^2} up to where the envelope
    bound xi^q e^{-xi/2} / q! falls below 1e-15 (the kernel is not squared,
    so the decay is plain e^{-xi/2} and needs more room than the classical
    window); oscillations in t are uniform so one Gauss-Legendre rule works.
    """
    hi = 4.0 * q + 2.0 + 40.0
    lgq = math.lgamma(q + 1.0)
    while q * math.log(hi) - lgq - 0.5 * hi > -34.0:
        hi += 10.0
    t_max = math.sqrt(0.5 * float(hi))
    M = 64 + int(math.ceil(4.0 * math.sqrt(8.0 * q + 4.0) * t_max / math.pi))
    t, wt = panel_rule([0.0, t_max], M)
    sign = -1.0 if q % 2 else 1.0
    kern = 2.0 * t * sign * laguerre_weighted(q, 2.0 * t * t)
    return t, wt, kern


def laguerre_smoothing(model: PotentialModel, B: float, q: int, z) -> float:
    """(V_B * Psi_q)(z) by polar quadrature centered at z.

    The circle average of V_B at radius t equals the circle average of V
    centered at the swap-negate image of z, radius t/sqrt(B), so the smooth
    circle-average engine applies directly.  Cost grows with q; the contract
    caps q at 64.
    """
    if not 0 <= q <= 64:
        raise ValueError(f"q must lie in [0, 64] for laguerre_smoothing, got {q!r}")
    landau_level(B, q)
    t, wt, kern = _psi_q_radial_rule(q)
    cx, cy = _swap_negate(z)
    cx /= math.sqrt(B)
    cy /= math.sqrt(B)
    avgs = np.array([circle_average(model, (cx, cy), ti / math.sqrt(B)) for ti in t])
    return float(np.dot(wt, kern * avgs))


def i_rho(k: float, rho: float) -> float:
    """I_rho(k) = int_0^1 (k^2 t^2 + 1)^(-rho/2) dt.

    Geometric panels from the bend scale 1/k; the rho = 2 case has the
    closed form arctan(k)/k used as a test oracle.
    """
    if not (math.isfinite(k) and k >= 0):
        raise ValueError(f"k must be finite and >= 0, got {k!r}")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    if k == 0.0:
        return 1.0
    edges = [0.0, min(1.0 / k, 1.0)]
    while edges[-1] < 1.0:
        edges.append(min(2.0 * edges[-1], 1.0))
    t, w = panel_rule(edges, 32)
    # hypot(k t, 1)^-rho: k * k would overflow for k above about 1e154
    return float(np.dot(w, np.hypot(k * t, 1.0) ** -rho))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distance between the smoothed and circle symbols
# ---------------------------------------------------------------------------

_HS_MAX_Q = 32
_HS_TAIL_FRACTION = 0.10
_HS_TAIL_TARGET = 1e-7


def hs_distance(model: PotentialModel, B: float, q: int, *, detail: bool = False):
    """Hilbert-Schmidt distance ((1/2pi) int |V_B*Psi_q - V_B*delta_k|^2 dz)^(1/2),
    k = sqrt(2q+1), for a radial long-range model (fast radial reduction).

    The plane integral reduces to int_0^inf D(s)^2 s ds with D the radial
    difference profile, whose circle averages are power-cosine averages
    (several 16-node panels per `power_cos_average` call); panels extend
    outward until the fitted tail bound |D| <~ c s^(-rho-2) contributes
    below 1e-7 of the accumulated integral.
    The truncation radius and tail estimate are recorded; a tail above 10%
    of the result raises AccuracyError.  `tail_estimate` is that fitted
    bound, c = max|D| s^(rho+2) on the last panel, rather than an estimate
    of the dropped tail: at q = 1 it is about 3 times that tail, so
    `relative_tail` overstates the error about threefold.
    """
    if not (model.long_range and model.radial):
        raise MethodError("hs_distance implements the radial long-range fast path only")
    if not 0 <= q <= _HS_MAX_Q:
        raise ValueError(f"q must lie in [0, {_HS_MAX_Q}] for hs_distance, got {q!r}")
    landau_level(B, q)
    rho = model.rho
    k = math.sqrt(2.0 * q + 1.0)
    t, wt, kern = _psi_q_radial_rule(q)
    tt = np.append(t, k)  # the kernel radii, then the circle radius k
    h = 0.5

    def panels():
        """(nodes, weights, D) of the 16-node panels [s, s + h], s = 0, h,
        2h, ...: a batch of panels per power_cos_average call, at most
        BLOCK_POINTS // 4 points, then D one panel at a time, so its matrix
        product has the shape, and the bits, of a panel alone."""
        batch = max(BLOCK_POINTS // 4 // (16 * tt.size), 1)
        for edge in itertools.count(0.0, batch * h):
            s_nodes, ws = panel_rule(edge + h * np.arange(batch + 1), 16)
            s = s_nodes[:, None]
            avg = power_cos_average(1.0 + (s * s + tt * tt) / B, 2.0 * s * tt / B, rho,
                                    gap=1.0 + (s - tt) ** 2 / B)
            for i in range(0, s_nodes.size, 16):
                a = avg[i:i + 16]
                yield s_nodes[i:i + 16], ws[i:i + 16], (kern * a[:, :-1]) @ wt - a[:, -1]

    total = 0.0
    tail_est = math.inf
    s_edge = 0.0
    for s_nodes, ws, D in panels():
        total += float(np.dot(ws, D * D * s_nodes))
        max_abs_last = float(np.max(np.abs(D)))
        s_edge += h
        if s_edge > max(3.0 * k, 10.0):
            c_fit = max_abs_last * s_edge ** (rho + 2.0)
            tail_est = c_fit ** 2 * s_edge ** (-2.0 * rho - 2.0) / (2.0 * rho + 2.0)
            if tail_est <= _HS_TAIL_TARGET * total:
                break
        if s_edge > 400.0 * (1.0 + k):
            break
    value = abs(model.amplitude) * math.sqrt(total)
    rel_tail = tail_est / max(total, 1e-300)
    if rel_tail > _HS_TAIL_FRACTION:
        raise AccuracyError(
            f"hs_distance tail estimate {rel_tail:.2e} exceeds 10% of the result")
    if detail:
        return value, {"s_max": s_edge, "tail_estimate": abs(model.amplitude) ** 2 * tail_est,
                       "relative_tail": rel_tail}
    return value


def _fourier_transform_radial(model: PotentialModel, zeta: np.ndarray) -> np.ndarray:
    """2D radial Fourier transform (2pi)^(-1) int e^(-i x.z) V dx of (1+r^2)^(-rho/2),
    summed row by row, in blocks of BLOCK_POINTS terms, on the model's Gaussian mixture:
    e^(-s r^2) goes to e^(-zeta^2/(4 s)) / (2 s).  The mixture spans s in [1e-16, 50], so
    this needs zeta^2 >> 4e-16; it is within 1e-12 relative up to zeta = 30, 1e-8 at 45."""
    s, c = model.gaussian_mixture()
    c = c / (2.0 * s)
    z2 = np.square(np.asarray(zeta, dtype=float))
    out, step = np.empty(z2.shape), BLOCK_POINTS // s.size
    for i in range(0, z2.size, step):
        out[i:i + step] = (np.exp(-z2[i:i + step, None] / (4.0 * s)) * c).sum(axis=1)
    return out


def hs_distance_fourier(model: PotentialModel, B: float, q: int) -> float:
    """Fourier-side evaluation of the same Hilbert-Schmidt distance:

    hs^2 = int_0^inf (L_q(z^2/2) e^{-z^2/4} - J_0(k z))^2 |vhat_B(z)|^2 z dz,

    with vhat_B the radial transform of the rescaled potential.  Serves as
    the independent cross check of :func:`hs_distance` at small q.
    """
    if not (model.long_range and model.radial):
        raise MethodError("hs_distance_fourier implements radial long-range models only")
    landau_level(B, q)
    k = math.sqrt(2.0 * q + 1.0)
    zeta_max = 45.0 / math.sqrt(B)
    h = min(math.pi / (2.0 * k), 0.25)
    z, wz = panel_rule(np.arange(0.0, zeta_max + h, h), 12)
    G = laguerre_weighted(q, 0.5 * z * z) - bessel_j0(k * z)
    vhat_b = B * _fourier_transform_radial(model, math.sqrt(B) * z)
    return abs(model.amplitude) * math.sqrt(float(np.dot(wz, G * G * vhat_b * vhat_b * z)))


def scaled_symbol_identity(model: PotentialModel, B: float, q: int, z):
    """Both sides of the homogeneity identity for the circle symbol.

    lhs = lambda_q^(rho/2) (tail_B * delta_{sqrt(2q+1)})(z);
    rhs = B^rho * (mean-value transform of the tail)(J z / sqrt(2q+1)),
    J the swap-negate map.  The contract is lhs == rhs up to quadrature
    tolerance; both sides are computed through different code paths.
    """
    if not model.long_range:
        raise ValueError("the identity concerns homogeneous tails of long-range models")
    rho = model.rho
    lam = landau_level(B, q)
    k = math.sqrt(2.0 * q + 1.0)
    lhs = lam ** (rho / 2.0) * circle_convolution(TailField(model, b_rescale=B), k, z)
    jx, jy = _swap_negate(z)
    rhs = B ** rho * mean_value_transform(model.tail_field(), (jx / k, jy / k))
    return lhs, rhs


# ---------------------------------------------------------------------------
# exportable radial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialSymbolProfile:
    """Radial samples of a rotation-invariant symbol."""

    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    meta: dict

    def __post_init__(self):
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly ascending")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

    def to_csv(self, path) -> None:
        write_csv(path, "r,value", zip(self.radii, self.values))


def smoothed_symbol_profile(model: PotentialModel, B: float, q: int,
                            radii) -> RadialSymbolProfile:
    radii = np.asarray(radii, dtype=float)
    vals = np.array([laguerre_smoothing(model, B, q, (r, 0.0)) for r in radii])
    return RadialSymbolProfile(radii, vals, {"q": q, "B": B, "kind": "smoothed"})


def circle_symbol_profile(model: PotentialModel, B: float, q: int,
                          radii) -> RadialSymbolProfile:
    """(V_B * delta_{sqrt(2q+1)}) along a ray, via the isometry composition:
    the circle average of V_B at (z, k) equals the circle average of V
    centered at J z / sqrt(B) with radius k / sqrt(B)."""
    landau_level(B, q)
    k = math.sqrt(2.0 * q + 1.0)
    sb = math.sqrt(B)
    radii = np.asarray(radii, dtype=float)
    vals = np.array([circle_average(model, (0.0, -r / sb), k / sb) for r in radii])
    return RadialSymbolProfile(radii, vals, {"q": q, "B": B, "kind": "circle"})
