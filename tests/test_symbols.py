import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from lcl.errors import MethodError
from lcl.potentials import (PotentialModel, mean_value_radial_profile, mean_value_transform,
                            power_cos_average)
from lcl.specfun import laguerre, legendre_rule, panel_rule
from lcl.symbols import (RadialSymbolProfile, _fourier_transform_radial, _psi_q_radial_rule,
                         circle_convolution,
                         circle_symbol_profile, hs_distance, hs_distance_fourier,
                         i_rho, laguerre_smoothing, psi_q, scaled_symbol_identity,
                         smoothed_symbol_profile, v_B)

ISO = PotentialModel.isotropic(0.5)
ANISO = PotentialModel.anisotropic(0.5, 0.3, 2)


def test_v_b_radial_rescaling():
    # radial model: V_B(x) = V(|x|/sqrt(B))
    got = v_B(ISO, 4.0, (2.0, 0.0))
    assert abs(got - (1.0 + 1.0) ** -0.25) < 1e-15


def test_v_b_swap_negate():
    for x in ((0.3, -1.2), (2.0, 0.7)):
        got = v_B(ANISO, 1.0, x)
        ref = float(ANISO.value(-x[1], -x[0]))
        assert got == ref


def test_v_b_involution():
    # the argument map (x1, x2) -> (-x2, -x1) composed with itself is identity
    x = (0.8, -0.45)
    once = (-x[1], -x[0])
    twice = (-once[1], -once[0])
    assert twice == x
    assert v_B(ANISO, 1.0, once) == float(ANISO.value(*x))


def test_psi_q_at_origin():
    assert abs(psi_q(0, 0.0, 0.0) - 1.0 / math.pi) < 1e-16
    for q in (1, 2, 7):
        assert abs(psi_q(q, 0.0, 0.0) - (-1.0) ** q / math.pi) < 1e-15


@pytest.mark.parametrize("q", [0, 1, 5])
def test_psi_q_unit_mass(q):
    # radial quadrature of 2 pi Psi_q t dt; oracle: int_0^inf L_q(2u) e^-u du = (-1)^q
    x, w = legendre_rule(400)
    hi = 4.0 * q + 90.0
    u = 0.5 * hi * (x + 1.0)
    wu = 0.5 * hi * w
    oracle = float(np.dot(wu, laguerre(q, 2.0 * u) * np.exp(-u)))
    assert abs(oracle - (-1.0) ** q) < 1e-10
    t = np.sqrt(u)
    mass = float(np.dot(wu, math.pi * psi_q(q, t, 0.0)))  # du = 2 t dt
    assert abs(mass - 1.0) < 1e-8


def test_circle_convolution_constant():
    f = lambda x, y: np.ones_like(np.asarray(x))
    assert abs(circle_convolution(f, 2.5, (0.4, 1.1)) - 1.0) < 1e-12


def test_circle_convolution_radius_one_is_mean_value():
    tail = ISO.tail_field()
    for x in ((3.0, 0.0), (0.2, 0.4)):
        got = circle_convolution(tail, 1.0, x)
        ref = mean_value_transform(tail, x)
        assert abs(got - ref) < 1e-12


def test_circle_convolution_preserves_radial_symmetry():
    tail = ISO.tail_field()
    vals = [circle_convolution(tail, 2.0, (5.0 * math.cos(a), 5.0 * math.sin(a)))
            for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    assert max(vals) - min(vals) < 1e-12


def test_circle_convolution_homogeneity_scaling():
    # (tail * delta_k)(z) = k^-rho m(|z|/k)
    tail = ISO.tail_field()
    for (k, s) in ((3.0, 7.5), (10.0, 2.0)):
        z = (s * math.cos(0.3), s * math.sin(0.3))
        got = circle_convolution(tail, k, z)
        ref = k ** -0.5 * mean_value_radial_profile(0.5, s / k)
        assert abs(got - ref) < 1e-8


def test_laguerre_smoothing_constant_is_one():
    wide = PotentialModel.gaussian_bump(1.0, 1e7)
    for q in (0, 1, 5):
        assert abs(laguerre_smoothing(wide, 1.0, q, (0.7, -0.3)) - 1.0) < 1e-8


def test_laguerre_smoothing_gaussian_closed_form():
    # Psi_0 is the normalized Gaussian e^{-|y|^2}/pi; convolving two radial
    # Gaussians has the closed form (s2/(s2+1/2)) exp(-|z|^2/(2(s2+1/2)))
    g = PotentialModel.gaussian_bump(1.0, 1.0)
    for B in (1.0, 2.0):
        s2 = B  # V_B has squared width w^2 B
        for z in ((0.0, 0.0), (1.3, 0.4)):
            got = laguerre_smoothing(g, B, 0, z)
            r2 = z[0] ** 2 + z[1] ** 2
            ref = (s2 / (s2 + 0.5)) * math.exp(-r2 / (2.0 * (s2 + 0.5)))
            assert abs(got - ref) < 1e-7


def test_laguerre_smoothing_radial_symmetry():
    vals = [laguerre_smoothing(ISO, 1.0, 3, (2.0 * math.cos(a), 2.0 * math.sin(a)))
            for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    assert max(vals) - min(vals) < 1e-9


def test_laguerre_smoothing_order_cap():
    # no order cap past the level check: q = 65 and 128, beyond the old
    # q <= 64 limit, are solved and keep the constant-is-one identity
    wide = PotentialModel.gaussian_bump(1.0, 1e7)
    for q in (65, 128):
        assert abs(laguerre_smoothing(wide, 1.0, q, (0.7, -0.3)) - 1.0) < 1e-8


def test_hs_distance_zero_potential():
    zero = PotentialModel.isotropic(0.5, amplitude=0.0)
    assert hs_distance(zero, 1.0, 4) == 0.0


def test_hs_distance_records_truncation():
    val, meta = hs_distance(ISO, 1.0, 2, detail=True)
    assert val > 0.0
    assert meta["s_max"] > 0.0
    assert meta["relative_tail"] < 0.10


def test_hs_distance_requires_isotropic():
    with pytest.raises(MethodError):
        hs_distance(ANISO, 1.0, 2)


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
def test_hs_distance_sides_agree_at_q128(rho):
    # the tolerance comes from the physical side's q = 1 gaps to the Bessel
    # oracle (1.39e-8 to 1.55e-8), not from a run at this depth
    model = PotentialModel.isotropic(rho)
    fourier = hs_distance_fourier(model, 1.0, 128)
    assert abs(hs_distance(model, 1.0, 128) / fourier - 1.0) <= 5e-8


@pytest.mark.parametrize("B", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda B: v_B(ISO, B, (1.0, 0.0)),
    lambda B: laguerre_smoothing(ISO, B, 2, (0.0, 0.0)),
    lambda B: hs_distance(ISO, B, 2),
    lambda B: hs_distance_fourier(ISO, B, 2),
    lambda B: circle_symbol_profile(ISO, B, 2, [1.0]),
], ids=["v_B", "laguerre_smoothing", "hs_distance", "hs_distance_fourier",
        "circle_symbol_profile"])
def test_field_strength_must_be_finite_and_positive(call, B):
    # hs_distance_fourier and circle_symbol_profile used to fail inside
    # arange or math.sqrt
    with pytest.raises(ValueError, match="B must be finite and positive"):
        call(B)


_LEVEL_CALLS = [
    lambda q: laguerre_smoothing(ISO, 1.0, q, (0.0, 0.0)),
    lambda q: hs_distance(ISO, 1.0, q),
    lambda q: hs_distance_fourier(ISO, 1.0, q),
    lambda q: circle_symbol_profile(ISO, 1.0, q, [1.0]),
]
_LEVEL_IDS = ["laguerre_smoothing", "hs_distance", "hs_distance_fourier",
              "circle_symbol_profile"]


def _psi_q_call(q):
    return psi_q(q, 0.5, 0.5)


@pytest.mark.parametrize("call", [_psi_q_call, *_LEVEL_CALLS], ids=["psi_q", *_LEVEL_IDS])
def test_negative_level_names_q(call):
    # all but psi_q used to fail with a math domain error
    with pytest.raises(ValueError, match="^q must"):
        call(-1)


@pytest.mark.parametrize("q", [True, 2.5, "3"], ids=["bool", "fraction", "string"])
@pytest.mark.parametrize("call", [_psi_q_call, *_LEVEL_CALLS], ids=["psi_q", *_LEVEL_IDS])
def test_level_index_must_be_an_integer(call, q):
    with pytest.raises(ValueError, match="^q must be an integer >= 0"):
        call(q)


# hs_distance(ISO, 1.0, q) as the angle-rule quadrature of the circle
# averages computed it, before they became a hypergeometric series
HS_DISTANCE_PINNED = {1: 0.00453905861746269, 4: 0.00198947788102898,
                      8: 0.00124416475062109, 16: 0.000760149430649094,
                      32: 0.000458236344596083}


@pytest.mark.parametrize("q", sorted(HS_DISTANCE_PINNED))
def test_hs_distance_pinned_values(q):
    want = HS_DISTANCE_PINNED[q]
    assert abs(hs_distance(ISO, 1.0, q) - want) <= 1e-11 * want


def _hs_oracle(rho: float, q: int) -> float:
    # hs^2 = int_0^inf (L_q(z^2/2) e^(-z^2/4) - J_0(kz))^2 vhat(z)^2 z dz, with
    # vhat = 2^(1-nu) z^(nu-1) K_(1-nu)(z) / Gamma(nu), nu = rho/2: no Gaussian
    # mixture; vhat^2 < e^-80 beyond z = 40
    with mp.workdps(18):
        nu, k = mp.mpf(rho) / 2, mp.sqrt(2 * q + 1)
        scale = 2 ** (1 - nu) / mp.gamma(nu)

        def integrand(z):
            g = mp.laguerre(q, 0, z * z / 2) * mp.exp(-z * z / 4) - mp.besselj(0, k * z)
            vhat = scale * z ** (nu - 1) * mp.besselk(1 - nu, z)
            return g * g * vhat * vhat * z

        return float(mp.sqrt(mp.quad(integrand, mp.linspace(0, 40, 21))))


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_hs_distance_both_sides_against_the_bessel_oracle(rho):
    # the Fourier side read within 3.9e-14; the physical side low by 1.39e-8
    # (rho = 0.5) and 1.55e-8 (0.9), the tail its 1e-7 target on hs^2 drops
    model = PotentialModel.isotropic(rho)
    want = _hs_oracle(rho, 1)
    assert abs(hs_distance_fourier(model, 1.0, 1) / want - 1.0) <= 1e-12
    assert 0.0 <= 1.0 - hs_distance(model, 1.0, 1) / want <= 5e-8


def _hs_distance_panel_by_panel(model, B, q):
    # hs_distance with one power_cos_average call per 16-node panel, each
    # panel's D summed before the next is made: (value, s_max, tail estimate)
    rho, k = model.rho, math.sqrt(2.0 * q + 1.0)
    t, wt, kern = _psi_q_radial_rule(q)
    tt = np.append(t, k)
    total, tail_est, s_edge, h = 0.0, math.inf, 0.0, 0.5
    while True:
        s_nodes, ws = panel_rule([s_edge, s_edge + h], 16)
        s = s_nodes[:, None]
        avg = power_cos_average(1.0 + (s * s + tt * tt) / B, 2.0 * s * tt / B, rho,
                                gap=1.0 + (s - tt) ** 2 / B)
        D = (kern * avg[:, :-1]) @ wt - avg[:, -1]
        total += float(np.dot(ws, D * D * s_nodes))
        s_edge += h
        if s_edge > max(3.0 * k, 10.0):
            c_fit = float(np.max(np.abs(D))) * s_edge ** (rho + 2.0)
            tail_est = c_fit ** 2 * s_edge ** (-2.0 * rho - 2.0) / (2.0 * rho + 2.0)
            if tail_est <= 1e-7 * total:
                break
        if s_edge > 400.0 * (1.0 + k):
            break
    return abs(model.amplitude) * math.sqrt(total), s_edge, model.amplitude ** 2 * tail_est


@pytest.mark.parametrize("q", [1, 4, 32])
def test_hs_distance_batches_keep_the_panel_by_panel_bits(q):
    # several panels share a power_cos_average call; the walk over them must
    # stop at the same panel with the same sums
    value, meta = hs_distance(ISO, 1.0, q, detail=True)
    assert (value, meta["s_max"], meta["tail_estimate"]) == _hs_distance_panel_by_panel(ISO, 1.0, q)


def test_hs_distance_stays_in_bounded_memory():
    # at most BLOCK_POINTS // 4 points per power_cos_average call: q = 32 read
    # 1.5 MB warm, 0.5 MB with one panel per call, 6.4 MB with BLOCK_POINTS
    hs_distance(ISO, 1.0, 32)
    tracemalloc.start()
    try:
        hs_distance(ISO, 1.0, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak


def test_hs_distance_amplitude_linearity():
    scaled = PotentialModel.isotropic(0.5, amplitude=-2.0)
    a = hs_distance(scaled, 1.0, 2)
    b = hs_distance(ISO, 1.0, 2)
    assert abs(a - 2.0 * b) < 1e-12


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_fourier_transform_against_the_bessel_closed_form(rho):
    # (2pi)^-1 int e^(-i x.z) (1+|x|^2)^(-nu) dx = 2^(1-nu) zeta^(nu-1) K_(1-nu)(zeta) / Gamma(nu)
    nu = mp.mpf(rho) / 2
    zeta = np.geomspace(1e-4, 30.0, 41)
    got = _fourier_transform_radial(PotentialModel.isotropic(rho), zeta)
    for z, g in zip(zeta, got):
        want = 2 ** (1 - nu) / mp.gamma(nu) * mp.mpf(z) ** (nu - 1) * mp.besselk(1 - nu, z)
        assert abs(g / float(want) - 1.0) <= 1e-12, z


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_fourier_transform_does_not_depend_on_its_batch(rho):
    # 1,000 values span several row blocks; 40 once read +2.3% alone and
    # -1.3% beside 1e-3
    model = PotentialModel.isotropic(rho)
    zeta = np.concatenate([[40.0, 1e-3], np.geomspace(1e-4, 45.0, 998)])
    batch = _fourier_transform_radial(model, zeta)
    alone = [_fourier_transform_radial(model, np.array([z]))[0] for z in zeta[::37]]
    assert batch[::37].tolist() == alone


def test_fourier_distance_stays_in_bounded_memory():
    # the transform and J_0 are summed in row blocks; the transform's whole
    # zeta x node matrix once made this call's peak 14.5 MB, and J_0's rows x
    # nodes matrix per node count 2.7 MiB warm (now 1.24 MiB)
    hs_distance_fourier(ISO, 1.0, 1)
    tracemalloc.start()
    try:
        hs_distance_fourier(ISO, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20, peak


def test_i_rho_at_zero_k():
    for rho in (0.3, 0.5, 2.0):
        assert i_rho(0.0, rho) == 1.0


def test_i_rho_arctan_closed_form():
    for k in (0.5, 5.0, 300.0):
        assert abs(i_rho(k, 2.0) - math.atan(k) / k) < 1e-12


def test_i_rho_keeps_its_limit_where_k_squared_overflows():
    # k^rho I_rho(k) -> 1 / (1 - rho) = 2, up to O(k^(rho - 1))
    for k in (1e100, 1e160, 1e300):
        assert abs(k ** 0.5 * i_rho(k, 0.5) - 2.0) <= 1e-12 * 2.0


def test_i_rho_hypergeometric_oracle():
    # I_rho(k) = 2F1(1/2, rho/2; 3/2; -k^2); and, from mpmath alone, the
    # Gamma form of D_rho = int_0^inf [(1+u^2)^(-rho/2) - u^-rho] du that
    # criterion 07's first-order reference uses
    with mp.workdps(30):
        for rho in (0.3, 0.5, 0.7):
            r = mp.mpf(rho)
            d_rho = mp.sqrt(mp.pi) * mp.gamma((r - 1) / 2) / (2 * mp.gamma(r / 2))
            d_quad = mp.quad(lambda u: (1 + u * u) ** (-r / 2) - u ** -r,
                             [0, 1, 10, mp.inf])
            assert abs(d_quad - d_rho) <= 1e-9 * abs(d_rho)
            for k in (1e2, 1e4, 1e6):
                exact = mp.hyp2f1(0.5, r / 2, 1.5, -mp.mpf(k) ** 2)
                assert abs(i_rho(k, rho) - exact) <= 1e-12 * exact


def test_scaled_symbol_identity_isotropic_profile_oracle():
    # both sides must equal m(3) for |z| = 3 sqrt(2q+1), B = 1
    for q in (0, 2, 8):
        k = math.sqrt(2.0 * q + 1.0)
        z = (3.0 * k * math.cos(0.4), 3.0 * k * math.sin(0.4))
        lhs, rhs = scaled_symbol_identity(ISO, 1.0, q, z)
        ref = mean_value_radial_profile(0.5, 3.0)
        assert abs(lhs - ref) < 1e-8
        assert abs(rhs - ref) < 1e-8


def test_scaled_symbol_identity_field_scaling():
    # doubling B multiplies both sides by 2^rho at fixed z/sqrt(B) geometry
    q = 4
    k = math.sqrt(2.0 * q + 1.0)
    z1 = (2.0 * k, 0.5 * k)
    lhs1, rhs1 = scaled_symbol_identity(ISO, 1.0, q, z1)
    lhs2, rhs2 = scaled_symbol_identity(ISO, 2.0, q, z1)
    assert abs(lhs2 - 2.0 ** 0.5 * lhs1) < 1e-10
    assert abs(rhs2 - 2.0 ** 0.5 * rhs1) < 1e-10


def test_operator_norm_surrogate_bounded():
    # sup_z of the circle symbol of <x>^-rho times k^rho stays bounded in k
    from lcl.potentials import power_cos_average
    for rho in (0.3, 0.5, 0.7):
        sups = []
        for k in (2.0, 10.0, 100.0, 1000.0):
            s = np.linspace(0.0, 2.0 * k, 400)
            a = 1.0 + s * s + k * k
            vals = power_cos_average(a, 2.0 * s * k, rho, gap=1.0 + (s - k) ** 2)
            sups.append(float(np.max(vals)) * k ** rho)
        assert max(sups) < 3.0
        assert max(sups) / min(sups) < 3.0


def test_profiles_export_and_validation(tmp_path):
    prof = circle_symbol_profile(ISO, 1.0, 2, np.array([0.5, 1.0, 4.0]))
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,value"
    assert len(lines) == 4
    with pytest.raises(ValueError):
        RadialSymbolProfile(np.array([1.0, 1.0]), np.array([0.0, 0.0]), {})
    with pytest.raises(ValueError):
        RadialSymbolProfile(np.array([1.0, 2.0]), np.array([0.0, np.inf]), {})


def test_smoothed_profile_tracks_circle_profile():
    # at moderate q the two symbols already agree to a few percent
    radii = np.array([6.0, 9.0, 14.0])
    sm = smoothed_symbol_profile(ISO, 1.0, 12, radii)
    ci = circle_symbol_profile(ISO, 1.0, 12, radii)
    rel = np.abs(sm.values - ci.values) / np.abs(ci.values)
    assert np.max(rel) < 0.05


@pytest.mark.parametrize("call, name", [
    (lambda: i_rho(math.inf, 0.5), "k"),
    (lambda: i_rho(float("nan"), 0.5), "k"),
    (lambda: i_rho(2.0, float("nan")), "rho"),
    (lambda: circle_convolution(ISO, float("nan"), (1.0, 0.0)), "k"),
    (lambda: circle_convolution(ISO, 1.0, (float("nan"), 0.0)), "center"),
    (lambda: circle_convolution(lambda x1, x2: x1 + x2, 1.0, (0.0, math.inf)), "center"),
    (lambda: laguerre_smoothing(ISO, 1.0, 2, (math.inf, 0.0)), "center"),
    (lambda: scaled_symbol_identity(ISO, 1.0, 4, (float("nan"), 0.0)), "center"),
], ids=["i_rho-k-inf", "i_rho-k-nan", "i_rho-rho-nan", "circle_convolution-k-nan",
        "circle_convolution-z-nan", "circle_convolution-callable-z-inf",
        "laguerre_smoothing-z-inf", "scaled_identity-z-nan"])
def test_nan_and_inf_are_refused(call, name):
    # i_rho(inf, .) used to loop for ever (its panel edges stayed at 0), and
    # NaN used to pass each check and come back as NaN
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
