"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; tolerances are pinned here, not configurable.
"""
import json
import math
import time

import mpmath as mp
import numpy as np

from lcl.eigen import _sturm_count, sym_eig, tridiagonal_eig
from lcl.landau import (BasisIndex, LandauConfig, _level_bands, eigen_residual_check,
                        indicator_basis_mass, landau_level, radial_diagonal,
                        toeplitz_entry, truncation_bound)
from lcl.measures import LimitingMeasure, TestFunction, convergence_study
from lcl.potentials import PotentialModel
from lcl.specfun import gauss_nodes, laguerre_bessel_gap, laguerre_function
from lcl.symbols import hs_distance, hs_distance_fourier, i_rho, scaled_symbol_identity

ISO = PotentialModel.isotropic(0.5)
ANISO = PotentialModel.anisotropic(0.5, 0.3, 2)
PHI = TestFunction(0.5, 0.3)


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_trace_formula_convergence():
    rows = convergence_study(ISO, 1.0, 0.5, PHI, [8, 16, 32, 64, 128], 0.19)
    gaps = {r.q: r.relative_gap for r in rows}
    ok = gaps[128] <= 0.15 and gaps[128] <= gaps[8]
    # negated potential with the mirrored bump: identical gaps by symmetry
    neg = PotentialModel.isotropic(0.5, amplitude=-1.0)
    rows_n = convergence_study(neg, 1.0, 0.5, TestFunction(-0.5, 0.3), [8, 128], 0.19)
    gaps_n = {r.q: r.relative_gap for r in rows_n}
    sym_ok = (abs(gaps_n[8] - gaps[8]) < 1e-9 and abs(gaps_n[128] - gaps[128]) < 1e-9
              and gaps_n[128] <= 0.15)
    _report("01 trace-formula convergence (radial)",
            ok and sym_ok,
            f"rel gap q=8: {gaps[8]:.2e}, q=128: {gaps[128]:.2e}; "
            f"negated-model gaps match to {max(abs(gaps_n[8] - gaps[8]), abs(gaps_n[128] - gaps[128])):.1e}")


def _scaled_spectral_radius(model, q: int, k_window: int = 24) -> float:
    """max_k |diagonal entry| for the radial model; the maximum sits at small
    |k| (orbit through the potential's peak), so a window suffices."""
    from lcl.landau import _diagonal_window
    lo = max(-q, -k_window)
    vals = np.abs(_diagonal_window(model, 1.0, q, lo, k_window))
    i = int(np.argmax(vals))
    assert i < len(vals) - 1 and (i > 0 or q <= k_window), "max not interior"
    return float(vals[i])


def test_02_cluster_width_rate():
    report = []
    ok = True
    qs = np.arange(8, 257)
    lam_arr = np.array([landau_level(1.0, int(q)) for q in qs])
    lams = np.log(lam_arr)
    for rho in (0.3, 0.5, 0.7):
        model = PotentialModel.isotropic(rho)
        maxima = np.array([_scaled_spectral_radius(model, int(q)) for q in qs])
        slope = float(np.polyfit(lams, np.log(maxima), 1)[0])
        scaled = lam_arr ** (rho / 2.0) * maxima
        ok = ok and abs(slope + rho / 2.0) <= 0.05
        ok = ok and 0.2 <= float(np.min(scaled)) and float(np.max(scaled)) <= 5.0
        report.append(f"rho={rho}: slope {slope:+.4f} (target {-rho/2:+.3f}), "
                      f"scaled radius in [{np.min(scaled):.2f}, {np.max(scaled):.2f}]")
    _report("02 cluster-width rate", ok, "; ".join(report))


def test_03_sharpness_lower_bounds():
    qs = [16, 32, 64, 128, 256]
    diag_vals, ind_vals = {}, {}
    for q in qs:
        lam = landau_level(1.0, q)
        diag_vals[q] = lam ** 0.25 * toeplitz_entry(ISO, 1.0, q, -q, -q)
        ind_vals[q] = lam ** 0.5 * indicator_basis_mass(BasisIndex(q, 0), 1.0, 5.0)
    ok = all(v >= 0.2 for v in diag_vals.values()) and \
        all(v >= 0.05 for v in ind_vals.values())
    _report("03 sharpness lower bounds", ok,
            f"min scaled corner diagonal {min(diag_vals.values()):.3f} (>= 0.2), "
            f"min scaled disk mass {min(ind_vals.values()):.3f} (>= 0.05)")


def test_04_symbol_approximation_rate():
    qs = [4, 8, 16, 32]
    vals = [hs_distance(ISO, 1.0, q) for q in qs]
    lams = [landau_level(1.0, q) for q in qs]
    slope = float(np.polyfit(np.log(lams), np.log(vals), 1)[0])
    hs1 = hs_distance(ISO, 1.0, 1)
    hs1_f = hs_distance_fourier(ISO, 1.0, 1)
    rel = abs(hs1 - hs1_f) / hs1_f
    ok = abs(slope + 0.75) <= 0.1 and rel <= 0.01
    _report("04 symbol approximation rate", ok,
            f"slope {slope:+.4f} (target -0.75 +/- 0.1); "
            f"q=1 physical vs Fourier rel gap {rel:.2e} (<= 1e-2)")


def test_05_laguerre_bessel_gap_supremum():
    sups = []
    for npts in (500, 1000):
        grid = np.linspace(0.01, 50.0, npts)
        sup = 0.0
        for q in range(0, 65):
            _, normalized = laguerre_bessel_gap(q, grid)
            sup = max(sup, float(np.nanmax(normalized)))
        sups.append(sup)
    change = abs(sups[1] - sups[0]) / sups[0]
    ok = all(math.isfinite(s) for s in sups) and change < 0.05
    _report("05 pointwise Laguerre-Bessel bound", ok,
            f"normalized sup {sups[0]:.4f} -> {sups[1]:.4f} under x2 refinement "
            f"(change {change:.2%} < 5%)")


def test_06_trace_equality():
    bump = PotentialModel.gaussian_bump(1.0, 1.0)
    worst = 0.0
    for q in (0, 1, 2, 4):
        d = radial_diagonal(bump, LandauConfig(B=1.0, q=q, k_max=90))
        worst = max(worst, abs(float(d.sum()) - 1.0))
    _report("06 trace equality for the integrable bump", worst < 1e-6,
            f"max |sum of diagonal - 1| = {worst:.2e} (< 1e-6)")


def test_07_bend_integral_asymptotics():
    # With u = k t, k^rho I_rho(k) = k^(rho-1) int_0^k (1+u^2)^(-rho/2) du
    #   = 1/(1-rho) + D_rho k^(rho-1) + O(k^-2),
    # D_rho = int_0^inf [(1+u^2)^(-rho/2) - u^-rho] du
    #       = sqrt(pi) Gamma((rho-1)/2) / (2 Gamma(rho/2)).
    # At k = 1e4 the middle term is still -0.163 (4.9%) for rho = 0.7, so
    # the reference is the first-order value, not the bare limit: the 2%
    # budget then checks the limit and its rate together, and an i_rho
    # that returned only the leading term would fail at rho = 0.7.  The
    # reference itself is checked here against the closed form
    # I_rho(k) = 2F1(1/2, rho/2; 3/2; -k^2) at 30 digits, without i_rho;
    # tests/test_symbols.py::test_i_rho_hypergeometric_oracle checks i_rho
    # against that closed form and D_rho against quadrature.
    report = []
    ok = True
    worst_ref = 0.0
    for rho in (0.3, 0.5, 0.7):
        got = 1e4 ** rho * i_rho(1e4, rho)
        ref = 1.0 / (1.0 - rho)
        d_rho = (math.sqrt(math.pi) * math.gamma((rho - 1.0) / 2.0)
                 / (2.0 * math.gamma(rho / 2.0)))
        predicted = ref + d_rho * 1e4 ** (rho - 1.0)
        with mp.workdps(30):
            r = mp.mpf(rho)
            for k in (mp.mpf(10) ** 4, mp.mpf(10) ** 6):
                exact = k ** r * mp.hyp2f1(0.5, r / 2, 1.5, -k * k)
                two_term = ref + d_rho * k ** (r - 1)
                worst_ref = max(worst_ref, float(abs(exact - two_term) * (1 - r)))
        ok = ok and abs(got - predicted) / ref <= 0.02
        report.append(f"rho={rho}: {got:.4f} vs limit {ref:.4f} "
                      f"(first-order value {predicted:.4f})")
    ok = ok and worst_ref <= 1e-8
    report.append(f"first-order value vs 30-digit 2F1 at k=1e4,1e6: "
                  f"{worst_ref:.1e} of limit (<= 1e-8)")
    got2 = 1e3 * i_rho(1e3, 2.0)
    ok = ok and abs(got2 - math.pi / 2.0) / (math.pi / 2.0) <= 0.01
    report.append(f"rho=2: {got2:.5f} vs {math.pi/2:.5f}")
    _report("07 bend-integral asymptotics", ok, "; ".join(report))


def test_08_homogeneity_identity():
    worst = 0.0
    for model in (ISO, ANISO):
        for q in (2, 8, 32):
            k = math.sqrt(2.0 * q + 1.0)
            for radius_factor in (0.5, 3.0):
                for j in range(8):
                    ang = 2.0 * math.pi * j / 8.0 + 0.2
                    z = (radius_factor * k * math.cos(ang),
                         radius_factor * k * math.sin(ang))
                    lhs, rhs = scaled_symbol_identity(model, 1.0, q, z)
                    worst = max(worst, abs(lhs - rhs))
    _report("08 homogeneity/rescaling identity", worst <= 1e-7,
            f"max |lhs - rhs| over 96 samples = {worst:.2e} (<= 1e-7)")


def test_09_anisotropic_cross_validation():
    phi = TestFunction(0.65, 0.15)
    rows = convergence_study(ANISO, 1.0, 0.5, phi, [8, 16, 32, 48], 0.47,
                             rhs_method="grid-2d")
    gaps = {r.q: r.relative_gap for r in rows}
    dims = {r.q: r.k_max + r.q + 1 for r in rows}
    lim = LimitingMeasure(ANISO, 1.0, seed=20240801, samples=10_000_000)
    rhs_mc = lim.density_integral(phi, "monte-carlo")
    rhs_grid = rows[0].rhs
    mc_rel = abs(rhs_mc - rhs_grid) / rhs_grid
    ok = (gaps[48] <= 0.25 and gaps[48] <= gaps[8] and mc_rel <= 0.01
          and max(dims.values()) <= 4096)
    _report("09 anisotropic cross-validation", ok,
            f"rel gap q=8: {gaps[8]:.2e} -> q=48: {gaps[48]:.2e} (<= 0.25); "
            f"grid-2d vs monte-carlo rel diff {mc_rel:.2e} (<= 1e-2); "
            f"max sweep dimension {max(dims.values())} (<= 4096)")


def test_10_infrastructure_oracles(tmp_path):
    from test_eigen import _sturm_eigenvalues

    rng = np.random.Generator(np.random.Philox(20240801))
    A = rng.standard_normal((6, 6))
    A = 0.5 * (A + A.T)
    eig_gap = float(np.max(np.abs(sym_eig(A).values - _sturm_eigenvalues(A))))
    # each residue chain of the criterion-09 q = 8 level, solved as
    # level_spectrum solves it: its Sturm count at every gap midpoint
    k_max = truncation_bound(ANISO, 1.0, 8, 0.47, rho_scale=0.5)
    diag, bands = _level_bands(ANISO, LandauConfig(B=1.0, q=8, k_max=k_max))
    chain_miss = 0
    for r in range(2):
        d, e = diag[r::2], bands[2][r::2]
        vals = tridiagonal_eig(d, e).values
        mid = 0.5 * (vals[:-1] + vals[1:])
        chain_miss += int(np.count_nonzero(_sturm_count(d, e, mid) != np.arange(1, len(vals))))

    resid = max(eigen_residual_check(BasisIndex(0, 0), 1.0),
                eigen_residual_check(BasisIndex(2, -1), 1.0))

    gram_err = 0.0
    from lcl.specfun import legendre_rule
    x, w = legendre_rule(500)
    xi = 0.5 * 160.0 * (x + 1.0)
    ww = 0.5 * 160.0 * w
    for (k, q) in ((0, 6), (3, 10)):
        psis = [laguerre_function(BasisIndex(qq, k).n, float(k), xi)
                for qq in (q - 1, q, q + 1)]
        for i in range(3):
            for j in range(3):
                val = float(np.dot(ww, psis[i] * psis[j]))
                gram_err = max(gram_err, abs(val - (1.0 if i == j else 0.0)))

    quad_err = 0.0
    rule = gauss_nodes("legendre", 16)
    for j in range(32):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        quad_err = max(quad_err, abs(rule.integrate(lambda t, j=j: t ** j) - exact))
    rule_l = gauss_nodes("laguerre", 16)
    for j in range(32):
        quad_err = max(quad_err, abs(rule_l.integrate(lambda t, j=j: t ** j)
                                     - math.factorial(j)) / math.factorial(j))

    from lcl.cli import main
    cfg = {"model": {"kind": "isotropic-long-range", "rho": 0.5, "amplitude": 1.0},
           "B": 1.0, "rho": 0.5, "q_list": [2, 4],
           "phi": {"center": 0.5, "half_width": 0.3},
           "delta": 0.19, "seed": 20240801, "output_dir": "out"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert main(["trace-sweep", "--config", str(cfg_path),
                     "--output", str(outdir)]) == 0
        assert main(["measure", "--config", str(cfg_path),
                     "--output", str(outdir / "m")]) == 0
        outs.append(((outdir / "trace_sweep.csv").read_bytes(),
                     (outdir / "manifest.json").read_bytes(),
                     (outdir / "m" / "measure.csv").read_bytes()))
    reproducible = outs[0] == outs[1]

    ok = (eig_gap < 1e-9 and chain_miss == 0 and resid < 1e-5 and gram_err < 1e-8
          and quad_err < 1e-12 and reproducible)
    _report("10 infrastructure oracles", ok,
            f"eigensolver vs Sturm bisection {eig_gap:.1e} (< 1e-9); "
            f"chain Sturm-count misses {chain_miss} (= 0); "
            f"basis residual {resid:.1e} (< 1e-5); Gram {gram_err:.1e} (< 1e-8); "
            f"quadrature exactness {quad_err:.1e} (< 1e-12); "
            f"byte-identical reruns: {reproducible}")


def test_11_anisotropic_paper_delta():
    # criterion 09's model at the paper's delta = 0.19: two residue chains per
    # level, of about 9,700 rows each at q = 8 and about 147,000 each at
    # q = 128, above the dense cap, of which only the eigenvalues inside phi's
    # support are found; gated like criterion 09, at q = 64 and at the
    # deepest level, q = 128, whose time is reported
    phi = TestFunction(0.65, 0.15)
    qs = [8, 16, 32, 64, 128]
    rows = convergence_study(ANISO, 1.0, 0.5, phi, qs[:-1], 0.19, rhs_method="grid-2d")
    t0 = time.perf_counter()
    rows += convergence_study(ANISO, 1.0, 0.5, phi, qs[-1:], 0.19, rhs_method="grid-2d")
    deepest_s = time.perf_counter() - t0
    gaps = {r.q: r.relative_gap for r in rows}
    dims = {r.q: r.k_max + r.q + 1 for r in rows}
    ok = (all(gaps[q] <= 0.25 and gaps[q] <= gaps[8] for q in (64, 128))
          and min(dims.values()) > 2 * 4096)
    # reported, not gated: each doubling of q about halves the gap
    ratios = ", ".join(f"{gaps[b] / gaps[a]:.3f}" for a, b in zip(qs, qs[1:]))
    _report("11 anisotropic trace at the paper's delta", ok,
            f"rel gap q=8: {gaps[8]:.2e} -> q=64: {gaps[64]:.2e} -> q=128: {gaps[128]:.2e} "
            f"(<= 0.25); gap ratio per doubling {ratios}; "
            f"dimensions {dims[8]} to {dims[128]} (> 2 x 4096); q=128 in {deepest_s:.2f} s")


def test_12_symbol_side_at_depth():
    # criteria 04 and 05 at depth: the Hilbert-Schmidt rate on q = 128..1024
    # from the Fourier side, the physical side against it at q = 128, and the
    # normalized Laguerre-Bessel gap on a log grid to q = 4096
    qs = [128, 256, 512, 1024]
    lams = np.array([landau_level(1.0, q) for q in qs])
    report = []
    ok = True
    for rho in (0.2, 0.5, 0.9):
        model = PotentialModel.isotropic(rho)
        hs = np.array([hs_distance_fourier(model, 1.0, q) for q in qs])
        slope = float(np.polyfit(np.log(lams), np.log(hs), 1)[0])
        rel = abs(hs_distance(model, 1.0, 128) / hs[0] - 1.0)
        ok = ok and abs(slope + 0.75) <= 0.005 and rel <= 5e-8
        # reported, not gated: the paper gives no constant
        report.append(f"rho={rho}: slope {slope:+.5f}, q=128 physical vs Fourier {rel:.1e}, "
                      f"hs lambda^(3/4) at q=1024 {hs[-1] * lams[-1] ** 0.75:.6f}")
    grid = np.geomspace(1e-4, 50.0, 2000)
    sup = max(float(np.nanmax(laguerre_bessel_gap(q, grid)[1])) for q in (64, 256, 1024, 4096))
    ok = ok and sup < 0.05
    report.append(f"Laguerre-Bessel sup at q=64..4096 {sup:.5f} (< 0.05)")
    _report("12 symbol side at depth", ok,
            "slope target -0.75 +/- 0.005, sides within 5e-8; " + "; ".join(report))
