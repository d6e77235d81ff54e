"""Command-line front end: config validation, experiments, machine-readable output.

Subcommands
-----------
spectrum      one level: block summary JSON + eigenvalue CSV
trace-sweep   convergence table over the configured q list
symbol-check  hs-distance slope table, Laguerre-Bessel gap scan, I_rho ratios,
              homogeneity identity samples
measure       interval measure and density integral with dual-method cross check
selfcheck     fast invariant suite; nonzero exit on any failure

Every file goes through `lcl._io`: floats at 17 significant digits, UTF-8
with LF line endings; reruns with the same config and seed are
byte-identical (the manifest carries no timestamps).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._io import write_csv, write_json
from .errors import LclError
from .landau import (BasisIndex, LandauConfig, eigen_residual_check,
                     landau_level, level_spectrum, radial_diagonal, truncation_bound)
from .eigen import _sturm_count, sym_eig, tridiagonal_eig
from .measures import LimitingMeasure, TestFunction, convergence_study, rows_to_csv
from .potentials import (PotentialModel, mean_value_radial_profile,
                         mean_value_transform, _is_integer, _is_number)
from .specfun import (bessel_j0, gauss_nodes, laguerre, laguerre_bessel_gap,
                      laguerre_weighted)
from .symbols import hs_distance, hs_distance_fourier, i_rho, scaled_symbol_identity


@dataclass(frozen=True)
class RunConfig:
    model: PotentialModel
    B: float
    rho: float
    q_list: list
    phi: TestFunction
    delta: float
    seed: int
    output_dir: str

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        def fail(path, msg):
            raise ValueError(f"config.{path}: {msg}")

        if not isinstance(obj, dict):
            raise ValueError("config: expected a JSON object")
        try:
            model = PotentialModel.from_json(obj.get("model") or {})
        except ValueError as exc:
            fail("model", str(exc))
        B = obj.get("B", 1.0)
        if not _is_number(B) or B <= 0:
            fail("B", "must be a positive number")
        rho = obj.get("rho", model.rho if model.long_range else None)
        if not _is_number(rho) or rho <= 0:
            fail("rho", "must be a positive number")
        if model.long_range and abs(float(rho) - model.rho) > 1e-12:
            fail("rho", "must mirror model.rho for long-range models")
        q_list = obj.get("q_list")
        if (not isinstance(q_list, list) or not q_list
                or any(not _is_integer(q) or q < 0 for q in q_list)
                or any(b <= a for a, b in zip(q_list, q_list[1:]))):
            fail("q_list", "must be a nonempty ascending list of nonnegative integers")
        phi_obj = obj.get("phi") or {}
        if not isinstance(phi_obj, dict):
            fail("phi", "expected an object with center and half_width")
        for key in ("center", "half_width"):
            if not _is_number(phi_obj.get(key)):
                fail(f"phi.{key}", "must be a number")
        try:
            phi = TestFunction(center=float(phi_obj["center"]),
                               half_width=float(phi_obj["half_width"]))
        except ValueError as exc:
            fail("phi", str(exc))
        delta = obj.get("delta")
        if not _is_number(delta) or delta <= 0:
            fail("delta", "must be a positive number")
        if delta >= phi.support_abs_low:
            fail("delta", "must be below |phi.center| - phi.half_width")
        seed = obj.get("seed", 20240801)
        if not _is_integer(seed) or not 0 <= seed < 2 ** 64:
            fail("seed", "must be an unsigned 64-bit integer")
        out = obj.get("output_dir", "out")
        if not isinstance(out, str):
            fail("output_dir", "must be a path string")
        return RunConfig(model=model, B=float(B), rho=float(rho),
                         q_list=list(q_list), phi=phi, delta=float(delta),
                         seed=seed, output_dir=out)

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "B": self.B,
            "rho": self.rho,
            "q_list": self.q_list,
            "phi": {"center": self.phi.center, "half_width": self.phi.half_width},
            "delta": self.delta,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


DEFAULT_CONFIG = {
    "model": {"kind": "isotropic-long-range", "rho": 0.5, "amplitude": 1.0},
    "rho": 0.5,
    "q_list": [8, 16, 32],
    "phi": {"center": 0.5, "half_width": 0.3},
    "delta": 0.19,
}


def _write_manifest(outdir: Path, subcommand: str, cfg: RunConfig,
                    tolerances: dict, outputs: list, extra: dict | None = None):
    manifest = {
        "subcommand": subcommand,
        "package_version": __version__,
        "config": cfg.to_json(),
        "seed": cfg.seed,
        "jobs": 1,  # the schema keeps the key; the levels run in one thread
        "tolerances": tolerances,
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    write_json(outdir / "manifest.json", manifest, sort_keys=True)


def _usage_error(msg: str) -> int:
    print(f"usage error: {msg}", file=sys.stderr)
    return 2


def _cmd_spectrum(cfg: RunConfig, outdir: Path, q: int | None) -> int:
    if q is None or q not in cfg.q_list:
        return _usage_error("--q must name an entry of q_list")
    values, k_max, tail, residual, summary = level_spectrum(
        cfg.model, cfg.B, q, cfg.delta, cfg.rho)
    lam = landau_level(cfg.B, q)
    write_json(outdir / f"block_q{q}.json", summary)
    scaled = lam ** (cfg.rho / 2.0) * values
    write_csv(outdir / f"spectrum_q{q}.csv", "index,eigenvalue,scaled",
              [(i, float(v), float(s)) for i, (v, s) in enumerate(zip(values, scaled))])
    _write_manifest(outdir, "spectrum", cfg,
                    {"eig_residual_bound": residual, "truncation_tail_bound": tail},
                    [f"block_q{q}.json", f"spectrum_q{q}.csv"],
                    {"q": q, "lambda_q": lam, "k_max": k_max})
    return 0


def _cmd_trace_sweep(cfg: RunConfig, outdir: Path) -> int:
    rows = convergence_study(cfg.model, cfg.B, cfg.rho, cfg.phi, cfg.q_list, cfg.delta)
    rows_to_csv(rows, outdir / "trace_sweep.csv")
    _write_manifest(outdir, "trace-sweep", cfg,
                    {"delta": cfg.delta}, ["trace_sweep.csv"])
    return 0


def _cmd_symbol_check(cfg: RunConfig, outdir: Path) -> int:
    # the hs-distance slope needs a nonzero radial long-range model: the
    # configured one, or the isotropic model of the config's rho and amplitude
    hs_model = cfg.model
    if not (hs_model.long_range and hs_model.radial):
        if not 0.0 < cfg.rho < 1.0:
            return _usage_error("config.rho: symbol-check's isotropic model needs rho in (0, 1)")
        hs_model = PotentialModel.isotropic(cfg.rho, cfg.model.amplitude)
    if hs_model.amplitude == 0.0:
        return _usage_error("config.model.amplitude: symbol-check needs a nonzero amplitude")
    outputs = []
    hs_rows = []
    for q in (4, 8, 16, 32):
        val = hs_distance(hs_model, cfg.B, q)
        hs_rows.append((q, landau_level(cfg.B, q), float(val)))
    lams = np.log([r[1] for r in hs_rows])
    vals = np.log([r[2] for r in hs_rows])
    slope = float(np.polyfit(lams, vals, 1)[0])
    write_csv(outdir / "hs_distance.csv", "q,lambda_q,hs_distance",
              [(r[0], float(r[1]), r[2]) for r in hs_rows])
    outputs.append("hs_distance.csv")
    hs_phys = hs_distance(hs_model, cfg.B, 1)
    hs_four = hs_distance_fourier(hs_model, cfg.B, 1)
    gap_rows = []
    rg = np.linspace(0.01, 50.0, 500)
    for q in range(0, 65, 8):
        _, normed = laguerre_bessel_gap(q, rg)
        gap_rows.append((q, float(np.nanmax(normed))))
    write_csv(outdir / "gap_scan.csv", "q,max_normalized_gap", gap_rows)
    outputs.append("gap_scan.csv")
    irho_rows = []
    for rho in (0.3, 0.5, 0.7):
        k = 1e4
        irho_rows.append((rho, k, float(k ** rho * i_rho(k, rho)), 1.0 / (1.0 - rho)))
    irho_rows.append((2.0, 1e3, float(1e3 * i_rho(1e3, 2.0)), math.pi / 2.0))
    write_csv(outdir / "i_rho.csv", "rho,k,scaled_value,limit", irho_rows)
    outputs.append("i_rho.csv")
    ident_rows = []
    if cfg.model.long_range:
        for q in (2, 8):
            for ang in (0.0, 1.1):
                k = math.sqrt(2.0 * q + 1.0)
                z = (3.0 * k * math.cos(ang), 3.0 * k * math.sin(ang))
                lhs, rhs = scaled_symbol_identity(cfg.model, cfg.B, q, z)
                ident_rows.append((q, z[0], z[1], lhs, rhs, abs(lhs - rhs)))
    write_csv(outdir / "scaled_identity.csv", "q,z1,z2,lhs,rhs,abs_diff", ident_rows)
    outputs.append("scaled_identity.csv")
    _write_manifest(outdir, "symbol-check", cfg,
                    {"hs_slope": slope, "hs_fourier_rel_gap":
                        abs(hs_phys - hs_four) / hs_four},
                    outputs)
    return 0


def _cmd_measure(cfg: RunConfig, outdir: Path) -> int:
    if not cfg.model.long_range:
        return _usage_error("measure requires a long-range model")
    lim = LimitingMeasure(cfg.model, cfg.B, seed=cfg.seed, samples=2_000_000)
    lo, hi = cfg.phi.support
    primary = "radial-inversion" if cfg.model.radial else "grid-2d"
    mu_a = lim.mu_interval(lo, hi, method=primary)
    den_a = lim.density_integral(cfg.phi, method="radial")
    den_g = lim.density_integral(cfg.phi, method="grid-2d")
    mu_mc, den_mc = lim.monte_carlo(lo, hi, cfg.phi)
    write_csv(outdir / "measure.csv", "quantity,method,value",
              [("mu_interval", primary, mu_a),
               ("mu_interval", "monte-carlo", mu_mc),
               ("density_integral", "radial", den_a),
               ("density_integral", "grid-2d", den_g),
               ("density_integral", "monte-carlo", den_mc)])
    _write_manifest(outdir, "measure", cfg,
                    {"mc_samples": lim.samples,
                     "mu_cross_rel": abs(mu_a - mu_mc) / max(abs(mu_a), 1e-300),
                     "density_cross_rel": abs(den_a - den_mc) / max(abs(den_a), 1e-300)},
                    ["measure.csv"])
    return 0


def _selfchecks(cfg: RunConfig):
    iso = PotentialModel.isotropic(0.5)
    bump = PotentialModel.gaussian_bump(1.0, 1.0)

    def quadrature_exactness():
        rule = gauss_nodes("legendre", 12)
        errs = [abs(rule.integrate(lambda t, j=j: t ** j)
                    - (2.0 / (j + 1) if j % 2 == 0 else 0.0))
                for j in range(2 * 12)]
        rule_l = gauss_nodes("laguerre", 12)
        errs += [abs(rule_l.integrate(lambda t, j=j: t ** j) - math.factorial(j))
                 / math.factorial(j) for j in range(2 * 12)]
        return max(errs) < 1e-12, f"max exactness error {max(errs):.2e}"

    def laguerre_recurrence():
        worst = 0.0
        for q in (0, 1, 2, 5, 9):
            for t in (-3.0, 0.0, 1.0, 7.5):
                explicit = sum(math.comb(q, k) * (-t) ** k / math.factorial(k)
                               for k in range(q + 1))
                worst = max(worst, abs(laguerre(q, t) - explicit)
                            / max(1.0, abs(explicit)))
        return worst < 1e-12, f"max recurrence vs sum-form error {worst:.2e}"

    def bessel_checks():
        e1 = abs(bessel_j0(2.404825557695773))
        e2 = abs(bessel_j0(1.0) - 0.7651976865579666)
        ok = e1 < 1e-10 and e2 < 1e-12 and abs(bessel_j0(0.0) - 1.0) == 0.0
        return ok, f"|J0(first zero)| = {e1:.2e}, J0(1) error = {e2:.2e}"

    def basis_orthonormality():
        worst = 0.0
        from .landau import _band_rows
        for (q, k) in ((0, 0), (4, -2), (10, 37), (40, 200), (1024, 0)):
            val = _band_rows(np.ones_like, cfg.B, q, np.array([k]), 0)[0]
            worst = max(worst, abs(val - 1.0))
        return worst < 1e-10, f"max |<R,R> - 1| = {worst:.2e}"

    def basis_residual():
        r0 = eigen_residual_check(BasisIndex(0, 0), 1.0)
        r2 = eigen_residual_check(BasisIndex(2, -1), 1.0)
        bad = eigen_residual_check(BasisIndex(2, -1), 1.0, operator_k=+1)
        ok = r0 < 1e-6 and r2 < 1e-5 and bad > 0.1
        return ok, f"residuals {r0:.2e}, {r2:.2e}; flipped-sign control {bad:.2e}"

    def bump_trace():
        worst = 0.0
        for q in (0, 1, 2):
            k_max = truncation_bound(bump, 1.0, q, 1e-9, rho_scale=1.0)
            d = radial_diagonal(bump, LandauConfig(B=1.0, q=q, k_max=k_max + 40))
            worst = max(worst, abs(float(d.sum()) - 1.0))
        return worst < 1e-6, f"max |trace - B A w^2| = {worst:.2e}"

    def irho_ratios():
        # criterion 07's first-order value 1/(1-rho) + D_rho k^(rho-1), with
        # D_rho = sqrt(pi) Gamma((rho-1)/2) / (2 Gamma(rho/2)), at rho = 1/2
        d_rho = math.sqrt(math.pi) * math.gamma(-0.25) / (2.0 * math.gamma(0.25))
        e1 = abs(1e4 ** 0.5 * i_rho(1e4, 0.5) - (2.0 + d_rho * 1e-2)) / 2.0
        e2 = abs(1e3 * i_rho(1e3, 2.0) - math.pi / 2.0) / (math.pi / 2.0)
        return e1 < 0.02 and e2 < 0.01, f"rho=1/2 gap {e1:.2e}, rho=2 gap {e2:.2e}"

    def profile_identity():
        worst = 0.0
        for r in (0.3, 1.0, 2.5):
            direct = mean_value_transform(iso.tail_field(), (r, 0.0))
            prof = mean_value_radial_profile(0.5, r)
            worst = max(worst, abs(direct - prof))
        return worst < 1e-8, f"max |transform - profile| = {worst:.2e}"

    def homogeneity_identity():
        worst = 0.0
        for q in (2, 8):
            z = (3.0 * math.sqrt(2.0 * q + 1.0), 0.0)
            lhs, rhs = scaled_symbol_identity(iso, cfg.B, q, z)
            worst = max(worst, abs(lhs - rhs))
        return worst < 1e-7, f"max |lhs - rhs| = {worst:.2e}"

    def eigensolver_certificates():
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        A = rng.standard_normal((6, 6))
        A = 0.5 * (A + A.T)
        spec = sym_eig(A)
        perm = rng.permutation(6)
        spec_p = sym_eig(A[np.ix_(perm, perm)])
        gap = float(np.max(np.abs(spec.values - spec_p.values)))
        # a 200-row chain and its copy shifted by 1/2, interleaved at offset 2
        # and solved in one call, as level_spectrum solves a level: each value
        # of the pair is its chain's own within their brackets, and the two
        # chains' Sturm counts at every gap midpoint sum to the values below it
        d, e = np.arange(200.0), rng.uniform(0.1, 0.5, 199)
        chain, shifted = tridiagonal_eig(d, e), tridiagonal_eig(d + 0.5, e)
        d2, e2 = np.empty(400), np.empty(398)
        d2[0::2], d2[1::2], e2[0::2], e2[1::2] = d, d + 0.5, e, e
        pair = tridiagonal_eig(d2, e2, m=2)
        alone = np.sort(np.concatenate([chain.values, shifted.values]))
        norm = 200.0 + 2.0 * float(np.max(e))  # bounds each chain's Gershgorin norm
        moved = float(np.max(np.abs(pair.values - alone))) / norm
        radius = max(chain.residual_bound, shifted.residual_bound) + pair.residual_bound
        miss = 0
        for diags, vals in (([d], chain.values), ([d, d + 0.5], pair.values)):
            mid = 0.5 * (vals[:-1] + vals[1:])
            counts = sum(_sturm_count(dd, e, mid) for dd in diags)
            miss += int(np.count_nonzero(counts != np.arange(1, len(vals))))
        ok = (spec.residual_bound < 1e-12 and gap < 1e-10 and chain.residual_bound < 1e-12
              and pair.residual_bound < 1e-12 and moved <= radius and miss == 0)
        return ok, (f"residual {spec.residual_bound:.2e}, permutation gap {gap:.2e}, "
                    f"chain bracket radius {chain.residual_bound:.2e}, interleaved pair "
                    f"radius {pair.residual_bound:.2e}, moved {moved:.2e} <= {radius:.2e}, "
                    f"Sturm-count misses {miss} of 598")

    def gap_scan():
        rg = np.linspace(0.01, 50.0, 200)
        sup = max(float(np.nanmax(laguerre_bessel_gap(q, rg)[1]))
                  for q in (0, 8, 32, 64))
        return math.isfinite(sup), f"normalized gap sup {sup:.3f}"

    def weighted_laguerre_bound():
        ts = np.linspace(0.0, 4000.0, 2000)
        worst = max(float(np.max(np.abs(laguerre_weighted(q, ts))))
                    for q in (5, 50, 500))
        return worst <= 1.01, f"max |L_q e^(-t/2)| = {worst:.6f}"

    return [
        ("quadrature-exactness", quadrature_exactness),
        ("laguerre-recurrence-vs-sum", laguerre_recurrence),
        ("bessel-j0-values", bessel_checks),
        ("basis-orthonormality", basis_orthonormality),
        ("basis-eigen-residual", basis_residual),
        ("bump-trace-identity", bump_trace),
        ("i-rho-asymptotics", irho_ratios),
        ("mean-value-profile-identity", profile_identity),
        ("homogeneity-identity", homogeneity_identity),
        ("eigensolver-certificates", eigensolver_certificates),
        ("laguerre-bessel-gap-finite", gap_scan),
        ("damped-laguerre-bound", weighted_laguerre_bound),
    ]


def _cmd_selfcheck(cfg: RunConfig, outdir: Path) -> int:
    results = []
    failed = 0
    for name, check in _selfchecks(cfg):
        try:
            ok, detail = check()
        except LclError as exc:
            ok, detail = False, f"error: {exc}"
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failed += 1
    _write_manifest(outdir, "selfcheck", cfg, {}, [], {"checks": results})
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lcl",
                                description="Landau-level cluster laboratory")
    p.add_argument("subcommand", choices=["spectrum", "trace-sweep",
                                          "symbol-check", "measure", "selfcheck"])
    p.add_argument("--config", type=str, default=None, help="JSON run config")
    p.add_argument("--output", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--jobs", type=int, default=1, help="selects nothing; levels run in one thread")
    p.add_argument("--q", type=int, default=None, help="level for `spectrum`")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = dict(DEFAULT_CONFIG)
        cfg = RunConfig.from_json(raw)
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ValueError("--seed: must be an unsigned 64-bit integer")
        if args.jobs < 1:
            raise ValueError("--jobs: must be a positive integer")
        outdir = Path(args.output or cfg.output_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"{'--output' if args.output else 'config.output_dir'}: "
                             f"cannot create {str(outdir)!r}: {exc.strerror or exc}") from exc
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _usage_error(str(exc))
    cfg = replace(cfg, seed=cfg.seed if args.seed is None else args.seed)
    try:
        if args.subcommand == "spectrum":
            return _cmd_spectrum(cfg, outdir, args.q)
        if args.subcommand == "trace-sweep":
            return _cmd_trace_sweep(cfg, outdir)
        if args.subcommand == "symbol-check":
            return _cmd_symbol_check(cfg, outdir)
        if args.subcommand == "measure":
            return _cmd_measure(cfg, outdir)
        return _cmd_selfcheck(cfg, outdir)
    except LclError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
