"""The benchmark's workloads: generated inputs, the timed calls, the output checks.

Each workload has four steps.  `setup` turns the workload seed into the
inputs the program receives (config files, level lists) and writes them to
the run's work directory.  `run` is the timed part: it drives lcl only
through public entry points, ``lcl.cli.main`` or public library functions.
`collect` reads the outputs back, outside the timed region.  `check`
compares them with the reference outputs recorded from the unoptimised
lcl 0.1.0 code and with the acceptance bounds of tests/test_acceptance.py.

Why these four workloads: see README.md next to this file.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Deterministic values are pinned to the agreement ROADMAP item 2 pins for lhs.
REL_TOL = 1e-9
# Same tolerance eigen.sym_eig applies to its own trace/Frobenius identities.
EIG_RESIDUAL_MAX = 1e-9

ISO_MODEL = {"kind": "isotropic-long-range", "rho": 0.5, "amplitude": 1.0}
# test-01 config (tests/test_acceptance.py::test_01_trace_formula_convergence)
RADIAL_CONFIG = {
    "model": ISO_MODEL, "B": 1.0, "rho": 0.5, "q_list": [8, 16, 32, 64, 128],
    "phi": {"center": 0.5, "half_width": 0.3}, "delta": 0.19,
    "seed": 20240801, "output_dir": "out",
}
# test-09 config (tests/test_acceptance.py::test_09_anisotropic_cross_validation)
ANISO_CONFIG = {
    "model": {"kind": "anisotropic-long-range", "rho": 0.5, "epsilon": 0.3,
              "mode": 2, "amplitude": 1.0},
    "B": 1.0, "rho": 0.5, "q_list": [8, 16, 32, 48],
    "phi": {"center": 0.65, "half_width": 0.15}, "delta": 0.47,
    "seed": 20240801, "output_dir": "out",
}
ANISO_SPECTRUM_Q = 48
WIDTH_Q_RANGE = (8, 256)
WIDTH_LEVELS = 64
WIDTH_K_WINDOW = 24


class Calls:
    """Runs the workload's program calls, recording each call's success.

    A call that raises or returns a nonzero exit code is a failed call; the
    run goes on so that every check is still attempted.
    """

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def cli(self, lcl, argv: list) -> None:
        try:
            code = lcl.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed run
            self.results.append((f"call {argv[0]}", False, repr(exc)))
            return
        self.results.append((f"call {argv[0]}", code == 0, f"exit code {code}"))

    def lib(self, name: str, fn: Callable, *args):
        try:
            out = fn(*args)
        except Exception as exc:
            self.results.append((f"call {name}", False, repr(exc)))
            return None
        self.results.append((f"call {name}", True, ""))
        return out


def lcl_seed(seed: int) -> int:
    """The unsigned 64-bit seed the program receives for workload seed `seed`."""
    return int(np.random.SeedSequence(abs(seed)).generate_state(1, np.uint64)[0])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _sweep_rows(outdir: Path) -> dict:
    return {row["q"]: {"k_max": int(row["k_max"]), "lhs": float(row["lhs"]),
                       "rhs": float(row["rhs"]), "rel_gap": float(row["rel_gap"])}
            for row in _read_csv(outdir / "trace_sweep.csv")}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def rel_check(name: str, got, ref, tol: float = REL_TOL, scale=None):
    """Max |got - ref| / |ref| (or / scale) against tol, as a check result."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return (name, False, f"shape {got.shape} != reference {ref.shape}")
    denom = np.abs(ref) if scale is None else scale
    err = float(np.max(np.abs(got - ref) / denom)) if ref.size else 0.0
    return (name, err <= tol, f"max rel err {err:.2e} (<= {tol:.0e})")


def _sweep_checks(rows: dict, ref_rows: dict) -> list:
    out = []
    for q, ref in ref_rows.items():
        row = rows.get(q)
        if row is None:
            out.append((f"lhs q={q}", False, "level missing from trace_sweep.csv"))
            continue
        out.append((f"k_max q={q}", row["k_max"] == ref["k_max"],
                    f"{row['k_max']} vs reference {ref['k_max']}"))
        out.append(rel_check(f"lhs q={q}", row["lhs"], ref["lhs"]))
    first = next(iter(ref_rows))
    if first in rows:
        out.append(rel_check("rhs", rows[first]["rhs"], ref_rows[first]["rhs"]))
    return out


# ---------------------------------------------------------------------------
# radial-sweep
# ---------------------------------------------------------------------------

def _radial_setup(seed: int, workdir: Path, jobs: int) -> dict:
    # The seed does not change this workload's inputs.
    return {"config": _write_json(workdir / "radial.json", RADIAL_CONFIG),
            "out": workdir / "sweep", "jobs": jobs}


def _radial_run(lcl, inputs: dict, calls: Calls) -> None:
    calls.cli(lcl, ["trace-sweep", "--config", inputs["config"],
                    "--output", str(inputs["out"]), "--jobs", str(inputs["jobs"])])


def _radial_collect(inputs: dict, _raw) -> dict:
    rows = _sweep_rows(inputs["out"])
    return {"values": {"rows": {q: {"k_max": r["k_max"], "lhs": r["lhs"],
                                    "rhs": r["rhs"]} for q, r in rows.items()}},
            "rows": rows,
            "entries": sum(r["k_max"] + int(q) + 1 for q, r in rows.items())}


def _radial_check(out: dict, ref: dict) -> list:
    checks = _sweep_checks(out["rows"], ref["rows"])
    gaps = {q: r["rel_gap"] for q, r in out["rows"].items()}
    g8, g128 = gaps.get("8", math.inf), gaps.get("128", math.inf)
    checks.append((
        "criterion 01 gaps", g128 <= 0.15 and g128 <= g8,
        f"rel gap q=8 {g8:.2e}, q=128 {g128:.2e} (<= 0.15 and <= q=8)"))
    return checks


# ---------------------------------------------------------------------------
# width-scan
# ---------------------------------------------------------------------------

def width_levels(seed: int) -> list[int]:
    """WIDTH_LEVELS levels from WIDTH_Q_RANGE, one drawn from each of as many
    equal strata: every seed spans the range the slope fit needs, and the
    cost (which grows like q^2) stays the same from seed to seed."""
    lo, hi = WIDTH_Q_RANGE
    edges = np.linspace(lo, hi + 1, WIDTH_LEVELS + 1).astype(int)
    rng = np.random.default_rng(abs(seed))
    return [int(rng.integers(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _width_setup(seed: int, workdir: Path, jobs: int) -> dict:
    return {"qs": width_levels(seed)}


def width_window(diagonal: np.ndarray, q: int) -> np.ndarray:
    """Entries k in [-min(q, 24), 24] of the diagonal k = -q .. 24."""
    return diagonal[q - min(q, WIDTH_K_WINDOW):]


def _width_run(lcl, inputs: dict, calls: Calls) -> dict:
    model = lcl.PotentialModel.isotropic(0.5)
    windows, maxima, lams = {}, [], []
    for q in inputs["qs"]:
        cfg = lcl.LandauConfig(B=1.0, q=q, k_max=WIDTH_K_WINDOW)
        d = calls.lib("radial_diagonal", lcl.radial_diagonal, model, cfg)
        if d is None:
            continue
        w = width_window(d, q)
        windows[str(q)] = w
        maxima.append(float(np.max(np.abs(w))))
        lams.append(lcl.landau_level(1.0, q))
    slope = (float(np.polyfit(np.log(lams), np.log(maxima), 1)[0])
             if len(lams) > 1 else math.nan)
    scaled = np.asarray(lams) ** 0.25 * np.asarray(maxima)
    return {"windows": windows, "slope": slope, "scaled": scaled}


def _width_collect(inputs: dict, raw: dict) -> dict:
    return {"values": {"windows": {q: w.tolist() for q, w in raw["windows"].items()}},
            "slope": raw["slope"], "scaled": raw["scaled"],
            "entries": sum(q + WIDTH_K_WINDOW + 1 for q in inputs["qs"])}


def _width_check(out: dict, ref: dict) -> list:
    checks = []
    for q, w in out["values"]["windows"].items():
        checks.append(rel_check(f"diagonal window q={q}", w, ref["windows"].get(q, [])))
    slope, scaled = out["slope"], out["scaled"]
    checks.append(("criterion 02 slope", abs(slope + 0.25) <= 0.05,
                   f"slope {slope:+.4f} (target -0.25 +/- 0.05)"))
    lo, hi = (float(np.min(scaled)), float(np.max(scaled))) if scaled.size else (0, 0)
    checks.append(("criterion 02 scaled radius", 0.2 <= lo and hi <= 5.0,
                   f"scaled radius in [{lo:.3f}, {hi:.3f}] (within [0.2, 5])"))
    return checks


# ---------------------------------------------------------------------------
# aniso-block
# ---------------------------------------------------------------------------

def _aniso_setup(seed: int, workdir: Path, jobs: int) -> dict:
    return {"config": _write_json(workdir / "aniso.json", ANISO_CONFIG),
            "out": workdir / "sweep", "spectrum": workdir / "spectrum", "jobs": jobs}


def _aniso_run(lcl, inputs: dict, calls: Calls) -> None:
    calls.cli(lcl, ["trace-sweep", "--config", inputs["config"],
                    "--output", str(inputs["out"]), "--jobs", str(inputs["jobs"])])
    calls.cli(lcl, ["spectrum", "--config", inputs["config"],
                    "--output", str(inputs["spectrum"]), "--q", str(ANISO_SPECTRUM_Q)])


def _band_entries(dim: int, bandwidth: int) -> int:
    # diagonal plus both stored off-diagonals of the single cos(m theta) mode
    return dim + (2 * max(dim - bandwidth, 0) if bandwidth else 0)


def _aniso_collect(inputs: dict, _raw) -> dict:
    rows = _sweep_rows(inputs["out"])
    spec = _read_csv(inputs["spectrum"] / f"spectrum_q{ANISO_SPECTRUM_Q}.csv")
    block = _read_json(inputs["spectrum"] / f"block_q{ANISO_SPECTRUM_Q}.json")
    manifest = _read_json(inputs["spectrum"] / "manifest.json")
    mode = ANISO_CONFIG["model"]["mode"]
    entries = sum(_band_entries(r["k_max"] + int(q) + 1, mode) for q, r in rows.items())
    entries += _band_entries(block["dimension"], block["bandwidth"])
    return {"values": {"rows": {q: {"k_max": r["k_max"], "lhs": r["lhs"],
                                    "rhs": r["rhs"]} for q, r in rows.items()},
                       "eigenvalues_q48": [float(r["eigenvalue"]) for r in spec]},
            "rows": rows,
            "residual": manifest["tolerances"]["eig_residual_bound"],
            "entries": entries}


def _aniso_check(out: dict, ref: dict) -> list:
    checks = _sweep_checks(out["rows"], ref["rows"])
    ev_ref = np.asarray(ref["eigenvalues_q48"])
    checks.append(rel_check("eigenvalues q=48 / max|lambda|",
                            out["values"]["eigenvalues_q48"], ev_ref,
                            scale=float(np.max(np.abs(ev_ref)))))
    gaps = {q: r["rel_gap"] for q, r in out["rows"].items()}
    g8, g48 = gaps.get("8", math.inf), gaps.get("48", math.inf)
    checks.append((
        "criterion 09 gaps", g48 <= 0.25 and g48 <= g8,
        f"rel gap q=8 {g8:.2e}, q=48 {g48:.2e} (<= 0.25 and <= q=8)"))
    dim = max((r["k_max"] + int(q) + 1 for q, r in out["rows"].items()), default=0)
    checks.append(("criterion 09 dense dimension", 0 < dim <= 4096,
                   f"max dimension {dim} (<= 4096)"))
    res = out["residual"]
    checks.append(("eigen residual bound", res <= EIG_RESIDUAL_MAX,
                   f"{res:.2e} (<= {EIG_RESIDUAL_MAX:.0e})"))
    return checks


# ---------------------------------------------------------------------------
# limit-symbol
# ---------------------------------------------------------------------------

LIMIT_CONFIGS = ("default", "aniso")


def _limit_setup(seed: int, workdir: Path, jobs: int) -> dict:
    aniso = _write_json(workdir / "aniso.json", ANISO_CONFIG)
    # DEFAULT_CONFIG is the CLI's own default, used when --config is absent.
    return {"args": {"default": [], "aniso": ["--config", aniso]},
            "workdir": workdir, "seed": lcl_seed(seed)}


def _limit_run(lcl, inputs: dict, calls: Calls) -> None:
    for label in LIMIT_CONFIGS:
        args = inputs["args"][label]
        calls.cli(lcl, ["symbol-check", *args,
                        "--output", str(inputs["workdir"] / f"symbol-{label}")])
        calls.cli(lcl, ["measure", *args, "--seed", str(inputs["seed"]),
                        "--output", str(inputs["workdir"] / f"measure-{label}")])


def _limit_collect(inputs: dict, _raw) -> dict:
    values, bounds = {}, {}
    for label in LIMIT_CONFIGS:
        sym = inputs["workdir"] / f"symbol-{label}"
        mea = inputs["workdir"] / f"measure-{label}"
        rows = _read_csv(mea / "measure.csv")
        values[label] = {f"{r['quantity']}/{r['method']}": float(r["value"])
                         for r in rows if r["method"] != "monte-carlo"}
        bounds[label] = {
            **_read_json(sym / "manifest.json")["tolerances"],
            **_read_json(mea / "manifest.json")["tolerances"],
            "identity": max((float(r["abs_diff"])
                             for r in _read_csv(sym / "scaled_identity.csv")), default=0.0),
        }
    return {"values": values, "bounds": bounds, "entries": 0}


def _limit_check(out: dict, ref: dict) -> list:
    checks = []
    for label in LIMIT_CONFIGS:
        got, want, b = out["values"][label], ref[label], out["bounds"][label]
        for key in want:
            checks.append(rel_check(f"{label} {key}", got.get(key, math.nan), want[key]))
        checks.append((
            f"{label} criterion 04",
            abs(b["hs_slope"] + 0.75) <= 0.1 and b["hs_fourier_rel_gap"] <= 1e-2,
            f"slope {b['hs_slope']:+.4f} (target -0.75 +/- 0.1), Fourier gap "
            f"{b['hs_fourier_rel_gap']:.2e} (<= 1e-2)"))
        checks.append((
            f"{label} criterion 08 identity", b["identity"] <= 1e-7,
            f"max |lhs - rhs| {b['identity']:.2e} (<= 1e-7)"))
        for key in ("mu_cross_rel", "density_cross_rel"):
            checks.append((f"{label} monte-carlo {key}", b[key] <= 1e-2,
                           f"{b[key]:.2e} (<= 1e-2)"))
    return checks


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    run: Callable
    collect: Callable
    check: Callable

    def reference(self) -> dict:
        return _read_json(REFERENCE_DIR / f"{self.name}.json")


WORKLOADS = {w.name: w for w in (
    Workload("radial-sweep",
             "test-01 trace-sweep q=8..128: entry quadrature and the fixed-degree "
             "recurrence over wide k>=0 chunks",
             _radial_setup, _radial_run, _radial_collect, _radial_check),
    Workload("width-scan",
             "64 seeded levels q in [8,256], k_max=24: short deep k<0 windows "
             "and one new quadrature rule per level",
             _width_setup, _width_run, _width_collect, _width_check),
    Workload("aniso-block",
             "test-09 anisotropic sweep and spectrum q=48: banded block "
             "assembly and the dense eigensolver at dimension 3629",
             _aniso_setup, _aniso_run, _aniso_collect, _aniso_check),
    Workload("limit-symbol",
             "symbol-check and measure on two configs: circle averages and "
             "limiting-measure integrals, no level blocks",
             _limit_setup, _limit_run, _limit_collect, _limit_check),
)}
