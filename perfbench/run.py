"""lcl benchmark: one workload per call, or every workload with --all.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

Every measurement is a fresh child process (child.py) with cold library
state, the BLAS thread count pinned to 1 and `--jobs 1`, started one at a
time, so the load never has more threads than cores.  The parent times
each child's set-up from spawn to "lcl imported and inputs generated".

--trace 0 repeats the workload in fresh processes until S seconds have
passed (at least once).  It reports the end-to-end metrics: medians of wall_s, setup_s (over
SETUP_SAMPLES set-up-only processes plus the workload processes) and
peak_rss_mb, and pass_frac, the share of calls and output checks that
passed.

--trace 1 runs the workload once untraced and once traced, and reports the
per-layer metrics of spans.py plus trace.overhead_frac (traced over
untraced wall, minus 1), entries_per_s of the untraced run and, for
radial-sweep, measures.jobs2_speedup (untraced wall at --jobs 1 over
--jobs 2).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run from the root of a checkout;
work files go to .perfbench/ there.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_frac", "frac")]
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_SAMPLES = 3
# A run must end within 180 s; no single process may take longer than this.
RUN_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_child(workload: str, seed: int, mode: str, jobs: int = 1) -> dict:
    """Start one child, wait for it, and return its result with setup_s."""
    workdir = WORK / f"{workload}-{seed}-{mode}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
             str(jobs), str(workdir)],
            cwd=ROOT, env={**os.environ, **BLAS_ENV}, capture_output=True,
            text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child exceeded {RUN_LIMIT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - t_spawn
    return result


def environment(seed: int, child: dict) -> dict:
    """The record printed with every result; the workloads run at --jobs 1."""
    return {"nproc": nproc(), **child["env"], "blas_threads": int(BLAS_THREADS),
            "jobs": 1, "seed": seed}


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    setups = [run_child(workload, seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(run_child(workload, seed, "untraced"))
    setups += [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), len(runs)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), len(runs)),
        "pass_frac": ((attempted - failed) / attempted, attempted),
    }
    extra = {"fail_frac": failed / attempted,
             "entries_per_s": statistics.median(r["entries"] / r["wall_s"] for r in runs)}
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed,
            "failures": sorted({f for r in runs for f in r["failures"]}),
            "env": environment(seed, runs[0])}


def traced_run(workload: str, seed: int) -> dict:
    start = time.monotonic()
    base = run_child(workload, seed, "untraced")
    traced = run_child(workload, seed, "traced")
    layer = dict(traced["layer"])
    layer["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    layer["entries_per_s"] = base["entries"] / base["wall_s"]
    layer["measures.jobs2_speedup"] = 0.0
    runs = [base, traced]
    # The --jobs 2 process takes about as long as the --jobs 1 one; it is
    # left out (speedup reported as 0) when it could push the run past
    # RUN_LIMIT_S.
    left = RUN_LIMIT_S - (time.monotonic() - start)
    if workload == "radial-sweep" and nproc() >= 2 and base["wall_s"] < left:
        jobs2 = run_child(workload, seed, "untraced", jobs=2)
        layer["measures.jobs2_speedup"] = base["wall_s"] / jobs2["wall_s"]
        runs.append(jobs2)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"metrics": {name: (layer[name], 1) for name, _ in PER_LAYER},
            "attempted": attempted, "failed": failed,
            "failures": sorted({f for r in runs for f in r["failures"]}),
            "levels": traced["levels"], "cli": traced["cli"],
            "env": environment(seed, base)}


def _print_metrics(workload: str, res: dict, units: dict) -> None:
    for name, (value, samples) in res["metrics"].items():
        print(f"{workload:13s} {name:50s} {value:14.6g} {units[name]:6s} n={samples}")


def _result_line(res: dict, units: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in res["metrics"].items()},
    })


def run_one(args) -> int:
    traced = args.trace == 1
    res = (traced_run(args.workload, args.seed) if traced
           else untraced_run(args.workload, args.seed, args.seconds))
    units = dict(PER_LAYER if traced else END_TO_END)
    print("env " + json.dumps(res["env"], sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    _print_metrics(args.workload, res, units)
    print(_result_line(res, units))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced; one table, optionally a results file."""
    e2e_units, layer_units = dict(END_TO_END), dict(PER_LAYER)
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        e2e = untraced_run(name, args.seed, args.seconds)
        layer = traced_run(name, args.seed)
        report["env"] = e2e["env"]
        _print_metrics(name, e2e, e2e_units)
        print(f"{name:13s} {'fail_frac':50s} {e2e['extra']['fail_frac']:14.6g} "
              f"{'frac':6s} n={e2e['attempted']}")
        if e2e["extra"]["entries_per_s"] > 0:
            print(f"{name:13s} {'entries_per_s':50s} "
                  f"{e2e['extra']['entries_per_s']:14.6g} {'1/s':6s} "
                  f"n={e2e['metrics']['wall_s'][1]}")
        for failure in e2e["failures"] + layer["failures"]:
            print(f"FAILED {name}: {failure}")
        report["workloads"][name] = {
            "end_to_end": {k: {"value": v, "unit": e2e_units[k], "samples": n}
                           for k, (v, n) in e2e["metrics"].items()},
            "fail_frac": e2e["extra"]["fail_frac"],
            "entries_per_s": e2e["extra"]["entries_per_s"],
            "per_layer": {k: {"value": v, "unit": layer_units[k]}
                          for k, (v, _) in layer["metrics"].items()},
            "radial_levels": layer["levels"],
            "cli_calls": layer["cli"],
        }
    report["baseline"] = baseline(report["workloads"])
    print("baseline " + json.dumps(report["baseline"], indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


def baseline(workloads: dict) -> dict:
    """The ROADMAP's measured-baseline figures, read off the named metrics."""
    radial = workloads["radial-sweep"]
    layer = radial["per_layer"]
    levels = {}
    for q in ("8", "64", "128"):
        lv = radial["radial_levels"].get(q, {"entries": 0, "seconds": 0.0})
        levels[f"q{q}"] = {"dimension": lv["entries"], "seconds": lv["seconds"],
                           "us_per_entry": layer[f"landau.us_per_entry.q{q}"]["value"]}
    cli = {c["subcommand"]: c["seconds"]
           for c in workloads["limit-symbol"]["cli_calls"] if c["config"] == "default"}
    return {
        "radial_diagonal": levels,
        "radial_sweep_laguerre_function_share":
            layer["specfun.laguerre_function.wall_share"]["value"],
        "radial_sweep_jobs2_speedup": layer["measures.jobs2_speedup"]["value"],
        "cli_default_config_s": cli,
        "cli_default_config_not_run": ["trace-sweep", "spectrum --q 32"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=7.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: write the results JSON here")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    try:
        return run_all(args) if args.all else run_one(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
