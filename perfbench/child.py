"""One benchmark process: cold library state, one workload, one result line.

    python3 perfbench/child.py WORKLOAD SEED MODE JOBS WORKDIR

MODE is `setup` (import lcl and generate the inputs, then stop), `untraced`
(run and check the workload) or `traced` (the same with every layer
wrapped by spans.py).  lcl is imported from the checkout's own ``src/``;
a fresh process means an empty Gauss-Legendre rule cache.  The last line of
standard output is one JSON object; run.py reads it.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


def main(argv) -> int:
    workload, seed, mode, jobs, workdir = argv
    seed, jobs, workdir = int(seed), int(jobs), Path(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import lcl
    import lcl.cli
    if Path(lcl.__file__).resolve().parent != ROOT / "src" / "lcl":
        print(f"lcl imported from {lcl.__file__}, not from the checkout", file=sys.stderr)
        return 3
    from workloads import WORKLOADS, Calls
    wl = WORKLOADS[workload]
    inputs = wl.setup(seed, workdir, jobs)
    setup_done = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    recorder = None
    if mode == "traced":
        from spans import (ROOT as ROOT_SPAN, SpanRecorder, install, layer_metrics,
                           radial_levels)
        recorder = SpanRecorder()
        install(recorder, lcl)
    calls = Calls()
    t0 = time.perf_counter()
    if recorder is None:
        raw = wl.run(lcl, inputs, calls)
    else:
        with recorder.span(ROOT_SPAN, "bench"):
            raw = wl.run(lcl, inputs, calls)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = list(calls.results)
    entries = 0
    try:
        out = wl.collect(inputs, raw)
        entries = out["entries"]
        checks += wl.check(out, wl.reference())
    except (OSError, KeyError, ValueError) as exc:
        checks.append(("outputs readable", False, repr(exc)))
    failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    result = {"setup_done": setup_done, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
              "entries": entries, "attempted": len(checks), "failed": len(failures),
              "failures": failures, "env": _environment(np)}
    if recorder is not None:
        result["layer"] = layer_metrics(recorder.spans)
        result["levels"] = {str(q): lv for q, lv in radial_levels(recorder.spans).items()}
        result["cli"] = [{**sp.counts, "seconds": sp.end - sp.start}
                         for sp in recorder.spans if sp.name == "cli.main"]
        recorder.write(workdir.parent / f"spans-{workload}-{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
