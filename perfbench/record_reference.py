"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's calls once with the checkout's lcl and writes the
deterministic outputs to perfbench/reference/<workload>.json.  For
width-scan it records every level a seed can draw.  The committed files
were recorded from the unoptimised lcl 0.1.0 code; re-record only when a
change is meant to alter these values, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lcl  # noqa: E402
import lcl.cli  # noqa: E402
from workloads import REFERENCE_DIR, WIDTH_Q_RANGE, WORKLOADS, Calls  # noqa: E402


def record(name: str) -> None:
    wl = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        inputs = wl.setup(0, Path(tmp), 1)
        if name == "width-scan":
            lo, hi = WIDTH_Q_RANGE
            inputs["qs"] = list(range(lo, hi + 1))
        calls = Calls()
        raw = wl.run(lcl, inputs, calls)
        bad = [c for c in calls.results if not c[1]]
        if bad:
            raise SystemExit(f"{name}: failed calls {bad}")
        values = wl.collect(inputs, raw)["values"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(values, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{name}: wrote {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        record(name)
