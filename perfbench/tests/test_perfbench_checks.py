"""Output checks: reference comparisons trip on a perturbed value."""
import copy
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from workloads import (WIDTH_LEVELS, WIDTH_Q_RANGE, WORKLOADS,  # noqa: E402
                       width_levels)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _failed(checks):
    return [name for name, ok, _ in checks if not ok]


def _radial_outputs(ref):
    rows = {q: {**r, "rel_gap": 1e-4} for q, r in ref["rows"].items()}
    return {"values": copy.deepcopy(ref), "rows": rows, "entries": 1}


def test_reference_outputs_pass_their_own_checks():
    ref = WORKLOADS["radial-sweep"].reference()
    assert _failed(WORKLOADS["radial-sweep"].check(_radial_outputs(ref), ref)) == []


def test_negative_control_perturbed_reference_trips_its_check():
    wl = WORKLOADS["radial-sweep"]
    ref = wl.reference()
    out = _radial_outputs(ref)
    bad = copy.deepcopy(ref)
    bad["rows"]["8"]["lhs"] *= 1.0 + 1e-8
    assert _failed(wl.check(out, bad)) == ["lhs q=8"]


def test_negative_control_width_scan_window():
    wl = WORKLOADS["width-scan"]
    ref = wl.reference()
    qs = width_levels(3)
    windows = {str(q): ref["windows"][str(q)] for q in qs}
    lams = 2.0 * np.asarray(qs) + 1.0
    maxima = np.array([max(abs(v) for v in windows[str(q)]) for q in qs])
    out = {"values": {"windows": windows},
           "slope": float(np.polyfit(np.log(lams), np.log(maxima), 1)[0]),
           "scaled": lams ** 0.25 * maxima}
    assert _failed(wl.check(out, ref)) == []
    bad = copy.deepcopy(ref)
    bad["windows"][str(qs[10])][5] *= 1.0 + 1e-8
    assert _failed(wl.check(out, bad)) == [f"diagonal window q={qs[10]}"]


def test_width_levels_are_seeded_strata():
    qs = width_levels(7)
    assert qs == width_levels(7) and qs != width_levels(8)
    assert len(qs) == WIDTH_LEVELS and qs == sorted(set(qs))
    assert WIDTH_Q_RANGE[0] <= qs[0] and qs[-1] <= WIDTH_Q_RANGE[1]


def test_benchmark_json_matches_harness_metrics():
    from run import END_TO_END
    from spans import PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
