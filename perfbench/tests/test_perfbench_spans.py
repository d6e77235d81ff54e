"""Span recorder: self-time arithmetic, node-step counting, layer wrappers."""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import (PER_LAYER, ROOT, Span, SpanRecorder, install,  # noqa: E402
                   laguerre_node_steps, layer_metrics, multi_node_steps,
                   restore, self_times)


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_nested_spans_sum_to_root():
    rec = SpanRecorder(clock=_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    with rec.span("root", "bench"):
        with rec.span("a", "landau"):
            with rec.span("a.child", "specfun"):
                pass
        with rec.span("b", "eigen"):
            pass
    selfs = self_times(rec.spans)
    by_name = {sp.name: selfs[sp.id] for sp in rec.spans}
    assert by_name == {"root": 3.0, "a": 2.0, "a.child": 1.0, "b": 4.0}
    assert sum(selfs.values()) == 10.0
    assert [sp.parent for sp in rec.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [Span(0, "p", "measures", None, 0.0, 10.0),
             Span(1, "c1", "landau", 0, 1.0, 5.0),
             Span(2, "c2", "landau", 0, 3.0, 8.0),   # overlaps c1 (another thread)
             Span(3, "c3", "landau", 0, 9.0, 12.0)]  # runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_laguerre_node_steps_follow_broadcasting():
    assert laguerre_node_steps(5, 0.5, np.zeros((3, 4))) == 60
    assert laguerre_node_steps(5, np.zeros(3), np.zeros((3, 4))) == 60
    assert laguerre_node_steps(5, np.zeros(3), np.zeros(4)) == 60
    assert laguerre_node_steps(7, 1.0, np.zeros(4)) == 28
    assert laguerre_node_steps(7, 1.0, 0.3) == 7
    assert laguerre_node_steps(0, 1.0, np.zeros(4)) == 0


def test_multi_node_steps_count_shared_recurrence_and_useful_share():
    assert multi_node_steps([1, 3, 2], np.zeros((3, 10))) == (90, 60)
    assert multi_node_steps([], np.zeros((0, 10))) == (0, 0)


def test_wrappers_record_layers_counts_and_failures():
    import lcl
    rec = SpanRecorder()
    patches = install(rec, lcl)
    try:
        with rec.span(ROOT, "bench"):
            d = lcl.radial_diagonal(lcl.PotentialModel.isotropic(0.5),
                                    lcl.LandauConfig(B=1.0, q=4, k_max=5))
            with pytest.raises(lcl.ContractError):
                lcl.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    finally:
        restore(patches)
    assert not hasattr(lcl.radial_diagonal, "__wrapped__")
    m = layer_metrics(rec.spans)
    assert set(m) <= {name for name, _ in PER_LAYER}
    assert m["landau.radial_diagonal.entries"] == d.size == 10
    # k < 0 rows n = 0..3 share one recurrence to degree 3
    assert m["specfun.laguerre_function_multi.useful_frac"] == pytest.approx(6 / 12)
    # one rule for the k < 0 rows (degree 3), one for the k >= 0 chunk (degree 4)
    assert m["specfun.legendre_rule.calls"] == m["specfun.legendre_rule.misses"] == 2
    assert m["eigen.failed"] == 1 and m["landau.failed"] == 0
    layer_self = sum(m[f"{layer}.self_s"] for layer in
                     ("cli", "measures", "symbols", "potentials", "landau",
                      "eigen", "specfun"))
    assert layer_self + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"])
