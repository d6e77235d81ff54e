"""Span recorder and layer wrappers for the traced benchmark run.

The traced run replaces the public lcl functions that each caller module
imports (for example ``lcl.landau.laguerre_function`` or
``lcl.measures.sym_eig``) with wrappers that record one span per call:
name, layer, start, end, parent and the work counts derived from the
argument shapes.  Spans stay in memory and are written out when the run
ends.  Nothing under ``src/`` is edited; the wrappers live only here.

A span's self time is its duration minus the part of that interval its
direct child spans cover.  The per-layer metrics are sums over spans.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("cli", "measures", "symbols", "potentials", "landau", "eigen", "specfun")
ROOT = "workload"
RADIAL_LEVELS = (8, 16, 32, 64, 128)

# Every per-layer metric the traced run reports, with its unit.  A layer a
# workload does not reach reports 0.
PER_LAYER = [
    ("specfun.self_s", "s"),
    ("specfun.failed", "count"),
    ("specfun.laguerre_function.self_s", "s"),
    ("specfun.laguerre_function.node_steps", "count"),
    ("specfun.laguerre_function.node_steps_per_s", "1/s"),
    ("specfun.laguerre_function.wall_share", "frac"),
    ("specfun.laguerre_function_multi.self_s", "s"),
    ("specfun.laguerre_function_multi.node_steps", "count"),
    ("specfun.laguerre_function_multi.node_steps_per_s", "1/s"),
    ("specfun.laguerre_function_multi.useful_frac", "frac"),
    ("specfun.legendre_rule.calls", "count"),
    ("specfun.legendre_rule.misses", "count"),
    ("specfun.legendre_rule.hit_ratio", "frac"),
    ("specfun.legendre_rule.self_s", "s"),
    ("specfun.laguerre_bessel_gap.self_s", "s"),
    ("landau.self_s", "s"),
    ("landau.failed", "count"),
    ("landau.radial_diagonal.self_s", "s"),
    ("landau.radial_diagonal.entries", "count"),
    *[(f"landau.us_per_entry.q{q}", "us") for q in RADIAL_LEVELS],
    ("landau.truncation_bound.calls", "count"),
    ("landau.truncation_bound.self_s", "s"),
    ("landau.toeplitz_matrix.self_s", "s"),
    ("landau.toeplitz_matrix.band_entries", "count"),
    ("eigen.self_s", "s"),
    ("eigen.failed", "count"),
    ("eigen.sym_eig.calls", "count"),
    ("eigen.sym_eig.self_s", "s"),
    ("eigen.sym_eig.dim_max", "count"),
    ("measures.self_s", "s"),
    ("measures.failed", "count"),
    ("measures.convergence_study.self_s", "s"),
    ("measures.density_integral.calls", "count"),
    ("measures.density_integral.self_s", "s"),
    ("measures.mu_interval.self_s", "s"),
    ("measures.jobs2_speedup", "x"),
    ("symbols.self_s", "s"),
    ("symbols.failed", "count"),
    ("symbols.hs_distance.calls", "count"),
    ("symbols.hs_distance.self_s", "s"),
    ("symbols.hs_distance_fourier.self_s", "s"),
    ("symbols.scaled_symbol_identity.self_s", "s"),
    ("potentials.self_s", "s"),
    ("potentials.failed", "count"),
    ("potentials.power_cos_average.calls", "count"),
    ("potentials.power_cos_average.points", "count"),
    ("potentials.power_cos_average.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.failed", "count"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("entries_per_s", "1/s"),
]


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = math.nan
    error: bool = False
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """Collects spans in memory; each thread keeps its own stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        sp = Span(next(self._ids), name, layer, stack[-1].id if stack else None,
                  self._clock())
        self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")


def self_times(spans) -> dict:
    """span id -> duration minus the union of its direct children's intervals
    (clipped to the parent), so overlapping children from threads count once."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for s, e in sorted(children.get(sp.id, ())):
            s, e = max(s, cursor), min(e, sp.end)
            if e > s:
                covered += e - s
                cursor = e
        out[sp.id] = (sp.end - sp.start) - covered
    return out


# ---------------------------------------------------------------------------
# work counts from argument shapes
# ---------------------------------------------------------------------------

def laguerre_node_steps(n, alpha, t) -> int:
    """degree x evaluation points of laguerre_function(n, alpha, t); alpha
    broadcasts against t the way the function broadcasts it."""
    t_shape = np.shape(t)
    t2 = t_shape if len(t_shape) > 1 else (1,) * (2 - len(t_shape)) + t_shape
    a_shape = (np.size(alpha),) + (1,) * (len(t2) - 1)
    return int(n) * math.prod(np.broadcast_shapes(a_shape, t2))


def multi_node_steps(n_arr, t) -> tuple[int, int]:
    """(max n_i x t.size, sum n_i x nodes per row) for laguerre_function_multi:
    the shared recurrence runs every row to the largest degree."""
    n = np.asarray(n_arr)
    if n.size == 0:
        return 0, 0
    size = int(np.size(t))
    return int(n.max()) * size, int(n.sum()) * (size // n.size)


# Counters take (result, *args, **kwargs) of the wrapped call and return the
# counts for its span.  Parameter names mirror the library's signatures.

def _count_laguerre(_result, n, alpha, t):
    return {"node_steps": laguerre_node_steps(n, alpha, t)}


def _count_multi(_result, n_arr, alpha_arr, t):
    steps, useful = multi_node_steps(n_arr, t)
    return {"node_steps": steps, "useful_steps": useful}


def _count_radial(result, model, cfg, chunk=512):
    return {"entries": int(np.size(result)), "q": int(cfg.q)}


def _count_toeplitz(result, model, cfg, chunk=512):
    dim = int(cfg.dimension)
    offs = {p.mode for p in model.angular_modes() if p.mode > 0}
    return {"band_entries": sum(2 * max(dim - j, 0) for j in offs)}


def _count_eig(result, matrix):
    return {"dim": int(result.dimension)}


def _count_pca(_result, a, b, rho, n_per=24, *, gap=None):
    return {"points": int(np.broadcast(np.atleast_1d(a), np.atleast_1d(b)).size)}


def _count_cli(_result, argv=None):
    argv = list(argv or [""])
    config = argv[argv.index("--config") + 1] if "--config" in argv else "default"
    return {"subcommand": argv[0], "config": Path(config).stem}


def _count_rule(_result, order):
    return {"order": int(order)}


# span name -> counter; the span name is "<module>.<public function>".
# Count keys in LABELS identify the call (level, rule order, subcommand)
# rather than measure work, so they are not summed.
LABELS = {"q", "order", "subcommand", "config"}
FUNCTIONS = {
    "specfun.laguerre_function": _count_laguerre,
    "specfun.laguerre_function_multi": _count_multi,
    "specfun.legendre_rule": _count_rule,
    "specfun.laguerre_bessel_gap": None,
    "landau.radial_diagonal": _count_radial,
    "landau.truncation_bound": None,
    "landau.toeplitz_matrix": _count_toeplitz,
    "eigen.sym_eig": _count_eig,
    "measures.convergence_study": None,
    "symbols.hs_distance": None,
    "symbols.hs_distance_fourier": None,
    "symbols.scaled_symbol_identity": None,
    "potentials.power_cos_average": _count_pca,
    "cli.main": _count_cli,
}
# span name -> (module, class, method)
METHODS = {
    "measures.density_integral": ("measures", "LimitingMeasure", "density_integral"),
    "measures.mu_interval": ("measures", "LimitingMeasure", "mu_interval"),
}


def _wrap(recorder, name, fn, counter, error_type):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer) as sp:
            try:
                result = fn(*args, **kwargs)
            except error_type:
                sp.error = True
                raise
        if counter is not None:
            sp.counts = counter(result, *args, **kwargs)
        return result
    return wrapper


def install(recorder: SpanRecorder, package) -> list:
    """Wrap every traced function wherever an lcl module has imported it.

    `package` is the imported ``lcl`` package.  Returns the replaced
    (owner, attribute, original) triples so that :func:`restore` can undo it.
    """
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in LAYERS]
    error_type = package.LclError
    patches = []
    for name, counter in FUNCTIONS.items():
        mod, attr = name.split(".")
        original = getattr(importlib.import_module(f"{package.__name__}.{mod}"), attr)
        wrapper = _wrap(recorder, name, original, counter, error_type)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    patches.append((owner, key, original))
                    setattr(owner, key, wrapper)
    for name, (mod, cls_name, meth) in METHODS.items():
        cls = getattr(importlib.import_module(f"{package.__name__}.{mod}"), cls_name)
        original = vars(cls)[meth]
        patches.append((cls, meth, original))
        setattr(cls, meth, _wrap(recorder, name, original, None, error_type))
    return patches


def restore(patches) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced workload; the workload's root span
    (named ROOT) gives the traced wall time and the untraced remainder."""
    lf, lm, rule = ("specfun.laguerre_function", "specfun.laguerre_function_multi",
                    "specfun.legendre_rule")
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    failed = defaultdict(int)
    for sp in spans:
        calls[sp.name] += 1
        self_s[sp.name] += selfs[sp.id]
        self_s[sp.layer] += selfs[sp.id]
        for key, value in sp.counts.items():
            if key not in LABELS and isinstance(value, (int, float)):
                counts[f"{sp.name}.{key}"] += value
        if sp.name == "eigen.sym_eig":
            counts["eigen.sym_eig.dim_max"] = max(counts["eigen.sym_eig.dim_max"],
                                                  sp.counts.get("dim", 0))
        parent = by_id.get(sp.parent)
        if sp.error and (parent is None or parent.layer != sp.layer):
            failed[sp.layer] += 1
    # The rule cache starts empty in a fresh process and never evicts, so
    # each distinct order requested is exactly one cache miss.
    misses = len({sp.counts["order"] for sp in spans if sp.name == rule and sp.counts})
    roots = [sp for sp in spans if sp.name == ROOT]
    wall = sum(sp.end - sp.start for sp in roots)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({f"{layer}.failed": failed[layer] for layer in LAYERS})
    m.update({
        f"{lf}.self_s": self_s[lf],
        f"{lf}.node_steps": counts[f"{lf}.node_steps"],
        f"{lf}.node_steps_per_s": ratio(counts[f"{lf}.node_steps"], self_s[lf]),
        f"{lf}.wall_share": ratio(self_s[lf], wall),
        f"{lm}.self_s": self_s[lm],
        f"{lm}.node_steps": counts[f"{lm}.node_steps"],
        f"{lm}.node_steps_per_s": ratio(counts[f"{lm}.node_steps"], self_s[lm]),
        f"{lm}.useful_frac": ratio(counts[f"{lm}.useful_steps"], counts[f"{lm}.node_steps"]),
        f"{rule}.calls": calls[rule],
        f"{rule}.misses": misses,
        f"{rule}.hit_ratio": ratio(calls[rule] - misses, calls[rule]),
        f"{rule}.self_s": self_s[rule],
        "specfun.laguerre_bessel_gap.self_s": self_s["specfun.laguerre_bessel_gap"],
        "landau.radial_diagonal.self_s": self_s["landau.radial_diagonal"],
        "landau.radial_diagonal.entries": counts["landau.radial_diagonal.entries"],
        "landau.truncation_bound.calls": calls["landau.truncation_bound"],
        "landau.truncation_bound.self_s": self_s["landau.truncation_bound"],
        "landau.toeplitz_matrix.self_s": self_s["landau.toeplitz_matrix"],
        "landau.toeplitz_matrix.band_entries": counts["landau.toeplitz_matrix.band_entries"],
        "eigen.sym_eig.calls": calls["eigen.sym_eig"],
        "eigen.sym_eig.self_s": self_s["eigen.sym_eig"],
        "eigen.sym_eig.dim_max": counts["eigen.sym_eig.dim_max"],
        "measures.convergence_study.self_s": self_s["measures.convergence_study"],
        "measures.density_integral.calls": calls["measures.density_integral"],
        "measures.density_integral.self_s": self_s["measures.density_integral"],
        "measures.mu_interval.self_s": self_s["measures.mu_interval"],
        "symbols.hs_distance.calls": calls["symbols.hs_distance"],
        "symbols.hs_distance.self_s": self_s["symbols.hs_distance"],
        "symbols.hs_distance_fourier.self_s": self_s["symbols.hs_distance_fourier"],
        "symbols.scaled_symbol_identity.self_s": self_s["symbols.scaled_symbol_identity"],
        "potentials.power_cos_average.calls": calls["potentials.power_cos_average"],
        "potentials.power_cos_average.points": counts["potentials.power_cos_average.points"],
        "potentials.power_cos_average.self_s": self_s["potentials.power_cos_average"],
        "trace.wall_s": wall,
        "trace.remainder_s": self_s["bench"],
        "trace.spans": len(spans),
    })
    levels = radial_levels(spans)
    for q in RADIAL_LEVELS:
        lv = levels.get(q, {"entries": 0, "seconds": 0.0})
        m[f"landau.us_per_entry.q{q}"] = 1e6 * ratio(lv["seconds"], lv["entries"])
    return m


def radial_levels(spans) -> dict:
    """level q -> radial_diagonal entries and time (span duration) at that level."""
    levels = {}
    for sp in spans:
        if sp.name == "landau.radial_diagonal" and sp.counts:
            lv = levels.setdefault(sp.counts["q"], {"entries": 0, "seconds": 0.0})
            lv["entries"] += sp.counts["entries"]
            lv["seconds"] += sp.end - sp.start
    return levels
