"""Spans around the public functions of submaj's layers, recorded from outside.

``Tracer.installed(submaj)`` replaces each public function of the layer
modules with a recording wrapper wherever a submaj module refers to it: its
own module, modules that imported the name (``classify_matrix`` inside
``relations``), the package namespace, and dicts held by a module (the CLI's
relation table).  A span is (name, start, end, parent span, operation id),
plus a count read off the result for a few functions and, in the memory
pass, a tracemalloc peak.  Spans stay in memory until the run writes them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from typing import NamedTuple, Optional

LAYERS = ("vectors", "matrices", "relations", "preservers", "demos", "cli")
# Index maps called once per matrix entry: a span would cost more than the body.
UNWRAPPED = {"demos.theta_quadratic", "demos.theta_triangular", "demos.constant_row_support_index"}
METHODS = {"preservers": ("TruncatedOperator.apply",)}
RESULT_COUNTS = {
    "relations.hlp_witness": lambda r: len(r.steps),
    "matrices.vonneumann_complete": lambda r: len(r.steps),
    "preservers.build_preserver": lambda r: len(r.entries),
    "preservers.empirical_preservation_check": lambda r: r.trials,
}
PEAK_NAMES = {"relations.weak_witness", "matrices.vonneumann_complete"}

DECIDE = ("relations.check_majorize", "relations.check_weak_majorize", "relations.check_submajorize")
# (metric, unit, kind, span names).  Values are per top-level operation,
# reported as the median over operations (peaks: the maximum).
LAYER_METRICS = (
    ("vectors.rearrange_ms", "ms", "ms", ("vectors.decreasing_rearrangement",)),
    ("vectors.rearrange_calls", "count", "calls", ("vectors.decreasing_rearrangement",)),
    ("vectors.partial_sums_calls", "count", "calls_from_relations", ("vectors.partial_sums",)),
    ("relations.decide_self_ms", "ms", "self_ms", DECIDE),
    ("relations.decide_calls", "count", "calls", DECIDE[:2]),
    ("relations.hlp_witness_self_ms", "ms", "self_ms", ("relations.hlp_witness",)),
    ("relations.intermediate_h_self_ms", "ms", "self_ms", ("relations.intermediate_h",)),
    ("relations.weak_witness_self_ms", "ms", "self_ms", ("relations.weak_witness",)),
    ("relations.chain_steps", "count", "count", ("relations.hlp_witness",)),
    ("relations.witness_peak_mb", "MB", "peak_mb", ("relations.weak_witness",)),
    ("matrices.classify_self_ms", "ms", "self_ms", ("matrices.classify_matrix",)),
    ("matrices.classify_calls", "count", "calls", ("matrices.classify_matrix",)),
    ("matrices.complete_self_ms", "ms", "self_ms", ("matrices.vonneumann_complete",)),
    ("matrices.completion_steps", "count", "count", ("matrices.vonneumann_complete",)),
    ("matrices.complete_peak_mb", "MB", "peak_mb", ("matrices.vonneumann_complete",)),
    ("preservers.build_ms", "ms", "ms", ("preservers.build_preserver",)),
    ("preservers.classify_l1_ms", "ms", "ms", ("preservers.classify_preserver_l1",)),
    ("preservers.classify_lp_ms", "ms", "ms", ("preservers.classify_preserver_lp",)),
    ("preservers.apply_ms", "ms", "ms", ("preservers.TruncatedOperator.apply",)),
    ("preservers.construct_S_ms", "ms", "ms", ("preservers.construct_S",)),
    ("preservers.fuzz_trial_ms", "ms", "ms_per_count", ("preservers.empirical_preservation_check",)),
    ("preservers.nnz", "count", "count", ("preservers.build_preserver",)),
    (
        "demos.family_ms",
        "ms",
        "ms",
        ("demos.quadratic_family", "demos.triangular_family", "demos.triangular_constant_row"),
    ),
    ("demos.shift_forcing_ms", "ms", "ms", ("demos.shift_forcing",)),
    ("cli.main_ms", "ms", "ms", ("cli.main",)),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    count: Optional[int]
    peak: Optional[int]


class Tracer:
    """Holds the spans of one run; ``op`` is the id of the operation running (-1: none)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.memory = False
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        count_of = RESULT_COUNTS.get(name)
        track_peak = name in PEAK_NAMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            peak_mode = self.memory and track_peak
            if peak_mode:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                peak = tracemalloc.get_traced_memory()[1] - base if peak_mode else None
                count = count_of(result) if count_of and result is not None else None
                self.spans[sid] = Span(name, start, end, parent, self.op, count, peak)

        return wrapper

    def _patch(self, owner, key, value, item: bool) -> None:
        original = owner[key] if item else getattr(owner, key)
        self._patches.append((owner, key, original, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    @contextlib.contextmanager
    def installed(self, package):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(name, obj)
            for method in METHODS.get(layer, ()):
                cls_name, meth = method.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(f"{layer}.{method}", vars(cls)[meth]), item=False)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, val in list(vars(module).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(module, attr, wrappers[val], item=False)
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(val, key, wrappers[item], item=True)
        try:
            yield self
        finally:
            for owner, key, original, item in reversed(self._patches):
                if item:
                    owner[key] = original
                else:
                    setattr(owner, key, original)
            self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **s._asdict()}) + "\n")


def _per_op(spans, op_ids) -> dict:
    """op id -> span name -> [calls, total_s, self_s, count, peak_bytes, calls_from_relations]."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    wanted = set(op_ids)
    out: dict = {op: {} for op in op_ids}
    for sid, s in enumerate(spans):
        if s.op not in wanted:
            continue
        st = out[s.op].setdefault(s.name, [0, 0.0, 0.0, 0, 0, 0])
        dur = s.end - s.start
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_time[sid]
        st[3] += s.count or 0
        st[4] = max(st[4], s.peak or 0)
        if s.parent >= 0 and spans[s.parent].name.startswith("relations."):
            st[5] += 1
    return out


def _value(stats: dict, kind: str, names) -> float:
    rows = [stats[n] for n in names if n in stats]
    calls = sum(r[0] for r in rows)
    total_ms = 1e3 * sum(r[1] for r in rows)
    if kind == "ms":
        return total_ms
    if kind == "self_ms":
        return 1e3 * sum(r[2] for r in rows)
    if kind == "calls":
        return calls
    if kind == "calls_from_relations":
        return sum(r[5] for r in rows)
    if kind == "count":
        return sum(r[3] for r in rows)
    if kind == "ms_per_count":
        count = sum(r[3] for r in rows)
        return total_ms / count if count else 0.0
    if kind == "peak_mb":
        return max((r[4] for r in rows), default=0) / 2**20
    raise ValueError(kind)


def layer_metrics(spans, timed_ops, memory_ops=()) -> dict:
    """Every span-based layer metric: median over ``timed_ops``; peaks: max over ``memory_ops``."""
    timed = _per_op(spans, timed_ops)
    memory = _per_op(spans, memory_ops)
    out = {}
    for metric, unit, kind, names in LAYER_METRICS:
        if kind == "peak_mb":
            value = max((_value(st, kind, names) for st in memory.values()), default=0.0)
        else:
            # Counts take the lower median, so that they stay whole numbers.
            middle = statistics.median if unit == "ms" else statistics.median_low
            value = middle([_value(st, kind, names) for st in timed.values()]) if timed else 0.0
        out[metric] = (value, unit)
    return out
