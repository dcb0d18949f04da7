"""Spans around each layer's public entry points, from outside ``src/``.

:func:`install` replaces class attributes (and the module bindings the
engine and server call through) with thin wrappers that record one span
per call: name, start, end, parent, and the id of the timed call the
harness is in.  Generator entry points such as ``match_pattern`` are
timed across their whole iteration: the span accumulates the time spent
inside each ``next()``, not the instant the generator object is made.
Spans stay in memory; :func:`layer_metrics` turns them into per-layer
self times and counts once the run is over.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

# Span record fields (a list per span keeps the hot path cheap).
NAME, START, END, PARENT, CALL, DURATION, ITEMS = range(7)


class Recorder:
    """In-memory span store with an explicit parent stack."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: The harness's current timed-call id, stamped on every span.
        self.call_id = 0
        #: Most elements an engine retained after a service push.
        self.retained_max = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.call_id, 0.0, 0])
        return index

    def wrap_call(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            stack.append(index)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                span = spans[index]
                span[START] = started
                span[END] = ended
                span[DURATION] = ended - started

        return wrapper

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            span = spans[index]
            iterator = function(*args, **kwargs)
            while True:
                stack.append(index)
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    ended = clock()
                    stack.pop()
                    if span[START] == 0.0:
                        span[START] = started
                    span[END] = ended
                    span[DURATION] += ended - started
                span[ITEMS] += 1
                yield item

        return wrapper

    def wrap_push(self, name: str, function: Callable) -> Callable:
        """``wrap_call`` for ``TenantState.push``: in the server every
        push is one timed call, so it gets its own call id, and the
        tenant engine's retained elements are recorded after it."""
        inner = self.wrap_call(name, function)

        @functools.wraps(function)
        def wrapper(tenant, *args, **kwargs):
            self.call_id += 1
            try:
                return inner(tenant, *args, **kwargs)
            finally:
                self.retained_max = max(self.retained_max,
                                        tenant.engine.retained_elements)

        return wrapper


def _targets(service: bool):
    """(span name, owner, attribute, kind) for every entry point; the
    kind names the Recorder method that wraps it."""
    from repro.cypher.evaluator import QueryEvaluator
    from repro.cypher.matcher import PatternMatcher
    from repro.cypher.plan_cache import PlanCache
    from repro.graph.columnar import ColumnarGraph
    from repro.graph.model import PropertyGraph
    from repro.seraph import engine as engine_module
    from repro.seraph.dataflow import StreamMaterializer
    from repro.seraph.engine import SeraphEngine
    from repro.stream.report import ReportState
    from repro.stream.snapshot import SnapshotMaintainer

    targets = [
        ("engine.register", SeraphEngine, "register", "call"),
        ("engine.ingest", SeraphEngine, "ingest_element", "call"),
        ("engine.advance", SeraphEngine, "advance_to", "call"),
        ("snapshot.add", SnapshotMaintainer, "add", "call"),
        ("snapshot.remove", SnapshotMaintainer, "remove", "call"),
        ("snapshot.graph", SnapshotMaintainer, "graph", "call"),
        ("report.apply", ReportState, "apply", "call"),
        ("graph.patched", PropertyGraph, "patched", "call"),
        ("graph.patched", ColumnarGraph, "patched", "call"),
        ("plan_cache.plan_for", PlanCache, "plan_for", "call"),
        ("matcher.match", PatternMatcher, "match_pattern", "generator"),
        ("matcher.match", PatternMatcher, "match_pattern_traced", "generator"),
        ("evaluator.apply_clause", QueryEvaluator, "apply_clause", "call"),
        ("evaluator.execute_plan", engine_module, "execute_plan", "call"),
        ("delta.evaluate", engine_module, "evaluate_delta", "call"),
        ("dataflow.materialize", StreamMaterializer, "materialize", "call"),
    ]
    if service:
        from repro.service import server as server_module
        from repro.service import sse as sse_module
        from repro.service.tenants import TenantState

        targets += [
            ("service.push", TenantState, "push", "push"),
            ("service.decode", server_module, "decode_item", "call"),
            ("service.sse_encode", sse_module, "emission_json", "call"),
        ]
    return targets


def install(recorder: Recorder, service: bool = False) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    restore = []
    for name, owner, attribute, kind in _targets(service):
        original = owner.__dict__[attribute]
        wrap = getattr(recorder, f"wrap_{kind}")
        setattr(owner, attribute, wrap(name, original))
        restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


# -- analysis -----------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[DURATION]
    return [span[DURATION] - children[index]
            for index, span in enumerate(spans)]


def _under(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total duration, self time and yielded items.

    Evaluator spans nested in a materialize span (its MERGE runs through
    the updating evaluator) are charged to materialize, not the read
    path, under the name ``evaluator.in_materialize``.
    """
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        if name.startswith("evaluator.") and _under(
                spans, index, "dataflow.materialize"):
            name = "evaluator.in_materialize"
        entry = summary.setdefault(
            name, {"calls": 0, "total": 0.0, "self": 0.0, "items": 0}
        )
        entry["calls"] += 1
        entry["total"] += span[DURATION]
        entry["self"] += own[index]
        entry["items"] += span[ITEMS]
    return summary


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    scale: float,
) -> Dict[str, float]:
    """The per-layer metrics from span summaries plus status counts.

    ``counts`` carries the denominators and the counters read from the
    engine's public ``status()`` (see ``run.py``); ``scale`` is the
    run's calibration factor applied to every span time.
    """
    evaluations = max(counts["evaluations"], 1)
    events = max(counts["events"], 1)

    def total(name: str) -> float:
        return summary.get(name, {}).get("total", 0.0) * scale

    def own(*names: str) -> float:
        return sum(summary.get(name, {}).get("self", 0.0)
                   for name in names) * scale

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    ms, us = 1e3, 1e6
    return {
        "engine.register_ms": ratio(total("engine.register") * ms,
                                    calls("engine.register")),
        "engine.ingest_us_per_event": total("engine.ingest") * us / events,
        "engine.advance_self_ms_per_eval":
            own("engine.advance") * ms / evaluations,
        "engine.evaluations": counts["evaluations_per_pass"],
        "engine.reuse_ratio": ratio(counts["reused"], counts["evaluations"]),
        "stream.snapshot.maintain_ms_per_event":
            (total("snapshot.add") + total("snapshot.remove")) * ms / events,
        "stream.snapshot.graph_ms_per_eval":
            total("snapshot.graph") * ms / evaluations,
        "stream.report.apply_ms_per_eval":
            total("report.apply") * ms / evaluations,
        "stream.retained_elements": counts["retained_max"],
        "graph.patched_ms_per_eval":
            total("graph.patched") * ms / evaluations,
        "graph.patched_calls": calls("graph.patched"),
        "cypher.plan_cache.plan_for_ms_per_eval":
            total("plan_cache.plan_for") * ms / evaluations,
        "cypher.plan_cache.hit_rate": ratio(
            counts["plan_hits"], counts["plan_hits"] + counts["plan_misses"]
        ),
        "cypher.plan_cache.compiles": counts["compiles_per_pass"],
        "cypher.matcher.ms_per_eval": total("matcher.match") * ms / evaluations,
        "cypher.matcher.bindings_per_eval":
            summary.get("matcher.match", {}).get("items", 0) / evaluations,
        "cypher.evaluator.self_ms_per_eval": own(
            "evaluator.apply_clause", "evaluator.execute_plan"
        ) * ms / evaluations,
        "seraph.delta.ms_per_eval": total("delta.evaluate") * ms / evaluations,
        "seraph.delta.incremental_share": ratio(
            counts["delta"], counts["delta"] + counts["delta_full_refreshes"]
        ),
        "seraph.delta.retained_share": ratio(
            counts["assignments_retained"],
            counts["assignments_retained"] + counts["assignments_recomputed"],
        ),
        "seraph.dataflow.materialize_ms_per_eval":
            total("dataflow.materialize") * ms / evaluations,
        "seraph.dataflow.rows": counts["dataflow_rows_per_pass"],
        "service.handler_ms": ratio(total("service.push") * ms,
                                    calls("service.push")),
        "service.decode_us_per_event": ratio(total("service.decode") * us,
                                             calls("service.decode")),
        "service.sse_encode_us_per_emission": ratio(
            total("service.sse_encode") * us, calls("service.sse_encode")
        ),
    }

