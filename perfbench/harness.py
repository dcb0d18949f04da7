"""In-process measurement: ``build_engine`` driven one element at a time.

The loop is closed: the next element goes in when the previous call
returns.  One timed call is ``advance_to(next.instant - 1)`` followed by
``ingest_element(next)`` (the ``run_stream`` discipline), plus one final
``advance_to(last.instant)``.  An evaluation's latency runs from the
start of the call that made it due to the moment the harness's own sink
receives its emission.  Serialising emissions for the output check
happens between calls, outside the timed sections.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import EngineConfig, build_engine
from repro.seraph.parser import parse_seraph
from repro.seraph.sinks import Sink
from repro.service.sse import emission_json

from calibrate import Calibrator
from workloads import PassOutput, Workload, elements, summarize_pass

#: Counters summed over passes from each engine's public ``status()``.
STATUS_COUNTERS = (
    "evaluations", "reused", "delta", "delta_full_refreshes",
    "assignments_retained", "assignments_recomputed", "plan_compiles",
)


@dataclass
class Phase:
    """Everything measured over the passes of one phase of a run."""

    events: int = 0
    calls: int = 0
    failed: int = 0
    evaluations: int = 0
    missing: int = 0
    passes: int = 0
    busy_scaled: float = 0.0
    busy_raw: float = 0.0
    #: Calibrated per-evaluation latencies, seconds, and the same
    #: unscaled (a diagnostic).
    latencies: List[float] = field(default_factory=list)
    latencies_raw: List[float] = field(default_factory=list)
    #: Calibrated seconds of each pass's fresh engine construction.
    setup: List[float] = field(default_factory=list)
    #: Sub-stream index -> the digests and check results of its pass.
    outputs: Dict[int, PassOutput] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    retained_max: int = 0
    knobs: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def record_pass(self, index: int, output: PassOutput) -> None:
        self.passes += 1
        self.outputs[index] = output

    def add_status(self, status: Dict[str, object]) -> None:
        """Sum the counters of one finished pass's engine status."""
        counts = self.counts
        for query in status["queries"].values():
            for key in STATUS_COUNTERS:
                counts[key] = counts.get(key, 0) + query[key]
        planner = status["planner"]
        counts["plan_hits"] = counts.get("plan_hits", 0) + planner["hits"]
        counts["plan_misses"] = (counts.get("plan_misses", 0)
                                 + planner["misses"])
        rows = sum(stream["rows"]
                   for stream in status["dataflow"]["streams"].values())
        counts["dataflow_rows"] = counts.get("dataflow_rows", 0) + rows
        if not self.knobs:
            self.knobs = {
                "policy": status["policy"],
                "incremental": status["incremental"],
                "delta_eval": status["delta_eval"],
                "physical_plans": planner["physical_plans"],
                "graph_backend": status["graph_backend"],
                "vectorized": status["vectorized"],
            }


class TimingSink(Sink):
    """Stamps each emission with the time the harness receives it."""

    def __init__(self):
        self.received: List[tuple] = []

    def receive(self, emission) -> None:
        self.received.append((time.perf_counter(), emission))


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expected_evaluations(queries, last: int) -> int:
    """Evaluations due up to instant ``last``: one per query per ET
    instant (``STARTING AT`` + k * ``EVERY``), so one emission each."""
    return sum(
        (last - query.starting_at) // query.slide + 1
        for query in queries if last >= query.starting_at
    )


def missing_evaluations(phase: Phase, expected: int, received: int) -> None:
    """Count evaluations that never arrived; each enters the latency
    percentiles as infinite, beyond every bound."""
    missing = max(expected - received, 0)
    phase.missing += missing
    phase.latencies.extend([float("inf")] * missing)
    phase.latencies_raw.extend([float("inf")] * missing)


def build(workload: Workload, sink: Sink, config: Optional[EngineConfig] = None):
    engine = build_engine(config or EngineConfig())
    for text in workload.queries:
        engine.register(text, sink=sink)
    return engine


def offline_lines(workload: Workload, generator,
                  config: Optional[EngineConfig] = None) -> List[str]:
    """One untimed ``run_stream`` of a sub-stream; its emission lines."""
    sink = TimingSink()
    engine = build(workload, sink, config)
    engine.run_stream(elements(generator))
    return [emission_json(emission) for _at, emission in sink.received]


class InProcessDriver:
    """Runs a workload against ``build_engine`` in this process."""

    def __init__(self, workload: Workload, seed: int, calibrator: Calibrator):
        self.workload = workload
        self.seed = seed
        self.calibrator = calibrator
        self.recorder = None
        self.queries = [parse_seraph(text) for text in workload.queries]

    def run_pass(self, index: int, phase: Phase) -> None:
        calibrator = self.calibrator
        recorder = self.recorder
        generator = self.workload.generator(self.seed, index)
        sink = TimingSink()
        scale = calibrator.tick()
        started = time.perf_counter()
        engine = build(self.workload, sink)
        phase.setup.append((time.perf_counter() - started) * scale)
        lines: List[str] = []

        def timed(call) -> bool:
            if recorder is not None:
                recorder.call_id += 1
            scale = calibrator.tick()
            started = time.perf_counter()
            ok = True
            try:
                call()
            except Exception as exc:  # a failing engine call is counted
                ok = False
                phase.failed += 1
                phase.errors.append(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - started
            phase.calls += 1
            phase.busy_scaled += elapsed * scale
            phase.busy_raw += elapsed
            for at, emission in sink.received:
                phase.latencies.append((at - started) * scale)
                phase.latencies_raw.append(at - started)
                lines.append(emission_json(emission))
            phase.evaluations += len(sink.received)
            sink.received.clear()
            if recorder is not None:
                phase.retained_max = max(phase.retained_max,
                                         engine.retained_elements)
            return ok

        last = end = None
        stream = elements(generator)
        for element in stream:
            end = element.instant

            def step(element=element):
                engine.advance_to(element.instant - 1)
                engine.ingest_element(element)

            if not timed(step):
                break
            phase.events += 1
            last = element.instant
        if last is not None:
            timed(lambda: engine.advance_to(last))
        for element in stream:  # the rest of a stream a failure cut short
            end = element.instant
        if end is not None:
            missing_evaluations(phase, expected_evaluations(self.queries, end),
                                len(lines))
        phase.add_status(engine.status())
        phase.record_pass(index, summarize_pass(self.workload, generator,
                                                lines))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> Dict[str, object]:
        return {}
