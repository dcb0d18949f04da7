"""End-to-end benchmark of the paper workloads, with a traced layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --nominal-kernel-ms 0.2 \
        --workload network --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload and seed untraced, then traced, then once under
``tracemalloc``, and reports the per-layer metrics.  Every run checks
its output; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every check passed, 1 on an output mismatch and 2 when the package
source is missing.  README.md in this directory defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Reported in place of a latency percentile that falls on a failed or
#: missing evaluation (JSON has no infinity).
MISSING_LATENCY_MS = 1e9

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "eval_p50_ms": "ms",
    "eval_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.register_ms": "ms",
    "engine.ingest_us_per_event": "us",
    "engine.advance_self_ms_per_eval": "ms",
    "engine.evaluations": "count",
    "engine.reuse_ratio": "ratio",
    "stream.snapshot.maintain_ms_per_event": "ms",
    "stream.snapshot.graph_ms_per_eval": "ms",
    "stream.report.apply_ms_per_eval": "ms",
    "stream.retained_elements": "count",
    "graph.patched_ms_per_eval": "ms",
    "graph.patched_calls": "count",
    "cypher.plan_cache.plan_for_ms_per_eval": "ms",
    "cypher.plan_cache.hit_rate": "ratio",
    "cypher.plan_cache.compiles": "count",
    "cypher.matcher.ms_per_eval": "ms",
    "cypher.matcher.bindings_per_eval": "count",
    "cypher.evaluator.self_ms_per_eval": "ms",
    "seraph.delta.ms_per_eval": "ms",
    "seraph.delta.incremental_share": "ratio",
    "seraph.delta.retained_share": "ratio",
    "seraph.dataflow.materialize_ms_per_eval": "ms",
    "seraph.dataflow.rows": "count",
    "service.request_ms": "ms",
    "service.handler_ms": "ms",
    "service.http_wait_ms": "ms",
    "service.decode_us_per_event": "us",
    "service.sse_encode_us_per_emission": "us",
    "service.bytes_in_per_event": "bytes",
    "service.bytes_out_per_emission": "bytes",
    "service.failed_requests": "count",
    "service.shed_frames": "count",
    "obs.trace_overhead": "ratio",
    "mem.traced_peak_mb": "MB",
    "harness.calib_kernel_ms": "ms",
    "harness.raw_events_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--nominal-kernel-ms", type=float, required=True,
        help="calibration kernel time every timing is scaled to "
             "(BENCHMARK.json's command fixes it)",
    )
    return parser.parse_args(argv)


def pinned_env() -> Dict[str, str]:
    """The environment for child processes: no ``REPRO_*`` engine knobs
    (``EngineConfig()`` would read them), the package on the path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    The calibration kernel measures the speed of the CPU the harness
    runs on.  On a shared host two CPUs drift apart, so a server process
    on the other CPU runs at a speed the kernel never sees: unpinned,
    scaling made the service figures noisier (bucket cv 4.9% raw, 6.4%
    scaled); pinned, it cut them from 12.6% to 4.2%.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(fraction * len(ordered)) - 1, 0)
    return ordered[rank]


def latency_ms(ordered: List[float], fraction: float) -> float:
    value = percentile(ordered, fraction) * 1e3
    return value if math.isfinite(value) else MISSING_LATENCY_MS


class Run:
    """One invocation: a workload, a seed and the drivers it needs."""

    def __init__(self, args):
        from calibrate import Calibrator
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.calibrator = Calibrator(args.nominal_kernel_ms / 1e3)
        self.phases = []

    def driver(self, mode: str):
        from harness import InProcessDriver
        from http_driver import HttpDriver

        if self.workload.over_http:
            driver = HttpDriver(self.workload, self.args.seed,
                                self.calibrator, mode, pinned_env())
        else:
            driver = InProcessDriver(self.workload, self.args.seed,
                                     self.calibrator)
        return driver

    def phase(self, driver, seconds: float, max_passes=None):
        """Run sub-streams 0, 1, 2, ... until ``seconds`` have passed,
        or ``max_passes`` of them."""
        from harness import Phase

        phase = Phase()
        self.phases.append(phase)
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            driver.run_pass(index, phase)
            index += 1
            if max_passes is not None and index >= max_passes:
                return phase
            if time.perf_counter() >= deadline:
                return phase

    # -- output checks ------------------------------------------------------

    def verify(self) -> List[str]:
        """Every pass's emissions against the reference engine path (one
        run per sub-stream), plus the workload's own checks.

        Against the reference path an emission must hold the same rows;
        emissions that differ only in row order are counted in
        ``self.reordered``.  Over the service, emissions must also be
        byte-identical to the in-process run's.
        """
        from harness import offline_lines
        from workloads import REFERENCE_CONFIG, canonical, line_hashes

        workload, seed = self.workload, self.args.seed
        problems: List[str] = []
        self.reordered = 0
        for phase in self.phases:
            problems.extend(phase.errors[:5])
        def offline(index: int, config=None):
            """Line digests of an untimed ``run_stream`` of a
            sub-stream, or None when the engine raised."""
            try:
                lines = offline_lines(workload,
                                      workload.generator(seed, index), config)
            except Exception as exc:  # reported as a failed check
                problems.append(f"sub-stream {index}: offline run raised "
                                f"{type(exc).__name__}: {exc}")
                return None
            return line_hashes(lines), line_hashes(lines, canonical)

        references: Dict[int, Optional[tuple]] = {}
        for phase in self.phases:
            for index, output in sorted(phase.outputs.items()):
                if index not in references:
                    references[index] = offline(index, REFERENCE_CONFIG)
                reference = references[index]
                if reference is None:
                    pass
                elif output.exact == reference[0]:
                    pass
                elif output.canonical == reference[1]:
                    exact = reference[0]
                    self.reordered += sum(
                        output.exact[at:at + 8] != exact[at:at + 8]
                        for at in range(0, len(exact), 8)
                    )
                else:
                    problems.append(
                        f"sub-stream {index}: emissions differ from the "
                        "reference engine path"
                    )
                if workload.over_http:
                    in_process = offline(index)
                    if in_process is not None and output.exact != in_process[0]:
                        problems.append(
                            f"sub-stream {index}: service emissions are not "
                            "byte-identical to the in-process run"
                        )
                problems.extend(f"sub-stream {index}: {problem}"
                                for problem in output.problems)
        return problems

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        driver = self.driver("plain")
        try:
            phase = self.phase(driver, self.args.seconds)
        finally:
            driver.close()
        setup = phase.setup
        ordered = sorted(phase.latencies)
        metrics = {
            "events_per_s": phase.events / phase.busy_scaled,
            "eval_p50_ms": latency_ms(ordered, 0.50),
            "eval_p95_ms": latency_ms(ordered, 0.95),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": driver.peak_rss_mb(),
        }
        raw = sorted(phase.latencies_raw)
        self.diagnostics = [
            f"raw events_per_s {phase.events / phase.busy_raw:.2f} 1/s, "
            f"raw eval_p50_ms {latency_ms(raw, 0.50):.4f}, "
            f"raw eval_p95_ms {latency_ms(raw, 0.95):.4f}, "
            f"calibration scale {self.calibrator.run_scale():.3f}",
            f"evaluations {len(ordered)} over {phase.passes} passes "
            f"({phase.events} events), setup samples {len(setup)}",
        ]
        return metrics

    def per_layer(self) -> Dict[str, float]:
        import tracing

        half = self.args.seconds / 2
        driver = self.driver("plain")
        try:
            untraced = self.phase(driver, half)
        finally:
            driver.close()

        driver = self.driver("spans")
        uninstall = None
        if not self.workload.over_http:
            driver.recorder = tracing.Recorder()
            uninstall = tracing.install(driver.recorder)
        try:
            traced = self.phase(driver, half)
        finally:
            if uninstall is not None:
                uninstall()
            report = driver.close()
        if self.workload.over_http:
            summary = report["summary"]
            traced.retained_max = report["retained_max"]
        else:
            summary = tracing.summarize(driver.recorder.spans)

        memory = self.driver("memory")
        if self.workload.over_http:
            try:
                self.phase(memory, 0, max_passes=1)
            finally:
                traced_peak_mb = memory.close()["traced_peak_mb"]
        else:
            tracemalloc.start()
            try:
                self.phase(memory, 0, max_passes=1)
                traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        counts = dict(traced.counts)
        passes = max(traced.passes, 1)
        counts.update(
            events=traced.events,
            evaluations_per_pass=counts["evaluations"] / passes,
            compiles_per_pass=counts["plan_compiles"] / passes,
            dataflow_rows_per_pass=counts["dataflow_rows"] / passes,
            retained_max=traced.retained_max,
        )
        scale = self.calibrator.run_scale()
        metrics = tracing.layer_metrics(summary, counts, scale)
        untraced_rate = untraced.events / untraced.busy_scaled
        traced_rate = traced.events / traced.busy_scaled
        metrics.update({
            "service.request_ms": 0.0,
            "service.http_wait_ms": 0.0,
            "service.bytes_in_per_event": 0.0,
            "service.bytes_out_per_emission": 0.0,
            "service.failed_requests": 0,
            "service.shed_frames": 0,
            "obs.trace_overhead": traced_rate / untraced_rate,
            "mem.traced_peak_mb": traced_peak_mb,
            "harness.calib_kernel_ms": self.calibrator.median_kernel() * 1e3,
            "harness.raw_events_per_s": untraced.events / untraced.busy_raw,
        })
        if self.workload.over_http:
            requests = max(len(driver.request_seconds), 1)
            request_ms = sum(driver.request_seconds) * scale * 1e3 / requests
            metrics.update({
                "service.request_ms": request_ms,
                "service.http_wait_ms":
                    request_ms - metrics["service.handler_ms"],
                "service.bytes_in_per_event":
                    driver.bytes_in / requests,
                "service.bytes_out_per_emission":
                    driver.bytes_out / max(driver.frames, 1),
                "service.failed_requests": traced.failed - driver.shed,
                "service.shed_frames": driver.shed,
            })
        self.diagnostics = [
            f"spans summary (calls / self ms, calibrated): " + ", ".join(
                f"{name} {entry['calls']}/{entry['self'] * scale * 1e3:.1f}"
                for name, entry in sorted(summary.items())
            ),
            f"untraced {untraced_rate:.2f} 1/s, traced {traced_rate:.2f} 1/s",
        ]
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    cpu = pin_to_one_cpu()
    from calibrate import EXPONENT

    run = Run(args)
    if args.trace:
        metrics = run.per_layer()
        units = PER_LAYER_UNITS
    else:
        metrics = run.end_to_end()
        units = END_TO_END_UNITS
    checking = time.perf_counter()
    problems = run.verify()
    checking = time.perf_counter() - checking
    attempted = sum(phase.calls + phase.evaluations + phase.missing
                    for phase in run.phases)
    failed = sum(phase.failed + phase.missing for phase in run.phases)
    knobs = next((phase.knobs for phase in run.phases if phase.knobs), {})

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python {platform.python_version()} on {platform.platform()}, "
          f"nproc {os.cpu_count()}, pinned to cpu {cpu}, engine knobs {json.dumps(knobs)}")
    print(f"calibration kernel median "
          f"{run.calibrator.median_kernel() * 1e3:.4f} ms "
          f"(nominal {args.nominal_kernel_ms} ms, exponent {EXPONENT})")
    for line in run.diagnostics:
        print(line)
    for name in units:
        print(f"  {name:42s} {metrics[name]:14.4f} {units[name]}")
    print(f"attempted {attempted}, failed {failed}; emissions whose rows "
          f"the reference path orders differently: {run.reordered}; "
          f"output checks took {checking:.1f} s")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
