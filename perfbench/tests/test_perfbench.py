"""Self-tests of the benchmark harness.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from calibrate import EXPONENT, Calibrator  # noqa: E402
from harness import InProcessDriver, Phase  # noqa: E402
from workloads import WORKLOADS, elements  # noqa: E402
from repro.runtime.checkpoint import graph_to_dict  # noqa: E402


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _one_pass(recorder=None) -> Phase:
    driver = InProcessDriver(WORKLOADS["micromobility"], seed=3,
                             calibrator=Calibrator(0.0002))
    driver.recorder = recorder
    phase = Phase()
    driver.run_pass(0, phase)
    return phase


def test_traced_digest_equals_untraced():
    untraced = _one_pass()
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        traced = _one_pass(recorder)
    finally:
        uninstall()
    assert recorder.spans, "the wrappers recorded nothing"
    assert traced.outputs[0].exact == untraced.outputs[0].exact
    assert traced.evaluations == untraced.evaluations > 0


def test_install_restores_every_entry_point():
    targets = tracing._targets(service=True)
    before = [owner.__dict__[attribute] for _n, owner, attribute, _kind in targets]
    tracing.install(tracing.Recorder(), service=True)()
    after = [owner.__dict__[attribute] for _n, owner, attribute, _kind in targets]
    assert before == after


def test_wrapped_generator_accumulates_time_across_iteration():
    recorder = tracing.Recorder()

    def produce():
        for item in range(3):
            _spin(0.01)
            yield item

    wrapped = recorder.wrap_generator("gen", produce)
    assert list(wrapped()) == [0, 1, 2]
    (span,) = recorder.spans
    assert span[tracing.ITEMS] == 3
    assert span[tracing.DURATION] >= 0.03

    # Time the consumer spends between items is not charged to the span.
    recorder = tracing.Recorder()
    wrapped = recorder.wrap_generator("gen", produce)
    for _item in wrapped():
        _spin(0.02)
    (span,) = recorder.spans
    assert 0.03 <= span[tracing.DURATION] < 0.06
    assert span[tracing.END] - span[tracing.START] >= 0.05


def test_child_self_time_never_exceeds_parent():
    recorder = tracing.Recorder()

    def leaf():
        _spin(0.002)

    def middle():
        _spin(0.002)
        for _ in range(3):
            wrapped_leaf()

    def generate():
        for item in range(2):
            wrapped_middle()
            yield item

    wrapped_leaf = recorder.wrap_call("leaf", leaf)
    wrapped_middle = recorder.wrap_call("middle", middle)
    outer = recorder.wrap_call("outer", lambda: list(
        recorder.wrap_generator("gen", generate)()
    ))
    outer()
    spans = recorder.spans
    own = tracing.self_times(spans)
    assert len(spans) == 1 + 1 + 2 + 6
    for index, span in enumerate(spans):
        assert own[index] >= 0
        parent = span[tracing.PARENT]
        if parent >= 0:
            assert span[tracing.DURATION] <= spans[parent][tracing.DURATION]
            assert own[index] <= spans[parent][tracing.DURATION]
    summary = tracing.summarize(spans)
    assert summary["leaf"]["calls"] == 6
    assert summary["gen"]["items"] == 2


def test_same_seed_reproduces_inputs():
    for workload in WORKLOADS.values():
        first = [
            (element.instant, graph_to_dict(element.graph))
            for element in elements(workload.generator(7, 1))
        ]
        again = [
            (element.instant, graph_to_dict(element.graph))
            for element in elements(workload.generator(7, 1))
        ]
        other = [
            (element.instant, graph_to_dict(element.graph))
            for element in elements(workload.generator(8, 1))
        ]
        assert first == again
        assert first != other


def test_calibration_scale_is_one_at_nominal():
    calibrator = Calibrator(0.0002)
    for _ in range(10):
        calibrator.observe(0.0002)
    assert calibrator.scale() == 1.0
    assert calibrator.run_scale() == 1.0
    calibrator.observe(0.0004)  # one slow kernel moves no median
    assert calibrator.scale() == 1.0
    for _ in range(10):
        calibrator.observe(0.0004)
    assert calibrator.scale() == 0.5 ** EXPONENT
