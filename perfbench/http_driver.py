"""Measurement through the service: a server process and an HTTP client.

The harness pushes one element per request to a separate server process
(``server.py``) and reads emissions over SSE: two processes and two
connections.  The loop is closed, as an ingest connector that waits for
each 202 is: the next push goes out when the previous one returns and
the frames it made due have arrived.  An evaluation's latency runs from
sending the push that made it due to the moment the harness has parsed
its SSE frame.  Every pass uses a fresh tenant, created by its first
request.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List

from repro.runtime.checkpoint import graph_to_dict
from repro.seraph.parser import parse_seraph
from repro.service.client import ServiceClient
from repro.service.sse import format_event

from calibrate import Calibrator
from harness import Phase, expected_evaluations, missing_evaluations
from workloads import Workload, elements, summarize_pass

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds to wait for the server to listen, for the last SSE frames of
#: a pass, and for the server to exit after SIGTERM.
START_TIMEOUT = 60.0
FRAME_TIMEOUT = 10.0
STOP_TIMEOUT = 60.0

#: A yield that returns within this many seconds found the CPU idle (an
#: idle yield takes about 0.5 us); more than MAX_YIELDS busy yields in a
#: row means something else keeps the CPU, and the harness goes on.
QUIET_YIELD = 20e-6
MAX_YIELDS = 50


class ServerProcess:
    """``server.py`` in a child process; stopped with SIGTERM."""

    def __init__(self, mode: str, env: Dict[str, str]):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), "--mode", mode],
            stdout=subprocess.PIPE, env=env,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], START_TIMEOUT)
        line = stdout.readline().decode("utf-8") if ready else ""
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"server did not start (got {line!r})")
        return int(line.split()[1])

    def stop(self) -> Dict[str, object]:
        """Stop the server and return the report it prints at exit."""
        self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop after SIGTERM")
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited with code {self.process.returncode}"
            )
        return json.loads(output.decode("utf-8").strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def yield_to_server() -> None:
    """Give the CPU to the server until it has nothing left to run.

    The harness and the server share one CPU (``run.py`` pins both), so
    a yield that returns at once means no other task there was runnable.
    """
    for _ in range(MAX_YIELDS):
        started = time.perf_counter()
        os.sched_yield()
        if time.perf_counter() - started < QUIET_YIELD:
            return


class HttpDriver:
    """Runs a workload against a server process over HTTP and SSE."""

    def __init__(self, workload: Workload, seed: int, calibrator: Calibrator,
                 mode: str, env: Dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.calibrator = calibrator
        self.server = ServerProcess(mode, env)
        self.client = ServiceClient("127.0.0.1", self.server.port)
        self.queries = [parse_seraph(text) for text in workload.queries]
        self._tenants = 0
        #: Client round-trip seconds of every push (raw) and body bytes.
        self.request_seconds: List[float] = []
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames = 0
        self.shed = 0
        self.report: Dict[str, object] = {}

    def _tenant(self) -> str:
        self._tenants += 1
        return f"bench{self._tenants}"

    async def _subscribe(self, tenant: str):
        """Register every query and open its SSE stream."""
        streams = []
        for text in self.workload.queries:
            response = await self.client.request(
                "POST", f"/tenants/{tenant}/queries", payload={"query": text}
            )
            if response.status != 201:
                raise RuntimeError(
                    f"register failed: {response.status} {response.body!r}"
                )
            name = response.json()["query"]
            reader, writer = await self.client.open_sse(
                f"/tenants/{tenant}/queries/{name}/emissions"
            )
            streams.append((name, reader, writer))
        return streams

    async def _unsubscribe(self, tenant: str, streams) -> None:
        for name, _reader, writer in streams:
            writer.close()
            await self.client.request("DELETE",
                                      f"/tenants/{tenant}/queries/{name}")

    def run_pass(self, index: int, phase: Phase) -> None:
        asyncio.run(self._run_pass(index, phase))

    async def _run_pass(self, index: int, phase: Phase) -> None:
        calibrator = self.calibrator
        client = self.client
        generator = self.workload.generator(self.seed, index)
        tenant = self._tenant()
        # Set-up runs from the first request to the fresh tenant until
        # every query is registered and its SSE stream is open.
        yield_to_server()
        scale = calibrator.tick()
        started = time.perf_counter()
        streams = await self._subscribe(tenant)
        phase.setup.append((time.perf_counter() - started) * scale)
        frames: List[tuple] = []
        wanted = 0
        arrived = asyncio.Event()

        async def read(reader) -> None:
            while True:
                frame = await client.read_event(reader)
                if frame is None:
                    return
                frames.append((time.perf_counter(), frame))
                if len(frames) >= wanted:
                    arrived.set()

        async def settle(count: int) -> bool:
            """Wait until ``count`` frames have arrived and the server
            has nothing left to run; False when the frames do not come."""
            nonlocal wanted
            if len(frames) < count:
                wanted = count
                arrived.clear()
                try:
                    await asyncio.wait_for(arrived.wait(), FRAME_TIMEOUT)
                except asyncio.TimeoutError:
                    return False
            yield_to_server()
            return True

        readers = [asyncio.create_task(read(reader))
                   for _name, reader, _writer in streams]
        instants: List[int] = []
        starts: List[tuple] = []
        path = f"/tenants/{tenant}/streams/default/events"

        async def timed(method: str, target: str, body: bytes,
                        accepted: int) -> bool:
            """One timed request; a successful one records the start
            that evaluations it makes due are measured from.

            The kernel runs only once the frames every earlier push
            made due have arrived and the server is idle, so none of
            the server's work after a response lands inside it."""
            due = (expected_evaluations(self.queries, instants[-1] - 1)
                   if instants else 0)
            if not await settle(due):
                phase.errors.append(
                    f"{due - len(frames)} frames did not arrive within "
                    f"{FRAME_TIMEOUT:g} s"
                )
                return False
            scale = calibrator.tick()
            started = time.perf_counter()
            try:
                response = await client.request(
                    method, target, body=body,
                    headers={"Content-Type": "application/json"},
                )
                ok = response.status == accepted
                detail = response.body[:200]
            except Exception as exc:  # a failing request is counted
                ok, detail = False, str(exc)
            elapsed = time.perf_counter() - started
            if ok:
                starts.append((started, scale))
            phase.calls += 1
            phase.busy_scaled += elapsed * scale
            phase.busy_raw += elapsed
            self.request_seconds.append(elapsed)
            self.bytes_in += len(body)
            if not ok:
                phase.failed += 1
                phase.errors.append(f"{method} {target}: {detail!r}")
            return ok

        last = end = None
        stream = elements(generator)
        for element in stream:
            end = element.instant
            body = json.dumps({
                "instant": element.instant,
                "graph": graph_to_dict(element.graph),
            }).encode("utf-8")
            if not await timed("POST", path, body, 202):
                break
            phase.events += 1
            instants.append(element.instant)
            last = element.instant
        if last is not None:
            await timed("POST", f"/tenants/{tenant}/advance",
                        json.dumps({"until": last}).encode("utf-8"), 200)
        for element in stream:  # the rest of a stream a failure cut short
            end = element.instant
        expected = (expected_evaluations(self.queries, end)
                    if end is not None else 0)
        await settle(expected)
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)

        lines = []
        for arrival, frame in frames:
            self.bytes_out += len(format_event(
                frame.data, event_id=frame.event_id, event=frame.event
            ))
            if frame.event != "emission":
                self.shed += 1
                phase.failed += 1
                continue
            self.frames += 1
            lines.append(frame.data)
            due = bisect.bisect_right(instants, json.loads(frame.data)["instant"])
            if due < len(starts):
                started, scale = starts[due]
                phase.latencies.append((arrival - started) * scale)
                phase.latencies_raw.append(arrival - started)
            else:  # made due by a request that failed
                phase.latencies.append(float("inf"))
                phase.latencies_raw.append(float("inf"))
        missing_evaluations(phase, expected, len(lines))
        phase.evaluations += len(lines)

        response = await client.request("GET", f"/tenants/{tenant}/status")
        document = response.json()
        phase.add_status(document["engine"])
        await self._unsubscribe(tenant, streams)
        phase.record_pass(index, summarize_pass(self.workload, generator,
                                                lines))

    def peak_rss_mb(self) -> float:
        return float(self.report["peak_rss_mb"])

    def close(self) -> Dict[str, object]:
        """Stop the server; its exit report carries its peak RSS and,
        when traced, its spans."""
        self.report = self.server.stop()
        return self.report
