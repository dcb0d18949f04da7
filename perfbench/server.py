"""The service under test, as its own process.

Usage: ``python3 perfbench/server.py --mode plain|spans|memory``, with
``src`` on ``PYTHONPATH``.  Prints ``PORT <n>`` once listening on
127.0.0.1, serves until SIGTERM, then prints one JSON line: its peak
resident set and, in ``spans`` mode, the summary of the spans it kept
in memory (``memory`` mode reports the ``tracemalloc`` peak instead).
Tenants are created by their first request.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import tracemalloc

from repro.service.server import SeraphService, ServiceConfig
from repro.service.tenants import TenantQuotas

import tracing
from harness import peak_rss_mb

#: Large enough that a consumer reading live never falls off the
#: bounded emission log during one pass.
EMISSION_LOG = 4096


async def serve() -> None:
    service = SeraphService(ServiceConfig(
        port=0,
        allow_dynamic_tenants=True,
        default_quotas=TenantQuotas(max_buffered_emissions=EMISSION_LOG),
        heartbeat_seconds=60.0,
    ))
    await service.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"PORT {service.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await service.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("plain", "spans", "memory"),
                        default="plain")
    args = parser.parse_args()
    report: dict = {}
    recorder = None
    if args.mode == "spans":
        recorder = tracing.Recorder()
        tracing.install(recorder, service=True)
    elif args.mode == "memory":
        tracemalloc.start()
    asyncio.run(serve())
    report["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        report["spans"] = len(recorder.spans)
        report["retained_max"] = recorder.retained_max
        report["summary"] = tracing.summarize(recorder.spans)
    if args.mode == "memory":
        report["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
