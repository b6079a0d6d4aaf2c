"""The live-gateway system under test: the guarded stack behind HTTP/SSE.

Composes the same library objects as ``hotspot-repro gateway`` does for
a single guarded engine -- ``ResilientBackend`` over a
``ResilientHotSpotService`` with WAL and snapshots, an ``EventJournal``
in the checkpoint directory, a ``HotSpotGateway`` with its default
config -- but loads the fixture's registry instead of training, and
sizes the ingestor from the fixture manifest instead of loading the
world.

Protocol: prints one ``{"type": "listening", ...}`` JSON line once the
port is bound, serves until its stdin closes, then stops the gateway and
prints one ``{"type": "shutdown", ...}`` line with its clock, the
rejected-tick and dropped-SSE-event counts, and its peak RSS.  With
``--trace-dir`` it records spans and writes them there before exiting.

    python benchmarks/e2e/gateway_server.py --fixture DIR --checkpoint-dir DIR
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import trace  # noqa: E402


async def _serve(gateway) -> dict:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    await gateway.start()
    print(json.dumps({
        "type": "listening", "host": gateway.host, "port": gateway.port,
    }), flush=True)

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_eof, daemon=True).start()
    await stop.wait()
    status = gateway.status()
    await gateway.stop()
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", type=Path, required=True)
    parser.add_argument("--checkpoint-dir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir is not None:
        tracer = trace.Tracer(args.trace_dir)
        trace.install(tracer)

    from repro.gateway import EventJournal, HotSpotGateway, ResilientBackend

    from fixture import registry_dir
    from workloads import build_guarded, vmhwm_mb

    manifest = json.loads((args.fixture / "manifest.json").read_text())
    backend = ResilientBackend(build_guarded(
        manifest["stream"], registry_dir(args.fixture, manifest), args.checkpoint_dir
    ))
    try:
        gateway = HotSpotGateway(
            backend, EventJournal(args.checkpoint_dir / "gateway_events.jsonl")
        )
        status = asyncio.run(_serve(gateway))
    finally:
        backend.close()
    if tracer is not None:
        tracer.flush()
    print(json.dumps({
        "type": "shutdown",
        "clock": status["resume_hour"],
        "rejected": status["ingest"]["rejected"],
        "sse_dropped": status["sse"]["dropped_events"],
        "peak_rss_mb": vmhwm_mb(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
