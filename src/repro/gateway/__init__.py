"""repro.gateway — async HTTP/SSE service surface (DESIGN.md §3j).

A stdlib-``asyncio`` front end that puts the serving stacks behind four
endpoints — ``POST /ticks`` (backpressured JSONL ingest), ``GET
/alerts`` (SSE with ``Last-Event-ID`` resume), ``GET /metrics``
(Prometheus text), and ``GET /status`` (operator JSON) — while keeping
the headline invariant of every serving layer before it: the delivered
alert stream is bitwise identical to the offline replay of the same
ticks, at every kill point.
"""

from repro.gateway.backends import FleetBackend, ResilientBackend
from repro.gateway.journal import EventJournal
from repro.gateway.metrics import render_prometheus, validate_exposition
from repro.gateway.server import GatewayConfig, GatewayThread, HotSpotGateway
from repro.gateway.sse import SseHub, SseSubscriber, format_frame

__all__ = [
    "EventJournal",
    "FleetBackend",
    "GatewayConfig",
    "GatewayThread",
    "HotSpotGateway",
    "ResilientBackend",
    "SseHub",
    "SseSubscriber",
    "format_frame",
    "render_prometheus",
    "validate_exposition",
]
