"""Gateway shutdown with an idle keep-alive connection open.

Stopping the gateway cancels every connection handler still blocked
reading its next request.  The cancellation is the normal end of such a
handler, so it must not surface as a logged traceback.
"""

from __future__ import annotations

import logging
import socket

import pytest

from repro.gateway import EventJournal, GatewayConfig, GatewayThread, HotSpotGateway
from repro.gateway import ResilientBackend

from tests._gateway_env import build_env, build_guarded


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return build_env(tmp_path_factory.mktemp("gateway-shutdown"))


def test_stop_with_idle_keepalive_logs_no_traceback(env, caplog):
    gateway = HotSpotGateway(
        ResilientBackend(build_guarded(env)),
        EventJournal(None),
        GatewayConfig(port=0),
    )
    thread = GatewayThread(gateway)
    thread.start()
    conn = socket.create_connection((gateway.host, gateway.port), timeout=10)
    try:
        conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = conn.recv(4096)
            assert chunk, "connection closed before the response"
            reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 OK")
        # The connection stays open and idle: its handler is parked in
        # the next request read when the gateway stops.
        with caplog.at_level(logging.DEBUG):
            thread.stop()
    finally:
        conn.close()
    tracebacks = [r for r in caplog.records if r.exc_info or "Traceback" in r.getMessage()]
    assert not tracebacks, [r.getMessage() for r in tracebacks]
