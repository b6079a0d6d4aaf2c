"""Gateway HTTP surface: ingest, status plane, metrics, error paths."""

from __future__ import annotations

import json
import socket

import pytest

from repro.gateway import (
    EventJournal,
    GatewayConfig,
    GatewayThread,
    HotSpotGateway,
    ResilientBackend,
    validate_exposition,
)

from tests._gateway_env import (
    END_HOUR,
    MALFORMED_TICKS,
    build_env,
    build_guarded,
    http,
    malformed_tick,
    post_ticks,
    tick_lines,
)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return build_env(tmp_path_factory.mktemp("gateway-server"))


@pytest.fixture()
def gateway(env, tmp_path):
    backend = ResilientBackend(build_guarded(env, tmp_path / "ckpt"))
    gateway = HotSpotGateway(
        backend,
        EventJournal(tmp_path / "ckpt" / "gateway_events.jsonl"),
        GatewayConfig(port=0, queue_capacity=64),
    )
    with GatewayThread(gateway):
        yield gateway


def _base(gateway) -> str:
    return f"http://{gateway.host}:{gateway.port}"


def _post_headers_only(gateway, length: str) -> tuple[bytes, bytes]:
    """``(head, body)`` of the reply to a ``POST /ticks`` that declares
    ``Content-Length: <length>`` and sends no body."""
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as sock:
        sock.sendall(
            f"POST /ticks HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n"
            .encode("latin-1")
        )
        reply = b""
        while chunk := sock.recv(65536):  # the server closes after replying
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


class TestIngest:
    def test_post_ticks_applies_and_acknowledges(self, env, gateway):
        status, _, body = http(
            _base(gateway) + "/ticks", data=tick_lines(env.dataset, 0, 24)
        )
        assert status == 200
        reply = json.loads(body)
        assert reply["processed"] == 24
        assert reply["clock"] == 24
        assert len(reply["results"]) == 24
        # The engine really advanced: /status agrees with the ack.
        status, _, body = http(_base(gateway) + "/status")
        assert json.loads(body)["clock"] == 24

    def test_empty_body_is_a_noop(self, gateway):
        status, _, body = http(_base(gateway) + "/ticks", data=b"\n\n")
        assert status == 200
        assert json.loads(body)["processed"] == 0

    def test_malformed_json_rejected_with_400(self, gateway):
        status, _, body = http(_base(gateway) + "/ticks", data=b"{not json\n")
        assert status == 400
        assert json.loads(body)["error"] == "bad-request"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_rejected_with_400(self, gateway, length):
        head, body = _post_headers_only(gateway, length)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == "bad-request"
        assert gateway.telemetry.counter("http_bad_requests") == 1

    def test_oversized_body_rejected_with_413(self, gateway):
        head, body = _post_headers_only(gateway, str(32 * 1024 * 1024 + 1))
        assert head.startswith(b"HTTP/1.1 413 ")
        assert json.loads(body)["error"] == "payload-too-large"
        assert gateway.telemetry.counter("http_bad_requests") == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_TICKS))
    def test_malformed_tick_payload_quarantines(self, env, gateway, case):
        post_ticks(_base(gateway), env.dataset, 0, 2)
        status, _, body = http(
            _base(gateway) + "/ticks", data=malformed_tick(env.dataset, 2, case)
        )
        assert status == 200
        reply = json.loads(body)
        (event,) = reply["results"][0]["events"]
        assert (event["event"], event["reason"]) == ("quarantine", MALFORMED_TICKS[case])
        assert reply["clock"] == 2
        assert gateway.telemetry.counter("ingest_errors") == 0

    def test_unsupported_op_rejected(self, gateway):
        status, _, body = http(
            _base(gateway) + "/ticks", data=b'{"op": "predict"}\n'
        )
        assert status == 400

    def test_oversized_batch_rejected_with_429(self, env, gateway):
        # 65 ticks against a 64-slot queue: rejected atomically before
        # anything is enqueued, with a Retry-After hint.
        body = tick_lines(env.dataset, 0, 65)
        status, headers, payload = http(_base(gateway) + "/ticks", data=body)
        assert status == 429
        assert "Retry-After" in headers
        reply = json.loads(payload)
        assert reply["error"] == "backpressure"
        # Nothing was applied: the clock is untouched.
        _, _, status_body = http(_base(gateway) + "/status")
        assert json.loads(status_body)["clock"] == 0

    def test_declared_hour_mismatch_quarantines(self, env, gateway):
        lines = tick_lines(env.dataset, 0, 1).decode().strip()
        tick = json.loads(lines)
        tick["hour"] = 500  # far-future declaration -> quarantine
        status, _, body = http(
            _base(gateway) + "/ticks", data=(json.dumps(tick) + "\n").encode()
        )
        assert status == 200
        reply = json.loads(body)
        events = reply["results"][0]["events"]
        assert events and events[0]["event"] == "quarantine"
        # Quarantine events are journaled (transient) so SSE carries them.
        assert reply["results"][0]["event_ids"] != []


class TestStatusPlane:
    def test_status_shape(self, env, gateway):
        post_ticks(_base(gateway), env.dataset, 0, 48)
        _, _, body = http(_base(gateway) + "/status")
        status = json.loads(body)
        assert status["service"] == "hotspot-gateway"
        assert status["backend"] == "resilient"
        assert status["clock"] == 48
        assert status["resume_hour"] == 48
        assert status["journal"]["next_event_id"] >= 0
        assert status["ingest"]["queue_capacity"] == 64
        assert status["sse"]["subscribers"] == 0
        assert status["quarantine"]["buffered"] == 0
        assert "dark_sectors" in status
        assert "checkpoint" in status

    def test_healthz(self, gateway):
        status, _, body = http(_base(gateway) + "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_unknown_path_404(self, gateway):
        status, _, body = http(_base(gateway) + "/nope")
        assert status == 404
        assert json.loads(body)["error"] == "not-found"


class TestMetrics:
    def test_metrics_parse_and_carry_backend_state(self, env, gateway):
        post_ticks(_base(gateway), env.dataset, 0, 24)
        status, headers, body = http(_base(gateway) + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert validate_exposition(text) > 0
        assert "repro_ingest_ticks_total 24" in text
        assert "repro_clock_hours 24" in text
        assert "repro_dlq_depth 0" in text
        assert "repro_dark_sectors" in text
        assert "repro_gateway_ticks_applied_total 24" in text
        assert "repro_gateway_ingest_apply_seconds_bucket" in text
        assert "repro_gateway_event_journal_next_id" in text


class TestJournalDurability:
    def test_acknowledged_events_survive_restart(self, env, tmp_path):
        """HTTP 200 means the events are on disk: reopening the journal
        (fresh gateway, same directory) replays them bitwise."""
        backend = ResilientBackend(build_guarded(env, tmp_path / "d"))
        journal_path = tmp_path / "d" / "gateway_events.jsonl"
        gateway = HotSpotGateway(
            backend, EventJournal(journal_path), GatewayConfig(port=0)
        )
        with GatewayThread(gateway):
            post_ticks(f"http://{gateway.host}:{gateway.port}", env.dataset, 0, END_HOUR)
            _, _, body = http(f"http://{gateway.host}:{gateway.port}/status")
            journaled = json.loads(body)["journal"]["next_event_id"]
        reopened = EventJournal(journal_path)
        assert reopened.next_id == journaled
        assert [i for i, _ in reopened.replay(-1)] == list(range(journaled))
        reopened.close()
