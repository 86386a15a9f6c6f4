"""The HTTP front against a stub source: the request-head reader's
limits and the routes, without a daemon or a fleet behind it."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro import metrics_http
from repro.metrics_http import HttpFront
from repro.telemetry import MetricsRegistry


class StubSource:
    """The smallest source an :class:`HttpFront` can serve."""

    max_frame_bytes = 4096

    def __init__(self, health: str | None = None) -> None:
        self.registry = MetricsRegistry()
        self.health = health

    def http_health(self) -> str | None:
        return self.health

    async def http_metrics(self) -> str:
        return self.registry.render_prometheus()

    async def http_stats(self) -> dict:
        return {"stub": True}

    async def dispatch(self, frame: dict) -> dict:
        return {"id": frame.get("id"), "ok": True, "op": frame.get("op"),
                "result": {}}


def exchange(payload: bytes, source: StubSource | None = None) -> bytes:
    """Send ``payload`` to a fresh front and read its whole reply."""

    async def main() -> bytes:
        front = HttpFront(source or StubSource())
        await front.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.bound_port
            )
            writer.write(payload)
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return reply
        finally:
            await front.aclose()

    return asyncio.run(main())


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def body_of(reply: bytes) -> bytes:
    return reply.split(b"\r\n\r\n", 1)[1]


@pytest.fixture
def no_asyncio_errors(caplog):
    """Fail when asyncio logs an unhandled connection-callback error."""
    caplog.set_level(logging.ERROR, logger="asyncio")
    yield
    assert not caplog.records, [r.getMessage() for r in caplog.records]


class TestHeadReader:
    def test_overlong_request_line_answers_400(self, no_asyncio_errors):
        line = b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        assert status_of(exchange(line)) == 400

    def test_overlong_header_line_answers_400(self, no_asyncio_errors):
        head = (
            b"GET /metrics HTTP/1.1\r\nX-Long: "
            + b"a" * (70 * 1024)
            + b"\r\n\r\n"
        )
        assert status_of(exchange(head)) == 400

    def test_stalled_head_answers_400_at_the_deadline(
        self, monkeypatch, no_asyncio_errors
    ):
        # The request line arrives; the headers never do.
        monkeypatch.setattr(metrics_http, "_HEAD_TIMEOUT_S", 0.2)
        assert status_of(exchange(b"GET /metrics HTTP/1.1\r\n")) == 400


def post(body: bytes) -> bytes:
    return (
        b"POST /v1/expand HTTP/1.1\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


class TestRoutes:
    """What the daemon and fleet suites do not reach: the reason text
    of a 503 and the gateway frames for a non-object or oversized
    body."""

    def test_health_reason_is_the_503_body(self):
        reply = exchange(
            b"GET /healthz HTTP/1.1\r\n\r\n", StubSource("no live shards")
        )
        assert status_of(reply) == 503
        assert body_of(reply) == b"no live shards\n"

    @pytest.mark.parametrize(
        "body, status, code",
        [
            (b"[1, 2]", 400, "bad_request"),
            (b"{}" + b" " * 5000, 413, "frame_too_large"),
        ],
    )
    def test_gateway_error_frames(self, body, status, code):
        reply = exchange(post(body))
        assert status_of(reply) == status
        assert json.loads(body_of(reply))["error"]["code"] == code
