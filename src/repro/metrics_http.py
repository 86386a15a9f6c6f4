"""The HTTP front of the expansion daemon and of the shard fleet.

``repro serve --metrics-port N`` starts one :class:`HttpFront`, a
minimal asyncio HTTP/1.1 listener next to the NDJSON protocol socket,
so standard tooling — Prometheus scrapers, load-balancer health
checks, ``curl``, ordinary load generators — can work against the
daemon or the fleet without speaking its protocol:

- ``GET /metrics``  — Prometheus text exposition;
- ``GET /healthz``  — drain-aware readiness: ``200 ok`` while
  accepting work, ``503`` with the reason (``draining``, or ``no live
  shards`` for a fleet) otherwise — a load balancer stops routing to
  a draining daemon before its socket closes;
- ``GET /statusz``  — the JSON stats snapshot, the same content as
  the NDJSON ``stats`` op;
- ``POST /v1/expand`` — the HTTP/JSON **gateway**: the body is one
  protocol frame (same JSON as a NDJSON request line), the response
  body is the response frame.  Protocol error codes map onto HTTP
  statuses (``busy`` → 429 with ``Retry-After``, ``expansion_error``
  → 422, ...), so ordinary HTTP tooling sees meaningful statuses
  while :class:`~repro.client.Ms2Client` just reads the frame.

The front owns everything HTTP: the listener, reading the head and
writing the response, counting the route, the 400/404/405 replies and
the gateway's ``frame_too_large``/``bad_request`` frames.  What it
serves comes from its source — a single daemon
(:class:`~repro.server.Ms2Server`) or a fleet supervisor
(:class:`~repro.shard.ShardSupervisor`, which aggregates its shards
and routes gateway frames to them).

Deliberately tiny: one request per connection (``Connection:
close``), no TLS, no routing table beyond the four paths.  It binds
loopback by default; anything fancier belongs behind a real proxy.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from http import HTTPStatus
from typing import Any

from repro.server import _err

__all__ = ["HttpFront", "http_status_for_frame"]

#: Cap on the request head (request line + headers) we will read.
_MAX_HEAD_BYTES = 16 * 1024

#: Seconds a client gets to send the whole request head.
_HEAD_TIMEOUT_S = 10.0

#: Protocol error code → HTTP status for gateway responses.
_CODE_STATUS = {
    "bad_request": 400,
    "frame_too_large": 413,
    "expansion_error": 422,
    "busy": 429,
    "unavailable": 503,
    "shutting_down": 503,
    "internal": 500,
}


#: The paths the front answers.  ``ms2_http_requests_total`` counts
#: every other path under the one route ``other``, so clients sending
#: junk paths cannot grow the series set.
HTTP_ROUTES = frozenset({"/metrics", "/healthz", "/statusz", "/v1/expand"})


def http_status_for_frame(frame: dict[str, Any]) -> int:
    """The HTTP status a gateway should attach to a protocol
    response frame (200 for ok frames)."""
    if frame.get("ok"):
        return 200
    code = (frame.get("error") or {}).get("code", "internal")
    return _CODE_STATUS.get(code, 500)


def retry_after_header(frame: dict[str, Any]) -> dict[str, str]:
    """A ``Retry-After`` header (whole seconds, rounded up) when the
    error frame carries a ``retry_after_ms`` hint; else empty."""
    hint = (frame.get("error") or {}).get("retry_after_ms")
    if not isinstance(hint, (int, float)) or hint <= 0:
        return {}
    return {"Retry-After": str(max(1, int(-(-hint // 1000))))}


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str]] | None:
    """``(method, target, headers)``, or None for an unparseable or
    oversized head."""
    request_line = await reader.readline()
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) < 2:
        return None
    headers: dict[str, str] = {}
    consumed = len(request_line)
    while consumed < _MAX_HEAD_BYTES:
        line = await reader.readline()
        consumed += len(line)
        if line in (b"\r\n", b"\n", b""):
            return parts[0], parts[1], headers
        name, sep, value = line.decode("latin-1", "replace").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return None


async def read_http_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """``(method, path, headers, body)`` for one HTTP/1.1 request, or
    None for an unparseable, oversized or stalled head.  Header names
    are lower-cased; the body is read per ``Content-Length`` and
    clipped to ``max_body_bytes`` (a longer declared length returns an
    empty body with the special header ``x-ms2-body-too-large``
    set)."""
    try:
        head = await asyncio.wait_for(
            _read_head(reader), timeout=_HEAD_TIMEOUT_S
        )
    except (asyncio.TimeoutError, ValueError):
        # ValueError: one line outran the stream's buffer limit.
        return None
    if head is None:
        return None
    method, target, headers = head
    body = b""
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = 0
    if length > max_body_bytes:
        headers["x-ms2-body-too-large"] = str(length)
    elif length > 0:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=30.0
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            return None
    return method, target.split("?", 1)[0], headers, body


async def write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    content_type: str,
    body: bytes,
    extra_headers: dict[str, str] | None = None,
) -> None:
    """One ``Connection: close`` HTTP/1.1 response."""
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    head = "\r\n".join(lines) + "\r\n\r\n"
    writer.write(head.encode("ascii") + body)
    await writer.drain()


_PLAIN = "text/plain; charset=utf-8"
_JSON = "application/json; charset=utf-8"

#: (status, content-type, body, extra headers) — one response.
Response = tuple[int, str, bytes, dict[str, str]]


def gateway_response(frame: dict[str, Any]) -> Response:
    """An HTTP response carrying one protocol response frame."""
    return (
        http_status_for_frame(frame),
        _JSON,
        json.dumps(frame).encode("utf-8"),
        retry_after_header(frame),
    )


class HttpFront:
    """One HTTP listener serving a source's four routes.

    The source is the daemon or the fleet supervisor.  It provides
    ``registry`` and ``max_frame_bytes``, ``http_health()`` (None when
    ready, else the 503 reason), and the coroutines ``http_metrics()``
    (exposition text), ``http_stats()`` (the ``stats`` payload) and
    ``dispatch(frame)`` (one protocol frame's response frame).
    """

    def __init__(
        self,
        source: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.source = source
        self.host = host
        self.port = port
        self._http: asyncio.AbstractServer | None = None
        #: The actually-bound port (useful with ``port=0``).
        self.bound_port: int | None = None

    async def start(self) -> None:
        self._http = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._http.sockets or []
        if sockets:
            self.bound_port = sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
            self._http = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.bound_port or self.port}"

    # ------------------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, content_type, body, extra = await self._respond(reader)
            await write_http_response(
                writer, status, content_type, body, extra
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _respond(self, reader: asyncio.StreamReader) -> Response:
        """(status, content type, body, extra headers) per request."""
        source = self.source
        parsed = await read_http_request(reader, source.max_frame_bytes)
        if parsed is None:
            return 400, _PLAIN, b"bad request\n", {}
        method, path, headers, body = parsed
        source.registry.counter(
            "ms2_http_requests_total",
            "HTTP requests served, by route (unknown paths: other)",
            ("route",),
        ).inc(route=path if path in HTTP_ROUTES else "other")
        if method == "POST" and path == "/v1/expand":
            return await self._expand(headers, body)
        if method != "GET":
            return 405, _PLAIN, b"method not allowed\n", {}
        if path == "/metrics":
            text = await source.http_metrics()
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                text.encode("utf-8"),
                {},
            )
        if path == "/healthz":
            reason = source.http_health()
            if reason is not None:
                return 503, _PLAIN, f"{reason}\n".encode("utf-8"), {}
            return 200, _PLAIN, b"ok\n", {}
        if path == "/statusz":
            payload = await source.http_stats()
            body = json.dumps(payload, indent=2).encode("utf-8")
            return 200, _JSON, body, {}
        return (
            404,
            _PLAIN,
            b"not found; try /metrics /healthz /statusz "
            b"or POST /v1/expand\n",
            {},
        )

    async def _expand(self, headers: dict[str, str], body: bytes) -> Response:
        """``POST /v1/expand``: dispatch one protocol frame."""
        too_large = headers.get("x-ms2-body-too-large")
        if too_large is not None:
            return gateway_response(_err(
                None, None, "frame_too_large",
                f"body of {too_large} bytes exceeds max_frame_bytes",
            ))
        try:
            frame = json.loads(body)
        except ValueError:
            frame = None
        if not isinstance(frame, dict):
            return gateway_response(_err(
                None, None, "bad_request", "body must be one JSON frame"
            ))
        return gateway_response(await self.source.dispatch(frame))
