"""The telemetry HTTP sidecar of the expansion daemon.

``repro serve --metrics-port N`` starts this minimal asyncio HTTP/1.1
listener next to the NDJSON protocol socket, so standard tooling —
Prometheus scrapers, load-balancer health checks, ``curl``, ordinary
load generators — can work against the daemon without speaking its
protocol:

- ``GET /metrics``  — Prometheus text exposition
  (:meth:`~repro.telemetry.MetricsRegistry.render_prometheus`);
- ``GET /healthz``  — drain-aware readiness: ``200 ok`` while
  accepting work, ``503 draining`` once shutdown has begun (a load
  balancer stops routing to a draining shard before its socket
  closes);
- ``GET /statusz``  — the JSON stats snapshot, byte-identical in
  content to the NDJSON ``stats`` op;
- ``POST /v1/expand`` — the HTTP/JSON **gateway**: the body is one
  protocol frame (same JSON as a NDJSON request line), the response
  body is the response frame.  Protocol error codes map onto HTTP
  statuses (``busy`` → 429 with ``Retry-After``, ``expansion_error``
  → 422, ...), so ordinary HTTP tooling sees meaningful statuses
  while :class:`~repro.client.Ms2Client` just reads the frame.

Deliberately tiny: one request per connection (``Connection:
close``), no TLS, no routing table beyond the four paths.  It binds
loopback by default; anything fancier belongs behind a real proxy.
The sharded fleet gateway (:mod:`repro.shard`) reuses the framing
helpers here.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.server import Ms2Server
    from repro.telemetry import MetricsRegistry

__all__ = ["TelemetrySidecar", "http_status_for_frame"]

#: Cap on the request head (request line + headers) we will read.
_MAX_HEAD_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

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


#: The paths the HTTP listeners answer.  ``ms2_http_requests_total``
#: counts every other path under the one route ``other``, so clients
#: sending junk paths cannot grow the series set.
HTTP_ROUTES = frozenset({"/metrics", "/healthz", "/statusz", "/v1/expand"})


def count_http_request(registry: "MetricsRegistry", path: str) -> None:
    """Count one HTTP request in ``registry``'s
    ``ms2_http_requests_total``, labeled by route."""
    registry.counter(
        "ms2_http_requests_total",
        "HTTP requests served, by route (unknown paths: other)",
        ("route",),
    ).inc(route=path if path in HTTP_ROUTES else "other")


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


async def read_http_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """``(method, path, headers, body)`` for one HTTP/1.1 request, or
    None for an unparseable/oversized head.  Header names are
    lower-cased; the body is read per ``Content-Length`` and clipped
    to ``max_body_bytes`` (a longer declared length returns an empty
    body with the special header ``x-ms2-body-too-large`` set)."""
    try:
        request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    except asyncio.TimeoutError:
        return None
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) < 2:
        return None
    method, target = parts[0], parts[1]
    headers: dict[str, str] = {}
    consumed = len(request_line)
    while consumed < _MAX_HEAD_BYTES:
        line = await reader.readline()
        consumed += len(line)
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1", "replace").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    else:
        return None
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
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
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


class TelemetrySidecar:
    """One HTTP listener serving a daemon's telemetry endpoints and
    the single-process HTTP/JSON gateway."""

    def __init__(
        self,
        server: "Ms2Server",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
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
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> Response:
        """(status, content type, body, extra headers) per request."""
        parsed = await read_http_request(reader, self.server.max_frame_bytes)
        if parsed is None:
            return 400, _PLAIN, b"bad request\n", {}
        method, path, headers, body = parsed
        count_http_request(self.server.registry, path)
        if method == "POST":
            if path != "/v1/expand":
                return 405, _PLAIN, b"method not allowed\n", {}
            return await self._gateway(headers, body)
        if method != "GET":
            return 405, _PLAIN, b"method not allowed\n", {}
        handler = self._routes().get(path)
        if handler is None:
            return (
                404,
                _PLAIN,
                b"not found; try /metrics /healthz /statusz "
                b"or POST /v1/expand\n",
                {},
            )
        return handler()

    async def _gateway(
        self, headers: dict[str, str], body: bytes
    ) -> Response:
        """``POST /v1/expand``: dispatch one protocol frame."""
        frame = gateway_parse_body(headers, body)
        if frame is None:
            return (
                400,
                _JSON,
                json.dumps(
                    _gateway_error("bad_request", "body must be one JSON frame")
                ).encode("utf-8"),
                {},
            )
        if "too_large" in frame:
            return (
                413,
                _JSON,
                json.dumps(
                    _gateway_error(
                        "frame_too_large",
                        f"body of {frame['too_large']} bytes exceeds "
                        f"max_frame_bytes",
                    )
                ).encode("utf-8"),
                {},
            )
        response = await self.server._dispatch(frame["frame"])
        return gateway_response(response)

    def _routes(self) -> dict[str, Callable[[], Response]]:
        return {
            "/metrics": self._metrics,
            "/healthz": self._healthz,
            "/statusz": self._statusz,
        }

    def _metrics(self) -> Response:
        body = self.server.registry.render_prometheus()
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            body.encode("utf-8"),
            {},
        )

    def _healthz(self) -> Response:
        if self.server.draining:
            return 503, _PLAIN, b"draining\n", {}
        return 200, _PLAIN, b"ok\n", {}

    def _statusz(self) -> Response:
        payload = self.server.stats_payload()
        body = json.dumps(payload, indent=2).encode("utf-8")
        return 200, _JSON, body, {}


# ----------------------------------------------------------------------
# Gateway framing helpers (shared with the fleet gateway in
# :mod:`repro.shard`)
# ----------------------------------------------------------------------


def _gateway_error(code: str, message: str) -> dict[str, Any]:
    return {
        "id": None,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def gateway_parse_body(
    headers: dict[str, str], body: bytes
) -> dict[str, Any] | None:
    """Decode a ``POST /v1/expand`` body into ``{"frame": ...}``, or
    ``{"too_large": N}`` when :func:`read_http_request` clipped it,
    or None when the body is not a JSON object."""
    if "x-ms2-body-too-large" in headers:
        return {"too_large": headers["x-ms2-body-too-large"]}
    try:
        frame = json.loads(body)
    except ValueError:
        return None
    if not isinstance(frame, dict):
        return None
    return {"frame": frame}


def gateway_response(frame: dict[str, Any]) -> Response:
    """An HTTP response carrying one protocol response frame."""
    return (
        http_status_for_frame(frame),
        _JSON,
        json.dumps(frame).encode("utf-8"),
        retry_after_header(frame),
    )
