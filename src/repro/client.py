"""Synchronous client for the ``repro serve`` expansion daemon.

:class:`Ms2Client` speaks the newline-delimited JSON protocol of
:mod:`repro.server` over a Unix socket or TCP connection — or the
same frames over the HTTP/JSON gateway (``http://host:port``
addresses, ``POST /v1/expand``) — and converts
wire payloads back into the library's own objects
(:class:`~repro.options.ExpandResult`, raising
:class:`Ms2ServerError` — an :class:`~repro.errors.Ms2Error` — for
error frames), so switching ``MacroProcessor.expand`` calls to a warm
daemon is a one-line change::

    from repro.client import Ms2Client

    with Ms2Client("/tmp/ms2.sock") as client:
        result = client.expand("int x = quad(1);", "prog.c")

``repro expand --server ADDR`` routes the ordinary CLI through this
client transparently.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import Ms2Error
from repro.options import ExpandResult, Ms2Options

__all__ = [
    "Ms2Client",
    "Ms2ServerError",
    "RetryPolicy",
    "client_counters",
    "new_request_id",
    "parse_address",
    "parse_server_address",
]

#: Default per-request socket timeout, seconds.
DEFAULT_TIMEOUT_S = 60.0

#: Protocol error codes that signal a *transient* server condition —
#: the request was not the problem, trying again may succeed.
RETRYABLE_CODES = frozenset({"busy", "shutting_down", "unavailable"})


def new_request_id() -> str:
    """A fresh request correlation ID: 16 hex chars, log-friendly.
    The client stamps one on every frame; the daemon mints one for a
    frame that came without (re-exported by :mod:`repro.telemetry`)."""
    return os.urandom(8).hex()


# Process-wide resilience counters (every client instance sums into
# these; the server's telemetry collector mirrors them into the
# ``ms2_client_retries_total`` / ``ms2_client_fallbacks_total``
# series, and ``repro expand --server`` reports them on fallback).
_COUNTER_LOCK = threading.Lock()
RETRIES_TOTAL = 0
FALLBACKS_TOTAL = 0


def _count_retry(n: int = 1) -> None:
    global RETRIES_TOTAL
    with _COUNTER_LOCK:
        RETRIES_TOTAL += n


def count_fallback() -> None:
    """Record one degradation to local in-process expansion."""
    global FALLBACKS_TOTAL
    with _COUNTER_LOCK:
        FALLBACKS_TOTAL += 1


def client_counters() -> dict[str, int]:
    """Process-wide client resilience counters (telemetry mirror)."""
    with _COUNTER_LOCK:
        return {
            "retries": RETRIES_TOTAL,
            "fallbacks": FALLBACKS_TOTAL,
        }


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with full jitter for transient failures.

    Retries connection-level errors (refused, reset, server closed
    the connection mid-request) and :data:`RETRYABLE_CODES` error
    frames (``busy``, ``shutting_down``, ``unavailable``).  Safe by
    construction: every protocol op is idempotent — expansion is a
    pure function of the request, so replaying a request whose
    response was lost cannot change the outcome.

    Backoff sleeps ``random.uniform(0, min(max_delay_s, base_delay_s
    * 2**attempt))`` (AWS-style *full jitter*, which de-synchronizes
    client herds better than equal jitter).  A ``retry_after_ms``
    hint in a busy frame overrides the computed ceiling for that
    attempt.  ``deadline_s`` bounds the *total* time spent including
    sleeps; ``max_attempts`` bounds the number of tries.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: float = 30.0

    def retryable_error(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth a retry under this policy."""
        if isinstance(exc, Ms2ServerError):
            return exc.code in RETRYABLE_CODES
        return isinstance(exc, (ConnectionError, socket.timeout, OSError))

    def backoff_s(
        self, attempt: int, retry_after_ms: float | None = None
    ) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        ceiling = min(
            self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1))
        )
        if retry_after_ms is not None:
            ceiling = max(ceiling, retry_after_ms / 1000.0)
            ceiling = min(ceiling, self.max_delay_s)
        return random.uniform(0.0, ceiling)


class Ms2ServerError(Ms2Error):
    """An error frame from the daemon, as a raisable
    :class:`~repro.errors.Ms2Error` (so ``repro expand --server``
    reports failures through the same path as local expansion).

    Attributes
    ----------
    code:
        The protocol error code (``busy``, ``bad_request``,
        ``expansion_error``, ...).
    payload:
        The complete ``error`` object from the frame (may carry a
        serialized diagnostic for ``expansion_error``).
    """

    def __init__(self, code: str, message: str, payload: dict[str, Any]):
        super().__init__(message)
        self.code = code
        self.payload = payload

    def __str__(self) -> str:
        rendered = (self.payload.get("diagnostic") or {}).get("rendered")
        if rendered:
            return rendered
        return f"[{self.code}] {self.message}"


def parse_server_address(spec: str | Path) -> tuple[Any, ...]:
    """``("unix", path)``, ``("tcp", host, port)`` or
    ``("http", host, port)`` from an address spelling.

    The one shared parser for every place a daemon address is typed —
    ``Ms2Client``, ``repro expand --server``, ``repro top``.  URL
    forms are explicit about the transport::

        unix:///run/ms2.sock     Unix socket, NDJSON protocol
        tcp://build-host:7777    TCP, NDJSON protocol
        http://build-host:9100   the HTTP/JSON gateway (POST /v1/expand)

    The historical bare forms still parse: a filesystem path
    (anything containing a separator, or any existing path),
    ``HOST:PORT``, ``:PORT``, or a bare port number.
    """
    text = str(spec)
    if text.startswith("unix://"):
        path = text[len("unix://"):]
        if not path:
            raise ValueError(f"unix:// address missing a path: {spec!r}")
        return ("unix", path)
    for scheme, default_port in (("tcp", None), ("http", 80)):
        prefix = scheme + "://"
        if not text.startswith(prefix):
            continue
        rest = text[len(prefix):].split("/", 1)[0]
        host, sep, port = rest.rpartition(":")
        if sep and port.isdigit():
            return (scheme, host or "127.0.0.1", int(port))
        if rest and ":" not in rest and default_port is not None:
            return (scheme, rest, default_port)
        raise ValueError(
            f"bad {scheme}:// address {spec!r}: expected "
            f"{scheme}://HOST:PORT"
        )
    if text.isdigit():
        return ("tcp", "127.0.0.1", int(text))
    host, sep, port = text.rpartition(":")
    if sep and port.isdigit() and os.sep not in text:
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", text)


#: Historical name of :func:`parse_server_address`.
parse_address = parse_server_address


class Ms2Client:
    """One connection to a running daemon.  Not thread-safe: requests
    on one client are strictly sequential (open one client per thread
    — the daemon multiplexes connections)."""

    def __init__(
        self,
        address: str | Path,
        *,
        timeout: float = DEFAULT_TIMEOUT_S,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        #: Retry/backoff policy for transient failures, or None for
        #: the historical fail-fast behavior (one attempt, caller
        #: handles ``busy``).
        self.retry = retry
        self._sock: socket.socket | None = None
        self._reader: Any = None
        self._next_id = 0
        #: Correlation ID of the most recent request — quote it to
        #: ``repro trace --events`` to pull that request's event-log
        #: records and spans out of the daemon's JSONL log.
        self.last_request_id: str | None = None
        #: Transient failures this client retried past (also summed
        #: process-wide into :func:`client_counters`).
        self.retries = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def connect(self) -> "Ms2Client":
        if self.address[0] == "http":
            # The HTTP gateway is connectionless from the client's
            # point of view: each request opens its own connection
            # (stdlib http.client), so there is nothing to hold open.
            return self
        if self._sock is not None:
            return self
        if self.address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.address[1])
        else:
            sock = socket.create_connection(
                (self.address[1], self.address[2]), timeout=self.timeout
            )
        self._sock = sock
        self._reader = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "Ms2Client":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until the daemon answers ``ping`` (daemon startup is
        asynchronous: the socket may not exist yet).

        Polls with exponential backoff — 50 ms doubling to a 1 s cap
        — rather than a fixed interval, so a slow-starting daemon is
        not hammered, and the final sleep is clipped to the time
        remaining so the overall ``timeout`` is honoured exactly.
        """
        deadline = time.monotonic() + timeout
        delay = 0.05
        while True:
            try:
                self.connect()
                self.ping()
                return
            except (OSError, Ms2ServerError):
                self.close()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no server at {self.address} within "
                        f"{timeout:.1f}s"
                    ) from None
                time.sleep(min(delay, remaining))
                delay = min(delay * 2, 1.0)

    # ------------------------------------------------------------------
    # Raw protocol
    # ------------------------------------------------------------------

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one frame (an ``id`` and a ``request_id`` are
        assigned when missing) and return the raw response frame.
        The server echoes the correlation ID in every response and
        stamps it onto event-log records and trace spans."""
        if "id" not in payload:
            self._next_id += 1
            payload = {"id": self._next_id, **payload}
        if "request_id" not in payload:
            payload = {**payload, "request_id": new_request_id()}
        self.last_request_id = payload["request_id"]
        if self.address[0] == "http":
            return self._http_request(payload)
        self.connect()
        assert self._sock is not None
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._reader.readline()
        if not line:
            self.close()
            raise ConnectionError("server closed the connection")
        try:
            return json.loads(line)
        except ValueError:
            # A garbled frame (truncated write, corrupted transport)
            # leaves the stream unsynchronized — treat it exactly
            # like a dropped connection so a RetryPolicy can recover.
            self.close()
            raise ConnectionError(
                "undecodable response frame from server"
            ) from None

    def _http_request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One protocol frame over the HTTP/JSON gateway:
        ``POST /v1/expand`` with the frame as the body, the response
        body being the response frame.  Transport-level failures
        (connect refused, reset, truncated/undecodable body) surface
        as :class:`ConnectionError` so a :class:`RetryPolicy` treats
        the gateway exactly like the NDJSON transports."""
        import http.client

        conn = http.client.HTTPConnection(
            self.address[1], self.address[2], timeout=self.timeout
        )
        try:
            try:
                conn.request(
                    "POST",
                    "/v1/expand",
                    body=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ConnectionError(
                    f"gateway request failed: {exc}"
                ) from exc
        finally:
            conn.close()
        try:
            return json.loads(body)
        except ValueError:
            raise ConnectionError(
                "undecodable response body from gateway "
                f"(HTTP {response.status})"
            ) from None

    def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """One operation: send, check, unwrap ``result`` (raising
        :class:`Ms2ServerError` on error frames).

        With a :class:`RetryPolicy` attached, transient failures —
        connection errors and ``busy``/``shutting_down``/
        ``unavailable`` frames — are retried with jittered
        exponential backoff, honouring a ``retry_after_ms`` hint when
        the server provides one.  ``shutdown`` is never retried (a
        dropped connection there means the drain already started).
        """
        policy = self.retry if op != "shutdown" else None
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy is not None
            else None
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._call_once(op, fields)
            except (Ms2ServerError, OSError) as exc:
                if (
                    policy is None
                    or not policy.retryable_error(exc)
                    or attempt >= policy.max_attempts
                ):
                    raise
                self.close()  # next attempt reconnects cleanly
                hint = None
                if isinstance(exc, Ms2ServerError):
                    hint = exc.payload.get("retry_after_ms")
                sleep_s = policy.backoff_s(attempt, hint)
                assert deadline is not None
                if time.monotonic() + sleep_s >= deadline:
                    raise
                self.retries += 1
                _count_retry()
                time.sleep(sleep_s)

    def _call_once(self, op: str, fields: dict[str, Any]) -> dict[str, Any]:
        response = self.request({"op": op, **fields})
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise Ms2ServerError(
            error.get("code", "internal"),
            error.get("message", "unknown server error"),
            error,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.call("ping")

    def stats(self) -> dict[str, Any]:
        return self.call("stats")

    def telemetry(self) -> dict[str, Any]:
        """The server's raw metrics snapshot (the ``telemetry`` op) —
        mergeable across shards with
        :func:`repro.telemetry.merge_snapshots`."""
        return self.call("telemetry").get("snapshot", {})

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit (the response arrives
        before it stops)."""
        result = self.call("shutdown")
        self.close()
        return result

    def expand(
        self,
        source: str,
        filename: str = "<client>",
        *,
        options: Ms2Options | None = None,
        packages: Sequence[str] | None = None,
        package_sources: Sequence[tuple[str, str]] | None = None,
    ) -> ExpandResult:
        """Expand ``source`` on a warm server worker.  ``options``
        default to the *server's* options; naming ``packages`` /
        ``package_sources`` overrides the server preamble entirely."""
        result = self.call(
            "expand",
            **self._work_fields(
                source, filename, options, packages, package_sources
            ),
        )
        return ExpandResult.from_json(result)

    def trace(
        self,
        source: str,
        filename: str = "<client>",
        *,
        options: Ms2Options | None = None,
        packages: Sequence[str] | None = None,
        package_sources: Sequence[tuple[str, str]] | None = None,
    ) -> tuple[ExpandResult, str]:
        """Like :meth:`expand` with tracing forced on; returns the
        result plus the rendered span tree."""
        result = self.call(
            "trace",
            **self._work_fields(
                source, filename, options, packages, package_sources
            ),
        )
        return ExpandResult.from_json(result), result.get("tree", "")

    def expand_file(
        self,
        path: str | Path,
        *,
        options: Ms2Options | None = None,
        packages: Sequence[str] | None = None,
        package_sources: Sequence[tuple[str, str]] | None = None,
    ) -> dict[str, Any]:
        """Build one file *on the server's filesystem* through its
        persistent snapshot cache; returns the
        :meth:`~repro.driver.report.FileResult.to_json` payload."""
        fields: dict[str, Any] = {"path": str(path)}
        if options is not None:
            fields["options"] = options.to_json()
        self._preamble_fields(fields, packages, package_sources)
        return self.call("expand_file", **fields)

    # ------------------------------------------------------------------
    # Remote cache (the daemon as a fleet cache authority)
    # ------------------------------------------------------------------

    def cache_get(self, key: str) -> dict[str, Any]:
        """One snapshot lookup at the cache authority: ``{"found":
        bool, "snapshot": dict | None, "digest": str | None}``.  The
        digest covers the snapshot's canonical JSON body; callers
        (see :class:`repro.driver.cachebackend.RemoteCacheBackend`)
        verify it end-to-end."""
        return self.call("cache_get", key=str(key))

    def cache_put(
        self, key: str, snapshot: dict[str, Any], digest: str
    ) -> dict[str, Any]:
        """Publish one snapshot to the cache authority; returns
        ``{"stored": bool}``.  ``digest`` must be
        :func:`repro.driver.cachebackend.snapshot_digest` of the
        snapshot — the server rejects mismatches as ``bad_request``
        so a payload corrupted in transit can never land."""
        return self.call(
            "cache_put", key=str(key), snapshot=snapshot, digest=digest
        )

    def cache_stats(self) -> dict[str, Any]:
        """The authority's own cache counters (dir, hits, misses,
        latency totals)."""
        return self.call("cache_stats")

    # ------------------------------------------------------------------

    @staticmethod
    def _preamble_fields(
        fields: dict[str, Any],
        packages: Sequence[str] | None,
        package_sources: Sequence[tuple[str, str]] | None,
    ) -> None:
        if packages is not None:
            fields["packages"] = list(packages)
        if package_sources is not None:
            fields["package_sources"] = [
                [str(name), source] for name, source in package_sources
            ]
            fields.setdefault("packages", [])

    def _work_fields(
        self,
        source: str,
        filename: str,
        options: Ms2Options | None,
        packages: Sequence[str] | None,
        package_sources: Sequence[tuple[str, str]] | None,
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {
            "source": source, "filename": filename
        }
        if options is not None:
            fields["options"] = options.to_json()
        self._preamble_fields(fields, packages, package_sources)
        return fields
