"""The long-running expansion daemon: ``repro serve``.

Every ``repro expand`` invocation pays full process startup — Python
interpreter boot, package imports, and the macro-package preamble —
before the first token is scanned.  :class:`Ms2Server` amortizes all
of that: an asyncio daemon that listens on a Unix socket or TCP port,
builds each request's worker from the process-wide package-load memo,
and serves a newline-delimited JSON protocol, so a warm-path expansion
is one socket round-trip.

Protocol (one JSON object per LF-terminated line, UTF-8)::

    -> {"id": 1, "op": "expand", "source": "...", "filename": "x.c",
        "options": {...Ms2Options.to_json()...},
        "packages": ["loops"], "package_sources": [["m.ms2", "..."]]}
    <- {"id": 1, "ok": true, "op": "expand",
        "result": {...ExpandResult.to_json()...}}

Request ops: ``expand``, ``expand_file``, ``trace``, ``stats``,
``ping``, ``shutdown``, plus the fleet-cache trio ``cache_get`` /
``cache_put`` / ``cache_stats`` (the daemon doubles as the build
farm's snapshot cache authority — see
:mod:`repro.driver.cachebackend`).  Error responses carry
``{"error": {"code", "message", ...}}`` with codes ``bad_request``,
``busy`` (backpressure — the 429 of this protocol, carrying a
``retry_after_ms`` backoff hint), ``frame_too_large``,
``expansion_error`` (fail-fast :class:`~repro.errors.Ms2Error`, with
the full provenance backtrace as a serialized diagnostic),
``unavailable`` (transient infrastructure failure — retryable, also
hinted), ``shutting_down`` and ``internal``.  See ``docs/SERVER.md``
for the full schema reference and
:class:`repro.client.RetryPolicy` for the client-side backoff that
consumes the hints.

Design notes:

- **Workers are single-use.**  Expanding a program mutates the
  processor (program-defined macros, typedef scopes leak into later
  runs), so a worker serves exactly one request and is retired — the
  isolation guarantee of :mod:`repro.driver` kept intact.  Warmth
  comes from the package-load memo: each request builds its worker by
  replaying a preamble this process already parsed, and ``start()``
  builds the default worker once to fill the memo.
- **Caches are shared with ``repro build``.**  ``expand_file``
  requests route through a :class:`~repro.driver.scheduler.BuildSession`
  over the server's persistent snapshot cache directory, so daemon
  and batch builds hit the same ``.ms2-cache/`` entries.  The
  in-memory expansion cache stays per-worker by design — its keys
  include table-local definition generations.
- **Backpressure is explicit.**  At most ``max_inflight`` expansions
  run concurrently (a thread pool; expansion is synchronous CPU
  work), up to ``queue_limit`` more wait in the executor's queue, and
  anything beyond that is answered ``busy`` immediately rather than
  queued without bound.
- **Budgets guard the loop.**  Per-request ``Ms2Options`` budgets
  (``max_expansions``/``max_output_nodes``/``deadline_s``) apply
  inside the worker; ``default_deadline_s`` imposes a server-side
  deadline on requests that set none.
- **SIGTERM drains.**  The listener closes, in-flight requests finish
  (bounded by ``drain_s``), their responses flush, then connections
  close and ``serve_forever`` returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

import repro.packages as _packages
from repro import __version__, faults
from repro.client import client_counters
from repro.driver.cachebackend import snapshot_digest, validate_snapshot
from repro.driver.diskcache import PersistentCache
from repro.driver.scheduler import BuildSession
from repro.engine import LOAD_MEMO_SIZE, MacroProcessor
from repro.errors import Ms2Error
from repro.macros.memo import ProcessMemo
from repro.diagnostics import Diagnostic
from repro.options import Ms2Options
from repro.serveconfig import (
    DEFAULT_DRAIN_S,
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_QUEUE_LIMIT,
    ServeConfig,
)
from repro.stats import PipelineStats
from repro.telemetry import (
    LATENCY_BUCKETS_MS,
    Counter,
    EventLog,
    MetricsRegistry,
    new_request_id,
)

__all__ = [
    "Ms2Server",
    "ServeConfig",
    "serve",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
]

#: Bumped when the request/response schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Every operation the daemon understands.  ``telemetry`` returns the
#: raw metrics-registry snapshot — the unit the sharding supervisor
#: aggregates with :func:`repro.telemetry.merge_snapshots`.
REQUEST_OPS = (
    "expand", "expand_file", "trace", "stats", "ping", "telemetry",
    "shutdown", "cache_get", "cache_put", "cache_stats",
)

#: Ops that run pipeline work (and are subject to backpressure).
_WORK_OPS = frozenset({"expand", "expand_file", "trace"})

#: Snapshot-cache authority ops: small file I/O against the daemon's
#: cache root, run on the executor (never the event loop — a wedged
#: entry lock must not stall unrelated connections) but exempt from
#: work-op admission control.
_CACHE_OPS = frozenset({"cache_get", "cache_put", "cache_stats"})


def _ok(rid: Any, op: str, result: dict[str, Any]) -> dict[str, Any]:
    return {"id": rid, "ok": True, "op": op, "result": result}


def _err(
    rid: Any, op: str | None, code: str, message: str, **extra: Any
) -> dict[str, Any]:
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"id": rid, "ok": False, "op": op, "error": error}


class _BadRequest(ValueError):
    """Raised by request validation; becomes a ``bad_request`` frame."""


#: Worker error types that signal infrastructure trouble rather than
#: a fault in the source being expanded — mapped to the retryable
#: ``unavailable`` protocol code.
_TRANSIENT_ERROR_TYPES = frozenset(
    {
        "OSError",
        "IOError",
        "InjectedFault",
        "ConnectionResetError",
        "BrokenProcessPool",
        "TimeoutError",
    }
)


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """Builds one single-use :class:`MacroProcessor` per request,
    keyed by ``(options_hash, preamble signature)``.

    A worker is built fresh (packages registered, package sources
    loaded) and *used once*: serving a request hands the caller an
    exclusive processor and never takes it back.  A key this pool has
    built before is *warm*: its build replays memoized package loads.
    Its counters live in the daemon's ``registry``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        #: Keys built so far, bounded like the load memo they mirror
        #: and cleared with it (``ProcessMemo.clear_all``).
        self._built = ProcessMemo()
        self._warm_hits = _counter(
            registry, "ms2_worker_pool_warm_hits_total",
            "Requests whose worker replayed memoized package loads")
        self._cold_builds = _counter(
            registry, "ms2_worker_pool_cold_builds_total",
            "Requests whose worker was the first built for its key")

    @staticmethod
    def key_for(
        options: Ms2Options,
        package_names: Sequence[str],
        package_sources: Sequence[tuple[str, str]],
    ) -> str:
        # Not options_hash(): that deliberately ignores trace,
        # but a worker built without a tracer cannot serve a traced
        # request, so pool keys cover every serializable field.
        digest = hashlib.sha256(
            json.dumps(options.to_json(), sort_keys=True).encode("utf-8")
        )
        for name in package_names:
            digest.update(b"\x00name\x00" + name.encode("utf-8"))
        for filename, source in package_sources:
            digest.update(b"\x00file\x00" + filename.encode("utf-8"))
            digest.update(source.encode("utf-8"))
        return digest.hexdigest()[:16]

    def build_worker(
        self,
        options: Ms2Options,
        package_names: Sequence[str],
        package_sources: Sequence[tuple[str, str]],
        key: str | None = None,
    ) -> MacroProcessor:
        """A fresh processor with the preamble loaded.  Its pool key
        (``key``, computed here when not given) is warm from then on."""
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("pool.build_worker")
        mp = MacroProcessor(options=options)
        for name in package_names:
            _packages.register_named(mp, name)
        for filename, source in package_sources:
            mp.load(source, filename)
        if key is None:
            key = self.key_for(options, package_names, package_sources)
        self._built.put(key, True, LOAD_MEMO_SIZE)
        return mp

    def acquire(
        self,
        options: Ms2Options,
        package_names: Sequence[str],
        package_sources: Sequence[tuple[str, str]],
    ) -> tuple[MacroProcessor, str, bool]:
        """``(worker, pool_key, was_warm)`` for one request.  The
        worker is exclusively the caller's; it is never returned."""
        key = self.key_for(options, package_names, package_sources)
        warm = self.has_built(key)
        worker = self.build_worker(
            options, package_names, package_sources, key
        )
        (self._warm_hits if warm else self._cold_builds).inc()
        return worker, key, warm

    def has_built(self, key: str) -> bool:
        """Whether this pool has built a worker for this key, so its
        package loads replay from the memo."""
        return self._built.get(key) is not None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _counter(reg: MetricsRegistry, name: str, help: str) -> Counter:
    """An unlabeled counter, present (at 0) from the first scrape."""
    counter = reg.counter(name, help)
    counter.inc(0)
    return counter


#: The numeric :class:`PipelineStats` fields.  The daemon sums each
#: over every served expansion into ``ms2_<field>_total``, except the
#: three expansion-cache outcomes, which share one family by result.
_PIPELINE_FIELDS = tuple(
    name
    for name in PipelineStats.__dataclass_fields__
    if isinstance(getattr(PipelineStats(), name), (int, float))
)
_CACHE_RESULTS = {
    "cache_hits": "hit",
    "cache_misses": "miss",
    "cache_uncacheable": "uncacheable",
}


def _pipeline_series(field: str) -> tuple[str, dict[str, str]]:
    """(family name, labels) of one :data:`_PIPELINE_FIELDS` entry."""
    if field in _CACHE_RESULTS:
        return (
            "ms2_expansion_cache_lookups_total",
            {"result": _CACHE_RESULTS[field]},
        )
    return f"ms2_{field}_total", {}


def _series(
    snapshot: dict[str, Any], name: str
) -> list[tuple[dict[str, str], Any]]:
    """``(labels, value)`` for every sample of one snapshot family."""
    entry = (snapshot.get("metrics") or {}).get(name) or {}
    labelnames = entry.get("labelnames", [])
    return [
        (dict(zip(labelnames, key)), value)
        for key, value in entry.get("samples", [])
    ]


def stats_view(
    snapshot: dict[str, Any], info: dict[str, Any]
) -> dict[str, Any]:
    """The ``stats`` op payload (also ``/statusz``), computed from a
    registry snapshot: one daemon's, or a fleet's merge of every
    shard's — so the single-daemon and fleet views cannot drift.

    ``info`` carries what is not a metric: the ``server`` section,
    the fault plan's ``armed``/``seed``, the snapshot-cache
    ``cache_dir`` and the sidecar's ``metrics_address``.
    """

    def total(name: str, **labels: str) -> float:
        return sum(
            value
            for found, value in _series(snapshot, name)
            if found.items() >= labels.items()
        )

    def count(name: str) -> int:
        return int(total(name))

    def by(name: str, label: str) -> dict[str, float]:
        return {found[label]: v for found, v in _series(snapshot, name)}

    def counts(name: str, label: str) -> dict[str, int]:
        return {key: int(value) for key, value in by(name, label).items()}

    latency = next(
        (value for _, value in _series(snapshot, "ms2_request_latency_ms")),
        {"counts": [0] * (len(LATENCY_BUCKETS_MS) + 1), "sum": 0.0,
         "count": 0},
    )
    buckets = {
        f"{bound:g}": int(n)
        for bound, n in zip(LATENCY_BUCKETS_MS, latency["counts"])
    }
    buckets["+Inf"] = int(latency["counts"][-1])
    served = int(latency["count"])

    pipeline = PipelineStats()
    for field in _PIPELINE_FIELDS:
        name, labels = _pipeline_series(field)
        kind = type(getattr(pipeline, field))
        setattr(pipeline, field, kind(total(name, **labels)))

    tiers: dict[str, dict[str, float]] = {}
    for labels, value in _series(snapshot, "ms2_cache_backend_ops_total"):
        tiers.setdefault(labels["tier"], {})[labels["kind"]] = int(value)
    for key in ("load_ms", "store_ms"):
        family = f"ms2_cache_backend_{key}_total"
        for tier, value in by(family, "tier").items():
            tiers.setdefault(tier, {})[key] = round(value, 3)
    events = _series(snapshot, "ms2_event_log_records_total")

    return {
        "uptime_s": total("ms2_uptime_seconds"),
        "requests": counts("ms2_requests_total", "op"),
        "responses": counts("ms2_responses_total", "status"),
        "error_codes": counts("ms2_response_errors_total", "code"),
        "busy_rejections": count("ms2_busy_rejections_total"),
        "shed_rejections": count("ms2_load_shed_total"),
        "bad_frames": count("ms2_bad_frames_total"),
        "client_disconnects": count("ms2_client_disconnects_total"),
        "in_flight": count("ms2_in_flight"),
        "peak_in_flight": count("ms2_peak_in_flight"),
        "connections_open": count("ms2_connections_open"),
        "connections_total": count("ms2_connections_total"),
        "latency_ms": {
            "count": served,
            "mean": round(latency["sum"] / served, 3) if served else 0.0,
            "buckets": buckets,
        },
        "expansion_cache": {
            "hits": pipeline.cache_hits,
            "misses": pipeline.cache_misses,
            "hit_rate": round(pipeline.cache_hit_rate(), 4),
        },
        "pipeline": pipeline.to_json(),
        "server": info["server"],
        "workers": {
            "warm_hits": count("ms2_worker_pool_warm_hits_total"),
            "cold_builds": count("ms2_worker_pool_cold_builds_total"),
        },
        "resilience": {
            "worker_restarts": count("ms2_build_worker_restarts_total"),
            "eventlog_errors": count("ms2_eventlog_errors_total"),
            "client_retries": count("ms2_client_retries_total"),
            "client_fallbacks": count("ms2_client_fallbacks_total"),
        },
        "faults": {
            **info["faults"],
            "injected": counts("ms2_faults_injected_total", "site"),
        },
        # The daemon's build sessions are always local-only, so the
        # persistent disk cache is exactly the ``local`` tier.
        "disk_cache": {"dir": info["cache_dir"], **tiers.get("local", {})},
        "cache_backends": {
            "dir": info["cache_dir"],
            "tiers": tiers,
        },
        "telemetry": {
            "metrics_address": info["metrics_address"],
            "event_log_records": (
                count("ms2_event_log_records_total") if events else None
            ),
        },
    }


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class Ms2Server:
    """The expansion daemon.  Construct, then either ``await
    start()`` + ``await serve_until_stopped()`` inside an existing
    event loop, or call the blocking module-level :func:`serve`.

    Parameters
    ----------
    options:
        Default :class:`Ms2Options` for requests that carry none
        (requests with an ``options`` payload get exactly those).
    package_names / package_sources:
        The standard preamble loaded into every worker and
        implied for every request that names no packages of its own.
    socket_path / host+port:
        Listen address — exactly one of Unix socket path or TCP port.
        ``port=0`` binds an ephemeral port (see :attr:`bound_port`).
    cache_dir:
        Persistent snapshot cache root shared with ``repro build``
        (``expand_file`` requests hit it); None disables it.
    max_inflight / queue_limit:
        Concurrency cap and bounded admission queue; excess requests
        are answered ``busy``.
    default_deadline_s:
        Wall-clock budget imposed on work requests whose options set
        no ``deadline_s`` of their own (None = unbounded).
    metrics_port / metrics_host:
        When a port is given (0 = ephemeral), an HTTP front serves
        ``/metrics`` (Prometheus text), ``/healthz`` (drain-aware
        readiness), ``/statusz`` (the ``stats`` op as JSON) and the
        ``POST /v1/expand`` gateway — see :mod:`repro.metrics_http`.
    event_log:
        Path or writable text stream for the structured JSONL event
        log: one ``request`` and one ``response`` record per frame,
        plus a ``span`` record per traced expansion, all keyed by the
        request's correlation ID.
    """

    def __init__(
        self,
        options: Ms2Options | None = None,
        *,
        package_names: Sequence[str] = (),
        package_sources: Sequence[tuple[str, str]] = (),
        socket_path: Path | str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        cache_dir: Path | str | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        default_deadline_s: float | None = None,
        drain_s: float = DEFAULT_DRAIN_S,
        metrics_port: int | None = None,
        metrics_host: str = "127.0.0.1",
        event_log: Path | str | Any = None,
        reuse_port: bool = False,
        control_socket: Path | str | None = None,
        shard_index: int | None = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError(
                "exactly one of socket_path or port must be given"
            )
        base = options if options is not None else Ms2Options()
        self.options = base.without_runtime_hooks()
        self.package_names = tuple(package_names)
        self.package_sources = tuple(
            (str(name), source) for name, source in package_sources
        )
        self.socket_path = (
            Path(socket_path) if socket_path is not None else None
        )
        self.host = host
        self.port = port
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else None
        )
        self.max_inflight = max(1, int(max_inflight))
        self.queue_limit = max(0, int(queue_limit))
        self.max_frame_bytes = int(max_frame_bytes)
        self.default_deadline_s = default_deadline_s
        self.drain_s = float(drain_s)
        #: Bind the TCP listener with ``SO_REUSEPORT`` so sibling
        #: shard processes can share the port (see repro.shard).
        self.reuse_port = bool(reuse_port)
        #: Optional second Unix listener speaking the same protocol —
        #: the sharding supervisor's private channel to this shard
        #: (stats/telemetry scrapes, routed gateway work), unaffected
        #: by the kernel's SO_REUSEPORT connection distribution.
        self.control_socket = (
            Path(control_socket) if control_socket is not None else None
        )
        #: This process's index in a sharded fleet, or None.
        self.shard_index = shard_index

        #: The daemon's own handle on its snapshot cache root — the
        #: store behind the ``cache_get``/``cache_put``/``cache_stats``
        #: ops that make ``repro serve`` the fleet cache authority.
        #: Distinct from the per-session caches ``expand_file`` uses
        #: (same directory, same per-entry locks), so its counters
        #: measure exactly the remote-cache traffic served.
        if self.cache_dir is not None:
            self.cache_authority: Any = PersistentCache(self.cache_dir)
        else:
            self.cache_authority = None

        #: The daemon's only counter store: hot paths update it where
        #: each event happens; ``stats``, ``/statusz``, ``/metrics``
        #: and the fleet view all read it (see :func:`stats_view`).
        self.registry = MetricsRegistry()
        self._m = self._register_families(self.registry)
        self.pool = WorkerPool(registry=self.registry)
        self._started = perf_counter()
        #: High-water mark of ``_active`` (``ms2_peak_in_flight``).
        self._peak_active = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="ms2-worker",
        )
        #: BuildSession per pool key (expand_file path; shares the
        #: persistent cache with `repro build`).
        self._sessions: dict[str, Any] = {}
        self._sessions_lock = threading.Lock()

        self._server: asyncio.AbstractServer | None = None
        self._control_server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        #: Admitted work requests not yet responded (backpressure
        #: gauge and the drain condition).
        self._active = 0
        self._idle_event: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        #: The actually-bound TCP port (useful with ``port=0``).
        self.bound_port: int | None = None

        #: Structured JSONL event log, or None when disabled.
        self.event_log: EventLog | None = (
            EventLog(event_log) if event_log is not None else None
        )
        #: The HTTP front (``sidecar``), started with the listener
        #: when ``metrics_port`` was given.
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.sidecar: Any = None

    @classmethod
    def from_config(
        cls,
        options: Ms2Options | None,
        config: ServeConfig,
        **overrides: Any,
    ) -> "Ms2Server":
        """One daemon process from a validated :class:`ServeConfig`
        (``overrides`` patch individual constructor arguments — the
        shard child uses them for its resolved port and control
        socket)."""
        kwargs: dict[str, Any] = dict(
            socket_path=config.socket,
            host=config.host,
            port=config.port,
            package_names=config.packages,
            package_sources=config.package_sources,
            cache_dir=config.cache_dir,
            max_inflight=config.max_inflight,
            queue_limit=config.queue_limit,
            max_frame_bytes=config.max_frame_bytes,
            default_deadline_s=config.default_deadline_s,
            drain_s=config.drain_s,
            metrics_port=config.metrics_port,
            metrics_host=config.metrics_host,
            event_log=config.event_log,
        )
        kwargs.update(overrides)
        return cls(options, **kwargs)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once shutdown has begun (``/healthz`` flips to 503)."""
        return self._draining

    # The HTTP front's source (see repro.metrics_http.HttpFront).

    def http_health(self) -> str | None:
        return "draining" if self._draining else None

    async def http_metrics(self) -> str:
        return self.registry.render_prometheus()

    async def http_stats(self) -> dict[str, Any]:
        return self.stats_payload()

    def _register_families(self, reg: MetricsRegistry) -> dict[str, Any]:
        """Register the daemon's own families (the worker pool adds
        its own) plus the collector for counters other modules own."""
        m: dict[str, Any] = {}

        def counter(key: str, name: str, help: str, *labels: str) -> None:
            m[key] = (
                reg.counter(name, help, labels)
                if labels
                else _counter(reg, name, help)
            )

        def gauge(key: str, name: str, help: str, merge: str = "sum",
                  value: float = 0.0) -> None:
            m[key] = reg.gauge(name, help, merge=merge)
            m[key].set(value)

        reg.gauge(
            "ms2_server_info",
            "Constant 1, labeled with server version and protocol",
            ("version", "protocol"), merge="last",
        ).set(1, version=__version__, protocol=str(PROTOCOL_VERSION))
        gauge("max_inflight", "ms2_max_inflight",
              "Concurrent-expansion cap", "max", self.max_inflight)
        gauge("queue_limit", "ms2_queue_limit",
              "Bounded admission queue depth", "max", self.queue_limit)
        counter("requests", "ms2_requests_total",
                "Requests received, by op", "op")
        counter("responses", "ms2_responses_total",
                "Responses sent, by status", "status")
        for status in ("ok", "error"):
            m["responses"].inc(0, status=status)
        counter("error_codes", "ms2_response_errors_total",
                "Error responses, by protocol error code", "code")
        counter("busy", "ms2_busy_rejections_total",
                "Requests rejected by admission control")
        counter("shed", "ms2_load_shed_total",
                "Expensive requests shed by the mid-load tier "
                "(a subset of ms2_busy_rejections_total)")
        counter("bad_frames", "ms2_bad_frames_total",
                "Malformed or oversized frames")
        counter("disconnects", "ms2_client_disconnects_total",
                "Connections dropped mid-conversation")
        counter("conns_total", "ms2_connections_total",
                "Connections accepted")
        gauge("conns_open", "ms2_connections_open",
              "Currently open connections")
        gauge("in_flight", "ms2_in_flight",
              "Work requests currently admitted")
        gauge("peak_in_flight", "ms2_peak_in_flight",
              "High-water mark of ms2_in_flight", "max")
        m["latency"] = reg.histogram(
            "ms2_request_latency_ms",
            "Work-request wall time, milliseconds",
            LATENCY_BUCKETS_MS,
        )
        # Registered before the loop below re-registers it, so the
        # family shared by the three cache fields keeps this help.
        reg.counter(
            "ms2_expansion_cache_lookups_total",
            "In-memory expansion cache lookups, by result", ("result",),
        )
        m["pipeline"] = []
        for field in _PIPELINE_FIELDS:
            name, labels = _pipeline_series(field)
            metric = reg.counter(
                name,
                f"PipelineStats.{field} summed over served expansions",
                tuple(labels),
            )
            metric.inc(0, **labels)
            m["pipeline"].append((field, metric, labels))

        # Scrape-time state and the counters other modules own.
        gauge("uptime", "ms2_uptime_seconds",
              "Seconds since server start", "max")
        gauge("draining", "ms2_draining",
              "1 once shutdown has begun", "max")
        counter("cache_ops", "ms2_cache_backend_ops_total",
                "Snapshot cache backend outcomes, by tier "
                "(authority = this daemon serving cache_get/cache_put; "
                "local = its expand_file build sessions) and kind",
                "tier", "kind")
        counter("cache_load_ms", "ms2_cache_backend_load_ms_total",
                "Wall milliseconds loading snapshots, by tier", "tier")
        counter("cache_store_ms", "ms2_cache_backend_store_ms_total",
                "Wall milliseconds storing snapshots, by tier", "tier")
        # No sample at all while the event log is off (stats: None).
        m["events"] = reg.counter(
            "ms2_event_log_records_total",
            "Structured event-log records written",
        )
        counter("eventlog_errors", "ms2_eventlog_errors_total",
                "Event-log write failures absorbed off the request path")
        counter("faults", "ms2_faults_injected_total",
                "Faults fired by the injection framework, by site",
                "site")
        counter("client_retries", "ms2_client_retries_total",
                "Transient failures retried by in-process Ms2Client "
                "instances")
        counter("client_fallbacks", "ms2_client_fallbacks_total",
                "Requests degraded to local in-process expansion")
        counter("worker_restarts", "ms2_build_worker_restarts_total",
                "Build executors rebuilt after worker death")
        reg.register_collector(self._collect_owned)
        return m

    def _collect_owned(self, reg: MetricsRegistry) -> None:
        """Copy in, at scrape time, uptime, the drain flag and the
        counters other modules own: the snapshot caches (the authority
        store and every build session's), build-executor restarts,
        the event log, the fault plan and the in-process client's
        resilience counters."""
        m = self._m
        m["uptime"].set(round(perf_counter() - self._started, 3))
        m["draining"].set(1.0 if self._draining else 0.0)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        # Sessions are built over the local cache dir only (see
        # _session_for), so each is one flat PersistentCache tier.
        caches = [
            ("local", s.cache) for s in sessions if s.cache is not None
        ]
        if self.cache_authority is not None:
            caches.insert(0, ("authority", self.cache_authority))
        tiers: dict[str, dict[str, float]] = {}
        for tier, cache in caches:
            into = tiers.setdefault(tier, {})
            for kind, value in cache.counters().items():
                into[kind] = into.get(kind, 0) + value
        for tier, flat in tiers.items():
            for kind, value in flat.items():
                if kind in ("load_ms", "store_ms"):
                    m[f"cache_{kind}"].set_total(value, tier=tier)
                else:
                    m["cache_ops"].set_total(value, tier=tier, kind=kind)
        m["worker_restarts"].set_total(
            sum(session.worker_restarts for session in sessions)
        )
        if self.event_log is not None:
            m["events"].set_total(self.event_log.events_written)
            m["eventlog_errors"].set_total(self.event_log.errors_total)
        if faults.ACTIVE is not None:
            for site, fired in faults.ACTIVE.counters().items():
                m["faults"].set_total(fired, site=site)
        client = client_counters()
        m["client_retries"].set_total(client["retries"])
        m["client_fallbacks"].set_total(client["fallbacks"])

    def _count_pipeline(self, stats: PipelineStats) -> None:
        """Add one expansion's pipeline counters to the registry."""
        for field, metric, labels in self._m["pipeline"]:
            value = getattr(stats, field)
            if value:
                metric.inc(value, **labels)

    def _admit(self, delta: int) -> None:
        """Move the admitted-work count (event loop only) and the
        in-flight gauges that mirror it."""
        self._active += delta
        self._m["in_flight"].set(self._active)
        if self._active > self._peak_active:
            self._peak_active = self._active
            self._m["peak_in_flight"].set(self._active)

    def _mean_latency_ms(self, default: float) -> float:
        """Mean work-request latency so far (``default`` before the
        first one completes)."""
        for _, sample in self._m["latency"].samples():
            if sample["count"]:
                return sample["sum"] / sample["count"]
        return default

    def _log_event(
        self, event: str, request_id: str | None, **fields: Any
    ) -> None:
        if self.event_log is not None:
            self.event_log.log(event, request_id, **fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners and build the default worker once."""
        self._idle_event = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.socket_path is not None:
            if self.socket_path.exists():
                # The daemon owns its socket path; a leftover file
                # from a crashed instance would refuse the bind.
                self.socket_path.unlink()
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            self._server = await asyncio.start_unix_server(
                self._serve_conn,
                path=str(self.socket_path),
                limit=self.max_frame_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_conn,
                host=self.host,
                port=self.port,
                limit=self.max_frame_bytes,
                reuse_port=self.reuse_port or None,
            )
            sockets = self._server.sockets or []
            if sockets:
                self.bound_port = sockets[0].getsockname()[1]
        if self.control_socket is not None:
            if self.control_socket.exists():
                self.control_socket.unlink()
            self.control_socket.parent.mkdir(parents=True, exist_ok=True)
            self._control_server = await asyncio.start_unix_server(
                self._serve_conn,
                path=str(self.control_socket),
                limit=self.max_frame_bytes,
            )
        if self.metrics_port is not None:
            from repro.metrics_http import HttpFront

            self.sidecar = HttpFront(
                self, host=self.metrics_host, port=self.metrics_port
            )
            await self.sidecar.start()
        # Fill the load memo, so default-key requests are warm from
        # the first one, and fail fast on a bad preamble package.
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self.pool.build_worker,
            self._effective_options(None),
            self.package_names, self.package_sources,
        )

    @property
    def address(self) -> str:
        """Printable listen address."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.bound_port or self.port}"

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT initiate a graceful drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Stop accepting, drain in-flight work, then stop."""
        if self._draining:
            return
        self._draining = True
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain()
        )

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._wait_idle(), timeout=self.drain_s)
        for writer in list(self._writers):
            writer.close()
        # The sidecar outlives the protocol listener slightly so a
        # load balancer polling /healthz observes the 503 drain state.
        if self.sidecar is not None:
            await self.sidecar.aclose()
        if self.event_log is not None:
            self.event_log.close()
        self._executor.shutdown(wait=False, cancel_futures=True)
        assert self._stopped is not None
        self._stopped.set()

    async def _wait_idle(self) -> None:
        assert self._idle_event is not None
        while self._active > 0:
            self._idle_event.clear()
            await self._idle_event.wait()

    def _unlink_sockets(self) -> None:
        for path in (self.socket_path, self.control_socket):
            if path is not None:
                with contextlib.suppress(OSError):
                    path.unlink()

    async def serve_until_stopped(self) -> None:
        """Block until a drain completes (``shutdown`` op or signal)."""
        assert self._stopped is not None, "call start() first"
        try:
            await self._stopped.wait()
        finally:
            self._unlink_sockets()

    async def aclose(self) -> None:
        """Drain and stop programmatically (tests, embedding)."""
        self.request_shutdown()
        if self._drain_task is not None:
            await self._drain_task
        self._unlink_sockets()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        self._m["conns_open"].inc()
        self._m["conns_total"].inc()
        try:
            await self._conn_loop(reader, writer)
        except (OSError, asyncio.IncompleteReadError):
            # Any socket-level failure — reset, broken pipe, or an
            # injected frame-write fault — is a disconnect, never an
            # unhandled task exception.
            self._m["disconnects"].inc()
        finally:
            self._writers.discard(writer)
            self._m["conns_open"].dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _conn_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # The frame exceeded max_frame_bytes.  The stream
                # cannot be resynchronized mid-frame: answer, then
                # close this connection.
                self._m["bad_frames"].inc()
                await self._send(
                    writer,
                    _err(
                        None, None, "frame_too_large",
                        f"request frame exceeds "
                        f"{self.max_frame_bytes} bytes",
                        limit=self.max_frame_bytes,
                    ),
                )
                return
            if not line:
                return  # client EOF
            if not line.strip():
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("frame must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                self._m["bad_frames"].inc()
                await self._send(
                    writer,
                    _err(None, None, "bad_request",
                         f"malformed request frame: {exc}"),
                )
                continue
            response = await self._dispatch(request)
            await self._send(writer, response)
            if request.get("op") == "shutdown" and response.get("ok"):
                return

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> None:
        if response.get("ok"):
            self._m["responses"].inc(status="ok")
        else:
            self._m["responses"].inc(status="error")
            code = (response.get("error") or {}).get("code", "?")
            self._m["error_codes"].inc(code=code)
        frame = json.dumps(response).encode("utf-8") + b"\n"
        if faults.ACTIVE is not None:
            frame = faults.ACTIVE.hit(
                "server.frame_write", frame,
                context=str(response.get("op")),
            )
        writer.write(frame)
        await writer.drain()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """The HTTP front's entry: the same path as a socket frame."""
        return await self._dispatch(request)

    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one frame with its correlation ID attached.

        The client's ``request_id`` (minted here when the frame
        carries none) is echoed in **every** response — ok, error and
        busy alike — and bookends the request in the event log, with
        the expansion's trace spans stamped by the same ID in between.
        """
        op = request.get("op")
        request_id = request.get("request_id")
        if not (isinstance(request_id, str) and request_id):
            request_id = new_request_id()
        op_name = op if isinstance(op, str) else "?"
        self._log_event(
            "request", request_id, op=op_name, id=request.get("id")
        )
        start = perf_counter()
        response = await self._dispatch_inner(request, request_id)
        response["request_id"] = request_id
        status = (
            "ok"
            if response.get("ok")
            else (response.get("error") or {}).get("code", "error")
        )
        self._log_event(
            "response", request_id, op=op_name, status=status,
            ms=round((perf_counter() - start) * 1000.0, 3),
        )
        self._log_spans(response, request_id)
        return response

    def _log_spans(
        self, response: dict[str, Any], request_id: str
    ) -> None:
        """One ``span`` event-log record per trace span in a traced
        response (already stamped with the request ID)."""
        if self.event_log is None or not response.get("ok"):
            return
        result = response.get("result") or {}
        for record in result.get("spans") or ():
            fields = {
                key: value
                for key, value in record.items()
                if key != "request_id"
            }
            self._log_event("span", request_id, **fields)

    async def _dispatch_inner(
        self, request: dict[str, Any], request_id: str
    ) -> dict[str, Any]:
        op = request.get("op")
        rid = request.get("id")
        # Unknown ops share one series: the label set stays bounded
        # whatever op strings clients send.
        self._m["requests"].inc(op=op if op in REQUEST_OPS else "other")
        if op == "ping":
            return _ok(rid, op, {
                "pong": True,
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
            })
        if op == "stats":
            return _ok(rid, op, self.stats_payload())
        if op == "telemetry":
            return _ok(rid, op, self.telemetry_payload())
        if op == "shutdown":
            self.request_shutdown()
            return _ok(rid, op, {"draining": True})
        if op in _CACHE_OPS:
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    self._executor, self._run_cache_op, op, rid, request
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — protocol backstop
                return _err(
                    rid, op, "internal", f"{type(exc).__name__}: {exc}"
                )
        if op not in _WORK_OPS:
            return _err(
                rid, op if isinstance(op, str) else None, "bad_request",
                f"unknown op {op!r}; expected one of "
                f"{', '.join(REQUEST_OPS)}",
            )
        if self._draining:
            return _err(rid, op, "shutting_down",
                        "server is draining; no new work accepted",
                        retry_after_ms=self.retry_after_ms())
        tier = self.load_tier()
        if tier == "busy":
            self._m["busy"].inc()
            return _err(
                rid, op, "busy",
                "server at capacity; retry later",
                in_flight=self._active,
                limit=self.max_inflight + self.queue_limit,
                retry_after_ms=self.retry_after_ms(),
            )
        if tier == "shed_expensive" and self._is_expensive(request):
            self._m["busy"].inc()
            self._m["shed"].inc()
            return _err(
                rid, op, "busy",
                "server under load; expensive (cold-build) request "
                "shed",
                shed=True,
                tier="shed_expensive",
                in_flight=self._active,
                limit=self.max_inflight + self.queue_limit,
                retry_after_ms=self.retry_after_ms(),
            )

        self._admit(1)
        start = perf_counter()
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                self._executor, self._run_work, op, rid, request,
                request_id,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — protocol backstop
            response = _err(
                rid, op, "internal",
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            self._admit(-1)
            assert self._idle_event is not None
            if self._active == 0:
                self._idle_event.set()
        self._m["latency"].observe((perf_counter() - start) * 1000.0)
        return response

    # ------------------------------------------------------------------
    # Cache authority ops (executor threads)
    # ------------------------------------------------------------------

    def _run_cache_op(
        self, op: str, rid: Any, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Serve one ``cache_get``/``cache_put``/``cache_stats``
        frame from the daemon's snapshot root.  Snapshots cross the
        wire as their JSON payload dicts plus a content digest; the
        disk format's own framing + integrity bytes guard the entry
        at rest exactly as they do for local builds."""
        cache = self.cache_authority
        if cache is None:
            return _err(
                rid, op, "unavailable",
                "this daemon serves no snapshot cache "
                "(start repro serve with --cache-dir)",
            )
        if op == "cache_stats":
            return _ok(rid, op, {
                "dir": str(cache.root),
                **cache.counters(),
            })
        key = request.get("key")
        if not (isinstance(key, str) and key):
            return _err(
                rid, op, "bad_request",
                f"{op} requires a non-empty string 'key'",
            )
        if op == "cache_get":
            payload = cache.load(key)
            if payload is None:
                return _ok(rid, op, {
                    "found": False, "snapshot": None, "digest": None,
                })
            return _ok(rid, op, {
                "found": True,
                "snapshot": payload,
                "digest": snapshot_digest(payload),
            })
        snapshot = request.get("snapshot")
        if validate_snapshot(snapshot, key) is None:
            return _err(
                rid, op, "bad_request",
                "cache_put requires a snapshot object carrying the "
                "entry 'key' and a string 'output'",
            )
        digest = request.get("digest")
        if digest != snapshot_digest(snapshot):
            # The publish was corrupted in transit; storing it would
            # poison every machine that later warms from this entry.
            return _err(
                rid, op, "bad_request",
                "cache_put digest mismatch: snapshot corrupted in "
                "transit; entry not stored",
            )
        return _ok(rid, op, {"stored": bool(cache.store(key, snapshot))})

    # ------------------------------------------------------------------
    # Tiered load shedding
    # ------------------------------------------------------------------

    def shed_threshold(self) -> int:
        """Admitted work beyond which the shed tier starts: halfway
        into the bounded queue."""
        return self.max_inflight + (self.queue_limit + 1) // 2

    def load_tier(self) -> str:
        """The admission tier for the *next* work request, from
        current queue depth and the latency histogram:

        ``accept``
            below the shed threshold — everything is admitted;
        ``shed_expensive``
            the queue is more than half full, **or** the
            histogram-estimated wait for the queue ahead already
            exceeds the server's default deadline — requests that
            would pay a cold worker build (or a full
            ``expand_file`` pipeline) are answered ``busy`` with
            ``shed: true`` so warm traffic keeps flowing;
        ``busy``
            the bounded queue is full — everything is rejected (the
            PR-5 behaviour, unchanged).
        """
        if self._active >= self.max_inflight + self.queue_limit:
            return "busy"
        if self._active >= self.shed_threshold():
            return "shed_expensive"
        if (
            self.default_deadline_s is not None
            and self._active > self.max_inflight
            and self.estimated_wait_ms()
            >= self.default_deadline_s * 1000.0
        ):
            # Queued work is already doomed to blow its deadline:
            # shed cold work early instead of expanding the backlog.
            return "shed_expensive"
        return "accept"

    def _is_expensive(self, request: dict[str, Any]) -> bool:
        """Whether this request would do non-warm-path work: a full
        ``expand_file`` build, or an expand whose (options, preamble)
        pool key this daemon has never built.  Malformed
        requests classify cheap — the normal dispatch path owns their
        ``bad_request`` answer."""
        if request.get("op") == "expand_file":
            return True
        try:
            options = self._effective_options(request.get("options"))
            names, sources = self._request_preamble(request)
        except (_BadRequest, ValueError):
            return False
        if request.get("op") == "trace":
            options = options.replace(trace=True)
        key = self.pool.key_for(options, names, sources)
        return not self.pool.has_built(key)

    def estimated_wait_ms(self) -> float:
        """Histogram-estimated queueing delay for a newly admitted
        request: requests ahead of it times the observed mean
        latency."""
        mean_ms = self._mean_latency_ms(0.0)
        queued = max(0, self._active - self.max_inflight)
        return mean_ms * queued

    #: Bounds for the busy-frame backoff hint, milliseconds.
    RETRY_AFTER_MIN_MS = 25
    RETRY_AFTER_MAX_MS = 5000

    def retry_after_ms(self) -> int:
        """The backoff hint carried by ``busy``/``shutting_down``/
        ``unavailable`` frames: the estimated time for the queue in
        front of a retrying client to clear — queue depth times the
        observed mean request latency — clamped to
        [:data:`RETRY_AFTER_MIN_MS`, :data:`RETRY_AFTER_MAX_MS`].
        """
        mean_ms = self._mean_latency_ms(float(self.RETRY_AFTER_MIN_MS))
        queued = max(1, self._active - self.max_inflight + 1)
        hint = mean_ms * queued
        return int(
            min(
                float(self.RETRY_AFTER_MAX_MS),
                max(float(self.RETRY_AFTER_MIN_MS), hint),
            )
        )

    # ------------------------------------------------------------------
    # Work ops (executor threads)
    # ------------------------------------------------------------------

    def _effective_options(
        self, payload: dict[str, Any] | None
    ) -> Ms2Options:
        """Request options (absent payload = the server defaults),
        with the server-side default deadline applied when the
        request sets none, and runtime hooks stripped."""
        options = (
            self.options
            if payload is None
            else Ms2Options.from_json(payload)
        )
        if (
            self.default_deadline_s is not None
            and options.deadline_s is None
        ):
            options = options.replace(deadline_s=self.default_deadline_s)
        return options.without_runtime_hooks()

    def _request_preamble(
        self, request: dict[str, Any]
    ) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """The (package names, package sources) a request asks for;
        the server preamble when it asks for none."""
        names = request.get("packages")
        sources = request.get("package_sources")
        if names is None and sources is None:
            return self.package_names, self.package_sources
        if names is not None and not (
            isinstance(names, list)
            and all(isinstance(n, str) for n in names)
        ):
            raise _BadRequest("packages must be a list of names")
        pairs: list[tuple[str, str]] = []
        for entry in sources or []:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and all(isinstance(part, str) for part in entry)
            ):
                raise _BadRequest(
                    "package_sources must be [filename, source] pairs"
                )
            pairs.append((entry[0], entry[1]))
        return tuple(names or ()), tuple(pairs)

    def _run_work(
        self, op: str, rid: Any, request: dict[str, Any],
        request_id: str,
    ) -> dict[str, Any]:
        try:
            options = self._effective_options(request.get("options"))
            package_names, package_sources = self._request_preamble(
                request
            )
        except (_BadRequest, ValueError) as exc:
            return _err(rid, op, "bad_request", str(exc))
        if op == "expand_file":
            return self._do_expand_file(
                rid, request, options, package_names, package_sources
            )
        return self._do_expand(
            rid, op, request, options, package_names, package_sources,
            request_id,
        )

    def _do_expand(
        self,
        rid: Any,
        op: str,
        request: dict[str, Any],
        options: Ms2Options,
        package_names: tuple[str, ...],
        package_sources: tuple[tuple[str, str], ...],
        request_id: str,
    ) -> dict[str, Any]:
        source = request.get("source")
        if not isinstance(source, str):
            return _err(rid, op, "bad_request",
                        "expand requires a string 'source'")
        filename = request.get("filename", "<server>")
        if not isinstance(filename, str):
            return _err(rid, op, "bad_request",
                        "'filename' must be a string")
        if op == "trace":
            options = options.replace(trace=True)
        try:
            worker, _, warm = self.pool.acquire(
                options, package_names, package_sources
            )
        except KeyError as exc:
            return _err(rid, op, "bad_request", str(exc.args[0]))
        except OSError as exc:
            # The inline worker build hit infrastructure trouble
            # (disk error, injected fault).  The request itself is
            # fine — answer a typed, retryable frame.
            return _err(
                rid, op, "unavailable",
                f"could not build an expansion worker: {exc}",
                retry_after_ms=self.retry_after_ms(),
            )
        if worker.tracer is not None:
            # Spans opened during this expansion carry the serving
            # request's correlation ID (single-use worker: no bleed).
            worker.tracer.request_id = request_id
        try:
            result = worker.expand(source, filename)
        except Ms2Error as exc:
            self._count_pipeline(worker.stats)
            return _err(
                rid, op, "expansion_error", exc.message,
                diagnostic=Diagnostic.from_error(exc).to_json(),
                warm=warm,
            )
        self._count_pipeline(worker.stats)
        payload = result.to_json()
        payload["warm"] = warm
        if op == "trace" and worker.tracer is not None:
            payload["tree"] = worker.tracer.render_tree()
        return _ok(rid, op, payload)

    def _do_expand_file(
        self,
        rid: Any,
        request: dict[str, Any],
        options: Ms2Options,
        package_names: tuple[str, ...],
        package_sources: tuple[tuple[str, str], ...],
    ) -> dict[str, Any]:
        path = request.get("path")
        if not isinstance(path, str):
            return _err(rid, "expand_file", "bad_request",
                        "expand_file requires a string 'path'")
        session = self._session_for(
            options, package_names, package_sources
        )
        try:
            report = session.build([path])
        except OSError as exc:
            return _err(rid, "expand_file", "bad_request", str(exc))
        except KeyError as exc:
            return _err(rid, "expand_file", "bad_request",
                        str(exc.args[0]))
        [file_result] = report.results
        if file_result.stats:
            self._count_pipeline(PipelineStats.from_json(file_result.stats))
        if file_result.status != "ok":
            # Infrastructure casualties (worker I/O faults, dead
            # workers) are transient: answer a retryable frame, not
            # an expansion error that clients would treat as final.
            if file_result.error_type in _TRANSIENT_ERROR_TYPES:
                return _err(
                    rid, "expand_file", "unavailable",
                    file_result.error or "worker failure",
                    path=file_result.path,
                    retry_after_ms=self.retry_after_ms(),
                )
            return _err(
                rid, "expand_file", "expansion_error",
                file_result.error or "expansion failed",
                path=file_result.path,
            )
        return _ok(rid, "expand_file", file_result.to_json())

    def _session_for(
        self,
        options: Ms2Options,
        package_names: tuple[str, ...],
        package_sources: tuple[tuple[str, str], ...],
    ):
        """The BuildSession serving ``expand_file`` for this pool key
        — jobs=1 (the daemon's executor is the concurrency), sharing
        the server's persistent cache directory."""
        key = self.pool.key_for(options, package_names, package_sources)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is None:
                session = BuildSession(
                    options,
                    package_names=package_names,
                    package_sources=package_sources,
                    jobs=1,
                    cache=(
                        str(self.cache_dir)
                        if self.cache_dir is not None
                        else None
                    ),
                )
                self._sessions[key] = session
            return session

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats_payload(self) -> dict[str, Any]:
        """The ``stats`` op response body: :func:`stats_view` of this
        daemon's registry."""
        return stats_view(self.registry.snapshot(), self._stats_info())

    def telemetry_payload(self) -> dict[str, Any]:
        """The ``telemetry`` op response body: the raw registry
        snapshot plus the non-metric info, the unit the shard
        supervisor merges into the fleet view."""
        return {
            "snapshot": self.registry.snapshot(),
            "info": self._stats_info(),
        }

    def _stats_info(self) -> dict[str, Any]:
        """The non-metric half of the ``stats`` payload (see
        :func:`stats_view`)."""
        return {
            "server": {
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "address": self.address,
                "shard": self.shard_index,
                "max_inflight": self.max_inflight,
                "queue_limit": self.queue_limit,
                "shed_threshold": self.shed_threshold(),
                "load_tier": self.load_tier(),
                "max_frame_bytes": self.max_frame_bytes,
                "default_deadline_s": self.default_deadline_s,
                "draining": self._draining,
                "packages": list(self.package_names),
                "options_hash": self.options.options_hash(),
            },
            "faults": {
                "armed": faults.ACTIVE is not None,
                "seed": (
                    faults.ACTIVE.seed if faults.ACTIVE is not None else None
                ),
            },
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "metrics_address": (
                self.sidecar.address if self.sidecar is not None else None
            ),
        }


# ---------------------------------------------------------------------------
# Blocking entry point
# ---------------------------------------------------------------------------


def _arm_config_faults(config: ServeConfig) -> None:
    """Arm the config's chaos plan (and export it so every shard
    child inherits it through the environment)."""
    if not config.fault_specs:
        return
    plan = faults.arm(*config.fault_specs, seed=config.fault_seed)
    faults.export_to_env(plan)
    print(
        f"fault injection armed: {plan.describe()}",
        file=sys.stderr,
        flush=True,
    )


def serve(
    options: Ms2Options | None = None,
    config: ServeConfig | None = None,
    *,
    ready: Any = None,
) -> None:
    """Run an expansion daemon until it shuts down (the ``repro
    serve`` entry point; also the :mod:`repro.api` facade's
    ``serve``).

    ``options`` configure expansion semantics; ``config`` — a
    :class:`ServeConfig` — configures the serving process (listen
    address, shard count, capacity, telemetry).  With
    ``config.shards > 1`` the call runs the pre-forked
    :mod:`repro.shard` fleet instead of a single in-process daemon.

    ``ready`` is an optional callable invoked once the listener is
    bound — with the :class:`Ms2Server` (single process) or the
    :class:`repro.shard.ShardSupervisor` (fleet); both expose
    ``.address``.  Tests use it to learn ephemeral ports.
    """
    if config is None:
        raise TypeError(
            "serve() requires a ServeConfig: "
            "serve(options, ServeConfig(socket=...))"
        )
    config.validate()
    _arm_config_faults(config)
    if config.shards > 1:
        from repro.shard import run_sharded

        run_sharded(options, config, ready=ready)
        return
    server = Ms2Server.from_config(options, config)

    async def _main() -> None:
        await server.start()
        server.install_signal_handlers()
        if ready is not None:
            ready(server)
        await server.serve_until_stopped()

    asyncio.run(_main())
