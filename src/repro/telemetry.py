"""Unified telemetry: metrics registry, event log, request IDs.

Three dependency-free primitives shared by every layer of the serving
and build stack (see ``docs/OBSERVABILITY.md``):

**Metrics registry** — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` with label sets, owned by a
:class:`MetricsRegistry` that renders the Prometheus text exposition
format (the ``/metrics`` endpoint of ``repro serve --metrics-port``)
and produces JSON **snapshots** that :func:`merge_snapshots` can fold
together — the aggregation substrate the multi-process sharded server
and the remote build cache (ROADMAP) build on: N processes each
snapshot their registry, one aggregator merges and re-renders.

Metric names are validated against the Prometheus data model at
registration time (``[a-zA-Z_:][a-zA-Z0-9_:]*``; labels without the
colon), so an invalid series name is a programming error caught by the
first test that builds a registry, never a scrape-time surprise.

Hot paths update the registry directly (``inc``/``set``/``observe``
where each event happens), so the registry is the one store every
reader — ``/metrics``, the daemon's ``stats`` op, ``repro top``, the
fleet gateway — derives its numbers from.  A *collector* callback
registered with :meth:`MetricsRegistry.register_collector` is only for
counters another module owns and reports elsewhere too (a cache
backend's hit counts, the fault plan's fire counts); it copies them in
at scrape time.

**Event log** — :class:`EventLog` appends structured JSONL records
(``{"ts": ..., "event": ..., "request_id": ..., ...}``) to a stream
or file, thread-safely.  The expansion daemon logs one ``request`` and
one ``response`` record per frame plus a ``span`` record per traced
expansion, all keyed by the request ID, so one request can be followed
client → daemon → expansion spans (``repro trace --events``).

**Request IDs** — :func:`new_request_id` mints the compact hex IDs the
client stamps on every frame, the server echoes in every response, and
the tracer stamps onto spans.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Mapping, Sequence

from repro import faults

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "merge_snapshots",
    "new_request_id",
    "render_snapshot",
    "validate_label_name",
    "validate_metric_name",
]

#: Request-latency histogram bucket upper bounds, milliseconds — THE
#: shared definition.  The producer (the daemon's
#: ``ms2_request_latency_ms`` series) and every consumer (``repro
#: top`` percentile math, cross-shard aggregation) uses this one
#: constant: merging shard histograms bucket-by-bucket is only sound
#: when every shard bucketed identically.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Prometheus data model: metric names.
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Prometheus data model: label names (no colon; ``__`` is reserved).
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Snapshot wire-format version (bumped on incompatible change).
SNAPSHOT_VERSION = 1


def new_request_id() -> str:
    """A fresh request correlation ID: 16 hex chars, log-friendly."""
    return uuid.uuid4().hex[:16]


def validate_metric_name(name: str) -> str:
    """``name`` if it is a valid Prometheus metric identifier."""
    if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid Prometheus metric name: {name!r}")
    return name


def validate_label_name(name: str) -> str:
    """``name`` if it is a valid Prometheus label identifier."""
    if (
        not isinstance(name, str)
        or not LABEL_NAME_RE.match(name)
        or name.startswith("__")
    ):
        raise ValueError(f"invalid Prometheus label name: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without the trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    if as_int == value:
        return str(as_int)
    return repr(value)


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


# ---------------------------------------------------------------------------
# Metric types
# ---------------------------------------------------------------------------


class _Metric:
    """Shared machinery: a named family of samples keyed by label
    values.  The registry's lock guards every mutation, so collectors
    running on scrape threads and hot-path increments cannot race."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        merge: str = "sum",
    ) -> None:
        self.name = validate_metric_name(name)
        self.help = help
        self.labelnames = tuple(
            validate_label_name(label) for label in labelnames
        )
        if merge not in ("sum", "max", "last"):
            raise ValueError(f"unknown merge mode {merge!r}")
        #: How :func:`merge_snapshots` folds two samples of this
        #: series: ``sum`` (counters, most gauges), ``max`` (peaks),
        #: ``last`` (info-style constants).
        self.merge = merge
        self._lock = lock
        self._samples: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        # Same size and every name present means the same label set.
        if len(labels) == len(self.labelnames):
            try:
                return tuple([str(labels[name]) for name in self.labelnames])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.name} takes labels "
            f"{list(self.labelnames)}, got {sorted(labels)}"
        )

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels, value)`` pairs, insertion order."""
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), _copy_value(value))
                for key, value in self._samples.items()
            ]


def _copy_value(value: Any) -> Any:
    return dict(value) if isinstance(value, dict) else value


class Counter(_Metric):
    """A monotonically increasing total.  ``set_total`` exists only
    for collectors copying a counter another module owns (a cache
    backend's hits, the fault plan's fire counts); it must never be
    used to decrease a series."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: Any) -> None:
        """Copy an absolute total owned by another module (collector
        use; scrape-time overwrite, not an increment)."""
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)


class Gauge(_Metric):
    """A value that can go up and down (in-flight requests, pool
    depth, uptime)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Cumulative-bucket distribution (Prometheus ``le`` semantics).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf``
    bucket is always appended.  Internally per-bucket (non-cumulative)
    counts are stored and the exposition renders them cumulatively.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float],
        labelnames: Sequence[str],
        lock: threading.Lock,
        merge: str = "sum",
    ) -> None:
        super().__init__(name, help, labelnames, lock, merge)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be sorted, unique")
        if bounds and bounds[-1] == float("inf"):
            bounds = bounds[:-1]
        self.buckets = bounds
        if not self.labelnames:
            # Renders (all zero) from the first scrape.
            self._samples[()] = self._blank()

    def _blank(self) -> dict[str, Any]:
        return {
            "counts": [0] * (len(self.buckets) + 1),
            "sum": 0.0,
            "count": 0,
        }

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.setdefault(key, self._blank())
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    sample["counts"][index] += 1
                    break
            else:
                sample["counts"][-1] += 1
            sample["sum"] += value
            sample["count"] += 1


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """A named set of metrics plus the collectors that refresh them.

    ``render_prometheus()`` and ``snapshot()`` first run every
    registered collector, so series copied from other modules are
    current at scrape time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- registration ---------------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name} already registered "
                        "with a different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        merge: str = "sum",
    ) -> Counter:
        metric = self._register(
            Counter(name, help, labelnames, self._lock, merge)
        )
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        merge: str = "sum",
    ) -> Gauge:
        metric = self._register(
            Gauge(name, help, labelnames, self._lock, merge)
        )
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = (),
        labelnames: Sequence[str] = (),
        merge: str = "sum",
    ) -> Histogram:
        metric = self._register(
            Histogram(name, help, buckets, labelnames, self._lock, merge)
        )
        assert isinstance(metric, Histogram)
        return metric

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """``collector(registry)`` runs before every render/snapshot;
        use it to copy counters other modules own into samples."""
        self._collectors.append(collector)

    # -- introspection --------------------------------------------------

    def metric_names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> None:
        """Run every collector (refresh copied samples)."""
        for collector in self._collectors:
            collector(self)

    # -- output ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able dump of every series — the unit of cross-
        process aggregation (:func:`merge_snapshots`)."""
        self.collect()
        with self._lock:
            metrics = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry: dict[str, Any] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "merge": metric.merge,
                    "samples": [
                        [list(key), _copy_value(value)]
                        for key, value in metric._samples.items()
                    ],
                }
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.buckets)
                metrics[name] = entry
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def render_prometheus(self) -> str:
        """The text exposition format (``/metrics`` response body)."""
        return render_snapshot(self.snapshot())


# ---------------------------------------------------------------------------
# Snapshot aggregation / rendering (the sharded-serving substrate)
# ---------------------------------------------------------------------------


def merge_snapshots(
    snapshots: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Fold registry snapshots from N processes into one.

    Counters and histograms sum; gauges fold per their ``merge`` mode
    (``sum`` by default, ``max`` for peaks, ``last`` for constants).
    Samples align by label values; series present in only some
    snapshots contribute what they have.
    """
    merged: dict[str, Any] = {"version": SNAPSHOT_VERSION, "metrics": {}}
    out = merged["metrics"]
    for snapshot in snapshots:
        for name, entry in (snapshot.get("metrics") or {}).items():
            target = out.get(name)
            if target is None:
                out[name] = {
                    "type": entry.get("type", "untyped"),
                    "help": entry.get("help", ""),
                    "labelnames": list(entry.get("labelnames", [])),
                    "merge": entry.get("merge", "sum"),
                    "samples": [
                        [list(key), _copy_value(value)]
                        for key, value in entry.get("samples", [])
                    ],
                }
                if "buckets" in entry:
                    out[name]["buckets"] = list(entry["buckets"])
                continue
            index = {
                tuple(key): position
                for position, (key, _) in enumerate(target["samples"])
            }
            for key, value in entry.get("samples", []):
                position = index.get(tuple(key))
                if position is None:
                    target["samples"].append(
                        [list(key), _copy_value(value)]
                    )
                    continue
                current = target["samples"][position][1]
                target["samples"][position][1] = _merge_values(
                    current, value, target.get("merge", "sum")
                )
    return merged


def _merge_values(left: Any, right: Any, mode: str) -> Any:
    if isinstance(left, dict) or isinstance(right, dict):
        # Histogram samples always sum (counts are event totals).
        counts = [
            a + b
            for a, b in zip(left.get("counts", []), right.get("counts", []))
        ]
        return {
            "counts": counts,
            "sum": left.get("sum", 0.0) + right.get("sum", 0.0),
            "count": left.get("count", 0) + right.get("count", 0),
        }
    if mode == "max":
        return max(left, right)
    if mode == "last":
        return right
    return left + right


def render_snapshot(snapshot: dict[str, Any]) -> str:
    """Prometheus text exposition from a snapshot (live or merged)."""
    lines: list[str] = []
    for name, entry in (snapshot.get("metrics") or {}).items():
        kind = entry.get("type", "untyped")
        help_text = entry.get("help", "")
        labelnames = list(entry.get("labelnames", []))
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for key, value in entry.get("samples", []):
            labels = dict(zip(labelnames, key))
            if isinstance(value, dict):
                lines.extend(
                    _render_histogram_sample(
                        name, entry.get("buckets", []), labels, value
                    )
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(float(value))}"
                )
    return "\n".join(lines) + "\n"


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _render_histogram_sample(
    name: str,
    buckets: Sequence[float],
    labels: Mapping[str, str],
    value: Mapping[str, Any],
) -> list[str]:
    lines = []
    cumulative = 0
    counts = list(value.get("counts", []))
    bounds = [float(b) for b in buckets] + [float("inf")]
    for bound, count in zip(bounds, counts):
        cumulative += count
        bucket_labels = dict(labels)
        bucket_labels["le"] = _format_bound(bound)
        lines.append(
            f"{name}_bucket{_render_labels(bucket_labels)} {cumulative}"
        )
    lines.append(
        f"{name}_sum{_render_labels(labels)} "
        f"{_format_value(float(value.get('sum', 0.0)))}"
    )
    lines.append(
        f"{name}_count{_render_labels(labels)} "
        f"{int(value.get('count', 0))}"
    )
    return lines


# ---------------------------------------------------------------------------
# Structured event log
# ---------------------------------------------------------------------------


#: Consecutive write failures after which an :class:`EventLog`
#: disables itself (telemetry must never take down the request path).
EVENTLOG_MAX_CONSECUTIVE_ERRORS = 5


class EventLog:
    """Append-only JSONL event sink keyed by request ID.

    Accepts an open text stream or a filesystem path (opened in append
    mode and then owned — :meth:`close` closes it).  Writes are
    serialized by a lock so executor threads and the event loop can
    log concurrently; each record carries a wall-clock ``ts`` and the
    ``event`` name, plus whatever fields the caller attaches.

    **Failure containment:** the event log is telemetry, not state.
    A sink that cannot be opened, or a write that raises (disk full,
    revoked file descriptor, injected fault), is *counted* —
    :attr:`errors_total`, the ``ms2_eventlog_errors_total`` series —
    and never propagates to the caller.  After
    :data:`EVENTLOG_MAX_CONSECUTIVE_ERRORS` consecutive failures the
    log disables itself (:attr:`disabled`) so a permanently broken
    sink stops costing a syscall-and-exception per request.  One
    successful write resets the consecutive counter.
    """

    def __init__(self, sink: str | Path | IO[str]) -> None:
        self._lock = threading.Lock()
        #: Records successfully written (tests and ``/statusz``).
        self.events_written = 0
        #: Write/open failures absorbed (never raised to callers).
        self.errors_total = 0
        #: True once the log gave up on its sink.
        self.disabled = False
        self._consecutive_errors = 0
        self._stream: IO[str] | None
        if hasattr(sink, "write"):
            self._stream = sink  # type: ignore[assignment]
            self._owns = False
        else:
            self._owns = True
            try:
                self._stream = open(sink, "a", encoding="utf-8")
            except OSError:
                # An unwritable path disables the log from the start;
                # the daemon keeps serving.
                self._stream = None
                self.errors_total += 1
                self.disabled = True

    def log(
        self,
        event: str,
        request_id: str | None = None,
        **fields: Any,
    ) -> None:
        if self.disabled:
            return
        record: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "event": event,
        }
        if request_id is not None:
            record["request_id"] = request_id
        record.update(fields)
        line = json.dumps(record, default=str)
        with self._lock:
            if self.disabled or self._stream is None:
                return
            try:
                if faults.ACTIVE is not None:
                    faults.ACTIVE.hit("eventlog.write", context=event)
                self._stream.write(line + "\n")
            except (OSError, ValueError):
                self.errors_total += 1
                self._consecutive_errors += 1
                if (
                    self._consecutive_errors
                    >= EVENTLOG_MAX_CONSECUTIVE_ERRORS
                ):
                    self.disabled = True
                return
            self._consecutive_errors = 0
            self.events_written += 1

    def flush(self) -> None:
        with self._lock:
            if self._stream is None:
                return
            try:
                self._stream.flush()
            except (OSError, ValueError):
                self.errors_total += 1

    def close(self) -> None:
        with self._lock:
            if self._stream is None:
                return
            try:
                self._stream.flush()
            except (OSError, ValueError):
                pass  # already closed or sink gone
            if self._owns:
                try:
                    self._stream.close()
                except OSError:
                    pass
