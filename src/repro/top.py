"""``repro top`` — a live terminal view of a running daemon.

Polls the daemon's ``stats`` op (the same payload ``/statusz``
serves) on an interval and renders a compact dashboard: request
rate, latency quantiles interpolated from the server's histogram,
in-flight work, expansion-cache hit ratio, worker-pool depth and
persistent-cache traffic.  Rates are computed from the *delta*
between consecutive polls, so the view shows current throughput,
not lifetime averages.

Everything here is pure functions over stats payloads plus one
polling loop, so tests drive :func:`render_dashboard` directly with
canned payloads and ``--iterations`` bounds the loop.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Any, Sequence

from repro.telemetry import LATENCY_BUCKETS_MS

__all__ = ["histogram_quantile", "render_dashboard", "run_top"]


def histogram_quantile(
    q: float, bounds: Sequence[float], counts: Sequence[int]
) -> float:
    """The ``q``-quantile (0..1) of a bucketed histogram.

    ``bounds`` are the finite upper bounds; ``counts`` holds one
    per-bucket (non-cumulative) count per bound plus the overflow
    bucket.  Linear interpolation inside the winning bucket, the
    Prometheus ``histogram_quantile`` convention; observations in the
    overflow bucket clamp to the largest finite bound.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if index >= len(bounds):
                return float(bounds[-1]) if bounds else 0.0
            lower = float(bounds[index - 1]) if index > 0 else 0.0
            upper = float(bounds[index])
            fraction = (rank - previous) / count
            return lower + (upper - lower) * fraction
    return float(bounds[-1]) if bounds else 0.0


def _latency_series(
    payload: dict[str, Any],
) -> tuple[list[float], list[int]]:
    """(finite bounds, per-bucket counts incl. overflow) from a stats
    payload's cumulative-free ``latency_ms.buckets`` dict."""
    buckets = (payload.get("latency_ms") or {}).get("buckets") or {}
    bounds = sorted(
        float(bound) for bound in buckets if bound != "+Inf"
    )
    if not bounds:
        # An empty payload still renders against the bucket layout
        # every server uses (the one shared constant, so merged
        # multi-shard histograms can never skew the percentile math).
        bounds = list(LATENCY_BUCKETS_MS)
    counts = [int(buckets.get(f"{bound:g}", 0)) for bound in bounds]
    counts.append(int(buckets.get("+Inf", 0)))
    return bounds, counts


def _rate(curr: float, prev: float, dt: float) -> float:
    return max(0.0, curr - prev) / dt if dt > 0 else 0.0


def render_dashboard(
    curr: dict[str, Any],
    prev: dict[str, Any] | None = None,
    dt: float = 0.0,
) -> str:
    """The dashboard text for one poll of the ``stats`` payload.

    ``prev``/``dt`` (the previous poll and the seconds between them)
    turn lifetime totals into rates; on the first poll both rates
    read 0.
    """
    latency = curr.get("latency_ms") or {}
    bounds, counts = _latency_series(curr)
    served = int(latency.get("count", 0))
    prev_latency = (prev or {}).get("latency_ms") or {}
    req_rate = _rate(served, int(prev_latency.get("count", 0)), dt)
    p50 = histogram_quantile(0.50, bounds, counts)
    p99 = histogram_quantile(0.99, bounds, counts)

    cache = curr.get("expansion_cache") or {}
    workers = curr.get("workers") or {}
    disk = curr.get("disk_cache") or {}
    server = curr.get("server") or {}
    telemetry = curr.get("telemetry") or {}
    responses = curr.get("responses") or {}

    lines = [
        "repro top — {address}  up {uptime:.0f}s  pid {pid}{drain}".format(
            address=server.get("address", "?"),
            uptime=float(curr.get("uptime_s", 0.0)),
            pid=server.get("pid", "?"),
            drain="  [DRAINING]" if server.get("draining") else "",
        ),
        (
            f"requests   {req_rate:8.1f}/s   served {served}   "
            f"in-flight {curr.get('in_flight', 0)}"
            f"/{server.get('max_inflight', '?')}   "
            f"conns {curr.get('connections_open', 0)}"
        ),
        (
            f"latency    p50 {p50:8.2f}ms   p99 {p99:8.2f}ms   "
            f"mean {float(latency.get('mean', 0.0)):8.2f}ms"
        ),
        (
            f"responses  ok {responses.get('ok', 0)}   "
            f"error {responses.get('error', 0)}   "
            f"busy {curr.get('busy_rejections', 0)}   "
            f"bad-frames {curr.get('bad_frames', 0)}"
        ),
        (
            "exp-cache  hit {rate:6.1%}   hits {hits}   misses {misses}"
            .format(
                rate=float(cache.get("hit_rate", 0.0)),
                hits=cache.get("hits", 0),
                misses=cache.get("misses", 0),
            )
        ),
        (
            f"workers    warm {workers.get('warm_hits', 0)}   "
            f"cold {workers.get('cold_builds', 0)}"
        ),
        (
            f"disk       hits {disk.get('hits', 0)}   "
            f"misses {disk.get('misses', 0)}   "
            f"failures {disk.get('failures', 0)}   "
            f"evictions {disk.get('evictions', 0)}   "
            f"load {float(disk.get('load_ms', 0.0)):.1f}ms   "
            f"store {float(disk.get('store_ms', 0.0)):.1f}ms"
        ),
    ]
    backends = curr.get("cache_backends") or {}
    for name, tier in sorted((backends.get("tiers") or {}).items()):
        if not isinstance(tier, dict):
            continue
        lines.append(
            f"cache:{name:<10.10}  hits {tier.get('hits', 0)}   "
            f"misses {tier.get('misses', 0)}   "
            f"timeouts {tier.get('timeouts', 0)}   "
            f"load {float(tier.get('load_ms', 0.0)):.1f}ms   "
            f"store {float(tier.get('store_ms', 0.0)):.1f}ms"
        )
    resilience = curr.get("resilience") or {}
    if any(resilience.values()):
        lines.append(
            f"resilience restarts {resilience.get('worker_restarts', 0)}   "
            f"retries {resilience.get('client_retries', 0)}   "
            f"fallbacks {resilience.get('client_fallbacks', 0)}   "
            f"eventlog-err {resilience.get('eventlog_errors', 0)}"
        )
    fault_info = curr.get("faults") or {}
    if fault_info.get("armed"):
        injected = fault_info.get("injected") or {}
        fired = " ".join(
            f"{site}={count}" for site, count in sorted(injected.items())
        )
        lines.append(
            f"faults     ARMED seed {fault_info.get('seed')}   "
            f"injected {fired or '(none yet)'}"
        )
    if telemetry.get("metrics_address"):
        lines.append(
            f"telemetry  http://{telemetry['metrics_address']}/metrics"
            f"   events {telemetry.get('event_log_records') or 0}"
        )
    shards = curr.get("shards") or []
    if shards:
        lines.append(
            f"shards     {len(shards)} reporting of "
            f"{server.get('shards', len(shards))} configured   "
            f"restarts {server.get('shard_restarts', 0)}"
        )
        for entry in shards:
            lines.append(
                f"  shard {entry.get('shard', '?')}   "
                f"pid {entry.get('pid', '?')}   "
                f"in-flight {entry.get('in_flight', 0)}   "
                f"reqs {entry.get('requests_total', 0)}   "
                f"tier {entry.get('load_tier', '?')}   "
                f"up {float(entry.get('uptime_s', 0.0)):.0f}s"
            )
    return "\n".join(lines)


def run_top(
    address: str,
    *,
    interval: float = 2.0,
    iterations: int | None = None,
    out: IO[str] | None = None,
    clear: bool = True,
) -> int:
    """Poll ``stats`` and redraw until interrupted (or for a bounded
    number of ``iterations``)."""
    from repro.client import Ms2Client

    stream = out if out is not None else sys.stdout
    prev: dict[str, Any] | None = None
    prev_at = 0.0
    done = 0
    try:
        with Ms2Client(address) as client:
            while iterations is None or done < iterations:
                curr = client.stats()
                now = time.monotonic()
                dt = now - prev_at if prev is not None else 0.0
                if clear and stream.isatty():
                    stream.write("\x1b[2J\x1b[H")
                stream.write(
                    render_dashboard(curr, prev, dt) + "\n"
                )
                stream.flush()
                prev, prev_at = curr, now
                done += 1
                if iterations is not None and done >= iterations:
                    break
                time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
