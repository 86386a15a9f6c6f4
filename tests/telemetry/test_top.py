"""``repro top``: quantile interpolation and the dashboard renderer
(pure functions over canned ``stats`` payloads)."""

from __future__ import annotations

from repro.top import histogram_quantile, render_dashboard


def test_quantile_empty_histogram_is_zero():
    assert histogram_quantile(0.5, [1.0, 10.0], [0, 0, 0]) == 0.0


def test_quantile_interpolates_within_bucket():
    # 10 observations all in (1, 10]: p50 lands mid-bucket.
    value = histogram_quantile(0.5, [1.0, 10.0], [0, 10, 0])
    assert 5.0 < value < 6.0


def test_quantile_overflow_clamps_to_last_finite_bound():
    assert histogram_quantile(0.99, [1.0, 10.0], [0, 0, 5]) == 10.0


def test_quantile_crosses_buckets():
    # 5 fast + 5 slow: p50 at the first bucket's edge, p99 deep in
    # the second.
    bounds = [1.0, 100.0]
    counts = [5, 5, 0]
    assert histogram_quantile(0.5, bounds, counts) == 1.0
    assert histogram_quantile(0.99, bounds, counts) > 90.0


PAYLOAD = {
    "uptime_s": 12.5,
    "in_flight": 1,
    "connections_open": 2,
    "busy_rejections": 3,
    "bad_frames": 0,
    "responses": {"ok": 40, "error": 2},
    "latency_ms": {
        "count": 42,
        "mean": 3.2,
        "buckets": {"1": 10, "10": 30, "+Inf": 2},
    },
    "expansion_cache": {"hits": 30, "misses": 10, "hit_rate": 0.75},
    "workers": {
        "warm_hits": 35,
        "cold_builds": 7,
    },
    "disk_cache": {"hits": 4, "misses": 2, "failures": 1,
                   "evictions": 1},
    "server": {
        "address": "/tmp/ms2.sock",
        "pid": 4242,
        "max_inflight": 4,
        "draining": False,
    },
    "telemetry": {
        "metrics_address": "127.0.0.1:9464",
        "event_log_records": 120,
    },
}


def test_render_dashboard_first_poll():
    text = render_dashboard(PAYLOAD)
    assert "/tmp/ms2.sock" in text
    assert "up 12s" in text or "up 13s" in text
    assert "served 42" in text
    assert "in-flight 1/4" in text
    assert "hit  75.0%" in text
    assert "warm 35   cold 7" in text
    assert "evictions 1" in text
    assert "http://127.0.0.1:9464/metrics" in text
    assert "DRAINING" not in text
    assert "0.0/s" in text  # no previous poll: rate reads zero


def test_render_dashboard_rate_from_delta():
    prev = dict(PAYLOAD)
    prev["latency_ms"] = {**PAYLOAD["latency_ms"], "count": 22}
    text = render_dashboard(PAYLOAD, prev, dt=2.0)
    assert "10.0/s" in text  # (42 - 22) / 2s


def test_render_dashboard_marks_draining():
    draining = dict(PAYLOAD)
    draining["server"] = {**PAYLOAD["server"], "draining": True}
    assert "[DRAINING]" in render_dashboard(draining)


def test_render_dashboard_quantiles_from_buckets():
    text = render_dashboard(PAYLOAD)
    # 10 of 42 under 1ms, 40 under 10ms: p50 in (1, 10], p99 clamped
    # to the overflow bound.
    assert "p50" in text and "p99" in text
    p50_field = text.split("p50")[1].split("ms")[0]
    assert 1.0 < float(p50_field) < 10.0
