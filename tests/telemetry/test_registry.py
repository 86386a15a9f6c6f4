"""MetricsRegistry: the data model, the exposition, the aggregation.

The contract under test: names are validated at registration (never
at scrape), the rendered text is well-formed Prometheus exposition
(cumulative histogram buckets included), snapshots are plain JSON,
and :func:`merge_snapshots` folds N processes' snapshots per each
metric's declared merge mode.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.telemetry import (
    METRIC_NAME_RE,
    MetricsRegistry,
    merge_snapshots,
    new_request_id,
    render_snapshot,
    validate_label_name,
    validate_metric_name,
)

# A permissive line grammar for the exposition format: comments or
# `name{labels} value` samples.  Parsing every rendered line against
# it is the well-formedness check the CI smoke job repeats via HTTP.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" -?[0-9.eE+]+(Inf)?$"
)


def assert_valid_exposition(text: str) -> dict[str, float]:
    """Parse rendered exposition text; return unlabeled samples."""
    assert text.endswith("\n")
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert SAMPLE_LINE.match(line), f"malformed sample: {line!r}"
        name, _, value = line.partition(" ")
        if "{" not in name:
            samples[name] = float(value.replace("+Inf", "inf"))
    return samples


def exposition_samples(text: str) -> dict[str, float]:
    """Every sample of an exposition, labeled or not, keyed
    ``name{labels}`` exactly as rendered."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value.replace("+Inf", "inf"))
    return samples


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------


def test_request_ids_are_16_hex_and_unique():
    ids = {new_request_id() for _ in range(64)}
    assert len(ids) == 64
    for rid in ids:
        assert re.fullmatch(r"[0-9a-f]{16}", rid)


@pytest.mark.parametrize(
    "name", ["ms2_requests_total", "up", "a:b:c", "_private"]
)
def test_valid_metric_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["2bad", "has-dash", "has space", "", "emoji🙂"]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


@pytest.mark.parametrize("name", ["op", "pool_key", "le"])
def test_valid_label_names(name):
    assert validate_label_name(name) == name


@pytest.mark.parametrize("name", ["__reserved", "with:colon", "9x"])
def test_invalid_label_names(name):
    with pytest.raises(ValueError):
        validate_label_name(name)


def test_registration_rejects_bad_names_immediately():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("bad-name")
    with pytest.raises(ValueError):
        reg.gauge("ok_name", labelnames=("__bad",))


def test_reregistration_same_shape_returns_same_metric():
    reg = MetricsRegistry()
    a = reg.counter("ms2_x_total", "help", ("op",))
    b = reg.counter("ms2_x_total", "other help", ("op",))
    assert a is b


def test_reregistration_conflicting_shape_raises():
    reg = MetricsRegistry()
    reg.counter("ms2_x_total", labelnames=("op",))
    with pytest.raises(ValueError):
        reg.gauge("ms2_x_total")
    with pytest.raises(ValueError):
        reg.counter("ms2_x_total", labelnames=("code",))


# ---------------------------------------------------------------------------
# Samples and rendering
# ---------------------------------------------------------------------------


def test_counter_inc_and_labels():
    reg = MetricsRegistry()
    c = reg.counter("ms2_requests_total", "Requests", ("op",))
    c.inc(op="ping")
    c.inc(2, op="expand")
    with pytest.raises(ValueError):
        c.inc(-1, op="ping")
    with pytest.raises(ValueError):
        c.inc(op="ping", extra="nope")
    text = reg.render_prometheus()
    assert '# TYPE ms2_requests_total counter' in text
    assert 'ms2_requests_total{op="ping"} 1' in text
    assert 'ms2_requests_total{op="expand"} 2' in text
    assert_valid_exposition(text)


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("ms2_in_flight")
    g.set(3)
    g.inc()
    g.dec(2)
    assert "ms2_in_flight 2\n" in reg.render_prometheus()


def test_label_value_escaping():
    reg = MetricsRegistry()
    c = reg.counter("ms2_x_total", labelnames=("path",))
    c.inc(path='a"b\\c\nd')
    text = reg.render_prometheus()
    assert '{path="a\\"b\\\\c\\nd"}' in text
    assert_valid_exposition(text)


def test_histogram_observe_renders_cumulative_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("ms2_latency_ms", "Latency", (1.0, 10.0))
    for value in (0.5, 0.7, 5.0, 99.0):
        h.observe(value)
    text = reg.render_prometheus()
    assert 'ms2_latency_ms_bucket{le="1"} 2' in text
    assert 'ms2_latency_ms_bucket{le="10"} 3' in text
    assert 'ms2_latency_ms_bucket{le="+Inf"} 4' in text
    assert "ms2_latency_ms_count 4" in text
    assert "ms2_latency_ms_sum 105.2" in text
    assert_valid_exposition(text)


def test_concurrent_updates_lose_nothing():
    """The daemon's event loop and executor threads update one
    registry; every increment and observation must land."""
    import sys
    import threading

    reg = MetricsRegistry()
    c = reg.counter("ms2_hits_total", labelnames=("op",))
    h = reg.histogram("ms2_latency_ms", buckets=(1.0, 10.0))
    workers, rounds = 8, 2000

    def work():
        for _ in range(rounds):
            c.inc(op="expand")
            h.observe(5.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    text = reg.render_prometheus()
    assert f'ms2_hits_total{{op="expand"}} {workers * rounds}' in text
    assert f"ms2_latency_ms_count {workers * rounds}" in text


def test_histogram_buckets_must_be_sorted_unique():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("ms2_h", buckets=(10.0, 1.0))
    with pytest.raises(ValueError):
        reg.histogram("ms2_h2", buckets=(1.0, 1.0))


def test_collector_runs_at_scrape_time():
    reg = MetricsRegistry()
    c = reg.counter("ms2_mirrored_total")
    external = {"n": 0}
    reg.register_collector(
        lambda r: c.set_total(external["n"])
    )
    external["n"] = 7
    assert "ms2_mirrored_total 7" in reg.render_prometheus()
    external["n"] = 9
    assert "ms2_mirrored_total 9" in reg.render_prometheus()


# ---------------------------------------------------------------------------
# Snapshot / merge (the sharded-serving substrate)
# ---------------------------------------------------------------------------


def _shard(requests: int, peak: int, latencies=()) -> dict:
    reg = MetricsRegistry()
    reg.counter("ms2_requests_total", "Requests").inc(requests)
    reg.gauge("ms2_peak", "Peak", merge="max").set(peak)
    reg.gauge("ms2_version", merge="last").set(1)
    h = reg.histogram("ms2_latency_ms", buckets=(1.0, 10.0))
    for value in latencies:
        h.observe(value)
    return reg.snapshot()


def test_snapshot_is_plain_json():
    snap = _shard(3, 2, latencies=(0.5,))
    rebuilt = json.loads(json.dumps(snap))
    assert rebuilt["version"] == 1
    assert "ms2_requests_total" in rebuilt["metrics"]


def test_merge_sums_counters_and_histograms():
    merged = merge_snapshots(
        [_shard(3, 2, (0.5, 5.0)), _shard(4, 7, (0.7,))]
    )
    text = render_snapshot(merged)
    assert "ms2_requests_total 7" in text
    assert 'ms2_latency_ms_bucket{le="1"} 2' in text
    assert "ms2_latency_ms_count 3" in text
    assert_valid_exposition(text)


def test_merge_modes_max_and_last():
    merged = merge_snapshots([_shard(0, 2), _shard(0, 7), _shard(0, 3)])
    samples = {
        name: entry["samples"]
        for name, entry in merged["metrics"].items()
    }
    assert samples["ms2_peak"][0][1] == 7  # max across shards
    assert samples["ms2_version"][0][1] == 1  # last writer


def test_merge_keeps_series_missing_from_some_shards():
    reg = MetricsRegistry()
    reg.counter("ms2_only_here_total").inc(5)
    merged = merge_snapshots([_shard(1, 1), reg.snapshot()])
    assert "ms2_only_here_total" in merged["metrics"]
    assert "ms2_requests_total" in merged["metrics"]


def test_server_registry_names_are_valid_prometheus_identifiers():
    """Every metric the daemon registers passes the Prometheus name
    grammar, and its exposition parses (the CI unit gate)."""
    from repro.server import Ms2Server

    server = Ms2Server(port=0)
    names = server.registry.metric_names()
    assert len(names) >= 25
    for name in names:
        assert METRIC_NAME_RE.match(name), name
    assert_valid_exposition(server.registry.render_prometheus())
