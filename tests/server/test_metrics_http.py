"""The telemetry sidecar: /metrics, /healthz, /statusz over real
HTTP against a live daemon, and agreement with the ``stats`` op."""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.options import Ms2Options
from repro.server import REQUEST_OPS
from tests.telemetry.test_registry import (
    assert_valid_exposition,
    exposition_samples,
)

PROGRAM = (
    "syntax stmt Twice {| $$stmt::body |} "
    "{ return(`{$body; $body;}); }\n"
    "void f(void) { Twice { a(); } }\n"
)


@pytest.fixture
def telemetry_server(server_factory):
    """A daemon with an ephemeral-port HTTP sidecar attached."""
    handle = server_factory(metrics_port=0)
    assert handle.server.sidecar is not None
    assert handle.server.sidecar.bound_port
    return handle


def _get(handle, path: str) -> tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection(
        "127.0.0.1", handle.server.sidecar.bound_port, timeout=10
    )
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read(),
        )
    finally:
        conn.close()


def test_metrics_endpoint_serves_valid_exposition(telemetry_server):
    with telemetry_server.client() as client:
        client.ping()
        client.expand(PROGRAM, "prog.c")
    status, headers, body = _get(telemetry_server, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples = assert_valid_exposition(body.decode("utf-8"))
    text = body.decode("utf-8")
    assert 'ms2_requests_total{op="ping"} 1' in text
    assert 'ms2_requests_total{op="expand"} 1' in text
    assert samples["ms2_expansions_total"] >= 1
    assert samples["ms2_request_latency_ms_count"] >= 1
    assert samples["ms2_draining"] == 0
    assert 'ms2_server_info{version="' in text


# ---------------------------------------------------------------------------
# Agreement: every counter in the stats payload against /metrics
# ---------------------------------------------------------------------------

#: Scalar counters of the stats payload -> their /metrics series.
STATS_SERIES = {
    ("busy_rejections",): "ms2_busy_rejections_total",
    ("shed_rejections",): "ms2_load_shed_total",
    ("bad_frames",): "ms2_bad_frames_total",
    ("client_disconnects",): "ms2_client_disconnects_total",
    ("in_flight",): "ms2_in_flight",
    ("peak_in_flight",): "ms2_peak_in_flight",
    ("connections_open",): "ms2_connections_open",
    ("connections_total",): "ms2_connections_total",
    ("latency_ms", "count"): "ms2_request_latency_ms_count",
    ("expansion_cache", "hits"):
        'ms2_expansion_cache_lookups_total{result="hit"}',
    ("expansion_cache", "misses"):
        'ms2_expansion_cache_lookups_total{result="miss"}',
    ("workers", "warm_hits"): "ms2_worker_pool_warm_hits_total",
    ("workers", "cold_builds"): "ms2_worker_pool_cold_builds_total",
    ("resilience", "worker_restarts"): "ms2_build_worker_restarts_total",
    ("resilience", "eventlog_errors"): "ms2_eventlog_errors_total",
    ("resilience", "client_retries"): "ms2_client_retries_total",
    ("resilience", "client_fallbacks"): "ms2_client_fallbacks_total",
    ("telemetry", "event_log_records"): "ms2_event_log_records_total",
}

#: Labeled sections of the stats payload -> (family, label).
STATS_FAMILIES = {
    ("requests",): ("ms2_requests_total", "op"),
    ("responses",): ("ms2_responses_total", "status"),
    ("error_codes",): ("ms2_response_errors_total", "code"),
    ("faults", "injected"): ("ms2_faults_injected_total", "site"),
}

#: Numeric stats fields that are not counters: derived ratios and
#: means, the wall clock, the fault seed and the server section.
NOT_COUNTERS = {
    ("uptime_s",),
    ("latency_ms", "mean"),
    ("expansion_cache", "hit_rate"),
    ("pipeline", "cache_hit_rate"),
    ("faults", "seed"),
}

_CACHE_RESULTS = {
    "cache_hits": "hit",
    "cache_misses": "miss",
    "cache_uncacheable": "uncacheable",
}


def _cache_series(tier: str, kind: str) -> str:
    if kind in ("load_ms", "store_ms"):
        return f'ms2_cache_backend_{kind}_total{{tier="{tier}"}}'
    return f'ms2_cache_backend_ops_total{{tier="{tier}",kind="{kind}"}}'


def _series_for(path: tuple) -> str | None:
    """The /metrics series that carries one numeric stats leaf."""
    if path in STATS_SERIES:
        return STATS_SERIES[path]
    if path[:-1] in STATS_FAMILIES:
        family, label = STATS_FAMILIES[path[:-1]]
        return f'{family}{{{label}="{path[-1]}"}}'
    head = path[0]
    if head == "pipeline" and len(path) == 2:
        if path[1] in _CACHE_RESULTS:
            return (
                "ms2_expansion_cache_lookups_total"
                f'{{result="{_CACHE_RESULTS[path[1]]}"}}'
            )
        return f"ms2_{path[1]}_total"
    if head == "disk_cache":
        return _cache_series("local", path[1])
    if path[:2] == ("cache_backends", "tiers"):
        return _cache_series(path[2], path[3])
    return None


def _numeric_leaves(payload, path=()):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(payload, (int, float)) and not isinstance(
        payload, bool
    ):
        yield path, payload


#: Counters a fleet scrape itself moves: the gateway sends every
#: shard a ``telemetry`` request over a fresh control connection.
FLEET_SCRAPE_COUNTERS = frozenset({
    "requests.telemetry", "responses.ok",
    "connections_total", "connections_open",
})


def stats_metrics_mismatches(
    stats: dict, exposition: str, ignore=frozenset()
) -> list[str]:
    """Every counter in a ``stats`` payload that its ``/metrics``
    series does not match, plus numeric stats fields that map to no
    series at all (empty when the two views agree).  ``ignore``
    names dotted stats paths to skip."""
    samples = exposition_samples(exposition)
    problems = []
    for path, value in _numeric_leaves(stats):
        if path in NOT_COUNTERS or path[0] == "server":
            continue
        if ".".join(path) in ignore:
            continue
        if path[:2] == ("latency_ms", "buckets"):
            continue  # checked cumulatively below
        series = _series_for(path)
        if series is None:
            problems.append(f"{'.'.join(path)}: no /metrics series")
        elif series not in samples:
            problems.append(f"{'.'.join(path)}: {series} missing")
        elif samples[series] != pytest.approx(value, abs=2e-3):
            problems.append(
                f"{'.'.join(path)} = {value} but {series} = "
                f"{samples[series]}"
            )
    buckets = stats.get("latency_ms", {}).get("buckets", {})
    cumulative = 0
    for bound in sorted(buckets, key=lambda b: float(b)):
        cumulative += buckets[bound]
        series = f'ms2_request_latency_ms_bucket{{le="{bound}"}}'
        if samples.get(series) != cumulative:
            problems.append(
                f"latency bucket {bound}: {cumulative} cumulative but "
                f"{series} = {samples.get(series)}"
            )
    return problems


def settled_scrape(get, ignore=frozenset(), timeout=10.0):
    """``(stats, exposition, mismatches)`` from the first
    ``/statusz`` + ``/metrics`` pair that agrees, or the last pair
    read once ``timeout`` passes.  ``get(path)`` returns a response
    body as text.  Retrying lets off-path spare rebuilds, which can
    land between the two reads, settle."""
    deadline = time.monotonic() + timeout
    while True:
        stats = json.loads(get("/statusz"))
        exposition = get("/metrics")
        problems = stats_metrics_mismatches(stats, exposition, ignore)
        if not problems or time.monotonic() > deadline:
            return stats, exposition, problems
        time.sleep(0.1)


def test_metrics_agree_with_stats_op(server_factory, tmp_path):
    """Every counter the ``stats`` payload reports (served here as
    ``/statusz``, which scraping does not perturb) equals its
    Prometheus series: one store, two renderings."""
    handle = server_factory(
        metrics_port=0,
        cache_dir=tmp_path / "cache",
        event_log=tmp_path / "events.jsonl",
    )
    unit = tmp_path / "unit.c"
    unit.write_text(PROGRAM)
    with handle.client() as client:
        for _ in range(3):
            client.expand(PROGRAM, "prog.c")
        traced = client.expand(
            PROGRAM, "traced.c", options=Ms2Options(trace=True)
        )
        client.expand_file(unit)
        client.expand_file(unit)
        client.request({"op": "expand"})  # no source: bad_request
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(handle.socket_path))
    sock.sendall(b"not json\n")
    sock.makefile("rb").readline()
    sock.close()

    stats, _, problems = settled_scrape(
        lambda path: _get(handle, path)[2].decode("utf-8")
    )
    assert problems == []
    # The workload reached the counters the table covers.
    assert stats["pipeline"]["expansions"] >= 4
    assert traced.spans
    assert stats["disk_cache"]["hits"] == 1
    # The op-less request and the malformed frame.
    assert stats["error_codes"] == {"bad_request": 2}
    assert stats["bad_frames"] == 1
    assert stats["telemetry"]["event_log_records"] > 0


def test_agreement_table_flags_unmapped_and_drifted_counters():
    """The agreement check fails loudly on a stats field with no
    series and on a value that disagrees."""
    stats = {"busy_rejections": 2, "brand_new_counter": 1}
    exposition = "ms2_busy_rejections_total 3\n"
    problems = stats_metrics_mismatches(stats, exposition)
    assert any("brand_new_counter" in p for p in problems)
    assert any("busy_rejections = 2" in p for p in problems)


def test_resilience_series_present_and_zero_at_rest(telemetry_server):
    """The PR's resilience counters exist from the first scrape (a
    dashboard can alert on them before anything has failed) and read
    zero on a healthy, fault-free daemon."""
    with telemetry_server.client() as client:
        client.expand(PROGRAM, "prog.c")
    _, _, body = _get(telemetry_server, "/metrics")
    samples = assert_valid_exposition(body.decode("utf-8"))
    for name in (
        "ms2_eventlog_errors_total",
        "ms2_client_retries_total",
        "ms2_client_fallbacks_total",
        "ms2_build_worker_restarts_total",
    ):
        assert samples.get(name, None) is not None, name


def test_healthz_readiness_flips_on_drain(telemetry_server):
    status, _, body = _get(telemetry_server, "/healthz")
    assert (status, body) == (200, b"ok\n")
    # Deterministic drain check: flip the flag the handler reads
    # (driving a real drain races the sidecar's own shutdown).
    telemetry_server.server._draining = True
    try:
        status, _, body = _get(telemetry_server, "/healthz")
        assert (status, body) == (503, b"draining\n")
        _, _, metrics = _get(telemetry_server, "/metrics")
        assert "ms2_draining 1" in metrics.decode("utf-8")
    finally:
        telemetry_server.server._draining = False


def test_statusz_matches_stats_op_shape(telemetry_server):
    with telemetry_server.client() as client:
        stats = client.stats()
    status, headers, body = _get(telemetry_server, "/statusz")
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    payload = json.loads(body)
    assert set(payload) == set(stats)
    assert payload["server"]["pid"] == stats["server"]["pid"]
    assert payload["telemetry"]["metrics_address"].endswith(
        str(telemetry_server.server.sidecar.bound_port)
    )


def test_unknown_path_404_and_post_405(telemetry_server):
    status, _, body = _get(telemetry_server, "/nope")
    assert status == 404
    assert b"/metrics" in body  # the 404 names the valid paths
    conn = http.client.HTTPConnection(
        "127.0.0.1",
        telemetry_server.server.sidecar.bound_port,
        timeout=10,
    )
    try:
        conn.request("POST", "/metrics", body=b"{}")
        assert conn.getresponse().status == 405
    finally:
        conn.close()


def _route_counts(handle) -> dict[str, float]:
    _, _, body = _get(handle, "/metrics")
    prefix = 'ms2_http_requests_total{route="'
    return {
        series[len(prefix):-2]: value
        for series, value in exposition_samples(
            body.decode("utf-8")
        ).items()
        if series.startswith(prefix)
    }


def test_sidecar_counts_requests_in_statusz_stats(telemetry_server):
    _get(telemetry_server, "/metrics")
    _get(telemetry_server, "/metrics")
    _get(telemetry_server, "/healthz")
    routes = _route_counts(telemetry_server)
    assert routes["/metrics"] >= 2
    assert routes["/healthz"] >= 1


def test_junk_paths_share_one_other_series(telemetry_server):
    """Distinct unknown paths cannot grow the series set: they all
    count under ``route="other"``."""
    before = _route_counts(telemetry_server)
    for index in range(50):
        status, _, _ = _get(telemetry_server, f"/junk-{index}")
        assert status == 404
    after = _route_counts(telemetry_server)
    assert set(after) - set(before) == {"other"}
    assert after["other"] == 50
    assert set(after) <= {
        "/metrics", "/healthz", "/statusz", "/v1/expand", "other",
    }


def _op_counts(handle) -> dict[str, float]:
    _, _, body = _get(handle, "/metrics")
    prefix = 'ms2_requests_total{op="'
    return {
        series[len(prefix):-2]: value
        for series, value in exposition_samples(
            body.decode("utf-8")
        ).items()
        if series.startswith(prefix)
    }


def test_junk_ops_share_one_other_series(telemetry_server):
    """Distinct unknown ops cannot grow the series set either: they
    all count under ``op="other"``, in ``/metrics`` and in the
    ``stats`` op alike."""
    with telemetry_server.client() as client:
        client.stats()
        before = _op_counts(telemetry_server)
        for index in range(50):
            response = client.request({"op": f"junk-{index}"})
            assert response["error"]["code"] == "bad_request"
        after = _op_counts(telemetry_server)
        stats = client.stats()
    assert set(after) - set(before) == {"other"}
    assert after["other"] == 50
    assert stats["requests"]["other"] == 50
    assert set(after) <= {*REQUEST_OPS, "other"}


def test_run_top_polls_a_live_daemon(telemetry_server, tmp_path):
    import io

    from repro.top import run_top

    with telemetry_server.client() as client:
        client.expand(PROGRAM, "prog.c")
    out = io.StringIO()
    assert (
        run_top(
            str(telemetry_server.socket_path),
            interval=0.0,
            iterations=2,
            out=out,
        )
        == 0
    )
    text = out.getvalue()
    assert "repro top" in text
    assert "requests" in text and "latency" in text

# ---------------------------------------------------------------------------
# The single-process HTTP/JSON gateway: POST /v1/expand
# ---------------------------------------------------------------------------


def _post(handle, path: str, body: bytes) -> tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection(
        "127.0.0.1", handle.server.sidecar.bound_port, timeout=10
    )
    try:
        conn.request(
            "POST",
            path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read(),
        )
    finally:
        conn.close()


def test_gateway_expand_matches_ndjson(telemetry_server):
    """POST /v1/expand answers the same frame as the NDJSON socket,
    wrapped in an honest HTTP status."""
    frame = {
        "id": 1,
        "op": "expand",
        "source": PROGRAM,
        "filename": "prog.c",
    }
    status, headers, body = _post(
        telemetry_server, "/v1/expand", json.dumps(frame).encode()
    )
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    via_http = json.loads(body)
    assert via_http["ok"] is True
    with telemetry_server.client() as client:
        via_socket = client.request(dict(frame))
    assert (
        via_http["result"]["output"] == via_socket["result"]["output"]
    )


def test_gateway_maps_error_frames_to_http_statuses(telemetry_server):
    status, _, body = _post(telemetry_server, "/v1/expand", b"not json")
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad_request"

    bad_op = json.dumps({"id": 2, "op": "no_such_op"}).encode()
    status, _, body = _post(telemetry_server, "/v1/expand", bad_op)
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad_request"


def test_gateway_busy_maps_to_429_with_retry_after():
    """A synthetic busy frame renders as 429 + Retry-After (the
    mapping, tested without having to saturate a real daemon)."""
    from repro.metrics_http import gateway_response, http_status_for_frame

    frame = {
        "id": 3,
        "ok": False,
        "error": {
            "code": "busy",
            "message": "queue full",
            "retry_after_ms": 1500,
        },
    }
    assert http_status_for_frame(frame) == 429
    status, content_type, body, extra = gateway_response(frame)
    assert status == 429
    assert content_type.startswith("application/json")
    assert json.loads(body) == frame
    assert extra["Retry-After"] == "2"  # 1500 ms rounds up


def test_gateway_ping_and_stats_ops(telemetry_server):
    status, _, body = _post(
        telemetry_server,
        "/v1/expand",
        json.dumps({"id": 4, "op": "ping"}).encode(),
    )
    assert status == 200
    assert json.loads(body)["result"]["pong"] is True

    status, _, body = _post(
        telemetry_server,
        "/v1/expand",
        json.dumps({"id": 5, "op": "stats"}).encode(),
    )
    assert status == 200
    assert "latency_ms" in json.loads(body)["result"]


def test_http_client_transport_against_sidecar(telemetry_server):
    """Ms2Client('http://...') speaks to the sidecar gateway."""
    from repro.client import Ms2Client

    port = telemetry_server.server.sidecar.bound_port
    with Ms2Client(f"http://127.0.0.1:{port}") as client:
        result = client.expand(PROGRAM, "prog.c")
    with telemetry_server.client() as ndjson_client:
        expected = ndjson_client.expand(PROGRAM, "prog.c")
    assert result.output == expected.output
