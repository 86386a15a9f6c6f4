"""The sharded fleet: N processes on one port, supervised restarts,
the HTTP/JSON gateway, and cross-shard observability.

These tests spawn real shard subprocesses (``python -m repro.shard``)
through a :class:`~repro.shard.ShardSupervisor` running in a
background thread, then talk to the fleet exactly like production
clients: raw NDJSON over the shared TCP port, and HTTP frames through
the gateway.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
import urllib.request

import pytest

from repro.client import Ms2Client, RetryPolicy
from repro.options import Ms2Options
from repro.serveconfig import ServeConfig
from repro.shard import (
    ShardSupervisor,
    fleet_stats_view,
    shard_for_options_hash,
)
from tests.telemetry.test_registry import exposition_samples

from .conftest import DOUBLER, doubler_program
from .test_metrics_http import FLEET_SCRAPE_COUNTERS, settled_scrape

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="sharded serving needs SO_REUSEPORT",
)

#: A generous policy for chaos tests: a restart costs a fresh
#: interpreter spawn, and the kill fault can take *both* shards down
#: in the same window, so the backoff budget must outlast a full
#: fleet respawn even when the jitter rolls low.
CHAOS_RETRY = RetryPolicy(
    max_attempts=30, base_delay_s=0.2, max_delay_s=2.0, deadline_s=120.0
)


class FleetHandle:
    """A shard fleet in a background thread (the supervisor's asyncio
    loop lives there; the shards are real subprocesses)."""

    def __init__(self, config: ServeConfig, options=None) -> None:
        self.config = config
        self.options = options
        self.supervisor: ShardSupervisor | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.error: BaseException | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "FleetHandle":
        self._thread.start()
        assert self._ready.wait(120), "fleet failed to start"
        if self.error is not None:
            raise self.error
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.supervisor = ShardSupervisor(
                    self.options, self.config
                )
                await self.supervisor.start()
                self.loop = asyncio.get_running_loop()
            except BaseException as exc:  # surface to the test thread
                self.error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.supervisor.serve_until_stopped()

        asyncio.run(main())

    @property
    def address(self) -> str:
        assert self.supervisor is not None
        return f"tcp://{self.supervisor.address}"

    @property
    def gateway_url(self) -> str:
        assert self.supervisor is not None
        assert self.supervisor.gateway is not None
        return f"http://{self.supervisor.gateway.address}"

    def client(self, **kwargs) -> Ms2Client:
        return Ms2Client(self.address, **kwargs)

    def stop(self) -> None:
        if self.loop is not None and self._thread.is_alive():
            assert self.supervisor is not None
            self.loop.call_soon_threadsafe(
                self.supervisor.request_shutdown
            )
        self._thread.join(60)
        assert not self._thread.is_alive(), "fleet failed to stop"


@pytest.fixture
def fleet_factory():
    """``factory(**ServeConfig changes) -> FleetHandle`` (started);
    every fleet is drained at teardown."""
    handles: list[FleetHandle] = []

    def factory(options=None, **changes) -> FleetHandle:
        changes.setdefault("port", 0)
        changes.setdefault("shards", 2)
        changes.setdefault("warm_spares", 1)
        handle = FleetHandle(ServeConfig(**changes), options=options)
        handles.append(handle)
        return handle.start()

    yield factory
    for handle in handles:
        handle.stop()


def _local_expand(source: str, filename: str = "prog.c"):
    from repro.api import expand

    return expand(source, filename)


CORPUS = [
    "int x = 1;\nint y = x + 2;\n",
    DOUBLER + "void f(void) { Twice { a(); } }\n",
    doubler_program(4),
    (
        "syntax exp quad {| ( $$exp::e ) |} "
        "{ return(`((4 * ($e)))); }\n"
        "int q = quad(3 + 4);\n"
    ),
]


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


def test_two_shard_byte_parity_with_library(fleet_factory) -> None:
    """Every corpus program expands to the same bytes on every path:
    in-process library, and the fleet's shared TCP port (whichever
    shard the kernel picks)."""
    fleet = fleet_factory()
    with fleet.client() as client:
        for index, source in enumerate(CORPUS):
            filename = f"prog{index}.c"
            local = _local_expand(source, filename)
            # Several connections so the kernel gets chances to land
            # on both shards; every answer must be byte-identical.
            remote = client.expand(source, filename)
            assert remote.output == local.output, filename
            assert remote.ok == local.ok


def test_gateway_vs_ndjson_equivalence(fleet_factory) -> None:
    """The HTTP gateway answers the same frames with the same
    payloads as the NDJSON port."""
    fleet = fleet_factory(metrics_port=0)
    source = CORPUS[1]
    with fleet.client() as tcp_client:
        via_tcp = tcp_client.expand(source, "prog.c")
    with Ms2Client(fleet.gateway_url) as http_client:
        via_http = http_client.expand(source, "prog.c")
        assert http_client.ping()["pong"] is True
    assert via_http.output == via_tcp.output
    assert via_http.output == _local_expand(source, "prog.c").output


def test_gateway_http_statuses(fleet_factory) -> None:
    """Ordinary HTTP tooling sees meaningful statuses: 200 for ok
    frames, 400 for garbage, 404/405 on wrong routes."""
    fleet = fleet_factory(metrics_port=0)
    url = fleet.gateway_url

    frame = {"op": "ping", "id": 1}
    request = urllib.request.Request(
        f"{url}/v1/expand",
        data=json.dumps(frame).encode(),
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        assert json.loads(response.read())["ok"] is True

    bad = urllib.request.Request(
        f"{url}/v1/expand", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(bad)
    assert err.value.code == 400

    wrong = urllib.request.Request(
        f"{url}/metrics", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(wrong)
    assert err.value.code == 405


# ---------------------------------------------------------------------------
# Supervision: shard death is invisible to retrying clients
# ---------------------------------------------------------------------------


def _hammer(fleet: FleetHandle, stop: threading.Event, failures: list):
    source = CORPUS[0]
    expected = _local_expand(source, "prog0.c").output
    with fleet.client(retry=CHAOS_RETRY) as client:
        while not stop.is_set():
            try:
                result = client.expand(source, "prog0.c")
                if result.output != expected:
                    failures.append("output mismatch")
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                failures.append(repr(exc))


def test_shard_sigkill_mid_load_zero_client_failures(
    fleet_factory,
) -> None:
    """SIGKILL one shard while clients hammer the port: the
    supervisor restarts it, retries absorb the blip, zero failures
    surface, and the restart is visible in the supervisor's
    counters."""
    fleet = fleet_factory(prewarm=False)
    supervisor = fleet.supervisor
    assert supervisor is not None
    stop = threading.Event()
    failures: list[str] = []
    threads = [
        threading.Thread(
            target=_hammer, args=(fleet, stop, failures), daemon=True
        )
        for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    try:
        time.sleep(0.5)  # get real load flowing
        victim = supervisor.shards[0]
        assert victim.proc is not None
        victim.proc.send_signal(signal.SIGKILL)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.restarts >= 1 and victim.alive():
                break
            time.sleep(0.1)
        assert victim.restarts >= 1, "supervisor never restarted shard"
        assert victim.alive(), "restarted shard is not running"
        time.sleep(1.0)  # keep load on the restarted fleet
    finally:
        stop.set()
        for thread in threads:
            thread.join(60)
    assert failures == [], failures
    assert supervisor.restarts_total >= 1


def test_injected_kill_fault_restarts_and_recovers(
    fleet_factory,
) -> None:
    """A ``kill`` fault (the repro.faults machinery, armed through
    ServeConfig) takes shards down mid-response; the fleet recovers
    and retrying clients never see a failure."""
    fleet = fleet_factory(
        prewarm=False,
        fault_specs=("server.frame_write@expand:1.0:kill:6:1",),
        fault_seed=7,
    )
    supervisor = fleet.supervisor
    assert supervisor is not None
    source = CORPUS[0]
    expected = _local_expand(source, "prog0.c").output
    with fleet.client(retry=CHAOS_RETRY) as client:
        # Each shard dies after its 6th expand response (and each
        # *restarted* shard re-arms the same plan), so this loop is
        # guaranteed to trip the fault; stop once it has.
        for _ in range(60):
            result = client.expand(source, "prog0.c")
            assert result.output == expected
            if supervisor.restarts_total >= 1:
                break
        assert supervisor.restarts_total >= 1, (
            "the armed kill fault never took a shard down"
        )
        # The fleet keeps answering correctly after the blip.
        assert client.expand(source, "prog0.c").output == expected


# ---------------------------------------------------------------------------
# Cross-shard observability
# ---------------------------------------------------------------------------


def test_fleet_metrics_and_statusz_aggregate(fleet_factory) -> None:
    fleet = fleet_factory(metrics_port=0)
    url = fleet.gateway_url
    with fleet.client() as client:
        for _ in range(6):
            client.expand(CORPUS[0], "prog0.c")

    with urllib.request.urlopen(f"{url}/metrics") as response:
        metrics = response.read().decode()
    assert "ms2_shards_alive 2" in metrics
    assert "ms2_shard_restarts_total" in metrics
    assert "ms2_requests_total" in metrics

    with urllib.request.urlopen(f"{url}/statusz") as response:
        payload = json.loads(response.read())
    assert payload["server"]["shards"] == 2
    assert payload["server"]["shards_alive"] == 2
    assert len(payload["shards"]) == 2
    # Fleet totals are at least what this test sent (>= per-shard by
    # construction: totals are the sum over the breakdown).
    fleet_requests = sum(payload["requests"].values())
    assert fleet_requests >= 6
    for shard_entry in payload["shards"]:
        assert shard_entry["requests_total"] <= fleet_requests
    # Both fleet views come from one merge of the shard registries:
    # every counter agrees except those the scrapes themselves move.
    def get(path: str) -> str:
        with urllib.request.urlopen(f"{url}{path}") as response:
            return response.read().decode()

    payload, metrics, problems = settled_scrape(
        get, ignore=FLEET_SCRAPE_COUNTERS
    )
    assert problems == []
    samples = exposition_samples(metrics)
    assert samples['ms2_requests_total{op="expand"}'] == (
        payload["requests"]["expand"]
    )
    assert samples["ms2_peak_in_flight"] == payload["peak_in_flight"]
    assert samples["ms2_request_latency_ms_count"] == (
        payload["latency_ms"]["count"]
    )

    with urllib.request.urlopen(f"{url}/healthz") as response:
        assert response.read() == b"ok\n"


def test_fleet_top_dashboard_shows_shard_breakdown(
    fleet_factory,
) -> None:
    from repro.top import render_dashboard

    fleet = fleet_factory(metrics_port=0)
    with Ms2Client(fleet.gateway_url) as client:
        client.expand(CORPUS[0], "prog0.c")
        payload = client.stats()
    text = render_dashboard(payload)
    assert "shards     2 reporting of 2 configured" in text
    assert "shard 0" in text
    assert "shard 1" in text


# ---------------------------------------------------------------------------
# Pure helpers
# ---------------------------------------------------------------------------


def test_shard_affinity_is_stable_and_in_range() -> None:
    options_hash = Ms2Options().options_hash()
    first = shard_for_options_hash(options_hash, 4)
    assert first == shard_for_options_hash(options_hash, 4)
    assert 0 <= first < 4
    assert shard_for_options_hash(options_hash, 1) == 0
    assert shard_for_options_hash(None, 4) == 0
    assert shard_for_options_hash("zzz", 4) == 0  # not hex: shard 0


def _shard_reply(index: int, latencies, peak: int, active: int,
                 requests: dict[str, int], busy: int, hits: int,
                 misses: int, events: int, injected=None) -> dict:
    """One shard's ``telemetry`` reply, from a real (unstarted)
    daemon whose registry saw the given traffic."""
    import io

    from repro.server import Ms2Server
    from repro.stats import PipelineStats

    server = Ms2Server(
        port=0, warm_spares=2, shard_index=index, event_log=io.StringIO()
    )
    try:
        for op, n in requests.items():
            server.registry.get("ms2_requests_total").inc(n, op=op)
        server.registry.get("ms2_busy_rejections_total").inc(busy)
        for _ in range(peak):
            server._admit(1)
        for _ in range(peak - active):
            server._admit(-1)
        for ms in latencies:
            server.registry.get("ms2_request_latency_ms").observe(ms)
        server._count_pipeline(
            PipelineStats(cache_hits=hits, cache_misses=misses)
        )
        for _ in range(events):
            server.event_log.log("request")
        for site, fired in (injected or {}).items():
            server.registry.get("ms2_faults_injected_total").inc(
                fired, site=site
            )
        return server.telemetry_payload()
    finally:
        server._executor.shutdown(wait=False)


def test_fleet_stats_view_sums_and_merges() -> None:
    """The fleet view is the single-daemon view over merged
    snapshots: counters sum, buckets merge, the latency mean comes
    from the merged sum and count, peaks and configured sizes take
    the maximum (not the sum), and per-shard rows keep shard order."""
    shard0 = _shard_reply(
        0, latencies=[3.0, 5.0], peak=3, active=1,
        requests={"expand": 3, "ping": 1}, busy=1, hits=2, misses=2,
        events=5,
    )
    shard1 = _shard_reply(
        1, latencies=[0.5, 0.5, 2.0, 6000.0], peak=2, active=0,
        requests={"expand": 5}, busy=2, hits=0, misses=4, events=7,
        injected={"s": 2},
    )
    shard1["info"]["faults"] = {"armed": True, "seed": 9}

    merged = fleet_stats_view([shard0, shard1])
    assert merged["requests"] == {"expand": 8, "ping": 1}
    assert merged["busy_rejections"] == 3
    assert merged["in_flight"] == 1
    assert merged["server"]["in_flight"] == 1
    assert merged["peak_in_flight"] == 3  # the fleet peak, not 3 + 2
    assert merged["workers"]["spares"] == 2  # per-shard size, not 4
    latency = merged["latency_ms"]
    assert latency["count"] == 6
    # The merged sum over the merged count, not a mean of means.
    assert latency["mean"] == pytest.approx(
        (3.0 + 5.0 + 0.5 + 0.5 + 2.0 + 6000.0) / 6, abs=1e-3
    )
    assert {k: v for k, v in latency["buckets"].items() if v} == {
        "1": 2, "2": 1, "5": 2, "+Inf": 1,
    }
    assert merged["expansion_cache"]["hits"] == 2
    assert merged["expansion_cache"]["hit_rate"] == pytest.approx(0.25)
    assert merged["faults"]["armed"] is True
    assert merged["faults"]["seed"] == 9
    assert merged["faults"]["injected"] == {"s": 2}
    assert merged["telemetry"]["event_log_records"] == 12
    assert merged["server"]["shard"] is None
    assert [entry["shard"] for entry in merged["shards"]] == [0, 1]
    assert [entry["requests_total"] for entry in merged["shards"]] == [
        4, 5,
    ]
    assert [entry["in_flight"] for entry in merged["shards"]] == [1, 0]


def test_load_tiers_on_an_unstarted_server(tmp_path) -> None:
    """The tiered admission thresholds, driven directly."""
    from repro.server import Ms2Server

    server = Ms2Server(
        Ms2Options(),
        socket_path=tmp_path / "unused.sock",
        max_inflight=2,
        queue_limit=4,
    )
    assert server.shed_threshold() == 2 + (4 + 1) // 2
    assert server.load_tier() == "accept"
    server._active = server.shed_threshold()
    assert server.load_tier() == "shed_expensive"
    server._active = 2 + 4
    assert server.load_tier() == "busy"
    server._active = 0
    assert server.load_tier() == "accept"
    # expand_file is always expensive; expand is expensive only when
    # no warm worker is idle for its pool key.
    assert server._is_expensive({"op": "expand_file", "path": "x.c"})
    assert server._is_expensive({"op": "expand", "source": ""}) is True
    server._executor.shutdown(wait=False)
