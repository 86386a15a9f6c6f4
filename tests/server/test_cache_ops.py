"""The daemon as fleet cache authority: ``cache_get`` /
``cache_put`` / ``cache_stats`` over the real NDJSON socket, and the
two-machine workflow they exist for — a build on one machine warming
a build on another through a shared daemon."""

from __future__ import annotations

import http.client

import pytest

from repro.client import Ms2ServerError
from repro.driver import BuildSession, CacheConfig
from repro.driver.cachebackend import snapshot_digest

from tests.driver.corpus import SHARED_MACROS, synthetic_sources

SOURCES = synthetic_sources(4)


def make_snapshot(key: str) -> dict:
    return {"key": key, "output": "int cached_fn(void);\n"}


@pytest.fixture
def authority(server_factory, tmp_path):
    """A daemon whose ``--cache-dir`` doubles as the fleet cache."""
    return server_factory(cache_dir=tmp_path / "authority")


# ---------------------------------------------------------------------------
# Wire ops
# ---------------------------------------------------------------------------


def test_put_get_round_trip(authority):
    key = "a" * 64
    snapshot = make_snapshot(key)
    with authority.client() as client:
        put = client.cache_put(key, snapshot, snapshot_digest(snapshot))
        assert put["stored"] is True
        got = client.cache_get(key)
    assert got["found"] is True
    assert got["snapshot"]["output"] == snapshot["output"]
    assert got["digest"] == snapshot_digest(got["snapshot"])


def test_get_miss(authority):
    with authority.client() as client:
        got = client.cache_get("b" * 64)
    assert got == {"found": False, "snapshot": None, "digest": None}


def test_put_digest_mismatch_is_rejected(authority):
    key = "c" * 64
    with authority.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.cache_put(key, make_snapshot(key), "0" * 16)
        assert excinfo.value.code == "bad_request"
        # And nothing was stored.
        assert client.cache_get(key)["found"] is False


def test_put_malformed_snapshot_is_rejected(authority):
    with authority.client() as client:
        for bad in (
            {"output": "x"},                       # missing key
            {"key": "d" * 64, "output": 7},        # non-string output
            "not a dict",
        ):
            with pytest.raises(Ms2ServerError) as excinfo:
                client.cache_put(
                    "d" * 64, bad, snapshot_digest({"key": "d" * 64})
                )
            assert excinfo.value.code == "bad_request"


def test_empty_key_is_rejected(authority):
    with authority.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.cache_get("")
        assert excinfo.value.code == "bad_request"


def test_cacheless_daemon_answers_unavailable(server_factory):
    handle = server_factory()  # no cache_dir
    with handle.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.cache_get("e" * 64)
        assert excinfo.value.code == "unavailable"
        assert "cache" in str(excinfo.value)


def test_cache_stats_reports_authority_counters(authority, tmp_path):
    key = "f" * 64
    snapshot = make_snapshot(key)
    with authority.client() as client:
        client.cache_put(key, snapshot, snapshot_digest(snapshot))
        client.cache_get(key)
        client.cache_get("0" * 64)  # miss
        stats = client.cache_stats()
    assert stats["dir"] == str(tmp_path / "authority")
    assert stats["hits"] >= 1
    assert stats["misses"] >= 1
    assert stats["stores"] >= 1


def test_corrupt_entry_at_rest_reads_as_miss(authority):
    """A snapshot rotted on the authority's disk is the authority's
    problem: the wire answers a clean miss, never corrupt bytes."""
    key = "9" * 64
    snapshot = make_snapshot(key)
    with authority.client() as client:
        client.cache_put(key, snapshot, snapshot_digest(snapshot))
    path = authority.server.cache_authority.path_for(key)
    path.write_bytes(b"MS2C\x01garbage")
    with authority.client() as client:
        assert client.cache_get(key)["found"] is False


# ---------------------------------------------------------------------------
# The two-machine workflow
# ---------------------------------------------------------------------------


def build_with(cache_config: CacheConfig):
    session = BuildSession(
        package_sources=[("shared.ms2", SHARED_MACROS)],
        cache=cache_config,
    )
    try:
        return session.build_sources(SOURCES), session
    finally:
        session.close()


def test_remote_warm_build_is_byte_identical(authority, tmp_path):
    """Machine A builds cold; machine B (distinct local cache dir,
    same daemon) replays every file from the remote tier with
    byte-identical output."""
    remote = f"unix://{authority.socket_path}"
    cold, _ = build_with(
        CacheConfig(
            local_dir=str(tmp_path / "machine-a"),
            remote=remote,
            write_behind=0,  # publish synchronously: deterministic
        )
    )
    assert cold.ok
    assert cold.files_expanded == len(SOURCES)

    warm, warm_session = build_with(
        CacheConfig(
            local_dir=str(tmp_path / "machine-b"),  # empty!
            remote=remote,
            write_behind=0,
        )
    )
    assert warm.ok
    assert warm.files_from_cache == len(SOURCES)
    assert warm.files_expanded == 0
    assert [r.output for r in warm.results] == [
        r.output for r in cold.results
    ], "remote-warm build must be byte-identical to the cold build"
    # The hits really came over the wire.
    remote_tier = warm.cache["tiers"]["remote"]
    assert remote_tier["hits"] == len(SOURCES)
    # ...and were promoted: machine B now holds local snapshots.
    local_tier = warm.cache["tiers"]["local"]
    assert local_tier["stores"] == len(SOURCES)


def test_write_behind_publishes_before_close(authority, tmp_path):
    """The default (queued) configuration publishes everything by the
    time close() returns — a second machine sees the snapshots."""
    remote = f"unix://{authority.socket_path}"
    cold, _ = build_with(
        CacheConfig(
            local_dir=str(tmp_path / "machine-a"),
            remote=remote,
            # default write_behind: publishes ride the uploader
        )
    )
    assert cold.ok
    wb = cold.cache["write_behind"]
    assert wb["queued"] == len(SOURCES)
    warm, _ = build_with(
        CacheConfig(
            local_dir=str(tmp_path / "machine-b"), remote=remote
        )
    )
    assert warm.files_from_cache == len(SOURCES)


def test_expand_file_sessions_share_the_authority_root(
    authority, tmp_path
):
    """The daemon's own expand_file sessions store into the same root
    the cache ops serve: an expand_file on the daemon warms a remote
    build elsewhere."""
    prog = tmp_path / "prog.c"
    prog.write_text("int main(void) { return 7; }\n")
    with authority.client() as client:
        daemon_result = client.expand_file(str(prog))
    assert daemon_result["status"] == "ok"

    warm = BuildSession(cache=CacheConfig(
        local_dir=str(tmp_path / "fresh-local"),
        remote=f"unix://{authority.socket_path}",
        write_behind=0,
    ))
    try:
        report = warm.build([prog])
    finally:
        warm.close()
    assert report.ok
    assert report.files_from_cache == 1
    assert report.results[0].output == daemon_result["output"]


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


def test_cache_backend_metrics_exported(server_factory, tmp_path):
    from tests.telemetry.test_registry import assert_valid_exposition

    handle = server_factory(
        cache_dir=tmp_path / "authority", metrics_port=0
    )
    key = "8" * 64
    snapshot = make_snapshot(key)
    with handle.client() as client:
        client.cache_put(key, snapshot, snapshot_digest(snapshot))
        client.cache_get(key)
    conn = http.client.HTTPConnection(
        "127.0.0.1", handle.server.sidecar.bound_port, timeout=10
    )
    try:
        conn.request("GET", "/metrics")
        body = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    assert_valid_exposition(body)
    assert (
        'ms2_cache_backend_ops_total{kind="hits",tier="authority"} 1'
        in body
        or 'ms2_cache_backend_ops_total{tier="authority",kind="hits"} 1'
        in body
    )
    assert "ms2_cache_backend_load_ms_total" in body
    # The daemon never publishes remotely: no write-behind series.
    assert "write_behind" not in body


def test_stats_payload_carries_cache_backends(authority):
    key = "7" * 64
    snapshot = make_snapshot(key)
    with authority.client() as client:
        client.cache_put(key, snapshot, snapshot_digest(snapshot))
        stats = client.stats()
    section = stats["cache_backends"]
    assert section["dir"] == str(authority.server.cache_dir)
    assert section["tiers"]["authority"]["stores"] >= 1
    assert "write_behind" not in section
