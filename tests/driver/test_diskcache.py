"""PersistentCache: roundtrips plus the adversarial fallback matrix.

The contract under test: **no state of a snapshot file may ever
surface as an exception or as wrong data** — corrupt, truncated,
stale-versioned, mis-keyed and malformed snapshots all read as a miss,
are evicted, and bump the ``failures`` counter.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.driver.diskcache import (
    SNAPSHOT_HEADER,
    PersistentCache,
    frame_snapshot,
    unframe_snapshot,
)

KEY = "ab" + "0" * 62


def stored(cache_dir: Path, **extra) -> tuple[PersistentCache, Path]:
    """A cache with one good snapshot under KEY."""
    cache = PersistentCache(cache_dir)
    assert cache.store(KEY, {"output": "int x;\n", **extra})
    return cache, cache.path_for(KEY)


def test_roundtrip(tmp_path: Path) -> None:
    cache, path = stored(tmp_path, diagnostics=[], stats={"files": 1})
    assert path.exists()
    payload = cache.load(KEY)
    assert payload is not None
    assert payload["output"] == "int x;\n"
    assert payload["stats"] == {"files": 1}
    assert payload["key"] == KEY
    counters = cache.counters()
    assert (counters["hits"], counters["misses"], counters["failures"]) == (
        1, 0, 0,
    )
    assert counters["loads"] == 1 and counters["stores"] == 1
    assert counters["load_ms"] >= 0.0 and counters["store_ms"] > 0.0


def test_missing_entry_is_a_plain_miss(tmp_path: Path) -> None:
    cache = PersistentCache(tmp_path)
    assert cache.load(KEY) is None
    counters = cache.counters()
    assert (counters["hits"], counters["misses"], counters["failures"]) == (
        0, 1, 0,
    )
    assert counters["evictions"] == 0


def test_atomic_overwrite(tmp_path: Path) -> None:
    cache, _ = stored(tmp_path)
    assert cache.store(KEY, {"output": "int y;\n"})
    assert cache.load(KEY)["output"] == "int y;\n"
    # No leftover temp files from either write.
    assert not list(tmp_path.rglob("*.tmp"))


def test_store_recreates_deleted_cache_dir(tmp_path: Path) -> None:
    cache, path = stored(tmp_path)
    # Simulate `rm -rf .ms2-cache` between store and the next store.
    shutil.rmtree(path.parent)
    assert cache.store(KEY, {"output": "int z;\n"})
    assert cache.load(KEY)["output"] == "int z;\n"


def test_store_failure_is_absorbed(tmp_path: Path) -> None:
    """An unwritable root (a *file* where the dir should be) makes
    store return False rather than raise."""
    root = tmp_path / "cache"
    root.write_text("not a directory")
    cache = PersistentCache(root)
    assert cache.store(KEY, {"output": "int x;\n"}) is False


def test_unserializable_payload_is_absorbed(tmp_path: Path) -> None:
    cache = PersistentCache(tmp_path)
    assert cache.store(KEY, {"output": "x", "bad": lambda: None}) is False


def test_snapshots_never_contain_pickle(tmp_path: Path) -> None:
    """Loading a snapshot must not be able to execute code: the body
    after header + digest is plain JSON, nothing else."""
    cache, path = stored(tmp_path, diagnostics=[{"severity": "note"}])
    body = unframe_snapshot(path.read_bytes())[8:]
    payload = json.loads(body.decode("utf-8"))  # raises if not JSON
    assert payload["output"] == "int x;\n"


def test_entries_and_clear(tmp_path: Path) -> None:
    cache = PersistentCache(tmp_path)
    other = "cd" + "1" * 62
    cache.store(KEY, {"output": "a"})
    cache.store(other, {"output": "b"})
    assert len(cache.entries()) == 2
    assert cache.clear() == 2
    assert cache.entries() == []
    assert cache.load(KEY) is None


# ---------------------------------------------------------------------------
# The adversarial matrix: every damaged form reads as miss + eviction.
# ---------------------------------------------------------------------------


def _write_raw(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _framed_with_digest(body: bytes) -> bytes:
    import hashlib

    return frame_snapshot(hashlib.sha256(body).digest()[:8] + body)


DAMAGE = {
    "empty-file": lambda good: b"",
    "truncated-header": lambda good: good[:3],
    "truncated-body": lambda good: good[: len(good) // 2],
    "garbled-header": lambda good: b"XXXX" + good[4:],
    "stale-version": lambda good: (
        SNAPSHOT_HEADER[:-1]
        + bytes([SNAPSHOT_HEADER[-1] + 1])
        + good[len(SNAPSHOT_HEADER):]
    ),
    "bitflip-in-payload": lambda good: (
        good[:-10] + bytes([good[-10] ^ 0x40]) + good[-9:]
    ),
    "garbage-body": lambda good: _framed_with_digest(b"not { json"),
    "pickled-body": lambda good: _framed_with_digest(
        b"\x80\x05\x95\x0e\x00\x00\x00"  # a pickle is not JSON
    ),
    "payload-not-a-dict": lambda good: _framed_with_digest(
        _body(["wrong", "shape"])
    ),
    "payload-missing-keys": lambda good: _framed_with_digest(
        _body({"output": "x"})  # no "key"
    ),
    "output-not-a-string": lambda good: _framed_with_digest(
        _body({"key": KEY, "output": 42})
    ),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_snapshot_is_evicted(tmp_path: Path, damage: str) -> None:
    cache, path = stored(tmp_path)
    _write_raw(path, DAMAGE[damage](path.read_bytes()))
    assert cache.load(KEY) is None
    assert not path.exists(), "damaged snapshot must be evicted"
    assert cache.failures == 1
    # The entry can be rebuilt in place afterwards.
    assert cache.store(KEY, {"output": "rebuilt"})
    assert cache.load(KEY)["output"] == "rebuilt"


def test_key_mismatch_is_rejected(tmp_path: Path) -> None:
    """A snapshot copied/renamed to another key's path is unusable —
    its embedded key disagrees with its address."""
    cache, path = stored(tmp_path)
    other = "ef" + "2" * 62
    _write_raw(cache.path_for(other), path.read_bytes())
    assert cache.load(other) is None
    assert cache.failures == 1
    assert cache.load(KEY)["output"] == "int x;\n"  # original intact
