"""Pluggable backends for the persistent snapshot cache.

:class:`~repro.driver.diskcache.PersistentCache` memoizes whole-file
builds on one machine.  Fleet-scale builds (CI farms, the sharded
daemon, many developer laptops) want those snapshots to be *shared,
addressable build objects*: expand a file once anywhere, replay it
everywhere.  This module abstracts the cache behind the
:class:`CacheBackend` protocol and adds two implementations on top of
the local directory:

:class:`RemoteCacheBackend`
    Speaks the ``cache_get`` / ``cache_put`` / ``cache_stats``
    operations of the daemon's NDJSON protocol — any ``repro serve``
    instance doubles as the cache authority, storing snapshots under
    its own ``.ms2-cache/`` root with the usual per-entry locking
    (and, under ``--shards N``, every shard serves the shared root).
    Payloads cross the wire as the same JSON snapshot dicts the disk
    format frames, protected end-to-end by a sha256 content digest
    (:func:`snapshot_digest`): a corrupted or forged reply reads as a
    miss, never as wrong output.  Every failure mode — daemon down,
    connection reset, corrupt payload, an answer slower than
    ``timeout_s`` — degrades to a counted miss (*fail-open*): a
    remote cache can make builds faster, never break them.

:class:`TieredBackend`
    Composes local + remote: reads go through the local tier first
    and remote hits are promoted into it; stores land locally on the
    build path while remote publishes ride a **bounded write-behind
    queue** drained by one background thread — the build path never
    blocks on the network, and queue overflow drops the publish and
    counts it (:meth:`TieredBackend.counters`, ``write_behind``).
    :meth:`TieredBackend.close` flushes the queue, so snapshots
    published by a finished build are visible to the fleet.

Chaos: the remote paths carry the ``remote_cache.get`` /
``remote_cache.put`` fault sites (see :mod:`repro.faults`), so every
degradation above is rehearsed deterministically in the chaos suite.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
from time import perf_counter
from typing import Any, Protocol, runtime_checkable

from repro import faults
from repro.client import Ms2Client
from repro.driver.cacheconfig import (
    DEFAULT_REMOTE_TIMEOUT_S,
    DEFAULT_WRITE_BEHIND,
)
from repro.driver.diskcache import PersistentCache
from repro.errors import Ms2Error

__all__ = [
    "CacheBackend",
    "RemoteCacheBackend",
    "RemoteCacheError",
    "TieredBackend",
    "backend_tiers",
    "snapshot_digest",
    "validate_snapshot",
]

#: Keys every well-formed snapshot payload must carry (mirrors the
#: disk format's requirement).
_REQUIRED_KEYS = frozenset({"key", "output"})

#: Consecutive transport failures after which a remote is declared
#: down for the rest of the session (each skipped op is counted).
#: Without this, a hung authority would tax every file the full
#: ``timeout_s``.
_BREAKER_THRESHOLD = 3


@runtime_checkable
class CacheBackend(Protocol):
    """What :class:`~repro.driver.scheduler.BuildSession` needs from
    a snapshot cache.  :class:`PersistentCache` is the reference
    implementation; anything structurally compatible plugs in."""

    def load(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None on miss."""

    def store(self, key: str, payload: dict[str, Any]) -> bool:
        """Persist ``payload`` under ``key``; True when it landed."""

    def discard(self, key: str) -> None:
        """Evict ``key`` after its payload proved semantically
        unusable; re-book the preceding load's hit as a miss."""

    def counters(self) -> dict[str, Any]:
        """This session's hit/miss/latency counters."""

    def describe(self) -> str:
        """A short human-readable label (report/`repro top`)."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class RemoteCacheError(Ms2Error):
    """A remote cache failure surfaced because ``fail_open=False``
    asked for loud misconfiguration instead of silent degradation."""


def snapshot_digest(payload: dict[str, Any]) -> str:
    """The content digest a snapshot carries across the wire: sha256
    over the canonical compact JSON body, truncated to 16 hex chars —
    the same 8 integrity bytes the MS2C disk format stores between
    header and body, spelled printably for the NDJSON frame."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(body).hexdigest()[:16]


def validate_snapshot(payload: Any, key: str) -> dict[str, Any] | None:
    """Structural validation shared by every transport: the payload
    for ``key``, or None when it is not a usable snapshot dict."""
    if not isinstance(payload, dict):
        return None
    if not _REQUIRED_KEYS <= payload.keys():
        return None
    if payload.get("key") != key:
        return None
    if not isinstance(payload["output"], str):
        return None
    return payload


def backend_tiers(
    counters: dict[str, Any], default_tier: str = "local"
) -> dict[str, dict[str, float]]:
    """Per-tier numeric counters from any backend's
    :meth:`~CacheBackend.counters` payload — the shape the
    ``ms2_cache_backend_*`` metric families and ``repro top`` label
    by tier.  Flat payloads (a bare :class:`PersistentCache` or
    :class:`RemoteCacheBackend`) come back under ``default_tier``."""
    tiers = counters.get("tiers")
    if isinstance(tiers, dict):
        return {
            name: {
                k: v
                for k, v in sub.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            for name, sub in tiers.items()
            if isinstance(sub, dict)
        }
    return {
        default_tier: {
            k: v
            for k, v in counters.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    }


# ---------------------------------------------------------------------------
# Remote backend
# ---------------------------------------------------------------------------


class RemoteCacheBackend:
    """Snapshots served by a ``repro serve`` daemon over NDJSON.

    One instance may be used from several threads (the tiered
    write-behind uploader publishes while the build thread reads):
    each thread gets its own connection, counters are lock-guarded.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout_s: float | None = None,
        fail_open: bool = True,
    ) -> None:
        self.address = str(address)
        self.timeout_s = (
            float(timeout_s)
            if timeout_s is not None
            else DEFAULT_REMOTE_TIMEOUT_S
        )
        self.fail_open = bool(fail_open)
        self._mu = threading.Lock()
        self._tls = threading.local()
        self._clients: list[Any] = []
        #: Consecutive transport failures (breaker input).
        self._consecutive_errors = 0
        #: True once the breaker declared the authority down.
        self.down = False
        # Counters (same names as PersistentCache, plus the remote-
        # only failure taxonomy).
        self.hits = 0
        self.misses = 0
        self.failures = 0
        self.evictions = 0
        self.loads = 0
        self.stores = 0
        self.load_ms = 0.0
        self.store_ms = 0.0
        #: Ops answered past ``timeout_s`` (the answer was discarded).
        self.timeouts = 0
        #: Transport/protocol errors absorbed as misses.
        self.errors = 0
        #: Ops skipped outright because the breaker is open.
        self.skipped = 0

    # ------------------------------------------------------------------

    def _client(self) -> Any:
        client = getattr(self._tls, "client", None)
        if client is None:
            client = Ms2Client(self.address, timeout=self.timeout_s)
            self._tls.client = client
            with self._mu:
                self._clients.append(client)
        return client

    def _drop_client(self) -> None:
        client = getattr(self._tls, "client", None)
        if client is not None:
            client.close()
            self._tls.client = None
            with self._mu:
                try:
                    self._clients.remove(client)
                except ValueError:
                    pass

    def _note_error(self) -> None:
        with self._mu:
            self.errors += 1
            self._consecutive_errors += 1
            if self._consecutive_errors >= _BREAKER_THRESHOLD:
                self.down = True

    def _note_success(self) -> None:
        with self._mu:
            self._consecutive_errors = 0

    def _absorb(self, exc: BaseException, op: str, key: str) -> None:
        """Count a remote failure; re-raise unless failing open."""
        self._drop_client()
        self._note_error()
        if not self.fail_open:
            raise RemoteCacheError(
                f"remote cache {op} for {key[:12]}... failed against "
                f"{self.address}: {type(exc).__name__}: {exc}"
            ) from exc

    # ------------------------------------------------------------------

    def load(self, key: str) -> dict[str, Any] | None:
        start = perf_counter()
        try:
            if self.down:
                with self._mu:
                    self.skipped += 1
                self.misses += 1
                return None
            try:
                reply = self._client().call("cache_get", key=key)
                if faults.ACTIVE is not None:
                    # The chaos seam for the whole response: io_error/
                    # conn_reset read as transport failures, corrupt
                    # mangles the payload into the digest check below,
                    # delay pushes the op past ``timeout_s``.
                    blob = faults.ACTIVE.hit(
                        "remote_cache.get",
                        json.dumps(reply).encode("utf-8"),
                        context=key,
                    )
                    reply = json.loads(blob.decode("utf-8"))
            except Exception as exc:  # noqa: BLE001 — fail-open seam
                self._absorb(exc, "get", key)
                self.misses += 1
                return None
            self._note_success()
            if not isinstance(reply, dict) or not reply.get("found"):
                self.misses += 1
                return None
            payload = validate_snapshot(reply.get("snapshot"), key)
            if (
                payload is None
                or reply.get("digest") != snapshot_digest(payload)
            ):
                # Corrupted or forged in transit — the wire twin of a
                # rotten disk snapshot: count and re-expand.
                self.failures += 1
                self.misses += 1
                if not self.fail_open:
                    raise RemoteCacheError(
                        f"remote cache payload for {key[:12]}... from "
                        f"{self.address} failed integrity checks"
                    )
                return None
            if (perf_counter() - start) > self.timeout_s:
                # Slower than the budget: an answer that arrives too
                # late is a miss — re-expanding is faster.
                self.timeouts += 1
                self.misses += 1
                return None
            self.hits += 1
            return payload
        finally:
            self.loads += 1
            self.load_ms += (perf_counter() - start) * 1000.0

    def store(self, key: str, payload: dict[str, Any]) -> bool:
        start = perf_counter()
        try:
            if self.down:
                with self._mu:
                    self.skipped += 1
                return False
            body = dict(payload)
            body["key"] = key
            try:
                if faults.ACTIVE is not None:
                    faults.ACTIVE.hit("remote_cache.put", context=key)
                reply = self._client().call(
                    "cache_put",
                    key=key,
                    snapshot=body,
                    digest=snapshot_digest(body),
                )
            except Exception as exc:  # noqa: BLE001 — fail-open seam
                self._absorb(exc, "put", key)
                return False
            self._note_success()
            if (perf_counter() - start) > self.timeout_s:
                self.timeouts += 1
            return bool(isinstance(reply, dict) and reply.get("stored"))
        finally:
            self.stores += 1
            self.store_ms += (perf_counter() - start) * 1000.0

    def discard(self, key: str) -> None:
        """The caller found a served payload semantically unusable.
        There is no wire eviction op — the next correct ``cache_put``
        for the key overwrites it at the authority — so this only
        re-books the hit locally, mirroring
        :meth:`PersistentCache.discard`'s accounting."""
        self.hits = max(0, self.hits - 1)
        self.misses += 1
        self.failures += 1

    def stats(self) -> dict[str, Any]:
        """The authority's own counters (the ``cache_stats`` op), or
        ``{}`` when it cannot be reached."""
        try:
            return self._client().call("cache_stats")
        except Exception:  # noqa: BLE001 — diagnostics only
            self._drop_client()
            return {}

    def counters(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "failures": self.failures,
            "evictions": self.evictions,
            "loads": self.loads,
            "stores": self.stores,
            "load_ms": round(self.load_ms, 3),
            "store_ms": round(self.store_ms, 3),
            "timeouts": self.timeouts,
            "errors": self.errors,
            "skipped": self.skipped,
            "down": 1 if self.down else 0,
        }

    def describe(self) -> str:
        return f"remote {self.address}"

    def close(self) -> None:
        with self._mu:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()
        self._tls = threading.local()


# ---------------------------------------------------------------------------
# Tiered backend
# ---------------------------------------------------------------------------

#: Queue terminator for the write-behind uploader.
_SENTINEL: Any = object()


class TieredBackend:
    """Local directory in front, remote authority behind.

    Reads are read-through (local, then remote, promoting remote hits
    into the local tier); writes land locally on the build path and
    are published to the remote through a bounded queue drained by
    one daemon thread.  ``write_behind=0`` publishes synchronously.
    """

    def __init__(
        self,
        local: PersistentCache | None,
        remote: RemoteCacheBackend,
        *,
        write_behind: int | None = None,
    ) -> None:
        self.local = local
        self.remote = remote
        self.write_behind = (
            int(write_behind)
            if write_behind is not None
            else DEFAULT_WRITE_BEHIND
        )
        self._queue: queue.Queue | None = (
            queue.Queue(maxsize=self.write_behind)
            if self.write_behind > 0
            else None
        )
        self._thread: threading.Thread | None = None
        self._mu = threading.Lock()
        #: (key, tier) of the most recent hit — :meth:`discard`
        #: re-books the serving tier (the scheduler discards
        #: immediately after the load it is rejecting).
        self._last_hit: tuple[str, str] | None = None
        # Effective counters, as the build path experiences them.
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.stores = 0
        self.load_ms = 0.0
        self.store_ms = 0.0
        # Write-behind accounting.
        self.wb_queued = 0
        self.wb_dropped = 0
        self.wb_flushed = 0
        self.wb_failed = 0

    # ------------------------------------------------------------------

    def load(self, key: str) -> dict[str, Any] | None:
        start = perf_counter()
        try:
            if self.local is not None:
                payload = self.local.load(key)
                if payload is not None:
                    self.hits += 1
                    self._last_hit = (key, "local")
                    return payload
            payload = self.remote.load(key)
            if payload is not None:
                if self.local is not None:
                    # Promote: the next rebuild on this machine hits
                    # the local tier without touching the network.
                    self.local.store(key, payload)
                self.hits += 1
                self._last_hit = (key, "remote")
                return payload
            self.misses += 1
            return None
        finally:
            self.loads += 1
            self.load_ms += (perf_counter() - start) * 1000.0

    def store(self, key: str, payload: dict[str, Any]) -> bool:
        start = perf_counter()
        try:
            landed = True
            if self.local is not None:
                landed = self.local.store(key, payload)
            if self._queue is None:
                self.remote.store(key, payload)
            else:
                self._ensure_uploader()
                try:
                    self._queue.put_nowait((key, dict(payload)))
                    with self._mu:
                        self.wb_queued += 1
                except queue.Full:
                    # The build is outrunning the uploader: dropping
                    # the publish keeps the build path non-blocking —
                    # the snapshot still landed locally.
                    with self._mu:
                        self.wb_dropped += 1
            return landed
        finally:
            self.stores += 1
            self.store_ms += (perf_counter() - start) * 1000.0

    def discard(self, key: str) -> None:
        self.hits = max(0, self.hits - 1)
        self.misses += 1
        tier = "remote" if self.local is None else "local"
        if self._last_hit is not None and self._last_hit[0] == key:
            tier = self._last_hit[1]
            self._last_hit = None
        if tier == "local" and self.local is not None:
            self.local.discard(key)
        else:
            self.remote.discard(key)
            if self.local is not None:
                # Drop the copy load() just promoted — it carries the
                # same semantic defect the caller is rejecting.
                self.local.discard(key)

    # ------------------------------------------------------------------

    def _ensure_uploader(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        with self._mu:
            if self._thread is not None and self._thread.is_alive():
                return
            self._thread = threading.Thread(
                target=self._drain,
                name="ms2-cache-writebehind",
                daemon=True,
            )
            self._thread.start()

    def _drain(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                key, payload = item
                ok = self.remote.store(key, payload)
                with self._mu:
                    if ok:
                        self.wb_flushed += 1
                    else:
                        self.wb_failed += 1
            except Exception:  # noqa: BLE001 — uploader must survive
                with self._mu:
                    self.wb_failed += 1
            finally:
                self._queue.task_done()

    def queue_depth(self) -> int:
        """Publishes currently waiting for the uploader."""
        return self._queue.qsize() if self._queue is not None else 0

    def flush(self, timeout_s: float = 30.0) -> None:
        """Block until every queued publish has been attempted."""
        thread = self._thread
        if self._queue is None or thread is None:
            return
        deadline = perf_counter() + timeout_s
        while self.queue_depth() > 0 and perf_counter() < deadline:
            if not thread.is_alive():
                return
            threading.Event().wait(0.005)

    def close(self) -> None:
        """Flush-then-stop: every publish accepted before ``close``
        is attempted before it returns (the ordering the two-machine
        warm-build workflow depends on)."""
        thread = self._thread
        if self._queue is not None and thread is not None:
            self._queue.put(_SENTINEL)
            thread.join(timeout=30.0)
            self._thread = None
        if self.local is not None:
            self.local.close()
        self.remote.close()

    # ------------------------------------------------------------------

    def counters(self) -> dict[str, Any]:
        tiers: dict[str, Any] = {}
        failures = 0
        evictions = 0
        if self.local is not None:
            tiers["local"] = self.local.counters()
            failures += self.local.failures
            evictions += self.local.evictions
        tiers["remote"] = self.remote.counters()
        failures += self.remote.failures
        evictions += self.remote.evictions
        with self._mu:
            write_behind = {
                "queued": self.wb_queued,
                "dropped": self.wb_dropped,
                "flushed": self.wb_flushed,
                "failed": self.wb_failed,
                "depth": self.queue_depth(),
                "limit": self.write_behind,
            }
        return {
            "hits": self.hits,
            "misses": self.misses,
            "failures": failures,
            "evictions": evictions,
            "loads": self.loads,
            "stores": self.stores,
            "load_ms": round(self.load_ms, 3),
            "store_ms": round(self.store_ms, 3),
            "tiers": tiers,
            "write_behind": write_behind,
        }

    def describe(self) -> str:
        if self.local is not None:
            return f"{self.local.describe()} + {self.remote.describe()}"
        return self.remote.describe()
