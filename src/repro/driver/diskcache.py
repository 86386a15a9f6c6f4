"""The persistent, content-addressed build cache.

Where the in-memory :class:`~repro.macros.cache.ExpansionCache`
memoizes single macro expansions *within* a process, this cache
memoizes whole translation-unit builds *across* processes and runs:
the expanded C text of a file, plus its diagnostics, stats and trace
spans, keyed by the triple

    (source hash, macro-definition hash, options hash)

so an incremental rebuild skips every file whose inputs are
unchanged.  Entries live as snapshot files under a cache root
(``.ms2-cache/`` by default), two-level fanned-out by key prefix::

    .ms2-cache/
        ab/
            ab3f...9c.ms2c      # MS2C\\x01 header + JSON payload
            ab3f...9c.lock      # per-entry advisory lock

Payloads are JSON, not pickle: the cache directory is shared between
invocations (and potentially users), and loading a snapshot must
never be able to execute code — a hostile ``.ms2c`` file can at worst
read as corrupt.  These snapshots are the only serialized expansion
results in the pipeline (the in-memory replay cache keeps trees), so
this module owns the snapshot framing and every check on it:

- each snapshot starts with the versioned ``MS2C`` + format-byte
  header (:data:`SNAPSHOT_HEADER`, :func:`frame_snapshot`); a bump of
  :data:`CACHE_FORMAT_VERSION`, which every build key also digests,
  invalidates old entries wholesale (they read as *stale* and are
  evicted);
- **corrupt or truncated** snapshots — JSON decode explosions, wrong
  payload shape, key mismatch — are evicted and counted, and the
  caller falls back to re-expansion; corruption can never surface as
  an exception from a build;
- writes go to a temp file in the same directory followed by
  ``os.replace``, so readers only ever observe complete snapshots,
  and a per-entry :class:`~repro.driver.locks.FileLock` serializes
  writers racing on one entry;
- a cache directory deleted mid-build is recreated on the next
  store; a store that still cannot land is dropped silently (the
  build result is unaffected — only warm-cache reuse is lost).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any

from repro import faults
from repro.driver.cacheconfig import DEFAULT_CACHE_DIR
from repro.driver.locks import FileLock, LockTimeout

__all__ = [
    "PersistentCache",
    "DEFAULT_CACHE_DIR",
    "CACHE_FORMAT_VERSION",
    "SNAPSHOT_HEADER",
    "frame_snapshot",
    "unframe_snapshot",
]

#: Snapshot format version.  Bumped whenever the snapshot layout
#: changes; snapshots carrying any other version read as stale and
#: are re-expanded, and build keys move with it.
CACHE_FORMAT_VERSION = 1

#: The version-stamped snapshot header: ``MS2C`` + format byte.
SNAPSHOT_HEADER = b"MS2C" + bytes([CACHE_FORMAT_VERSION])

#: Snapshot filename extension.
_SNAPSHOT_SUFFIX = ".ms2c"

#: Keys every well-formed snapshot payload must carry.
_REQUIRED_KEYS = frozenset({"key", "output"})

#: Bytes of sha256(body) stored between header and body.  Disk rots:
#: without it a flipped bit inside a JSON string could decode
#: "successfully" into wrong output.
_DIGEST_LEN = 8


def frame_snapshot(payload: bytes) -> bytes:
    """Prefix ``payload`` with the version-stamped snapshot header."""
    return SNAPSHOT_HEADER + payload


def unframe_snapshot(blob: bytes) -> bytes | None:
    """Strip and validate the snapshot header; ``None`` when the blob
    is truncated, garbled, or stamped with another format version —
    the caller treats all three as a miss and re-expands."""
    if blob[: len(SNAPSHOT_HEADER)] != SNAPSHOT_HEADER:
        return None
    return blob[len(SNAPSHOT_HEADER):]


def _digest(body: bytes) -> bytes:
    import hashlib

    return hashlib.sha256(body).digest()[:_DIGEST_LEN]


class PersistentCache:
    """Snapshot files for whole-file build results under one root.

    The payloads stored are plain JSON-able dicts (text, rendered
    diagnostics, counters) — nothing that depends on importability of
    pipeline internals at load time beyond the stdlib.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        #: Snapshots served this session.
        self.hits = 0
        #: Lookups that found no usable snapshot.
        self.misses = 0
        #: Snapshots rejected as corrupt, truncated or stale (each
        #: was evicted; the caller re-expanded).
        self.failures = 0
        #: Snapshot files actually removed from disk (integrity
        #: rejections plus caller-driven :meth:`discard` calls).
        self.evictions = 0
        #: Wall milliseconds spent in :meth:`load` / :meth:`store`
        #: (the hit/miss/latency telemetry the remote-cache backend
        #: will need — see ROADMAP).
        self.load_ms = 0.0
        self.store_ms = 0.0
        #: Number of load/store calls behind those totals.
        self.loads = 0
        self.stores = 0

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The snapshot path for ``key`` (two-level fan-out)."""
        return self.root / key[:2] / f"{key}{_SNAPSHOT_SUFFIX}"

    def _lock_for(self, key: str) -> FileLock:
        return FileLock(
            self.path_for(key).with_suffix(".lock"), timeout=10.0
        )

    # ------------------------------------------------------------------

    def load(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None on miss.

        Every way a snapshot can be unusable — absent, truncated,
        version-stamped by another format, undecodable, wrong shape,
        keyed for different inputs — funnels into the same answer:
        evict (when present), count, return None, caller re-expands.
        """
        start = perf_counter()
        try:
            path = self.path_for(key)
            try:
                blob = path.read_bytes()
                if faults.ACTIVE is not None:
                    # io_error faults land in this except and read as
                    # a miss; corrupt faults mangle the blob and fall
                    # through to the integrity check below.
                    blob = faults.ACTIVE.hit(
                        "cache.load", blob, context=key
                    )
            except OSError:
                self.misses += 1
                return None
            payload = self._decode(blob, key)
            if payload is None:
                self._evict(key)
                self.failures += 1
                self.misses += 1
                return None
            self.hits += 1
            return payload
        finally:
            self.loads += 1
            self.load_ms += (perf_counter() - start) * 1000.0

    @staticmethod
    def _decode(blob: bytes, key: str) -> dict[str, Any] | None:
        framed = unframe_snapshot(blob)
        if framed is None:
            return None  # stale version stamp or garbled header
        if len(framed) < _DIGEST_LEN:
            return None  # truncated before the integrity digest
        stamp, body = framed[:_DIGEST_LEN], framed[_DIGEST_LEN:]
        if stamp != _digest(body):
            return None  # body corrupted on disk
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None  # corrupt bytes / not JSON — unusable
        if not isinstance(payload, dict):
            return None
        if not _REQUIRED_KEYS <= payload.keys():
            return None
        if payload["key"] != key:
            return None  # renamed/copied snapshot file
        if not isinstance(payload["output"], str):
            return None
        return payload

    def store(self, key: str, payload: dict[str, Any]) -> bool:
        """Persist ``payload`` under ``key``; True when it landed.

        The write is atomic (temp file + ``os.replace``) and guarded
        by the per-entry lock.  Failure to persist — cache directory
        deleted mid-build, lock wedged, disk full — is absorbed: the
        build keeps its in-memory result and only loses reuse.
        """
        start = perf_counter()
        try:
            payload = dict(payload)
            payload["key"] = key
            payload["format"] = CACHE_FORMAT_VERSION
            try:
                body = json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            except (TypeError, ValueError):
                return False  # payload not JSON-able
            blob = frame_snapshot(_digest(body) + body)
            try:
                if faults.ACTIVE is not None:
                    blob = faults.ACTIVE.hit(
                        "cache.store", blob, context=key
                    )
                with self._lock_for(key):
                    return self._write_atomic(self.path_for(key), blob)
            except (LockTimeout, OSError):
                return False
        finally:
            self.stores += 1
            self.store_ms += (perf_counter() - start) * 1000.0

    @staticmethod
    def _write_atomic(path: Path, blob: bytes) -> bool:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.stem, suffix=".tmp", dir=path.parent
            )
        except OSError:
            return False
        try:
            with io.FileIO(fd, "w") as tmp:
                tmp.write(blob)
            os.replace(tmp_name, path)
            return True
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False

    def discard(self, key: str) -> None:
        """Evict ``key`` after the *caller* found its (structurally
        valid) payload semantically unusable — e.g. the stored path
        disagrees with the file being built.  Re-books the preceding
        :meth:`load`'s hit as a miss and counts a failure."""
        self._evict(key)
        self.hits = max(0, self.hits - 1)
        self.misses += 1
        self.failures += 1

    def _evict(self, key: str) -> None:
        try:
            self.path_for(key).unlink()
        except OSError:
            return
        self.evictions += 1

    # ------------------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every snapshot file currently under the root."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{_SNAPSHOT_SUFFIX}"))

    def clear(self) -> int:
        """Delete every snapshot; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> str:
        """Short label for reports: the cache root."""
        return str(self.root)

    def close(self) -> None:
        """Nothing to release — entries live as closed files.  Part
        of the :class:`~repro.driver.cachebackend.CacheBackend`
        protocol, where the tiered backend uses it to flush its
        write-behind queue."""

    def counters(self) -> dict[str, float]:
        """This session's counters — the payload surfaced by
        :class:`~repro.driver.report.BuildReport`, and by the daemon
        as its ``ms2_cache_backend_*{tier="local"}`` series."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "failures": self.failures,
            "evictions": self.evictions,
            "loads": self.loads,
            "stores": self.stores,
            "load_ms": round(self.load_ms, 3),
            "store_ms": round(self.store_ms, 3),
        }
