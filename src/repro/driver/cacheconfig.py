"""The unified configuration surface of the snapshot cache.

A distributed cache has several knobs (the local directory, the
remote authority's address, the write-behind queue depth, the remote
timeout, the fail-open switch).  :class:`CacheConfig` holds them all,
as the sibling of :class:`~repro.options.Ms2Options` and
:class:`~repro.serveconfig.ServeConfig` for the cache layer:

- the **single source of defaults** — ``repro build``'s
  ``--cache-dir`` / ``--remote-cache`` argparse defaults and the
  library's behaviour both come from ``CacheConfig()``,
- **JSON round-trippable** (:meth:`CacheConfig.to_json` /
  :meth:`CacheConfig.from_json`), so a build farm can ship one cache
  policy to every runner the way the shard supervisor ships a
  :class:`~repro.serveconfig.ServeConfig`,
- **validated once** (:meth:`CacheConfig.validate`), so a bad remote
  address or a negative queue depth fails before the first build,
- the **backend factory** (:meth:`CacheConfig.build_backend`): the
  one place the local / remote / tiered composition is decided.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "CACHE_FIELDS",
    "CacheConfig",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_REMOTE_TIMEOUT_S",
    "DEFAULT_WRITE_BEHIND",
]

#: Default cache root, relative to the build's working directory.
DEFAULT_CACHE_DIR = ".ms2-cache"

#: Client-side budget for one remote cache operation, seconds.  A
#: remote answer that arrives later than this is treated as a miss —
#: slower than re-expanding is worse than useless.
DEFAULT_REMOTE_TIMEOUT_S = 2.0

#: Bounded depth of the asynchronous write-behind queue (snapshot
#: publishes waiting for the background uploader).  0 publishes
#: synchronously; overflow drops the write and counts it.
DEFAULT_WRITE_BEHIND = 64


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Every knob of the persistent snapshot cache, as a frozen value.

    Construct once, share freely: the object is immutable, comparable
    and JSON round-trippable.  Derive variants with :meth:`replace`.
    ``CacheConfig()`` is today's behaviour exactly — a local
    ``.ms2-cache/`` directory, no remote.
    """

    #: Local snapshot-directory root; None disables the local tier.
    local_dir: str | None = DEFAULT_CACHE_DIR
    #: Address of a ``repro serve`` daemon doubling as the cache
    #: authority (any :func:`~repro.client.parse_server_address`
    #: form); None disables the remote tier.
    remote: str | None = None
    #: Write-behind queue depth for remote publishes (0 = publish
    #: synchronously on the build path).
    write_behind: int = DEFAULT_WRITE_BEHIND
    #: Client-side budget for one remote cache op, seconds.
    remote_timeout_s: float = DEFAULT_REMOTE_TIMEOUT_S
    #: When True (default), every remote failure — daemon down,
    #: connection reset, corrupt payload, timeout — degrades to a
    #: cache miss and the build expands locally.  False turns remote
    #: failures into exceptions (CI setups that must notice a
    #: misconfigured authority).
    fail_open: bool = True

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any cache tier is configured at all."""
        return self.local_dir is not None or self.remote is not None

    def replace(self, **changes: Any) -> "CacheConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> "CacheConfig":
        """``self`` if the configuration is usable; raises
        :class:`ValueError` naming the first impossibility."""
        if self.write_behind < 0:
            raise ValueError("write_behind must be >= 0")
        if self.remote_timeout_s <= 0:
            raise ValueError("remote_timeout_s must be > 0")
        if self.remote is not None:
            from repro.client import parse_server_address

            parse_server_address(self.remote)  # raises ValueError
        return self

    def build_backend(self) -> Any:
        """The :class:`~repro.driver.cachebackend.CacheBackend` this
        configuration describes, or None when both tiers are off:

        - local only — the classic
          :class:`~repro.driver.diskcache.PersistentCache`;
        - remote only — a bare
          :class:`~repro.driver.cachebackend.RemoteCacheBackend`;
        - both — a :class:`~repro.driver.cachebackend.TieredBackend`
          (read-through local first, async write-behind to remote).
        """
        from repro.driver.cachebackend import (
            RemoteCacheBackend,
            TieredBackend,
        )
        from repro.driver.diskcache import PersistentCache

        self.validate()
        local = (
            PersistentCache(self.local_dir)
            if self.local_dir is not None
            else None
        )
        if self.remote is None:
            return local
        remote = RemoteCacheBackend(
            self.remote,
            timeout_s=self.remote_timeout_s,
            fail_open=self.fail_open,
        )
        if local is None:
            return remote
        return TieredBackend(
            local, remote, write_behind=self.write_behind
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Every field as JSON-able values; :meth:`from_json`
        round-trips it exactly."""
        return {name: getattr(self, name) for name in CACHE_FIELDS}

    @classmethod
    def from_json(cls, data: dict[str, Any] | None) -> "CacheConfig":
        """Rebuild a config from a :meth:`to_json` payload.  Unknown
        keys are ignored (payloads written by newer versions still
        load); values of the wrong JSON type raise
        :class:`ValueError`."""
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ValueError("cache config payload must be a JSON object")
        kwargs: dict[str, Any] = {}
        for name in CACHE_FIELDS:
            if name not in data:
                continue
            kwargs[name] = _check_field(name, data[name])
        return cls(**kwargs)


#: Every field name of :class:`CacheConfig`, declaration order.
CACHE_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(CacheConfig)
)

_DEFAULTS = None  # populated lazily below (needs the class finalized)


def _check_field(name: str, value: Any) -> Any:
    """Validate one wire value for :meth:`CacheConfig.from_json`."""
    global _DEFAULTS
    if _DEFAULTS is None:
        _DEFAULTS = CacheConfig()
    default = getattr(_DEFAULTS, name)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"cache option {name!r} must be a boolean")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"cache option {name!r} must be an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"cache option {name!r} must be a number")
        return float(value)
    if value is None:
        return None
    if isinstance(value, (str, Path)):
        return str(value)
    raise ValueError(f"cache option {name!r} must be a string or null")
