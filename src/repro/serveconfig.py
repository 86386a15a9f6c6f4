"""The unified configuration surface of the expansion daemon.

Every knob of ``repro serve`` lives on :class:`ServeConfig`, one
frozen value object following the :class:`~repro.options.Ms2Options`
pattern:

- the **single source of defaults** (the ``repro serve`` argparse
  defaults and the library's behaviour both come from
  ``ServeConfig()``),
- **JSON round-trippable** (:meth:`ServeConfig.to_json` /
  :meth:`ServeConfig.from_json`), which is how the sharding
  supervisor ships one configuration to every shard process,
- **validated once** (:meth:`ServeConfig.validate`), so an
  impossible combination (no listen address, a Unix socket with
  ``shards > 1``) fails before any process is spawned.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "DEFAULT_DRAIN_S",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_QUEUE_LIMIT",
    "SERVE_FIELDS",
    "ServeConfig",
]

#: Hard cap on one request/response frame (bytes, including newline).
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Concurrent expansions (executor threads) per server process.
DEFAULT_MAX_INFLIGHT = 4

#: Admitted-but-waiting requests beyond ``max_inflight``.
DEFAULT_QUEUE_LIMIT = 16

#: Seconds SIGTERM waits for in-flight requests before forcing.
DEFAULT_DRAIN_S = 10.0


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Every knob of one ``repro serve`` daemon, as a frozen value.

    Construct once, share freely: the object is immutable, comparable
    and JSON round-trippable.  Derive variants with :meth:`replace`.
    :class:`~repro.options.Ms2Options` stays a *separate* value — it
    configures expansion semantics, this configures the serving
    process around them.
    """

    # -- listen address -------------------------------------------------
    #: Unix domain socket path (exactly one of ``socket`` / ``port``).
    socket: str | None = None
    #: TCP bind address for ``port`` mode.
    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral).  Required for ``shards > 1``.
    port: int | None = None
    #: Pre-forked acceptor processes sharing the port via
    #: ``SO_REUSEPORT`` (1 = classic single-process daemon).
    shards: int = 1

    # -- preamble -------------------------------------------------------
    #: Standard macro packages loaded into every worker.
    packages: tuple[str, ...] = ()
    #: ``(filename, source)`` pairs loaded after the packages.
    package_sources: tuple[tuple[str, str], ...] = ()

    # -- capacity -------------------------------------------------------
    #: Concurrent expansions per shard.
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Admitted requests waiting beyond ``max_inflight``.
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    #: Hard cap on one request/response frame, bytes.
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES

    # -- budgets / shutdown ---------------------------------------------
    #: Server-side wall-clock budget (milliseconds) for requests whose
    #: options set no deadline of their own (None = unbounded).
    request_deadline_ms: float | None = None
    #: Seconds SIGTERM waits for in-flight requests.
    drain_s: float = DEFAULT_DRAIN_S

    # -- caching --------------------------------------------------------
    #: Persistent snapshot cache root shared with ``repro build``
    #: (``expand_file`` requests); None disables it.
    cache_dir: str | None = None

    # -- observability --------------------------------------------------
    #: HTTP telemetry port (0 = ephemeral; None = no sidecar).  With
    #: ``shards > 1`` this is the fleet gateway's port.
    metrics_port: int | None = None
    #: Bind address for ``metrics_port``.
    metrics_host: str = "127.0.0.1"
    #: JSONL event-log path (each shard appends ``.shard-N``).
    event_log: str | None = None

    # -- chaos ----------------------------------------------------------
    #: ``repro.faults`` specs armed in the daemon and exported to
    #: every shard process.
    fault_specs: tuple[str, ...] = ()
    #: Seed for the fault-injection RNG (None = random).
    fault_seed: int | None = None

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "ServeConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> "ServeConfig":
        """``self`` if the configuration is serveable; raises
        :class:`ValueError` naming the first impossibility."""
        if (self.socket is None) == (self.port is None):
            raise ValueError(
                "exactly one of socket or port must be given"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1 and self.socket is not None:
            raise ValueError(
                "sharded serving requires TCP (port=...): shards "
                "share one port via SO_REUSEPORT, which Unix sockets "
                "cannot do"
            )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
        if self.drain_s < 0:
            raise ValueError("drain_s must be >= 0")
        return self

    @property
    def default_deadline_s(self) -> float | None:
        """``request_deadline_ms`` in the seconds the server core
        speaks (None = unbounded)."""
        if self.request_deadline_ms is None:
            return None
        return self.request_deadline_ms / 1000.0

    # ------------------------------------------------------------------
    # Wire format (the shard supervisor ships this to children)
    # ------------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Every field as JSON-able values; :meth:`from_json`
        round-trips it exactly."""
        payload: dict[str, Any] = {}
        for name in SERVE_FIELDS:
            value = getattr(self, name)
            if name == "package_sources":
                value = [[filename, source] for filename, source in value]
            elif isinstance(value, tuple):
                value = list(value)
            payload[name] = value
        return payload

    @classmethod
    def from_json(cls, data: dict[str, Any] | None) -> "ServeConfig":
        """Rebuild a config from a :meth:`to_json` payload.  Unknown
        keys are ignored (payloads written by newer versions still
        load); values of the wrong JSON type raise
        :class:`ValueError`."""
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ValueError("serve config payload must be a JSON object")
        kwargs: dict[str, Any] = {}
        for name in SERVE_FIELDS:
            if name not in data:
                continue
            kwargs[name] = _check_field(name, data[name])
        return cls(**kwargs)


#: Every field name of :class:`ServeConfig`, declaration order.
SERVE_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ServeConfig)
)

_DEFAULTS = None  # populated lazily below (needs the class finalized)


def _check_field(name: str, value: Any) -> Any:
    """Validate one wire value for :meth:`ServeConfig.from_json`."""
    global _DEFAULTS
    if _DEFAULTS is None:
        _DEFAULTS = ServeConfig()
    default = getattr(_DEFAULTS, name)
    if name == "package_sources":
        if not isinstance(value, list):
            raise ValueError("package_sources must be a list of pairs")
        pairs = []
        for entry in value:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and all(isinstance(part, str) for part in entry)
            ):
                raise ValueError(
                    "package_sources must be [filename, source] pairs"
                )
            pairs.append((entry[0], entry[1]))
        return tuple(pairs)
    if name in ("packages", "fault_specs"):
        if not (
            isinstance(value, list)
            and all(isinstance(item, str) for item in value)
        ):
            raise ValueError(f"{name} must be a list of strings")
        return tuple(value)
    if isinstance(default, int) and default is not None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"serve option {name!r} must be an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"serve option {name!r} must be a number")
        return float(value)
    if name in ("port", "shards", "metrics_port", "fault_seed"):
        if value is None and name != "shards":
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"serve option {name!r} must be an integer or null"
            )
        return value
    if name == "request_deadline_ms":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"serve option {name!r} must be a number or null"
            )
        return float(value)
    if value is None:
        return None
    if isinstance(value, (str, Path)):
        return str(value)
    raise ValueError(f"serve option {name!r} must be a string or null")
