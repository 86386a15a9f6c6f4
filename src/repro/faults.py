"""Deterministic fault injection for the serving and build stack.

Infrastructure faults — a disk that errors, a lock that wedges, a
socket write that resets, a build worker that dies — are rare in
tests and constant in production.  This module makes them *cheap to
rehearse*: named *fault sites* are embedded at the real I/O and
process boundaries of the pipeline (the persistent cache, the file
locks, the daemon's frame writer, the worker pools), and a seeded
:class:`FaultPlan` decides, deterministically, which checks fire.

Sites (see ``docs/ROBUSTNESS.md`` for the catalog):

=====================  ====================================================
``cache.load``          :meth:`PersistentCache.load` reading a snapshot
``cache.store``         :meth:`PersistentCache.store` writing a snapshot
``lock.acquire``        :meth:`FileLock.acquire` taking an entry lock
``server.frame_write``  the daemon writing a response frame
``pool.build_worker``   building a server worker (preamble load)
``driver.worker``       a build worker expanding one translation unit
``eventlog.write``      appending a structured event-log record
``remote_cache.get``    ``RemoteCacheBackend`` fetching a snapshot
``remote_cache.put``    ``RemoteCacheBackend`` publishing a snapshot
=====================  ====================================================

Arming
------

Programmatic (tests)::

    from repro import faults
    faults.arm("cache.load:1:io_error", seed=7)
    try:
        ...
    finally:
        faults.disarm()

Environment (CLI, daemons, **and every worker process they spawn** —
the module arms itself from the environment at import time, so a
``ProcessPoolExecutor`` child inherits the plan automatically)::

    MS2_FAULTS="server.frame_write:0.2:io_error,cache.store:1:io_error"
    MS2_FAULT_SEED=42

CLI: ``repro expand|build|serve --inject-fault SPEC`` (repeatable)
plus ``--fault-seed N`` arm the same way and export the spec to the
environment so pool workers see it.

Spec grammar
------------

``site[@match]:prob:kind[:after_n[:max_fires]]``

``site``
    One of :data:`SITES` (unknown sites are a :class:`ValueError`
    so a typo cannot silently disarm a chaos run).
``@match``
    Optional substring filter on the *context* a call site passes
    (e.g. the file path a build worker is expanding) — lets a chaos
    test aim a process-kill at exactly one translation unit.
``prob``
    Firing probability in ``[0, 1]``, drawn from a per-site RNG
    stream seeded by ``(seed, site)`` so sites never perturb each
    other's sequences.
``kind``
    ``io_error`` (raise :class:`InjectedFault`, an ``IOError``),
    ``delay`` (sleep :data:`DELAY_S`, then proceed), ``corrupt``
    (flip bytes in the data flowing through the site), ``kill``
    (``os._exit(137)`` — a worker crash), ``conn_reset`` (raise
    :class:`ConnectionResetError`).
``after_n``
    Skip the first N checks at the site before rolling dice.
``max_fires``
    Stop firing after N injections (per process); ``0`` = unlimited.
    ``site:1:kill:0:1`` is a one-shot deterministic crash.

Zero disarmed overhead
----------------------

Call sites guard with a single attribute test, exactly like the
telemetry collectors::

    from repro import faults
    ...
    if faults.ACTIVE is not None:
        blob = faults.ACTIVE.hit("cache.load", blob)

When nothing is armed, :data:`ACTIVE` is ``None`` and the pipeline
pays one module-attribute load per site — nothing else.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ACTIVE",
    "DELAY_S",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "SITES",
    "arm",
    "arm_from_env",
    "disarm",
    "parse_spec",
]

#: Every fault site embedded in the pipeline.  Arming any other name
#: raises, so chaos configs cannot rot silently.
SITES = frozenset(
    {
        "cache.load",
        "cache.store",
        "lock.acquire",
        "server.frame_write",
        "pool.build_worker",
        "driver.worker",
        "eventlog.write",
        "remote_cache.get",
        "remote_cache.put",
    }
)

#: The injectable failure modes.
FAULT_KINDS = frozenset(
    {"io_error", "delay", "corrupt", "kill", "conn_reset"}
)

#: Seconds a ``delay`` fault sleeps.
DELAY_S = 0.05

#: Exit status of a ``kill`` fault (the classic SIGKILL-ish 137).
KILL_EXIT_CODE = 137

#: Environment variables the module arms itself from at import.
ENV_SPECS = "MS2_FAULTS"
ENV_SEED = "MS2_FAULT_SEED"


class InjectedFault(IOError):
    """The typed error an ``io_error`` fault raises.  An ``IOError``
    subclass on purpose: every absorbing ``except OSError`` in the
    pipeline treats it exactly like the disk failure it stands in
    for, while tests (and the server's error mapping) can still
    recognise it by name."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site}")
        self.site = site


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One armed fault: parsed form of the spec grammar."""

    site: str
    prob: float
    kind: str
    after_n: int = 0
    max_fires: int = 0  # 0 = unlimited
    match: str | None = None

    def to_string(self) -> str:
        """The spec back in ``site[@match]:prob:kind:after:max``
        form (what ``--inject-fault`` exports to the environment)."""
        site = self.site if self.match is None else (
            f"{self.site}@{self.match}"
        )
        return (
            f"{site}:{self.prob:g}:{self.kind}"
            f":{self.after_n}:{self.max_fires}"
        )


def parse_spec(text: str) -> FaultSpec:
    """Parse ``site[@match]:prob:kind[:after_n[:max_fires]]``."""
    parts = text.strip().split(":")
    if len(parts) < 3 or len(parts) > 5:
        raise ValueError(
            f"bad fault spec {text!r}: expected "
            "site[@match]:prob:kind[:after_n[:max_fires]]"
        )
    site_part, prob_part, kind = parts[0], parts[1], parts[2]
    site, _, match = site_part.partition("@")
    if site not in SITES:
        raise ValueError(
            f"unknown fault site {site!r}; expected one of "
            f"{', '.join(sorted(SITES))}"
        )
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of "
            f"{', '.join(sorted(FAULT_KINDS))}"
        )
    try:
        prob = float(prob_part)
    except ValueError:
        raise ValueError(
            f"bad fault probability {prob_part!r} in {text!r}"
        ) from None
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"fault probability {prob:g} outside [0, 1]")
    after_n = int(parts[3]) if len(parts) > 3 and parts[3] else 0
    max_fires = int(parts[4]) if len(parts) > 4 and parts[4] else 0
    if after_n < 0 or max_fires < 0:
        raise ValueError(f"negative count in fault spec {text!r}")
    return FaultSpec(
        site=site,
        prob=prob,
        kind=kind,
        after_n=after_n,
        max_fires=max_fires,
        match=match or None,
    )


@dataclass(slots=True)
class _SiteState:
    """Per-(spec) runtime state: its RNG stream and counters."""

    spec: FaultSpec
    rng: random.Random
    checks: int = 0
    fires: int = 0


class FaultPlan:
    """A set of armed :class:`FaultSpec` entries plus the seeded
    randomness that makes every run replayable: each spec draws from
    its own :class:`random.Random` seeded by ``(seed, site, match)``,
    so the decision sequence at one site is a pure function of the
    seed and that site's check count — independent of thread
    interleaving at *other* sites."""

    def __init__(
        self, specs: list[FaultSpec], seed: int | None = None
    ) -> None:
        if seed is None:
            seed = int.from_bytes(os.urandom(4), "big")
        self.seed = int(seed)
        self.specs = list(specs)
        self._states: dict[str, list[_SiteState]] = {}
        for spec in self.specs:
            stream = random.Random(
                f"{self.seed}\x00{spec.site}\x00{spec.match or ''}"
            )
            self._states.setdefault(spec.site, []).append(
                _SiteState(spec=spec, rng=stream)
            )
        #: Fires per site — the ``ms2_faults_injected_total`` series.
        self.injected: dict[str, int] = {}

    # ------------------------------------------------------------------

    def hit(
        self, site: str, data: Any = None, context: str | None = None
    ) -> Any:
        """One pass through a fault site.  Returns ``data`` (possibly
        corrupted); raises / sleeps / kills when an armed spec fires.

        ``context`` is a site-specific string (a file path, a pool
        key) that ``@match`` filters select on.
        """
        for state in self._states.get(site, ()):
            spec = state.spec
            if spec.match is not None and (
                context is None or spec.match not in context
            ):
                continue
            state.checks += 1
            if state.checks <= spec.after_n:
                continue
            if spec.max_fires and state.fires >= spec.max_fires:
                continue
            if spec.prob < 1.0 and state.rng.random() >= spec.prob:
                continue
            state.fires += 1
            self.injected[site] = self.injected.get(site, 0) + 1
            data = self._fire(spec, site, data)
        return data

    @staticmethod
    def _fire(spec: FaultSpec, site: str, data: Any) -> Any:
        if spec.kind == "io_error":
            raise InjectedFault(site)
        if spec.kind == "conn_reset":
            raise ConnectionResetError(f"injected reset at {site}")
        if spec.kind == "delay":
            time.sleep(DELAY_S)
            return data
        if spec.kind == "kill":
            # A real crash: no exception to catch, no atexit, no
            # flushing — exactly what a SIGKILLed worker looks like.
            os._exit(KILL_EXIT_CODE)
        # corrupt: flip bytes when data flows through; no-op otherwise.
        if isinstance(data, (bytes, bytearray)) and data:
            mangled = bytearray(data)
            mangled[len(mangled) // 2] ^= 0xFF
            return bytes(mangled)
        return data

    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Fires per site (a copy; the ``stats`` op payload)."""
        return dict(self.injected)

    def describe(self) -> str:
        """One replayable line: specs + seed."""
        specs = ",".join(spec.to_string() for spec in self.specs)
        return f"MS2_FAULTS={specs} MS2_FAULT_SEED={self.seed}"


#: The armed plan, or None.  **The** hot-path guard:
#: ``if faults.ACTIVE is not None: ...`` — one attribute test.
ACTIVE: FaultPlan | None = None


def arm(
    *specs: str | FaultSpec, seed: int | None = None
) -> FaultPlan:
    """Arm fault injection process-wide; returns the plan.  Replaces
    any previously armed plan (its counters are discarded)."""
    global ACTIVE
    parsed = [
        spec if isinstance(spec, FaultSpec) else parse_spec(spec)
        for spec in specs
    ]
    ACTIVE = FaultPlan(parsed, seed=seed)
    return ACTIVE


def disarm() -> None:
    """Return to zero-overhead operation."""
    global ACTIVE
    ACTIVE = None


def arm_from_env(environ: Any = None, *, announce: bool = False) -> (
    FaultPlan | None
):
    """Arm from ``MS2_FAULTS`` / ``MS2_FAULT_SEED`` when set (the
    import-time hook; also how spawned worker processes inherit the
    plan).  Returns the plan, or None when the variable is unset or
    empty.  With ``announce``, prints the replay line to stderr."""
    env = environ if environ is not None else os.environ
    raw = env.get(ENV_SPECS, "").strip()
    if not raw:
        return None
    seed_raw = env.get(ENV_SEED, "").strip()
    seed = int(seed_raw) if seed_raw else None
    plan = arm(
        *[part for part in raw.split(",") if part.strip()], seed=seed
    )
    if announce:
        print(
            f"repro: fault injection armed ({plan.describe()})",
            file=sys.stderr,
        )
    return plan


def export_to_env(plan: FaultPlan, environ: Any = None) -> None:
    """Write ``plan`` into the environment so child processes
    (build workers) arm themselves identically at import."""
    env = environ if environ is not None else os.environ
    env[ENV_SPECS] = ",".join(
        spec.to_string() for spec in plan.specs
    )
    env[ENV_SEED] = str(plan.seed)


# Arm from the environment at import so every process in a chaos run
# — CLI, daemon, pool workers — shares one configuration with zero
# per-process plumbing.  Unset (the overwhelmingly common case) this
# is a single dict lookup at import time.
arm_from_env()
