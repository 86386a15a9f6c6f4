"""Memoization of macro expansions.

The paper's expansion model re-runs a macro's meta-program on every
invocation.  For the (common) macros whose bodies are pure functions
of their parsed arguments, that work is repeated verbatim: the same
argument ASTs produce the same replacement AST every time.
:class:`ExpansionCache` exploits this — it maps

    (macro name, definition generation, structural key of the actuals)

to the fully-expanded result of a previous invocation.  A hit is
*replayed*: a fresh copy of the stored tree whose hygiene marks are
consistently replaced by fresh ones and whose every node carries one
location, the new invocation site's.  The output bytes, diagnostics
and capture detection match a re-expansion; the nested backtraces a
fresh expansion records do not, so annotated runs and hygienic ones
(whose renames depend on the surroundings) keep the cache off.

Replay is the hot path, so entries are stored *pickled*: the byte
blob is an immutable snapshot and ``pickle.loads`` rebuilds the whole
tree in C, an order of magnitude faster than a field-by-field Python
copy.  The replay-variant parts of a tree are externalized through
pickle's persistent-ID machinery: every
:class:`~repro.errors.SourceLocation` pickles as the persistent ID
``"loc"``, and each distinct hygiene mark pickles as a ``("m", n)``
ID (via a one-time snapshot walk at store time that wraps mark ints
in :class:`_MarkToken`).  The unpickler resolves ``"loc"`` to the
replaying invocation's location and each distinct mark ID to a fresh
mark from the expander's counter — re-stamping the entire tree as a
side effect of loading it.

Entries are admitted on the *second* sighting of their key.  Most
fresh-context runs expand each distinct invocation once, and pickling
a result nobody replays is pure cost, so the first fresh expansion
under a key only records the key; the second pickles the snapshot;
the third and later invocations replay it.  :meth:`ExpansionCache.clear`
forgets sightings along with entries.

Each entry also records its :class:`ReplayCost` — the nested
expansions, budgeted output nodes and nesting height of the fresh
expansion — which the expander charges on every hit, so expansion
budgets and the depth limit trip exactly as they would with the cache
off.

Whether a macro is safe to cache at all is decided once, at
definition time, by :func:`repro.analysis.analyze_macro_purity` —
macros that touch ``metadcl`` state, call ``gensym``-like or semantic
builtins, or call impure meta-functions are never cached, which keeps
the paper's non-local-transformation examples (the window-procedure
accumulator) working bit-for-bit with the cache enabled.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from typing import TYPE_CHECKING, Any, Callable, Hashable, NamedTuple

from repro.cast.base import Node
from repro.cast.struct_hash import Unhashable, structural_key
from repro.errors import SourceLocation

if TYPE_CHECKING:
    from repro.cast import nodes
    from repro.macros.definition import MacroDefinition
    from repro.stats import PipelineStats

__all__ = [
    "ExpansionCache",
    "ReplayCost",
    "replay_result",
    "CACHE_FORMAT_VERSION",
    "SNAPSHOT_HEADER",
    "frame_snapshot",
    "unframe_snapshot",
]

#: The persistent ID standing for "the invocation site" in stored blobs.
_LOC_PID = "loc"

#: Snapshot wire-format version.  Bumped whenever the externalization
#: scheme (persistent IDs, snapshot layout) changes; entries carrying
#: any other version are treated as stale and re-expanded.
CACHE_FORMAT_VERSION = 1

#: Magic prefix identifying a well-formed snapshot blob.
_MAGIC = b"MS2C"
_HEADER = _MAGIC + bytes([CACHE_FORMAT_VERSION])

#: The version-stamped snapshot header (``MS2C`` + format byte) —
#: shared by the in-memory replay cache and the batch driver's
#: on-disk snapshot files (:mod:`repro.driver.diskcache`).
SNAPSHOT_HEADER = _HEADER


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


class _MarkToken:
    """Stands for one distinct hygiene mark inside a stored snapshot."""

    __slots__ = ("pid",)

    def __init__(self, index: int) -> None:
        self.pid = ("m", index)


class _StorePickler(pickle.Pickler):
    """Externalizes locations and mark tokens while storing a result."""

    def persistent_id(self, obj: Any) -> Any:
        if isinstance(obj, SourceLocation):
            return _LOC_PID
        if isinstance(obj, _MarkToken):
            return obj.pid
        return None


class _ReplayUnpickler(pickle.Unpickler):
    """Rebuilds a stored expansion at a new invocation site."""

    def __init__(
        self,
        blob: bytes,
        loc: SourceLocation,
        fresh_mark: Callable[[], int],
    ) -> None:
        super().__init__(io.BytesIO(blob))
        self._loc = loc
        self._fresh_mark = fresh_mark
        self._marks: dict[Any, int] = {}

    def persistent_load(self, pid: Any) -> Any:
        if pid == _LOC_PID:
            return self._loc
        fresh = self._marks.get(pid)
        if fresh is None:
            fresh = self._marks[pid] = self._fresh_mark()
        return fresh


#: Per-class snapshot plan: every field name except ``loc``/``mark``.
_SNAP_PLANS: dict[type, tuple[str, ...]] = {}


def _snapshot(value: Any, tokens: dict[int, _MarkToken]) -> Any:
    """Copy an expansion result, wrapping each distinct mark in a
    :class:`_MarkToken` so the pickler can externalize it.  Runs once
    per stored entry (never on the replay path)."""
    if isinstance(value, Node):
        cls = value.__class__
        plan = _SNAP_PLANS.get(cls)
        if plan is None:
            plan = _SNAP_PLANS[cls] = tuple(
                f.name
                for f in dataclasses.fields(cls)
                if f.name not in ("loc", "mark")
            )
        new = cls.__new__(cls)
        for name in plan:
            field_value = getattr(value, name)
            if isinstance(field_value, (Node, list)):
                field_value = _snapshot(field_value, tokens)
            setattr(new, name, field_value)
        new.loc = value.loc
        mark = value.mark
        if mark is not None:
            token = tokens.get(mark)
            if token is None:
                token = tokens[mark] = _MarkToken(len(tokens))
            mark = token
        new.mark = mark
        return new
    if isinstance(value, list):
        return [_snapshot(item, tokens) for item in value]
    return value


class ReplayCost(NamedTuple):
    """The work a fresh expansion did beyond its own budget charge."""

    #: Macro expansions nested inside it.
    expansions: int = 0
    #: Output AST nodes it and its nested expansions charged.
    output_nodes: int = 0
    #: Expansion frames it stacked: 1 plus its deepest nesting.
    height: int = 1
    #: AST nodes in the result itself.
    size: int = 0


class ExpansionCache:
    """A per-session memo table of completed expansions."""

    def __init__(self, stats: "PipelineStats | None" = None) -> None:
        self._entries: dict[Hashable, bytes] = {}
        self._costs: dict[Hashable, ReplayCost] = {}
        #: Keys :meth:`store` has seen; a key is admitted on its second.
        self._sighted: set[Hashable] = set()
        self.stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(
        self,
        definition: "MacroDefinition",
        invocation: "nodes.MacroInvocation",
    ) -> Hashable | None:
        """The cache key for this invocation, or ``None`` when an
        actual parameter has no structural key (unhashable payload)."""
        try:
            arg_key = structural_key(invocation.args)
        except Unhashable:
            return None
        return (definition.name, definition.generation, arg_key)

    def lookup(self, key: Hashable) -> bytes | None:
        return self._entries.get(key)

    def cost(self, key: Hashable) -> ReplayCost:
        return self._costs.get(key, ReplayCost())

    def store(
        self,
        key: Hashable,
        result: Node | list[Node],
        cost: ReplayCost = ReplayCost(),
    ) -> None:
        """Admit ``result`` under ``key`` on its second sighting; the
        first only records the key."""
        if key not in self._sighted:
            self._sighted.add(key)
            return
        buffer = io.BytesIO()
        buffer.write(SNAPSHOT_HEADER)
        try:
            _StorePickler(
                buffer, protocol=pickle.HIGHEST_PROTOCOL
            ).dump(_snapshot(result, {}))
        except (pickle.PicklingError, TypeError, AttributeError):
            # Result embeds something unpicklable (a closure, a live
            # definition reference): leave the invocation uncached.
            return
        self._entries[key] = buffer.getvalue()
        self._costs[key] = cost

    def replay(
        self,
        key: Hashable,
        cached: bytes,
        loc: SourceLocation,
        fresh_mark: Callable[[], int],
    ) -> Node | list[Node] | None:
        """Replay a stored snapshot, or ``None`` when it cannot be
        trusted (wrong version header, truncated or corrupt blob).

        A failed replay evicts the entry and counts as a
        ``cache_replay_failure`` in :class:`PipelineStats`; the caller
        falls back to re-running the meta-program, so corruption of
        memo state can never surface as a raw unpickling exception.
        """
        payload = unframe_snapshot(cached)
        if payload is not None:
            try:
                result = replay_result(payload, loc, fresh_mark)
                # Shape check: a corrupt blob can unpickle "cleanly"
                # into something that is not an expansion result at
                # all, which would blow up far away in the printer.
                if isinstance(result, Node) or (
                    isinstance(result, list)
                    and all(isinstance(item, Node) for item in result)
                ):
                    return result
            except Exception:
                # pickle raises a menagerie on corrupt input
                # (UnpicklingError, EOFError, ValueError, TypeError,
                # AttributeError, ...); all of them mean the same
                # thing here: the snapshot is unusable.
                pass
        self._entries.pop(key, None)
        self._costs.pop(key, None)
        if self.stats is not None:
            self.stats.cache_replay_failures += 1
        return None

    def clear(self) -> None:
        """Drop every entry and sighting (meta-function redefinition,
        tests)."""
        self._entries.clear()
        self._costs.clear()
        self._sighted.clear()


def replay_result(
    cached: bytes,
    loc: SourceLocation,
    fresh_mark: Callable[[], int],
) -> Node | list[Node]:
    """A fresh instance of a cached expansion, located at ``loc``,
    with every distinct stored mark consistently replaced by a fresh
    one drawn from ``fresh_mark``."""
    return _ReplayUnpickler(cached, loc, fresh_mark).load()
