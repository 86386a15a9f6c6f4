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

Entries are trees.  :meth:`ExpansionCache.store` keeps a private
copy of the result, so nothing the caller later does to its own result
reaches the entry; :meth:`ExpansionCache.replay` returns a fresh copy
of that copy with every node located at the replaying invocation and
each distinct stored mark replaced by one fresh mark from the
expander's counter.  Both are one walk (:func:`_copy_tree`).  Nothing
is serialized: an entry never leaves the process, so it needs no
header, no integrity check and no failure path.  The batch driver's
snapshot files, which are input from outside the process, keep all of
theirs (:mod:`repro.driver.diskcache`).

Entries are admitted on the *second* sighting of their key.  Most
fresh-context runs expand each distinct invocation once, and copying
a result nobody replays is pure cost, so the first fresh expansion
under a key only records the key; the second stores the copy; the
third and later invocations replay it.  :meth:`ExpansionCache.clear`
forgets sightings along with entries.

Each entry also records its :class:`ReplayCost` — the nested
expansions, budgeted output nodes and nesting height of the fresh
expansion — which the expander charges before it replays a hit, so
expansion budgets and the depth limit trip exactly as they would with
the cache off.

Whether a macro is safe to cache at all is decided once, at
definition time, by :func:`repro.analysis.analyze_macro_purity` —
macros that touch ``metadcl`` state, call ``gensym``-like or semantic
builtins, or call impure meta-functions are never cached, which keeps
the paper's non-local-transformation examples (the window-procedure
accumulator) working bit-for-bit with the cache enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, NamedTuple

from repro.cast.base import Node, _init_field_names
from repro.cast.struct_hash import Unhashable, structural_key
from repro.errors import SourceLocation

if TYPE_CHECKING:
    from repro.cast import nodes
    from repro.macros.definition import MacroDefinition

__all__ = ["ExpansionCache", "ReplayCost"]

#: Per-class copy plan: every field name except ``loc`` and ``mark``.
_COPY_PLANS: dict[type, tuple[str, ...]] = {}


def _copy_tree(
    tree: Node | list[Node],
    loc: SourceLocation | None = None,
    fresh_mark: Callable[[], int] | None = None,
) -> Node | list[Node]:
    """A copy of ``tree`` that shares no node or list with it.

    With ``loc`` every node is located there, else each keeps its
    own; with ``fresh_mark`` each distinct mark is replaced by one
    mark drawn from it, else marks are kept.  Other field values
    (strings, AST types) are shared, as :func:`repro.cast.base.clone`
    shares them.
    """
    plans = _COPY_PLANS
    marks: dict[int, int] = {}

    def copy(value: Any) -> Any:
        if isinstance(value, list):
            return [copy(item) for item in value]
        if not isinstance(value, Node):
            return value
        cls = value.__class__
        names = plans.get(cls)
        if names is None:
            names = plans[cls] = tuple(
                name
                for name in _init_field_names(value)
                if name not in ("loc", "mark")
            )
        new = cls.__new__(cls)
        for name in names:
            field_value = getattr(value, name)
            if isinstance(field_value, (Node, list)):
                field_value = copy(field_value)
            setattr(new, name, field_value)
        new.loc = value.loc if loc is None else loc
        mark = value.mark
        if mark is not None and fresh_mark is not None:
            fresh = marks.get(mark)
            if fresh is None:
                fresh = marks[mark] = fresh_mark()
            mark = fresh
        new.mark = mark
        return new

    return copy(tree)


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

    def __init__(self) -> None:
        #: key -> (private copy of the result, its fresh expansion's cost)
        self._entries: dict[
            Hashable, tuple[Node | list[Node], ReplayCost]
        ] = {}
        #: Keys :meth:`store` has seen; a key is admitted on its second.
        self._sighted: set[Hashable] = set()

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

    def lookup(
        self, key: Hashable
    ) -> tuple[Node | list[Node], ReplayCost] | None:
        """The stored tree and its :class:`ReplayCost`, if any."""
        return self._entries.get(key)

    def store(
        self,
        key: Hashable,
        result: Node | list[Node],
        cost: ReplayCost = ReplayCost(),
    ) -> None:
        """Admit a private copy of ``result`` under ``key`` on its
        second sighting; the first only records the key."""
        if key not in self._sighted:
            self._sighted.add(key)
            return
        self._entries[key] = (_copy_tree(result), cost)

    def replay(
        self,
        stored: Node | list[Node],
        loc: SourceLocation,
        fresh_mark: Callable[[], int],
    ) -> Node | list[Node]:
        """A fresh copy of a stored tree, every node located at
        ``loc`` and each distinct stored mark consistently replaced by
        a fresh one drawn from ``fresh_mark``."""
        return _copy_tree(stored, loc, fresh_mark)

    def clear(self) -> None:
        """Drop every entry and sighting (meta-function redefinition,
        tests)."""
        self._entries.clear()
        self._sighted.clear()
