"""The macro expansion engine.

Expanding an invocation = running its macro's body (a C meta-program)
on the parsed actual parameters, then one pass (:func:`rewrite`) over
the produced AST that stamps provenance, expands the macro invocations
embedded in it (templates may invoke previously defined macros — the
paper's improved ``Painting`` macro expands into an ``unwind_protect``
invocation) and counts its nodes.

Each expansion gets a fresh integer *mark*; template-origin nodes are
stamped with it so the optional hygienic renamer
(:mod:`repro.macros.hygiene`) can tell macro-introduced binders apart
from user code.
"""

from __future__ import annotations

from typing import Any

from repro.cast import nodes, stmts
from repro.cast.base import _CHILD_FIELDS, Node, child_fields, copy_node
from repro.diagnostics import ExpansionBudget
from repro.errors import ExpansionError, Ms2Error, SourceLocation
from repro.macros.cache import ExpansionCache, ReplayCost
from repro.macros.definition import MacroDefinition, MacroTable
from repro.meta.frames import NULL
from repro.meta.interp import Interpreter
from repro.provenance import (
    ExpandedLocation,
    ExpansionSite,
    expansion_chain,
    provenance_of,
    replay_location,
)

#: Guard against macros that expand into themselves forever.
MAX_EXPANSION_DEPTH = 200


class Expander:
    """Drives macro expansion over parsed ASTs.

    When ``cache`` is supplied, invocations of macros certified pure
    by :func:`repro.analysis.analyze_macro_purity` are memoized: from
    the third invocation with structurally equal actuals on, the stored
    result replays (a fresh copy with the replay site's location and
    fresh marks) instead of re-running the meta-program.  A replay
    charges the budget and the depth limit with what the fresh
    expansion did; when that would overrun one, the invocation is
    re-expanded so the error is the one an uncached run raises.
    """

    def __init__(
        self,
        table: MacroTable,
        interpreter: Interpreter | None = None,
        hygienic: bool = False,
        cache: ExpansionCache | None = None,
        stats: Any = None,
        tracer: Any = None,
        budget: ExpansionBudget | None = None,
        compiled_bodies: bool = True,
    ) -> None:
        self.table = table
        self.interpreter = interpreter or Interpreter()
        self.hygienic = hygienic
        self.cache = cache
        self.stats = stats
        #: Run macro bodies through :mod:`repro.macros.codegen` when
        #: possible (semantics-neutral; per-macro interpreter fallback).
        self.compiled_bodies = compiled_bodies
        #: Optional :class:`repro.diagnostics.ExpansionBudget`.
        self.budget = budget
        #: Optional :class:`repro.trace.Tracer` (expansion spans).
        self.tracer = tracer
        self._mark_counter = 0
        self._depth = 0
        #: Deepest ``_depth`` reached in the current top frame,
        #: replayed heights included.
        self._peak = 0
        #: Statistics: how many invocations were expanded.
        self.expansion_count = 0
        #: AST nodes in the result ``expand_invocation`` last returned.
        self.result_size = 0

    # ------------------------------------------------------------------

    def _fresh_mark(self) -> int:
        self._mark_counter += 1
        return self._mark_counter

    def expand_invocation(
        self, invocation: nodes.MacroInvocation
    ) -> Node | list[Node]:
        """Run one invocation; returns the replacement AST(s)."""
        # By name first: an invocation built by a body compiled in
        # another context carries that context's definition.
        definition: MacroDefinition | None = (
            self.table.lookup(invocation.name) or invocation.definition
        )
        if definition is None:
            raise ExpansionError(
                f"invocation of unknown macro {invocation.name!r}",
                invocation.loc,
            )

        # The expansion backtrace for everything this invocation
        # produces: this site, then the frames already riding on the
        # invocation's location (present when the invocation node was
        # itself macro-generated).
        chain = expansion_chain(definition.name, invocation.loc)

        tracer = self.tracer
        span = tracer.begin(definition, invocation) if tracer else None
        try:
            result, cache_status = self._expand_uncached_or_replay(
                definition, invocation, chain
            )
        except Ms2Error as exc:
            if span is not None:
                tracer.fail(span, exc)
            raise self._with_provenance(exc, chain) from None
        if span is not None:
            tracer.end(span, self.result_size, cache_status)
        return result

    def _expand_uncached_or_replay(
        self,
        definition: MacroDefinition,
        invocation: nodes.MacroInvocation,
        chain: tuple[ExpansionSite, ...],
    ) -> tuple[Node | list[Node], str]:
        budget = self.budget
        if budget is not None:
            budget.charge_expansion(invocation.loc)
        cache_status = "off"
        key = None
        if self.cache is not None:
            purity = definition.purity
            if purity is not None and purity.cacheable:
                key = self.cache.key_for(definition, invocation)
            if key is None:
                cache_status = "uncacheable"
                if self.stats is not None:
                    self.stats.cache_uncacheable += 1
            else:
                entry = self.cache.lookup(key)
                if entry is not None and self._charge_replay(entry[1]):
                    stored, cost = entry
                    # Stamped with the *replay* site's backtrace.
                    replayed = self.cache.replay(
                        stored,
                        replay_location(invocation.loc, chain),
                        self._fresh_mark,
                    )
                    self.result_size = cost.size
                    self.expansion_count += 1
                    if self.stats is not None:
                        self.stats.cache_hits += 1
                        self.stats.expansions += 1
                    return replayed, "hit"
                cache_status = "miss"
                if self.stats is not None:
                    self.stats.cache_misses += 1

        # Check *before* incrementing, so every frame that increments
        # also runs the matching ``finally`` decrement.
        if self._depth >= MAX_EXPANSION_DEPTH:
            raise ExpansionError(
                f"macro expansion exceeded depth {MAX_EXPANSION_DEPTH} "
                f"(while expanding {invocation.name!r}); "
                "self-recursive macro?",
                invocation.loc,
            )
        self._depth += 1
        depth, outer_peak = self._depth, self._peak
        self._peak = depth
        used = self._budget_used()
        try:
            mark = self._fresh_mark()
            bindings = {
                arg.name: (NULL if arg.value is None else arg.value)
                for arg in invocation.args
            }

            compiled = None
            if self.compiled_bodies:
                from repro.macros.codegen import get_compiled_body

                compiled = get_compiled_body(definition, self.stats)
                # Defensive: an argument set that does not match the
                # pattern parameters takes the interpreter path.
                if compiled is not None and compiled.params != bindings.keys():
                    compiled = None

            saved_mark = self.interpreter.current_mark
            self.interpreter.current_mark = mark
            try:
                if compiled is not None:
                    result = compiled.call(self.interpreter, bindings)
                else:
                    result = self.interpreter.call_macro(
                        definition, bindings
                    )
            finally:
                self.interpreter.current_mark = saved_mark

            result = self._check_result(definition, result, invocation)
            # Hygiene renames after every nested expansion, so its
            # gensyms follow theirs.
            result, size = rewrite(result, chain, mark, self)
            if self.hygienic:
                from repro.macros.hygiene import make_hygienic

                result = make_hygienic(
                    result, mark, self.interpreter, stats=self.stats
                )
            self.expansion_count += 1
            if self.stats is not None:
                self.stats.expansions += 1
            if budget is not None:
                budget.charge_output(size, invocation.loc)
            if key is not None:
                expansions, output_nodes = self._budget_used()
                cost = ReplayCost(
                    expansions - used[0],
                    output_nodes - used[1],
                    self._peak - depth + 1,
                    size,
                )
                self.cache.store(key, result, cost)
            self.result_size = size
            return result, cache_status
        finally:
            self._depth -= 1
            self._peak = max(outer_peak, self._peak)

    def _budget_used(self) -> tuple[int, int]:
        budget = self.budget
        if budget is None:
            return 0, 0
        return budget.expansions_used, budget.output_nodes_used

    def _charge_replay(self, cost: ReplayCost) -> bool:
        """Charge a cache hit with its fresh expansion's work; False,
        charging nothing, when that work would pass the depth limit or
        a budget limit."""
        if self._depth + cost.height > MAX_EXPANSION_DEPTH:
            return False
        if self.budget is not None and not self.budget.charge_replay(
            cost.expansions, cost.output_nodes
        ):
            return False
        self._peak = max(self._peak, self._depth + cost.height)
        return True

    @staticmethod
    def _with_provenance(
        exc: Ms2Error, chain: tuple[ExpansionSite, ...]
    ) -> Ms2Error:
        """Attach the expansion backtrace to an error raised during
        this expansion, unless an inner expansion already did."""
        if provenance_of(exc.location):
            return exc
        loc = exc.location
        if loc is None:
            from repro.errors import SYNTHETIC

            loc = SYNTHETIC
        stamped = replay_location(loc, chain)
        try:
            return type(exc)(exc.message, stamped)
        except TypeError:
            return exc

    @staticmethod
    def _check_result(
        definition: MacroDefinition,
        result: Any,
        invocation: nodes.MacroInvocation,
    ) -> Node | list[Node]:
        name, spec = definition.name, definition.ret_spec
        if definition.returns_list and not isinstance(result, list):
            message = (
                f"is declared to return {spec}[] but returned a single AST"
            )
        elif not definition.returns_list and isinstance(result, list):
            message = (
                f"is declared to return a single {spec} but returned a list"
            )
        elif not isinstance(result, (list, Node)):
            message = f"returned a {type(result).__name__}, not an AST"
        else:
            return result
        raise ExpansionError(f"macro {name!r} {message}", invocation.loc)

    def expand_tree(self, tree: Node | list) -> Any:
        """Expand every :class:`MacroInvocation` in ``tree``; results
        of the expansions are final, not walked again."""
        return rewrite(tree, expander=self)[0]


def restamp_tree(
    result: Any, chain: tuple[ExpansionSite, ...], mark: int | None
) -> Any:
    """``result`` with ``chain`` stamped on its macro-origin nodes: the
    nodes carrying ``mark`` (template-built) or a synthetic location
    (built by meta builtins such as ``gensym``).  Nodes spliced from
    the actuals keep their user locations; nodes with an
    :class:`ExpandedLocation` (inner results) keep their longer chain."""
    return rewrite(result, chain, mark)[0]


def rewrite(
    tree: Any,
    chain: tuple[ExpansionSite, ...] | None = None,
    mark: int | None = None,
    expander: Expander | None = None,
    renamer: Any = None,
) -> tuple[Any, int]:
    """One copy-on-write pass over ``tree``, in pre-order by per-class
    field plans: the new tree and its node count.  With ``chain`` it
    stamps as :func:`restamp_tree`; with ``expander`` it stamps each
    invocation's subtree, then expands it (the result is final, counted
    as ``expander.result_size``); ``renamer`` (hygiene) may replace each
    node carrying its mark on entry.  A node is rebuilt only when a
    child changed, and never mutated but for the ``loc`` of nodes
    carrying ``mark``, which only this expansion built.  (One call per
    tree level measured twice as fast as an explicit stack on 3.11.)
    """
    plans = _CHILD_FIELDS
    invocation_cls = nodes.MacroInvocation if expander is not None else None
    # Without a renamer, a mark no node carries.
    rename_mark = renamer.mark if renamer is not None else object()
    memo: dict[SourceLocation, ExpandedLocation] = {}
    size = 0

    def visit(node: Node) -> Node | list[Node]:
        nonlocal size
        if node.__class__ is invocation_cls:
            if chain is not None:
                # Stamped first, so its own chain extends this one.
                node = restamp_tree(node, chain, mark)
            result = expander.expand_invocation(node)
            size += expander.result_size
            return result
        size += 1
        copied = scoped = False
        if chain is not None:
            loc = node.loc
            if loc.__class__ is not ExpandedLocation and (
                node.mark == mark or loc.filename == "<synthetic>"
            ):
                stamped = memo.get(loc)
                if stamped is None:
                    stamped = memo[loc] = ExpandedLocation(
                        loc.line, loc.column, loc.offset, loc.filename, chain
                    )
                if node.mark != mark:
                    node = copy_node(node)
                    copied = True
                node.loc = stamped
        if node.mark == rename_mark:
            node, copied, scoped = renamer.enter(node, copied)
        cls = node.__class__
        names = plans.get(cls)
        if names is None:
            names = child_fields(cls)
        new = node if copied else None
        for name in names:
            value = getattr(node, name)
            if isinstance(value, Node):
                result = visit(value)
                if result is not value:
                    if isinstance(result, list):
                        result = _wrap_list(node, name, result)
                    if new is None:
                        new = copy_node(node)
                    setattr(new, name, result)
            elif isinstance(value, list):
                items = None
                for index, item in enumerate(value):
                    if isinstance(item, Node):
                        result = visit(item)
                        if result is not item:
                            if items is None:
                                items = value[:index]
                            if isinstance(result, list):
                                items.extend(result)
                            else:
                                items.append(result)
                            continue
                    if items is not None:
                        items.append(item)
                if items is not None:
                    if new is None:
                        new = copy_node(node)
                    setattr(new, name, items)
        if scoped:
            renamer.leave()
        return node if new is None else new

    if not isinstance(tree, list):
        return (visit(tree) if isinstance(tree, Node) else tree), size
    out: list[Any] = []
    for item in tree:
        item = visit(item) if isinstance(item, Node) else item
        if isinstance(item, list):
            out.extend(item)
        else:
            out.append(item)
    return out, size


def _wrap_list(parent: Node, field: str, items: list[Any]) -> Node:
    from repro.macros.template import _STMT_CLASSES

    if all(isinstance(v, _STMT_CLASSES) for v in items):
        return stmts.CompoundStmt([], items, loc=parent.loc)
    raise ExpansionError(
        f"a list-returning macro cannot stand in the {field!r} "
        f"position of {type(parent).__name__}",
        parent.loc,
    )
