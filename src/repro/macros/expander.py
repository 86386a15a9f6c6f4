"""The macro expansion engine.

Expanding an invocation = running its macro's body (a C meta-program)
on the parsed actual parameters, then recursively expanding any macro
invocations embedded in the produced AST (templates may invoke
previously defined macros — the paper's improved ``Painting`` macro
expands into an ``unwind_protect`` invocation).

Each expansion gets a fresh integer *mark*; template-origin nodes are
stamped with it so the optional hygienic renamer
(:mod:`repro.macros.hygiene`) can tell macro-introduced binders apart
from user code.
"""

from __future__ import annotations

from typing import Any

from repro.asttypes.types import ListType
from repro.cast import decls, nodes, stmts
from repro.cast.base import Node, _init_field_names
from repro.diagnostics import ExpansionBudget
from repro.errors import ExpansionError, Ms2Error
from repro.macros.cache import ExpansionCache, ReplayCost
from repro.macros.definition import MacroDefinition, MacroTable
from repro.meta.frames import NULL
from repro.meta.interp import Interpreter
from repro.provenance import (
    ExpansionSite,
    expansion_chain,
    provenance_of,
    replay_location,
    restamp_tree,
)

#: Guard against macros that expand into themselves forever.
MAX_EXPANSION_DEPTH = 200


class Expander:
    """Drives macro expansion over parsed ASTs.

    When ``cache`` is supplied, invocations of macros certified pure
    by :func:`repro.analysis.analyze_macro_purity` are memoized: from
    the third invocation with structurally equal actuals on, the stored
    result replays (deep-copied, fresh locations and marks) instead of
    re-running the meta-program.  A replay charges the budget and the
    depth limit with what the fresh expansion did; when that would
    overrun one, the invocation is re-expanded so the error is the
    one an uncached run raises.
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
            tracer.end(span, result, cache_status)
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
                cached = self.cache.lookup(key)
                if cached is not None:
                    # Replayed nodes are re-stamped with the *replay*
                    # site's backtrace, so a hit at a second call site
                    # reports the second site, not the first.  A
                    # corrupt or stale snapshot replays as None and
                    # falls through to re-expansion.
                    replayed = self.cache.replay(
                        key,
                        cached,
                        replay_location(invocation.loc, chain),
                        self._fresh_mark,
                    )
                    if replayed is not None and self._charge_replay(
                        self.cache.cost(key)
                    ):
                        self.expansion_count += 1
                        if self.stats is not None:
                            self.stats.cache_hits += 1
                            self.stats.expansions += 1
                        return replayed, "hit"
                cache_status = "miss"
                if self.stats is not None:
                    self.stats.cache_misses += 1

        # Check *before* incrementing: the raising frame must not
        # count itself, so that every frame that did increment also
        # runs the matching ``finally`` decrement and the counter
        # returns to its pre-error value once the error is caught.
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
                if (
                    compiled is not None
                    and compiled.params != bindings.keys()
                ):
                    # Defensive: an invocation whose argument set does
                    # not match the pattern parameters (shouldn't
                    # happen) takes the interpreter path.
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
            # Stamp provenance on macro-origin nodes *before* the
            # recursive pass, so nested invocations inherit this
            # chain and extend it with their own frame.
            restamp_tree(result, chain, mark)
            result = self.expand_tree(result)
            if self.hygienic:
                from repro.macros.hygiene import make_hygienic

                result = make_hygienic(
                    result, mark, self.interpreter, stats=self.stats
                )
            self.expansion_count += 1
            if self.stats is not None:
                self.stats.expansions += 1
            if budget is not None:
                budget.charge_output(result, invocation.loc)
            if key is not None:
                expansions, output_nodes = self._budget_used()
                cost = ReplayCost(
                    expansions - used[0],
                    output_nodes - used[1],
                    self._peak - depth + 1,
                )
                self.cache.store(key, result, cost)
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

    def _check_result(
        self,
        definition: MacroDefinition,
        result: Any,
        invocation: nodes.MacroInvocation,
    ) -> Node | list[Node]:
        if definition.returns_list:
            if not isinstance(result, list):
                raise ExpansionError(
                    f"macro {definition.name!r} is declared to return "
                    f"{definition.ret_spec}[] but returned a single AST",
                    invocation.loc,
                )
            return result
        if isinstance(result, list):
            raise ExpansionError(
                f"macro {definition.name!r} is declared to return a "
                f"single {definition.ret_spec} but returned a list",
                invocation.loc,
            )
        if not isinstance(result, Node):
            raise ExpansionError(
                f"macro {definition.name!r} returned a "
                f"{type(result).__name__}, not an AST",
                invocation.loc,
            )
        return result

    # ------------------------------------------------------------------
    # Recursive expansion of invocations embedded in produced ASTs
    # ------------------------------------------------------------------

    def expand_tree(self, tree: Node | list) -> Any:
        """Expand every :class:`MacroInvocation` in ``tree`` (in place
        order, outside-in via re-expansion of produced code)."""
        if isinstance(tree, list):
            out: list[Any] = []
            for item in tree:
                result = self.expand_tree(item)
                if isinstance(result, list):
                    out.extend(result)
                else:
                    out.append(result)
            return out
        if isinstance(tree, nodes.MacroInvocation):
            return self.expand_invocation(tree)
        if not isinstance(tree, Node):
            return tree
        return self._expand_children(tree)

    def _expand_children(self, node: Node) -> Node:
        kwargs: dict[str, Any] = {}
        changed = False
        for name in _init_field_names(node):
            value = getattr(node, name)
            if isinstance(value, Node):
                result = self.expand_tree(value)
                if isinstance(result, list):
                    result = self._wrap_list(node, name, result)
                if result is not value:
                    changed = True
                kwargs[name] = result
            elif isinstance(value, list):
                out: list[Any] = []
                for item in value:
                    if isinstance(item, Node):
                        result = self.expand_tree(item)
                        if isinstance(result, list):
                            out.extend(result)
                            changed = True
                        else:
                            if result is not item:
                                changed = True
                            out.append(result)
                    else:
                        out.append(item)
                kwargs[name] = out
            else:
                kwargs[name] = value
        if not changed:
            return node
        return type(node)(**kwargs)

    def _wrap_list(self, parent: Node, field: str, items: list[Any]) -> Node:
        if all(_is_stmt(v) for v in items):
            return stmts.CompoundStmt([], items, loc=parent.loc)
        raise ExpansionError(
            f"a list-returning macro cannot stand in the {field!r} "
            f"position of {type(parent).__name__}",
            parent.loc,
        )


def _is_stmt(value: Any) -> bool:
    from repro.macros.template import _STMT_CLASSES

    return isinstance(value, _STMT_CLASSES)
