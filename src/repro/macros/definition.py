"""Macro definitions and the macro (keyword) table.

A :class:`MacroDefinition` is the compiled form of a ``syntax``
declaration: the pattern (already validated for one-token lookahead),
the type-checked body, the declared return AST type, and — lazily —
the compiled invocation-parsing routine of
:mod:`repro.macros.compiled`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.asttypes.types import AstType, list_of, prim
from repro.cast import decls
from repro.errors import MacroSyntaxError
from repro.macros.pattern import Pattern

if TYPE_CHECKING:
    from repro.cast import nodes
    from repro.cast.printer import CPrinter


class MacroDefinition:
    """One registered syntax macro."""

    def __init__(
        self,
        name: str,
        ret_spec: str,
        returns_list: bool,
        pattern: Pattern,
        body: Any,
    ) -> None:
        self.name = name
        self.ret_spec = ret_spec
        self.returns_list = returns_list
        self.pattern = pattern
        self.body = body
        #: Set by :func:`repro.macros.compiled.compile_pattern` on demand.
        self.compiled_matcher = None
        #: Lazy result of :func:`repro.macros.codegen.get_compiled_body`:
        #: ``None`` = not attempted, ``False`` = fell back to the
        #: interpreter, else the :class:`~repro.macros.codegen.CompiledBody`.
        self.compiled_body = None
        #: Process-wide compiled-body memo key, set by the engine only
        #: for macros defined while loading a package; ``None`` keeps
        #: the compiled body private to this definition.
        self.body_key = None
        #: Monotone definition timestamp, assigned by
        #: :meth:`MacroTable.define`; part of every expansion-cache key.
        self.generation = 0
        #: :class:`repro.analysis.PurityReport` once analyzed, else
        #: ``None`` (= not yet analyzed; treated as uncacheable).
        self.purity = None

    def head_literals(self) -> tuple[str, ...]:
        """The literal tokens the pattern starts with (after the
        keyword) — the path this macro occupies in the dispatch trie."""
        from repro.macros.pattern import TokenElement

        out: list[str] = []
        for element in self.pattern.elements:
            if not isinstance(element, TokenElement):
                break
            out.append(element.text)
        return tuple(out)

    @classmethod
    def from_node(cls, node: decls.MacroDef) -> "MacroDefinition":
        return cls(
            node.name, node.ret_spec, node.returns_list, node.pattern,
            node.body,
        )

    @property
    def return_type(self) -> AstType:
        base = prim(self.ret_spec)
        return list_of(base) if self.returns_list else base

    def render_invocation(
        self, invocation: "nodes.MacroInvocation", printer: "CPrinter"
    ) -> str:
        """Best-effort concrete rendering of an unexpanded invocation."""
        from repro.macros.pattern import ParamElement, TokenElement

        parts: list[str] = [self.name]
        values = {a.name: a.value for a in invocation.args}
        for element in self.pattern.elements:
            if isinstance(element, TokenElement):
                parts.append(element.text)
            elif isinstance(element, ParamElement):
                value = values.get(element.name)
                if value is None:
                    continue
                if isinstance(value, list):
                    parts.append(
                        ", ".join(printer._arg_text(v) for v in value)
                    )
                else:
                    parts.append(printer._arg_text(value))
        return " ".join(parts)

    def __repr__(self) -> str:
        suffix = "[]" if self.returns_list else ""
        return (
            f"<macro {self.ret_spec}{suffix} {self.name} "
            f"{{| {self.pattern} |}}>"
        )


class DispatchNode:
    """One node of the literal-prefix dispatch trie.

    ``accepts`` maps a return position (``"exp"`` / ``"stmt"`` /
    ``"decl"`` / ...) to the definition reachable here; ``children``
    maps the next literal pattern token to a deeper node.  With
    macro keywords being unique the trie is shallow, but it gives the
    parser a single-probe answer to "is this identifier a macro usable
    at this position?" and records the full literal spine for
    diagnostics and future prefix-overloaded dispatch.
    """

    __slots__ = ("accepts", "children")

    def __init__(self) -> None:
        self.accepts: dict[str, MacroDefinition] = {}
        self.children: dict[str, "DispatchNode"] = {}


class MacroTable:
    """The keyword table of defined macros.

    Besides the name -> definition map, the table maintains a
    *first-token dispatch index*: for every macro keyword, a
    literal-prefix trie rooted at the keyword whose root node knows
    which return positions the macro may occupy.  The parser's macro
    lookahead probes :meth:`dispatch` — one dict hit — instead of
    looking the name up and then inspecting candidate definitions.
    """

    def __init__(self) -> None:
        self._macros: dict[str, MacroDefinition] = {}
        #: keyword text -> dispatch trie root.
        self._dispatch: dict[str, DispatchNode] = {}
        #: Bumped on every definition; stamped onto the definition so
        #: expansion-cache keys distinguish definition epochs.
        self.generation = 0

    def define(self, definition: MacroDefinition) -> None:
        if definition.name in self._macros:
            raise MacroSyntaxError(
                f"macro {definition.name!r} is already defined"
            )
        self.generation += 1
        definition.generation = self.generation
        self._macros[definition.name] = definition
        self._index(definition)

    def _index(self, definition: MacroDefinition) -> None:
        root = self._dispatch.setdefault(definition.name, DispatchNode())
        root.accepts[definition.ret_spec] = definition
        node = root
        for literal in definition.head_literals():
            node = node.children.setdefault(literal, DispatchNode())
            node.accepts[definition.ret_spec] = definition

    def lookup(self, name: str) -> MacroDefinition | None:
        return self._macros.get(name)

    def dispatch(self, name: str, position: str) -> MacroDefinition | None:
        """The macro invocable as ``name`` at ``position``, if any —
        a single trie-root probe on the parser's hot lookahead path."""
        root = self._dispatch.get(name)
        if root is None:
            return None
        return root.accepts.get(position)

    def dispatch_root(self, name: str) -> DispatchNode | None:
        """The dispatch trie rooted at keyword ``name`` (diagnostics)."""
        return self._dispatch.get(name)

    def names(self) -> list[str]:
        return sorted(self._macros)

    def defined_names(self) -> list[str]:
        """All macro names in definition order."""
        return list(self._macros)

    def __contains__(self, name: str) -> bool:
        return name in self._macros

    def __len__(self) -> int:
        return len(self._macros)
