"""Template instantiation: evaluating backquote expressions.

"The AST denoted by a code template must be uniquely determined by
information available at macro definition time" — so instantiation is
purely structural: copy the template tree, replacing each placeholder
node with the (evaluated) meta-value it stands for, splicing lists,
and adapting values to their syntactic position (an ``id`` standing in
a declarator position becomes a declarator; identifiers spliced into
an enumerator list become enumerators; the concrete separator tokens
the paper's section 2 discusses simply never exist at the AST level).

Nodes originating from the template spine are stamped with the current
expansion's hygiene mark; values substituted for placeholders keep
their own marks (user code stays unmarked), which is what the optional
hygienic renamer keys on.  Substituted values are shared, not copied:
no later step mutates a node it did not build (see
:func:`repro.macros.expander.rewrite`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.cast import ctypes, decls, nodes, stmts
from repro.cast.base import Node
from repro.cast.printer import CPrinter
from repro.errors import ExpansionError
from repro.meta.frames import NULL, NullValue

#: Evaluation callback: meta-expression AST -> runtime meta-value.
EvalFn = Callable[[Node], Any]

_PLACEHOLDER_CLASSES = (
    nodes.PlaceholderExpr,
    stmts.PlaceholderStmt,
    decls.PlaceholderDecl,
    decls.PlaceholderDeclarator,
    decls.PlaceholderInitDeclarator,
    ctypes.PlaceholderTypeSpec,
)


def instantiate(template: Any, evalfn: EvalFn, mark: int | None = None) -> Any:
    """Instantiate a template (node, list, or tuple of nodes)."""
    return _Instantiator(evalfn, mark).run(template)


def fill_placeholder(ph: Node, value: Any) -> Any:
    """Adapt an evaluated placeholder value to its syntactic position.

    Shared by the interpretive :class:`_Instantiator` and the compiled
    templates of :mod:`repro.macros.codegen`, so both paths apply the
    exact same adaptation (and raise the exact same errors).
    """
    if isinstance(value, NullValue):
        raise ExpansionError(
            "placeholder evaluated to NULL (absent optional "
            "parameter?) inside a template",
            ph.loc,
        )
    if isinstance(ph, stmts.PlaceholderStmt):
        if isinstance(value, list):
            return [_as_statement(v, ph) for v in value]
        return _as_statement(value, ph)
    if isinstance(ph, decls.PlaceholderDeclarator):
        return _as_declarator(_expect_node(value, ph), ph)
    if isinstance(ph, decls.PlaceholderInitDeclarator):
        if isinstance(value, list):
            return [_as_init_declarator(v, ph) for v in value]
        return _as_init_declarator(value, ph)
    if isinstance(ph, ctypes.PlaceholderTypeSpec):
        return _expect_node(value, ph)
    # Expression and declaration placeholders: a list splices into the
    # enclosing list (arguments, enumerators, declarations).
    if isinstance(value, list):
        return [_expect_node(v, ph) for v in value]
    return _expect_node(value, ph)


def adapt_list_to_scalar(
    items: list[Any],
    type_name: str,
    field: str,
    loc: Any,
    mark: int | None,
) -> Node:
    """A list value landed in a single-node position: wrap an
    all-statement list in a compound, reject anything else.  Shared by
    the instantiator and compiled templates."""
    if all(_is_statement_like(v) for v in items):
        return stmts.CompoundStmt([], items, mark=mark)
    raise ExpansionError(
        f"a list placeholder cannot stand in the {field!r} position "
        f"of {type_name}",
        loc,
    )


class _Instantiator:
    def __init__(self, evalfn: EvalFn, mark: int | None) -> None:
        self.evalfn = evalfn
        self.mark = mark

    def run(self, template: Any) -> Any:
        if template is None or isinstance(template, NullValue):
            return template
        if isinstance(template, list):
            out: list[Any] = []
            for item in template:
                result = self.run(item)
                if isinstance(result, list):
                    out.extend(result)
                else:
                    out.append(result)
            return out
        if isinstance(template, _PLACEHOLDER_CLASSES):
            return self._fill(template)
        if isinstance(template, Node):
            return self._rebuild(template)
        return template

    # ------------------------------------------------------------------

    def _rebuild(self, node: Node) -> Node:
        kwargs: dict[str, Any] = {}
        for f in dataclasses.fields(node):
            if not f.init:
                continue
            value = getattr(node, f.name)
            if f.name == "mark":
                kwargs[f.name] = self.mark
                continue
            if f.name == "loc":
                kwargs[f.name] = value
                continue
            if isinstance(value, Node):
                result = self.run(value)
                if isinstance(result, list):
                    result = self._adapt_list_to_scalar(node, f.name, result)
                kwargs[f.name] = result
            elif isinstance(value, list):
                out: list[Any] = []
                for item in value:
                    if isinstance(item, Node):
                        result = self.run(item)
                        if isinstance(result, list):
                            out.extend(result)
                        else:
                            out.append(result)
                    else:
                        out.append(item)
                kwargs[f.name] = out
            else:
                kwargs[f.name] = value
        rebuilt = type(node)(**kwargs)
        return _normalize(rebuilt)

    def _adapt_list_to_scalar(
        self, parent: Node, field: str, items: list[Any]
    ) -> Node:
        return adapt_list_to_scalar(
            items, type(parent).__name__, field, parent.loc, self.mark
        )

    # ------------------------------------------------------------------

    def _fill(self, ph: Node) -> Any:
        value = self.evalfn(ph.meta_expr)  # type: ignore[attr-defined]
        return fill_placeholder(ph, value)


# ---------------------------------------------------------------------------
# Value adaptation
# ---------------------------------------------------------------------------


def _expect_node(value: Any, ph: Node) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, str):
        return nodes.StringLit(value)
    if isinstance(value, int):
        return nodes.IntLit(value)
    if isinstance(value, float):
        return nodes.FloatLit(value)
    raise ExpansionError(
        f"placeholder produced a non-AST value "
        f"({type(value).__name__}) inside a template",
        ph.loc,
    )


_STMT_CLASSES = (
    stmts.ExprStmt, stmts.CompoundStmt, stmts.IfStmt, stmts.WhileStmt,
    stmts.DoWhileStmt, stmts.ForStmt, stmts.SwitchStmt, stmts.CaseStmt,
    stmts.DefaultStmt, stmts.BreakStmt, stmts.ContinueStmt,
    stmts.ReturnStmt, stmts.GotoStmt, stmts.LabeledStmt, stmts.NullStmt,
    stmts.PlaceholderStmt,
)


def _is_statement_like(value: Any) -> bool:
    return isinstance(value, _STMT_CLASSES) or isinstance(
        value, (nodes.MacroInvocation, decls.Declaration)
    )


def _as_statement(value: Any, ph: Node) -> Node:
    node = _expect_node(value, ph)
    if isinstance(node, _STMT_CLASSES) or isinstance(
        node, nodes.MacroInvocation
    ):
        return node
    # An expression standing in a statement position becomes an
    # expression statement.
    return stmts.ExprStmt(node, loc=node.loc, mark=node.mark)


def _as_declarator(node: Node, ph: Node) -> Node:
    if isinstance(node, nodes.Identifier):
        return decls.NameDeclarator(node.name, loc=node.loc, mark=node.mark)
    return node


def _as_init_declarator(value: Any, ph: Node) -> Node:
    node = _expect_node(value, ph)
    if isinstance(node, decls.InitDeclarator):
        return node
    if isinstance(node, nodes.Identifier):
        return decls.InitDeclarator(
            decls.NameDeclarator(node.name, loc=node.loc, mark=node.mark),
            None,
            loc=node.loc,
            mark=node.mark,
        )
    if isinstance(
        node,
        (decls.NameDeclarator, decls.PointerDeclarator,
         decls.ArrayDeclarator, decls.FuncDeclarator,
         decls.PlaceholderDeclarator),
    ):
        return decls.InitDeclarator(node, None, loc=node.loc, mark=node.mark)
    raise ExpansionError(
        "placeholder value cannot stand in an init-declarator position",
        ph.loc,
    )


def _normalize(node: Node) -> Node:
    """Position-specific fixups after children were spliced in."""
    if isinstance(node, ctypes.EnumType):
        if isinstance(node.tag, nodes.Identifier):
            node.tag = node.tag.name
        if node.enumerators is not None:
            node.enumerators = [
                ctypes.Enumerator(e.name, None, loc=e.loc, mark=e.mark)
                if isinstance(e, nodes.Identifier)
                else e
                for e in node.enumerators
            ]
    elif isinstance(node, ctypes.StructOrUnionType):
        if isinstance(node.tag, nodes.Identifier):
            node.tag = node.tag.name
    elif isinstance(node, nodes.Member):
        if isinstance(node.name, nodes.Identifier):
            node.name = node.name.name
    elif isinstance(node, decls.Declaration):
        node.init_declarators = [
            _as_init_declarator(item, node)
            if not isinstance(
                item, (decls.InitDeclarator, decls.PlaceholderInitDeclarator)
            )
            else item
            for item in node.init_declarators
        ]
    elif isinstance(node, stmts.CompoundStmt):
        node.stmts = [
            _as_statement(s, node) for s in node.stmts
        ]
    return node
