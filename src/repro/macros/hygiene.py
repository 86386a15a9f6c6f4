"""Hygiene support (paper section 5, future work).

The paper's examples avoid variable capture manually with ``gensym``;
its section 5 notes that hygienic macro systems do this automatically
and that the authors "are considering methods for making our system be
hygienic".  This module implements that extension: every expansion
stamps template-origin nodes with a mark, and — when the expander runs
in hygienic mode — local variables *declared by the template itself*
are automatically renamed to fresh identifiers, while user code
substituted through placeholders (which carries a different mark, or
none) is left untouched.

Renaming is a second run of the expander's copy-on-write pass
(:func:`repro.macros.expander.rewrite`), after every nested expansion
so its gensyms follow theirs; a rename copies the node and its path,
so a value spliced twice is renamed apart.  This mark-based
approximation of Kohlbecker-style hygiene makes the paper's
``dynamic_bind`` and ``catch`` examples capture-safe.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.cast import decls, nodes, stmts
from repro.cast.base import Node
from repro.meta.interp import Interpreter

_WRAPPING_DECLARATORS = (
    decls.PointerDeclarator, decls.ArrayDeclarator, decls.FuncDeclarator
)


def make_hygienic(
    tree: Node | list, mark: int, interpreter: Interpreter, stats: Any = None
) -> Any:
    """``tree`` with the locals its templates declare renamed: binders
    whose declaration carries ``mark`` (this expansion's templates), and
    references that carry it too — a placeholder substitution with the
    same spelling keeps its meaning.  ``stats`` counts each rename."""
    from repro.macros.expander import rewrite

    return rewrite(tree, renamer=_Renamer(mark, interpreter, stats))[0]


class _Renamer:
    """The pass's hooks.  Entering a compound that carries the mark
    renames its own declarations' binders (pre-order) and opens a scope
    over its subtree; a marked reference takes the rename of the
    innermost open scope that has its name."""

    def __init__(
        self, mark: int, interpreter: Interpreter, stats: Any = None
    ) -> None:
        self.mark = mark
        self.interpreter = interpreter
        self.stats = stats
        #: Open scopes, innermost last, each merged over the ones
        #: around it (inner renames win).
        self.scopes: list[dict[str, str]] = []

    def enter(self, node: Node, copied: bool) -> tuple[Node, bool, bool]:
        """``(node, copied, opened a scope)`` for a marked node."""
        if isinstance(node, nodes.Identifier) and self.scopes:
            fresh = self.scopes[-1].get(node.name)
            if fresh is not None:
                return replace(node, name=fresh), True, False
        elif isinstance(node, stmts.CompoundStmt):
            renames: dict[str, str] = {}
            new_decls = [self._bind(item, renames) for item in node.decls]
            if renames:
                outer = self.scopes[-1] if self.scopes else {}
                self.scopes.append({**outer, **renames})
                return replace(node, decls=new_decls), True, True
        return node, copied, False

    def leave(self) -> None:
        self.scopes.pop()

    def _bind(self, declaration: Node, renames: dict[str, str]) -> Node:
        """``declaration`` with the binders it declares renamed."""
        if not (
            isinstance(declaration, decls.Declaration)
            and declaration.mark == self.mark
        ):
            return declaration
        items = [
            replace(item, declarator=self._binder(item.declarator, renames))
            if isinstance(item, decls.InitDeclarator)
            else item
            for item in declaration.init_declarators
        ]
        return replace(declaration, init_declarators=items)

    def _binder(self, declarator: Node, renames: dict[str, str]) -> Node:
        """``declarator`` with the name it binds renamed."""
        if isinstance(declarator, _WRAPPING_DECLARATORS):
            return replace(
                declarator, inner=self._binder(declarator.inner, renames)
            )
        if not isinstance(declarator, decls.NameDeclarator):
            return declarator
        old = declarator.name
        if old.startswith("__"):
            return declarator  # already a gensym
        if old not in renames:
            renames[old] = self.interpreter.gensym(old).name
            if self.stats is not None:
                self.stats.hygiene_renames += 1
        return replace(declarator, name=renames[old])
