"""Static analyses over macro programs.

Two families live here:

* **Scope analysis over expanded C** — free variables and capture
  detection.  The paper's examples dodge inadvertent capture with
  ``gensym`` and its section 5 discusses automatic hygiene.  Given an
  expansion result whose nodes carry hygiene marks (template-origin
  nodes are marked, user code is not), :func:`detect_captures` reports
  every place where *user* code ends up bound by a
  *template-introduced* declaration — exactly the bugs hygiene
  prevents; :func:`alpha_canonical` prints a tree with its bound names
  canonicalised, so hygienic output can be checked to mean what the
  unhygienic output means.  Also exported: :func:`free_identifiers`
  (names used but not bound in a subtree) and :func:`bound_names`
  (names declared by a subtree).  All three read one scope walk.

* **Purity analysis over meta-code** — :func:`analyze_macro_purity`
  decides, at definition time, whether a macro's expansion is a pure
  function of its parsed actual parameters.  Only pure macros may be
  memoized by the expansion cache (:mod:`repro.macros.cache`); a
  macro is impure when its meta-body reads or writes ``metadcl``
  state, calls a fresh-name builtin (``gensym``), a semantic builtin
  (``type_of`` / ``has_type`` — their answers depend on the C scope
  at the invocation site), a stateful diagnostic (``warning``), or an
  impure meta-function, transitively, or when a template of it
  invokes an impure macro.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cast import decls, nodes, stmts
from repro.cast.base import Node, children, clone
from repro.cast.printer import render_c
from repro.errors import SourceLocation


@dataclass(frozen=True, slots=True)
class Capture:
    """One detected capture: user code's ``name`` is bound by a
    macro-introduced declaration."""

    name: str
    binder_mark: int
    use_loc: SourceLocation

    def __str__(self) -> str:
        return (
            f"{self.use_loc}: user reference to {self.name!r} is "
            f"captured by a macro-introduced declaration "
            f"(expansion #{self.binder_mark})"
        )


def bound_names(node: Node) -> list[str]:
    """Names declared by a declaration (or each declaration in a
    compound's decl-list)."""
    out: list[str] = []
    if isinstance(node, decls.Declaration):
        for item in node.init_declarators:
            if isinstance(item, decls.InitDeclarator):
                name = _declarator_name(item.declarator)
                if name is not None:
                    out.append(name)
    elif isinstance(node, stmts.CompoundStmt):
        for d in node.decls:
            out.extend(bound_names(d))
    return out


def free_identifiers(node: Node) -> set[str]:
    """Identifiers referenced in ``node`` but not bound within it."""
    return {
        ref.name for ref, binder in _ScopeWalk(node).references
        if binder is None
    }


def detect_captures(root: Node) -> list[Capture]:
    """Find user identifiers bound by macro-introduced declarations.

    A capture is an :class:`~repro.cast.nodes.Identifier` with no
    hygiene mark (user-written) whose innermost binder is a
    declaration *with* a mark (macro template output).  Running the
    expander with ``hygienic=True`` renames every local a template
    declares, so only the parameters of a template-declared function
    can still bind user code (``dispatch`` hands them to handlers).
    """
    scan = _ScopeWalk(root)
    return [
        Capture(ref.name, scan.binders[binder][0], ref.loc)
        for ref, binder in scan.references
        if binder is not None
        and scan.binders[binder][0] is not None
        and ref.mark is None
        # gensym output has a synthetic location (offset -1); only
        # genuinely user-written references can be captured.
        and ref.loc.offset >= 0
    ]


def alpha_canonical(root: Node) -> str:
    """``root`` printed with each local and parameter binder, and every
    reference that resolves to it, renamed after the binder's pre-order
    index: trees that differ only in the names of bound variables, as
    hygienic output and the unhygienic output should, print the same."""
    tree = clone(root)
    scan = _ScopeWalk(tree)
    for index, (_, declarator) in enumerate(scan.binders):
        if declarator is not None:
            declarator.name = f"${index}"
    for ref, binder in scan.references:
        if binder is not None and scan.binders[binder][1] is not None:
            ref.name = f"${binder}"
    return render_c(tree)


class _ScopeWalk:
    """The one scope walk over C.  It resolves every identifier
    reference in ``root`` to its innermost binder, a local of an
    enclosing compound or a parameter of the enclosing function, and
    records in pre-order each binder as ``(mark, declarator)`` (the
    declaring node's mark; no declarator for a K&R name) and each
    reference with its binder's index (None when free)."""

    def __init__(self, root: Node) -> None:
        self.binders: list[tuple[int | None, Node | None]] = []
        self.references: list[tuple[nodes.Identifier, int | None]] = []
        self._scan(root, {})

    def _bind(self, scope: dict, name: str, mark, declarator) -> None:
        scope[name] = len(self.binders)
        self.binders.append((mark, declarator))

    def _scan(self, node: Node, scope: dict[str, int]) -> None:
        if isinstance(node, nodes.Identifier):
            self.references.append((node, scope.get(node.name)))
        elif isinstance(node, nodes.Member):
            # Member names are field labels, not variable references.
            self._scan(node.base, scope)
        elif isinstance(node, stmts.CompoundStmt):
            inner = dict(scope)
            for d in node.decls:
                if isinstance(d, decls.Declaration):
                    for item in d.init_declarators:
                        if isinstance(item, decls.InitDeclarator):
                            found = _name_declarator(item.declarator)
                            if found is not None:
                                self._bind(inner, found.name, d.mark, found)
            for d in node.decls:
                if not isinstance(d, decls.Declaration):
                    self._scan(d, inner)
                    continue
                for item in d.init_declarators:
                    if isinstance(item, decls.InitDeclarator) and item.init:
                        self._scan(item.init, inner)
            for s in node.stmts:
                self._scan(s, inner)
        elif isinstance(node, decls.FunctionDef):
            inner = dict(scope)
            for name, declarator in _params(node.declarator):
                self._bind(inner, name, node.mark, declarator)
            self._scan(node.body, inner)
        else:
            for child in children(node):
                self._scan(child, scope)


def undeclared_identifiers(
    unit: Node, externs: frozenset[str] | set[str] = frozenset()
) -> dict[str, set[str]]:
    """Per-function report of identifiers used without a declaration.

    A lightweight post-expansion lint: for each function definition in
    a translation unit, the free identifiers that are neither file-
    scope declarations, enum constants, other functions, nor listed in
    ``externs``.  Macro packages use this in tests to prove their
    generated code is self-contained up to its documented runtime
    support.
    """
    file_scope: set[str] = set(externs)
    functions: list[decls.FunctionDef] = []
    items = getattr(unit, "items", None)
    if items is None:
        raise TypeError("undeclared_identifiers expects a TranslationUnit")
    for item in items:
        if isinstance(item, decls.Declaration):
            file_scope.update(bound_names(item))
            file_scope.update(_enum_constants_of(item))
        elif isinstance(item, decls.FunctionDef):
            name = _declarator_name(item.declarator)
            if name is not None:
                file_scope.add(name)
            functions.append(item)
    report: dict[str, set[str]] = {}
    for fn in functions:
        name = _declarator_name(fn.declarator) or "<anonymous>"
        missing = free_identifiers(fn) - file_scope
        if missing:
            report[name] = missing
    return report


def _enum_constants_of(declaration: decls.Declaration) -> set[str]:
    from repro.cast import ctypes

    ts = declaration.specs.type_spec
    if isinstance(ts, ctypes.EnumType) and ts.enumerators:
        return {
            e.name
            for e in ts.enumerators
            if isinstance(e, ctypes.Enumerator)
        }
    return set()


def _declarator_name(declarator: Node) -> str | None:
    found = _name_declarator(declarator)
    return found.name if found is not None else None


def _name_declarator(declarator: Node) -> decls.NameDeclarator | None:
    current = declarator
    while True:
        if isinstance(current, decls.NameDeclarator):
            return current
        if isinstance(
            current,
            (decls.PointerDeclarator, decls.ArrayDeclarator,
             decls.FuncDeclarator),
        ):
            current = current.inner
            continue
        return None


def _params(declarator: Node) -> list[tuple[str, Node | None]]:
    """``(name, NameDeclarator)`` per parameter of a function
    declarator; a K&R name has no declarator."""
    current = declarator
    while current is not None and not isinstance(
        current, decls.FuncDeclarator
    ):
        current = getattr(current, "inner", None)
    if current is None:
        return []
    params: list[tuple[str, Node | None]] = []
    for p in current.params:
        if isinstance(p, decls.ParamDecl):
            found = _name_declarator(p.declarator)
            if found is not None:
                params.append((found.name, found))
    params.extend((name, None) for name in current.kr_names)
    return params


# ===========================================================================
# Purity analysis of macro meta-bodies (drives the expansion cache)
# ===========================================================================


@dataclass(frozen=True, slots=True)
class PurityReport:
    """Verdict of :func:`analyze_macro_purity`.

    ``cacheable`` is true when every observable effect of the macro is
    a function of its actual parameters; ``reasons`` lists, for the
    impure case, what disqualified it (human-readable, used by tests
    and ``--stats`` diagnostics).
    """

    cacheable: bool
    reasons: tuple[str, ...] = ()


#: Builtins whose results depend on interpreter or invocation-site
#: state: fresh-name generators, the semantic-macro substrate, and the
#: warning accumulator.
IMPURE_BUILTINS = frozenset({"gensym", "type_of", "has_type", "warning"})

#: Placeholder node classes — the only routes from a backquote
#: template back into meta-code.
_PLACEHOLDER_CLASSES = (
    nodes.PlaceholderExpr,
    stmts.PlaceholderStmt,
    decls.PlaceholderDecl,
    decls.PlaceholderDeclarator,
)


def analyze_macro_purity(
    definition, meta_globals, lookup_macro
) -> PurityReport:
    """Decide whether ``definition``'s expansion may be memoized.

    ``meta_globals`` is the interpreter's global
    :class:`~repro.meta.frames.Frame` at definition time: meta-function
    names resolve to closures there (analyzed transitively, memoized,
    cycle-tolerant), every other global binding is ``metadcl`` state.
    ``lookup_macro`` resolves a macro name in the analyzing context's
    table, as the expander does: parsed templates may be shared with
    other contexts, so the definition an invocation node carries can
    belong to one of them.
    """
    scan = _PurityScan(meta_globals, lookup_macro)
    params = {arg.name for arg in _pattern_params(definition.pattern)}
    scan.analyze_compound(definition.body, params)
    reasons = tuple(dict.fromkeys(scan.reasons))  # dedup, keep order
    return PurityReport(cacheable=not reasons, reasons=reasons)


def _pattern_params(pattern):
    # Only top-level pattern elements bind names in the macro's frame;
    # sub-pattern (tuple) components are reached via member selection.
    from repro.macros.pattern import ParamElement

    return [
        element
        for element in pattern.elements
        if isinstance(element, ParamElement)
    ]


class _PurityScan:
    """Walks meta-code, mirroring the interpreter's evaluation rules
    closely enough to classify every name reference."""

    def __init__(self, meta_globals, lookup_macro, closure_memo=None) -> None:
        self.globals = meta_globals
        self.lookup_macro = lookup_macro
        self.reasons: list[str] = []
        #: id(closure) -> PurityReport | None (None = in progress; a
        #: cycle with no impure trigger elsewhere is pure).
        self._closure_memo = (
            closure_memo if closure_memo is not None else {}
        )

    # -- scope bookkeeping ---------------------------------------------

    def analyze_compound(self, body, bound: set[str]) -> None:
        inner = set(bound)
        for d in body.decls:
            if isinstance(d, decls.Declaration):
                inner.update(bound_names(d))
        for d in body.decls:
            if isinstance(d, decls.Declaration):
                for item in d.init_declarators:
                    if (
                        isinstance(item, decls.InitDeclarator)
                        and item.init is not None
                    ):
                        self.analyze_expr(item.init, inner)
        for s in body.stmts:
            self.analyze_stmt(s, inner)

    # -- statements -----------------------------------------------------

    def analyze_stmt(self, s: Node, bound: set[str]) -> None:
        if isinstance(s, stmts.CompoundStmt):
            self.analyze_compound(s, bound)
        elif isinstance(s, stmts.ExprStmt):
            self.analyze_expr(s.expr, bound)
        elif isinstance(s, stmts.IfStmt):
            self.analyze_expr(s.cond, bound)
            self.analyze_stmt(s.then, bound)
            if s.otherwise is not None:
                self.analyze_stmt(s.otherwise, bound)
        elif isinstance(s, stmts.WhileStmt):
            self.analyze_expr(s.cond, bound)
            self.analyze_stmt(s.body, bound)
        elif isinstance(s, stmts.DoWhileStmt):
            self.analyze_stmt(s.body, bound)
            self.analyze_expr(s.cond, bound)
        elif isinstance(s, stmts.ForStmt):
            if s.init is not None:
                self.analyze_expr(s.init, bound)
            if s.cond is not None:
                self.analyze_expr(s.cond, bound)
            if s.step is not None:
                self.analyze_expr(s.step, bound)
            self.analyze_stmt(s.body, bound)
        elif isinstance(s, stmts.SwitchStmt):
            self.analyze_expr(s.expr, bound)
            self.analyze_stmt(s.body, bound)
        elif isinstance(s, (stmts.CaseStmt, stmts.DefaultStmt)):
            expr = getattr(s, "expr", None)
            if expr is not None:
                self.analyze_expr(expr, bound)
            self.analyze_stmt(s.stmt, bound)
        elif isinstance(s, stmts.ReturnStmt):
            if s.expr is not None:
                self.analyze_expr(s.expr, bound)
        elif isinstance(s, stmts.LabeledStmt):
            self.analyze_stmt(s.stmt, bound)
        elif isinstance(
            s, (stmts.BreakStmt, stmts.ContinueStmt, stmts.NullStmt)
        ):
            pass
        else:
            # Unknown statement form: refuse to certify purity.
            self.reasons.append(
                f"unanalyzable statement form {type(s).__name__}"
            )

    # -- expressions ----------------------------------------------------

    def analyze_expr(self, e: Node, bound: set[str]) -> None:
        if isinstance(e, nodes.Identifier):
            self._classify_read(e.name, bound)
        elif isinstance(
            e,
            (nodes.IntLit, nodes.FloatLit, nodes.CharLit, nodes.StringLit),
        ):
            pass
        elif isinstance(e, (nodes.UnaryOp, nodes.PostfixOp)):
            if e.op in ("++", "--"):
                self._classify_write(e.operand, bound)
            self.analyze_expr(e.operand, bound)
        elif isinstance(e, nodes.BinaryOp):
            self.analyze_expr(e.left, bound)
            self.analyze_expr(e.right, bound)
        elif isinstance(e, nodes.AssignOp):
            self._classify_write(e.target, bound)
            self.analyze_expr(e.target, bound)
            self.analyze_expr(e.value, bound)
        elif isinstance(e, nodes.ConditionalOp):
            self.analyze_expr(e.cond, bound)
            self.analyze_expr(e.then, bound)
            self.analyze_expr(e.otherwise, bound)
        elif isinstance(e, nodes.CommaOp):
            self.analyze_expr(e.left, bound)
            self.analyze_expr(e.right, bound)
        elif isinstance(e, nodes.Index):
            self.analyze_expr(e.base, bound)
            self.analyze_expr(e.index, bound)
        elif isinstance(e, nodes.Member):
            self.analyze_expr(e.base, bound)
        elif isinstance(e, nodes.Cast):
            self.analyze_expr(e.operand, bound)
        elif isinstance(e, nodes.Call):
            self._analyze_call(e, bound)
        elif isinstance(e, nodes.Backquote):
            self._analyze_template(e.template, bound)
        elif isinstance(e, nodes.AnonFunction):
            inner = bound | {name for name, _ in e.params}
            self.analyze_expr(e.body, inner)
        elif isinstance(e, _PLACEHOLDER_CLASSES):
            self.analyze_expr(e.meta_expr, bound)
        else:
            self.reasons.append(
                f"unanalyzable expression form {type(e).__name__}"
            )

    # -- classification -------------------------------------------------

    def _classify_read(self, name: str, bound: set[str]) -> None:
        if name in bound:
            return
        value = self._global_value(name)
        if value is _UNBOUND:
            self.reasons.append(
                f"references unknown or later-defined name {name!r}"
            )
        elif _is_closure(value):
            self._require_pure_closure(name, value)
        else:
            self.reasons.append(f"reads metadcl state {name!r}")

    def _classify_write(self, target: Node, bound: set[str]) -> None:
        base = target
        while isinstance(base, (nodes.Index, nodes.Member)):
            base = base.base
        if isinstance(base, nodes.Identifier) and base.name not in bound:
            self.reasons.append(f"writes metadcl state {base.name!r}")

    def _analyze_call(self, e: nodes.Call, bound: set[str]) -> None:
        for arg in e.args:
            self.analyze_expr(arg, bound)
        func = e.func
        if not isinstance(func, nodes.Identifier):
            self.analyze_expr(func, bound)
            self.reasons.append("calls a computed function value")
            return
        name = func.name
        if name in bound:
            # A local bound to some closure: its body was analyzed at
            # its definition site iff it is an anonymous function we
            # saw; anything else is untrackable.
            self.reasons.append(
                f"calls through local variable {name!r}"
            )
            return
        value = self._global_value(name)
        if _is_closure(value):
            self._require_pure_closure(name, value)
            return
        if value is not _UNBOUND:
            self.reasons.append(f"calls metadcl value {name!r}")
            return
        from repro.meta.builtins import BUILTIN_IMPLS

        if name in BUILTIN_IMPLS:
            if name in IMPURE_BUILTINS:
                self.reasons.append(f"calls impure builtin {name!r}")
            return
        self.reasons.append(f"calls unknown meta-function {name!r}")

    def _require_pure_closure(self, name: str, closure) -> None:
        report = self._closure_purity(closure)
        if report is not None and not report.cacheable:
            self.reasons.append(
                f"calls impure meta-function {name!r} "
                f"({'; '.join(report.reasons)})"
            )

    def _closure_purity(self, closure):
        key = id(closure)
        if key in self._closure_memo:
            return self._closure_memo[key]  # may be None: in progress
        self._closure_memo[key] = None
        sub = _PurityScan(
            self.globals, self.lookup_macro, self._closure_memo
        )
        if getattr(closure, "is_anon", False):
            sub.analyze_expr(closure.body, set(closure.params))
        else:
            sub.analyze_compound(closure.body, set(closure.params))
        report = PurityReport(
            cacheable=not sub.reasons, reasons=tuple(sub.reasons)
        )
        self._closure_memo[key] = report
        return report

    def _global_value(self, name: str):
        frame = self.globals
        while frame is not None:
            if name in frame.values:
                return frame.values[name]
            frame = frame.parent
        return _UNBOUND

    # -- templates ------------------------------------------------------

    def _analyze_template(self, template, bound: set[str]) -> None:
        """Template C code is inert data; only the meta-expressions
        inside placeholder holes execute at expansion time, and the
        macros it invokes are expanded into the result."""
        if isinstance(template, list):
            for item in template:
                self._analyze_template(item, bound)
            return
        if not isinstance(template, Node):
            return
        if isinstance(template, _PLACEHOLDER_CLASSES):
            self.analyze_expr(template.meta_expr, bound)
            return
        if isinstance(template, nodes.MacroInvocation):
            definition = self.lookup_macro(template.name)
            purity = getattr(definition, "purity", None)
            if purity is None or not purity.cacheable:
                self.reasons.append(
                    f"invokes uncacheable macro {template.name!r}"
                )
        for child in children(template):
            self._analyze_template(child, bound)


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover
        return "<unbound>"


_UNBOUND = _Unbound()


def _is_closure(value) -> bool:
    from repro.meta.values import Closure

    return isinstance(value, Closure)
