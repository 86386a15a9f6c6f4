"""The embedded interpreter for the meta-language (a C subset).

"Because the macro language is C extended with AST datatypes and a few
new primitive functions, macro expansion is simply a matter of running
a C program on the parsed arguments of a macro invocation. ... The
present implementation uses an embedded interpreter for a subset of
the C language to execute meta-code." (paper section 3)

This is that interpreter: a tree-walking evaluator over the same AST
the parser builds, with AST values, lists, tuples, closures, and the
builtin functions of :mod:`repro.meta.builtins`.
"""

from __future__ import annotations

from typing import Any

from repro.asttypes.convert import bindings_from_declaration
from repro.asttypes.types import AstType, CType, ListType, TupleType
from repro.cast import decls, nodes, stmts
from repro.cast.base import Node
from repro.errors import SYNTHETIC, MetaInterpError
from repro.macros.template import instantiate
from repro.meta.builtins import BUILTIN_IMPLS
from repro.meta.frames import NULL, Frame, NullValue
from repro.meta.values import (
    Closure,
    extract_component,
    truthy,
    values_equal,
)

#: Fuel limit: a runaway meta-program is an error, not a hang.
MAX_STEPS = 5_000_000


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Interpreter:
    """Evaluates meta-code: macro bodies, meta-functions, metadcl inits."""

    def __init__(self) -> None:
        self.globals = Frame()
        self.warnings: list[str] = []
        self._gensym_counter = 0
        self._steps = 0
        #: Hygiene mark stamped on template-origin nodes; managed by
        #: the expander (one fresh mark per expansion).
        self.current_mark: int | None = None
        #: The C scope live at the invocation site (semantic-macro
        #: substrate, §5); set by the engine before each expansion.
        self.semantic_scope = None
        #: Optional :class:`~repro.stats.PipelineStats`, hooked up by
        #: the engine.
        self.stats = None

    # ==================================================================
    # Public entry points
    # ==================================================================

    def gensym(self, prefix: str = "g") -> nodes.Identifier:
        """A fresh identifier that cannot collide with user code."""
        self._gensym_counter += 1
        if self.stats is not None:
            self.stats.gensym_calls += 1
        return nodes.Identifier(
            f"__{prefix}_{self._gensym_counter}", loc=SYNTHETIC
        )

    def run_meta_declaration(self, declaration: decls.Declaration) -> None:
        """Execute a ``metadcl`` (bind globals, run initializers)."""
        bindings = bindings_from_declaration(declaration)
        for (name, asttype), item in zip(
            bindings, declaration.init_declarators
        ):
            value: Any
            if (
                isinstance(item, decls.InitDeclarator)
                and item.init is not None
            ):
                try:
                    value = self.eval(item.init, self.globals)
                except RecursionError:
                    raise MetaInterpError(
                        "meta-program exceeded the interpreter's "
                        f"recursion limit initializing {name!r}",
                        item.loc,
                    ) from None
            else:
                value = default_value(asttype)
            self.globals.define(name, value)

    def define_meta_function(self, funcdef: decls.FunctionDef) -> Closure:
        """Register a meta-function as a global closure."""
        name, params = _function_signature(funcdef)
        closure = Closure(name, params, funcdef.body, self.globals)
        self.globals.define(name, closure)
        return closure

    def call_macro(self, definition: Any, bindings: dict[str, Any]) -> Any:
        """Run a macro body with its actual parameters bound."""
        frame = self.globals.child()
        for name, value in bindings.items():
            frame.define(name, value if value is not None else NULL)
        try:
            self.exec_compound(definition.body, frame)
        except _Return as ret:
            return ret.value
        except RecursionError:
            # Deep meta-recursion can hit the host interpreter's own
            # stack limit before the step-count fuel runs out; users
            # must still only ever see Ms2Error subclasses.
            raise MetaInterpError(
                "meta-program exceeded the interpreter's recursion "
                f"limit (while expanding {definition.name!r}); deeply "
                "recursive meta-function?",
                definition.body.loc,
            ) from None
        raise MetaInterpError(
            f"macro {definition.name!r} finished without returning a value",
            definition.body.loc,
        )

    def call_closure(self, closure: Closure, args: list[Any], loc: Any) -> Any:
        if len(args) != len(closure.params):
            raise MetaInterpError(
                f"{closure.name or 'anonymous function'} expects "
                f"{len(closure.params)} argument(s), got {len(args)}",
                loc,
            )
        # A closure compiled by :mod:`repro.macros.codegen` carries a
        # Python implementation of its body; dispatch to it directly
        # (duck-typed to avoid an import cycle).
        pyfunc = getattr(closure, "pyfunc", None)
        if pyfunc is not None:
            return pyfunc(self, args)
        frame = closure.frame.child()
        for name, value in zip(closure.params, args):
            frame.define(name, value)
        if closure.is_anon:
            # Anonymous functions return their body expression's value.
            return self.eval(closure.body, frame)
        try:
            self.exec_compound(closure.body, frame)
        except _Return as ret:
            return ret.value
        return NULL

    # ==================================================================
    # Statements
    # ==================================================================

    def _tick(self, loc: Any) -> None:
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise MetaInterpError(
                "meta-program exceeded its execution budget "
                f"({MAX_STEPS} steps); infinite loop in a macro body?",
                loc,
            )

    def exec_compound(self, body: stmts.CompoundStmt, frame: Frame) -> None:
        inner = frame.child()
        for d in body.decls:
            self.exec_declaration(d, inner)
        for s in body.stmts:
            self.exec_stmt(s, inner)

    def exec_declaration(self, d: Node, frame: Frame) -> None:
        if not isinstance(d, decls.Declaration):
            raise MetaInterpError(
                f"cannot execute {type(d).__name__} in meta-code", d.loc
            )
        bindings = bindings_from_declaration(d)
        for (name, asttype), item in zip(bindings, d.init_declarators):
            if isinstance(item, decls.InitDeclarator) and item.init is not None:
                value = self.eval(item.init, frame)
            else:
                value = default_value(asttype)
            frame.define(name, value)

    def exec_stmt(self, s: Node, frame: Frame) -> None:
        self._tick(s.loc)
        if isinstance(s, stmts.ExprStmt):
            self.eval(s.expr, frame)
        elif isinstance(s, stmts.CompoundStmt):
            self.exec_compound(s, frame)
        elif isinstance(s, stmts.IfStmt):
            if truthy(self.eval(s.cond, frame), s.loc):
                self.exec_stmt(s.then, frame)
            elif s.otherwise is not None:
                self.exec_stmt(s.otherwise, frame)
        elif isinstance(s, stmts.WhileStmt):
            while truthy(self.eval(s.cond, frame), s.loc):
                self._tick(s.loc)
                try:
                    self.exec_stmt(s.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(s, stmts.DoWhileStmt):
            while True:
                self._tick(s.loc)
                try:
                    self.exec_stmt(s.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if not truthy(self.eval(s.cond, frame), s.loc):
                    break
        elif isinstance(s, stmts.ForStmt):
            if s.init is not None:
                self.eval(s.init, frame)
            while s.cond is None or truthy(self.eval(s.cond, frame), s.loc):
                self._tick(s.loc)
                try:
                    self.exec_stmt(s.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if s.step is not None:
                    self.eval(s.step, frame)
        elif isinstance(s, stmts.SwitchStmt):
            self._exec_switch(s, frame)
        elif isinstance(s, stmts.ReturnStmt):
            value = NULL if s.expr is None else self.eval(s.expr, frame)
            raise _Return(value)
        elif isinstance(s, stmts.BreakStmt):
            raise _Break()
        elif isinstance(s, stmts.ContinueStmt):
            raise _Continue()
        elif isinstance(s, stmts.NullStmt):
            return
        elif isinstance(s, stmts.LabeledStmt):
            self.exec_stmt(s.stmt, frame)
        else:
            raise MetaInterpError(
                f"statement form {type(s).__name__} is not executable "
                "in meta-code",
                s.loc,
            )

    def _exec_switch(self, s: stmts.SwitchStmt, frame: Frame) -> None:
        value = self.eval(s.expr, frame)
        if not isinstance(s.body, stmts.CompoundStmt):
            raise MetaInterpError(
                "meta-code switch requires a compound body", s.loc
            )
        entries = s.body.stmts
        start: int | None = None
        default_start: int | None = None
        for i, entry in enumerate(entries):
            if isinstance(entry, stmts.CaseStmt):
                case_value = self.eval(entry.expr, frame)
                if values_equal(case_value, value):
                    start = i
                    break
            elif isinstance(entry, stmts.DefaultStmt) and (
                default_start is None
            ):
                default_start = i
        if start is None:
            start = default_start
        if start is None:
            return
        try:
            for entry in entries[start:]:
                if isinstance(entry, stmts.CaseStmt):
                    self.exec_stmt(entry.stmt, frame)
                elif isinstance(entry, stmts.DefaultStmt):
                    self.exec_stmt(entry.stmt, frame)
                else:
                    self.exec_stmt(entry, frame)
        except _Break:
            return

    # ==================================================================
    # Expressions
    # ==================================================================

    def eval(self, e: Node, frame: Frame) -> Any:
        self._tick(e.loc)
        method = getattr(self, "_eval_" + type(e).__name__, None)
        if method is None:
            raise MetaInterpError(
                f"expression form {type(e).__name__} is not executable "
                "in meta-code",
                e.loc,
            )
        return method(e, frame)

    # -- literals / names ------------------------------------------------

    def _eval_Identifier(self, e: nodes.Identifier, frame: Frame) -> Any:
        return frame.lookup(e.name, e.loc)

    def _eval_IntLit(self, e: nodes.IntLit, frame: Frame) -> Any:
        return e.value

    def _eval_FloatLit(self, e: nodes.FloatLit, frame: Frame) -> Any:
        return e.value

    def _eval_CharLit(self, e: nodes.CharLit, frame: Frame) -> Any:
        return e.value

    def _eval_StringLit(self, e: nodes.StringLit, frame: Frame) -> Any:
        return e.value

    # -- operators -----------------------------------------------------------

    def _eval_UnaryOp(self, e: nodes.UnaryOp, frame: Frame) -> Any:
        if e.op in ("++", "--"):
            old = self.eval(e.operand, frame)
            _require_int(old, e.loc)
            new = old + (1 if e.op == "++" else -1)
            self._assign_to(e.operand, new, frame)
            return new
        value = self.eval(e.operand, frame)
        if e.op == "*":
            if isinstance(value, list):
                if not value:
                    raise MetaInterpError(
                        "head (*) of an empty list", e.loc
                    )
                return value[0]
            raise MetaInterpError(
                "unary * applies to meta-lists only", e.loc
            )
        if e.op == "-":
            _require_number(value, e.loc)
            return -value
        if e.op == "+":
            _require_number(value, e.loc)
            return value
        if e.op == "!":
            return int(not truthy(value, e.loc))
        if e.op == "~":
            _require_int(value, e.loc)
            return ~value
        raise MetaInterpError(f"operator {e.op!r} not executable", e.loc)

    def _eval_PostfixOp(self, e: nodes.PostfixOp, frame: Frame) -> Any:
        old = self.eval(e.operand, frame)
        _require_int(old, e.loc)
        new = old + (1 if e.op == "++" else -1)
        self._assign_to(e.operand, new, frame)
        return old

    def _eval_BinaryOp(self, e: nodes.BinaryOp, frame: Frame) -> Any:
        op = e.op
        if op == "&&":
            left = self.eval(e.left, frame)
            if not truthy(left, e.loc):
                return 0
            return int(truthy(self.eval(e.right, frame), e.loc))
        if op == "||":
            left = self.eval(e.left, frame)
            if truthy(left, e.loc):
                return 1
            return int(truthy(self.eval(e.right, frame), e.loc))

        left = self.eval(e.left, frame)
        right = self.eval(e.right, frame)

        # List arithmetic: xs + 1 is cdr, xs - 1 rewinds (unsupported).
        if isinstance(left, list) and op == "+":
            _require_int(right, e.loc)
            if right < 0 or right > len(left):
                raise MetaInterpError(
                    f"list offset {right} out of range "
                    f"(list of {len(left)})",
                    e.loc,
                )
            return left[right:]

        if op == "==":
            return int(values_equal(left, right))
        if op == "!=":
            return int(not values_equal(left, right))

        _require_number(left, e.loc)
        _require_number(right, e.loc)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise MetaInterpError("division by zero in meta-code", e.loc)
            if isinstance(left, int) and isinstance(right, int):
                return _c_div(left, right)
            return left / right
        if op == "%":
            if right == 0:
                raise MetaInterpError("modulo by zero in meta-code", e.loc)
            return _c_mod(left, right)
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
        if op == "<<":
            _require_int(left, e.loc)
            _require_int(right, e.loc)
            return left << right
        if op == ">>":
            _require_int(left, e.loc)
            _require_int(right, e.loc)
            return left >> right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        raise MetaInterpError(f"operator {op!r} not executable", e.loc)

    def _eval_AssignOp(self, e: nodes.AssignOp, frame: Frame) -> Any:
        if e.op == "=":
            value = self.eval(e.value, frame)
        else:
            binop = nodes.BinaryOp(
                e.op[:-1], e.target, e.value, loc=e.loc
            )
            value = self._eval_BinaryOp(binop, frame)
        self._assign_to(e.target, value, frame)
        return value

    def _assign_to(self, target: Node, value: Any, frame: Frame) -> None:
        if isinstance(target, nodes.Identifier):
            frame.assign(target.name, value, target.loc)
            return
        if isinstance(target, nodes.Index):
            seq = self.eval(target.base, frame)
            index = self.eval(target.index, frame)
            if not isinstance(seq, list) or not isinstance(index, int):
                raise MetaInterpError(
                    "indexed assignment requires a list and an int",
                    target.loc,
                )
            if index < 0 or index >= len(seq):
                raise MetaInterpError(
                    f"list index {index} out of range", target.loc
                )
            seq[index] = value
            return
        if isinstance(target, nodes.Member):
            base = self.eval(target.base, frame)
            if isinstance(base, nodes.TupleValue):
                for f in base.fields:
                    if f.name == target.name:
                        f.value = value
                        return
                raise MetaInterpError(
                    f"tuple has no field {target.name!r}", target.loc
                )
            raise MetaInterpError(
                "member assignment requires a tuple value", target.loc
            )
        raise MetaInterpError("invalid assignment target", target.loc)

    def _eval_ConditionalOp(self, e: nodes.ConditionalOp, frame: Frame) -> Any:
        if truthy(self.eval(e.cond, frame), e.loc):
            return self.eval(e.then, frame)
        return self.eval(e.otherwise, frame)

    def _eval_CommaOp(self, e: nodes.CommaOp, frame: Frame) -> Any:
        self.eval(e.left, frame)
        return self.eval(e.right, frame)

    def _eval_Index(self, e: nodes.Index, frame: Frame) -> Any:
        seq = self.eval(e.base, frame)
        index = self.eval(e.index, frame)
        if isinstance(seq, list) and isinstance(index, int):
            if index < 0 or index >= len(seq):
                raise MetaInterpError(
                    f"list index {index} out of range (list of {len(seq)})",
                    e.loc,
                )
            return seq[index]
        if isinstance(seq, str) and isinstance(index, int):
            if index < 0 or index >= len(seq):
                raise MetaInterpError("string index out of range", e.loc)
            return ord(seq[index])
        raise MetaInterpError(
            "indexing requires a list (or string) and an int", e.loc
        )

    def _eval_Member(self, e: nodes.Member, frame: Frame) -> Any:
        base = self.eval(e.base, frame)
        if isinstance(base, nodes.TupleValue):
            try:
                return base.get(e.name)
            except KeyError:
                raise MetaInterpError(
                    f"tuple has no field {e.name!r}", e.loc
                ) from None
        if isinstance(base, Node):
            return extract_component(base, e.name, e.loc)
        raise MetaInterpError(
            f"cannot select {e.name!r} from "
            f"{type(base).__name__} value",
            e.loc,
        )

    def _eval_Cast(self, e: nodes.Cast, frame: Frame) -> Any:
        value = self.eval(e.operand, frame)
        if isinstance(value, float):
            return int(value)
        return value

    # -- calls -------------------------------------------------------------

    def _eval_Call(self, e: nodes.Call, frame: Frame) -> Any:
        args = [self.eval(a, frame) for a in e.args]
        if isinstance(e.func, nodes.Identifier):
            name = e.func.name
            if name in frame:
                target = frame.lookup(name, e.loc)
                if not isinstance(target, Closure):
                    raise MetaInterpError(
                        f"{name!r} is not callable", e.loc
                    )
                return self.call_closure(target, args, e.loc)
            impl = BUILTIN_IMPLS.get(name)
            if impl is not None:
                return impl(self, args, e.loc)
            raise MetaInterpError(
                f"call to unknown meta-function {name!r}", e.loc
            )
        target = self.eval(e.func, frame)
        if isinstance(target, Closure):
            return self.call_closure(target, args, e.loc)
        raise MetaInterpError("called value is not a function", e.loc)

    # -- meta forms -----------------------------------------------------------

    def _eval_Backquote(self, e: nodes.Backquote, frame: Frame) -> Any:
        return instantiate(
            e.template,
            evalfn=lambda meta_expr: self.eval(meta_expr, frame),
            mark=self.current_mark,
        )

    def _eval_AnonFunction(self, e: nodes.AnonFunction, frame: Frame) -> Any:
        return Closure(
            "", [name for name, _ in e.params], e.body, frame, is_anon=True
        )

    def _eval_PlaceholderExpr(self, e: nodes.PlaceholderExpr, frame: Frame) -> Any:
        # Evaluating a placeholder outside a template means the
        # template machinery leaked; treat as evaluating its meta-expr.
        return self.eval(e.meta_expr, frame)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def default_value(asttype: AstType) -> Any:
    """The value an uninitialized meta-variable of this type holds."""
    if isinstance(asttype, ListType):
        return []
    if isinstance(asttype, TupleType):
        return nodes.TupleValue(
            [
                nodes.MacroArg(name, default_value(ftype))
                for name, ftype in asttype.fields
            ]
        )
    if isinstance(asttype, CType):
        if asttype.name in ("int", "char"):
            return 0
        if asttype.name == "float":
            return 0.0
        if asttype.name == "string":
            return ""
        return NULL
    return NULL


def _function_signature(funcdef: decls.FunctionDef) -> tuple[str, list[str]]:
    from repro.parser.core import _declarator_name, _find_func_declarator

    name = _declarator_name(funcdef.declarator)
    if name is None:
        raise MetaInterpError(
            "meta-function has no name", funcdef.loc
        )
    func = _find_func_declarator(funcdef.declarator)
    params: list[str] = []
    for p in func.params:
        if isinstance(p, decls.ParamDecl):
            pname = _declarator_name(p.declarator)
            if pname is None:
                raise MetaInterpError(
                    "meta-function parameters must be named", p.loc
                )
            params.append(pname)
    return name, params


def _require_int(value: Any, loc: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MetaInterpError(
            f"expected an int, got {type(value).__name__}", loc
        )


def _require_number(value: Any, loc: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MetaInterpError(
            f"expected a number, got {type(value).__name__}", loc
        )


def _c_div(a: int, b: int) -> int:
    """C semantics: truncation toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        return a - _c_div(a, b) * b
    raise MetaInterpError("% requires ints", None)
