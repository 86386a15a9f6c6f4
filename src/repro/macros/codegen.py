"""The macro body/template compiler: meta-programs lowered to Python.

The cache-off ("cold") expansion path runs every macro body through the
tree-walking interpreter of :mod:`repro.meta.interp` and fills every
backquote template node by node through
:func:`repro.macros.template.instantiate`.  The paper's section 3
observation — that per-macro parse routines can be *compiled* rather
than interpreted — extends to the whole macro: this module lowers a
macro body (a C-subset meta-program) to one generated Python function,
compiled with :func:`compile` on the macro's first invocation:

* meta statements and expressions become straight-line Python
  (meta-variables are alpha-renamed Python locals, scoping resolved at
  compile time);
* backquote templates become direct C-AST constructor calls
  (``BinaryOp(Identifier(...), ...)``) — no field introspection, no
  per-node dispatch — with hygiene marks and provenance locations
  stamped exactly as the instantiator would;
* builtin and meta-function calls dispatch through tiny runtime
  helpers that replicate the interpreter's frame-then-builtin lookup
  (so later ``meta`` redefinitions are still honoured).

Compilation is **semantics-neutral by contract**: every runtime helper
reproduces the interpreter's checks and error messages verbatim, value
adaptation and cloning reuse :mod:`repro.macros.template`'s own
functions, and any construct the compiler does not handle makes the
whole macro fall back to the interpreter (counted in
``PipelineStats.compile_fallbacks``).  The only sanctioned divergence
is fuel accounting: compiled bodies charge the shared step budget in
static per-statement batches rather than per node, so a runaway
meta-program still exhausts the identical budget with the identical
error message, merely at a slightly different step.

The compiled body is cached on the
:class:`~repro.macros.definition.MacroDefinition` and, for macros
defined by :meth:`~repro.engine.MacroProcessor.load`, in a
process-wide :class:`~repro.macros.memo.ProcessMemo` of at most
:data:`BODY_MEMO_SIZE` entries, so a fresh context that loads the
same packages under the same options reuses the bodies an earlier
context compiled.  The memo key is the definition's ``body_key``: a
running sha256 of the options hash and every ``(filename, source)``
loaded before and including the defining file, the macro name and its
definition generation.  Equal keys mean the definitions were parsed
from the same text in the same state (the engine's load memo, keyed
by the same digest, replays the very same parsed nodes), so they
compile to interchangeable bodies.  Macros defined in program files
have no key and compile per context.  :func:`clear_body_memo` empties
this memo and the load memo together.

Environment: ``MS2_DISABLE_BODY_COMPILE=1`` is an operational kill
switch forcing every body through the interpreter (used by CI's
compiled-off leg); ``MS2_BODY_COMPILE_DEBUG=1`` re-raises compiler
errors instead of falling back (development aid).
"""

from __future__ import annotations

import dataclasses
import os
import re
import time
from typing import Any

from repro.asttypes.convert import bindings_from_declaration
from repro.asttypes.types import CType, ListType
from repro.cast import ctypes, decls, nodes, stmts
from repro.cast.base import Node
from repro.errors import MetaInterpError, Ms2Error
from repro.macros.memo import ProcessMemo
from repro.macros.pattern import ParamElement
from repro.macros.template import (
    _PLACEHOLDER_CLASSES,
    _normalize,
    adapt_list_to_scalar,
    fill_placeholder,
)
from repro.meta.builtins import BUILTIN_IMPLS
from repro.meta.frames import NULL, NullValue
from repro.meta.interp import (
    MAX_STEPS,
    _Break,
    _c_div,
    _c_mod,
    _Continue,
    _require_int,
    _require_number,
    default_value,
)
from repro.meta.values import Closure, extract_component, truthy, values_equal

__all__ = [
    "CompiledBody",
    "CompiledClosure",
    "clear_body_memo",
    "compile_macro_body",
    "get_compiled_body",
]

#: Kill switch: force the interpreter everywhere (CI compiled-off leg).
_DISABLED = os.environ.get("MS2_DISABLE_BODY_COMPILE", "") not in ("", "0")
#: Development aid: re-raise compiler bugs instead of falling back.
_DEBUG = os.environ.get("MS2_BODY_COMPILE_DEBUG", "") not in ("", "0")


class _Uncompilable(Exception):
    """Internal signal: this body uses a construct the compiler punts
    on; the whole macro stays interpreted."""

    def __init__(self, construct: str) -> None:
        super().__init__(construct)
        self.construct = construct


class CompiledClosure(Closure):
    """An anonymous meta-function whose body was compiled to Python.

    ``pyfunc(interp, args)`` evaluates the body expression.  The class
    masquerades as ``Closure`` in ``type(x).__name__`` so dynamic-type
    error messages stay byte-identical to the interpreter's.
    """

    __slots__ = ("pyfunc",)

    def __init__(self, params: list[str], pyfunc: Any) -> None:
        super().__init__("", params, None, None, is_anon=True)
        self.pyfunc = pyfunc


CompiledClosure.__name__ = "Closure"
CompiledClosure.__qualname__ = "Closure"


class CompiledBody:
    """One macro body lowered to a Python function.

    ``call`` mirrors :meth:`Interpreter.call_macro` exactly: same
    missing-return and recursion-limit errors, same return value.
    """

    __slots__ = ("name", "params", "pyfunc", "loc", "template_count")

    def __init__(
        self,
        name: str,
        params: frozenset[str],
        pyfunc: Any,
        loc: Any,
        template_count: int,
    ) -> None:
        self.name = name
        self.params = params
        self.pyfunc = pyfunc
        self.loc = loc
        self.template_count = template_count

    def call(self, interp: Any, bindings: dict[str, Any]) -> Any:
        try:
            return self.pyfunc(interp, bindings)
        except RecursionError:
            raise MetaInterpError(
                "meta-program exceeded the interpreter's recursion "
                f"limit (while expanding {self.name!r}); deeply "
                "recursive meta-function?",
                self.loc,
            ) from None


#: Most compiled bodies (or fallback verdicts) the process-wide memo
#: keeps; the least recently used entry goes first.
BODY_MEMO_SIZE = 512

_BODY_MEMO = ProcessMemo()


def clear_body_memo() -> None:
    """Forget every process-wide memo, compiled bodies and parsed
    package loads alike (benchmarks timing a real compile)."""
    ProcessMemo.clear_all()


def _compile_or_fallback(definition: Any) -> CompiledBody | bool:
    try:
        return compile_macro_body(definition)
    except _Uncompilable:
        return False
    except (Ms2Error, Exception):  # noqa: B014 - never break expansion
        if _DEBUG:
            raise
        return False


def get_compiled_body(definition: Any, stats: Any = None) -> CompiledBody | None:
    """The compiled body for ``definition``, compiling on first use;
    ``None`` when compilation fell back to the interpreter.

    The result is cached on the definition (``compiled_body`` holds the
    :class:`CompiledBody`, or ``False`` after a fallback), so the
    compile cost is paid once per macro, not per invocation.  A
    definition with a ``body_key`` first consults the process-wide
    memo, so a package macro compiles once per process, not once per
    context.  ``stats`` counts a memo hit like a compile
    (``bodies_compiled`` / ``compile_fallbacks``), keeping a session's
    counters independent of what the process ran before;
    ``compile_time_ms`` counts only real compiles.
    """
    if _DISABLED:
        return None
    body = definition.compiled_body
    if body is None:
        key = definition.body_key
        body = None if key is None else _BODY_MEMO.get(key)
        compile_ms = 0.0
        if body is None:
            start = time.perf_counter()
            body = _compile_or_fallback(definition)
            compile_ms = (time.perf_counter() - start) * 1000.0
            if key is not None:
                _BODY_MEMO.put(key, body, BODY_MEMO_SIZE)
        definition.compiled_body = body
        if stats is not None:
            stats.compile_time_ms += compile_ms
            if body is False:
                stats.compile_fallbacks += 1
            else:
                stats.bodies_compiled += 1
                stats.templates_compiled += body.template_count
    return body or None


def compile_macro_body(definition: Any) -> CompiledBody:
    """Lower ``definition.body`` to a :class:`CompiledBody`.

    Raises :class:`_Uncompilable` (internal) for constructs the
    compiler punts on — ``switch``, ``break``/``continue`` outside any
    loop, declarations the type converter rejects.
    """
    params = [
        el.name
        for el in definition.pattern.elements
        if isinstance(el, ParamElement)
    ]
    compiler = _BodyCompiler(definition, params)
    return compiler.compile()


# ---------------------------------------------------------------------------
# Runtime helpers — each one replicates an interpreter code path
# (checks, messages and evaluation order) exactly.
# ---------------------------------------------------------------------------


def _over(loc: Any) -> None:
    raise MetaInterpError(
        "meta-program exceeded its execution budget "
        f"({MAX_STEPS} steps); infinite loop in a macro body?",
        loc,
    )


def _nr(name: str, loc: Any) -> None:
    raise MetaInterpError(
        f"macro {name!r} finished without returning a value", loc
    )


def _g(I: Any, name: str, loc: Any) -> Any:
    return I.globals.lookup(name, loc)


def _ag(I: Any, name: str, value: Any, loc: Any) -> Any:
    I.globals.assign(name, value, loc)
    return value


def _callg(I: Any, name: str, args: list, loc: Any) -> Any:
    g = I.globals
    if name in g:
        target = g.lookup(name, loc)
        if not isinstance(target, Closure):
            raise MetaInterpError(f"{name!r} is not callable", loc)
        return I.call_closure(target, args, loc)
    impl = BUILTIN_IMPLS.get(name)
    if impl is not None:
        return impl(I, args, loc)
    raise MetaInterpError(f"call to unknown meta-function {name!r}", loc)


def _callv(I: Any, name: str, target: Any, args: list, loc: Any) -> Any:
    if not isinstance(target, Closure):
        raise MetaInterpError(f"{name!r} is not callable", loc)
    return I.call_closure(target, args, loc)


def _calle(I: Any, args: list, target: Any, loc: Any) -> Any:
    if isinstance(target, Closure):
        return I.call_closure(target, args, loc)
    raise MetaInterpError("called value is not a function", loc)


def _raise_expr(name: str, loc: Any) -> Any:
    raise MetaInterpError(
        f"expression form {name} is not executable in meta-code", loc
    )


def _raise_stmt(name: str, loc: Any) -> None:
    raise MetaInterpError(
        f"statement form {name} is not executable in meta-code", loc
    )


def _raise_decl(name: str, loc: Any) -> None:
    raise MetaInterpError(f"cannot execute {name} in meta-code", loc)


def _badop(op: str, loc: Any) -> Any:
    raise MetaInterpError(f"operator {op!r} not executable", loc)


def _reqint(v: Any, loc: Any) -> Any:
    _require_int(v, loc)
    return v


# -- binary operators (interpreter's _eval_BinaryOp, one op each) ----------


def _add(l: Any, r: Any, loc: Any) -> Any:
    if type(l) is int and type(r) is int:
        return l + r
    if isinstance(l, list):
        _require_int(r, loc)
        if r < 0 or r > len(l):
            raise MetaInterpError(
                f"list offset {r} out of range (list of {len(l)})", loc
            )
        return l[r:]
    _require_number(l, loc)
    _require_number(r, loc)
    return l + r


def _sub(l: Any, r: Any, loc: Any) -> Any:
    if type(l) is int and type(r) is int:
        return l - r
    _require_number(l, loc)
    _require_number(r, loc)
    return l - r


def _mul(l: Any, r: Any, loc: Any) -> Any:
    if type(l) is int and type(r) is int:
        return l * r
    _require_number(l, loc)
    _require_number(r, loc)
    return l * r


def _div(l: Any, r: Any, loc: Any) -> Any:
    if not (type(l) is int and type(r) is int):
        _require_number(l, loc)
        _require_number(r, loc)
    if r == 0:
        raise MetaInterpError("division by zero in meta-code", loc)
    if isinstance(l, int) and isinstance(r, int):
        return _c_div(l, r)
    return l / r


def _mod(l: Any, r: Any, loc: Any) -> Any:
    if not (type(l) is int and type(r) is int):
        _require_number(l, loc)
        _require_number(r, loc)
    if r == 0:
        raise MetaInterpError("modulo by zero in meta-code", loc)
    return _c_mod(l, r)


def _eq(l: Any, r: Any, loc: Any) -> int:
    if type(l) is int and type(r) is int:
        return int(l == r)
    return int(values_equal(l, r))


def _ne(l: Any, r: Any, loc: Any) -> int:
    if type(l) is int and type(r) is int:
        return int(l != r)
    return int(not values_equal(l, r))


def _lt(l: Any, r: Any, loc: Any) -> int:
    if type(l) is int and type(r) is int:
        return int(l < r)
    _require_number(l, loc)
    _require_number(r, loc)
    return int(l < r)


def _gt(l: Any, r: Any, loc: Any) -> int:
    if type(l) is int and type(r) is int:
        return int(l > r)
    _require_number(l, loc)
    _require_number(r, loc)
    return int(l > r)


def _le(l: Any, r: Any, loc: Any) -> int:
    if type(l) is int and type(r) is int:
        return int(l <= r)
    _require_number(l, loc)
    _require_number(r, loc)
    return int(l <= r)


def _ge(l: Any, r: Any, loc: Any) -> int:
    if type(l) is int and type(r) is int:
        return int(l >= r)
    _require_number(l, loc)
    _require_number(r, loc)
    return int(l >= r)


def _shl(l: Any, r: Any, loc: Any) -> Any:
    if type(l) is int and type(r) is int:
        return l << r
    _require_number(l, loc)
    _require_number(r, loc)
    _require_int(l, loc)
    _require_int(r, loc)
    return l << r


def _shr(l: Any, r: Any, loc: Any) -> Any:
    if type(l) is int and type(r) is int:
        return l >> r
    _require_number(l, loc)
    _require_number(r, loc)
    _require_int(l, loc)
    _require_int(r, loc)
    return l >> r


def _band(l: Any, r: Any, loc: Any) -> Any:
    _require_number(l, loc)
    _require_number(r, loc)
    return l & r


def _bor(l: Any, r: Any, loc: Any) -> Any:
    _require_number(l, loc)
    _require_number(r, loc)
    return l | r


def _bxor(l: Any, r: Any, loc: Any) -> Any:
    _require_number(l, loc)
    _require_number(r, loc)
    return l ^ r


# -- unary operators --------------------------------------------------------


def _neg(v: Any, loc: Any) -> Any:
    if type(v) is int:
        return -v
    _require_number(v, loc)
    return -v


def _pos(v: Any, loc: Any) -> Any:
    _require_number(v, loc)
    return v


def _inv(v: Any, loc: Any) -> Any:
    _require_int(v, loc)
    return ~v


def _head(v: Any, loc: Any) -> Any:
    if isinstance(v, list):
        if not v:
            raise MetaInterpError("head (*) of an empty list", loc)
        return v[0]
    raise MetaInterpError("unary * applies to meta-lists only", loc)


# -- index / member / cast / assignment targets ----------------------------


def _ix(seq: Any, index: Any, loc: Any) -> Any:
    if isinstance(seq, list) and isinstance(index, int):
        if index < 0 or index >= len(seq):
            raise MetaInterpError(
                f"list index {index} out of range (list of {len(seq)})",
                loc,
            )
        return seq[index]
    if isinstance(seq, str) and isinstance(index, int):
        if index < 0 or index >= len(seq):
            raise MetaInterpError("string index out of range", loc)
        return ord(seq[index])
    raise MetaInterpError(
        "indexing requires a list (or string) and an int", loc
    )


def _mb(base: Any, name: str, loc: Any) -> Any:
    if isinstance(base, nodes.TupleValue):
        try:
            return base.get(name)
        except KeyError:
            raise MetaInterpError(
                f"tuple has no field {name!r}", loc
            ) from None
    if isinstance(base, Node):
        return extract_component(base, name, loc)
    raise MetaInterpError(
        f"cannot select {name!r} from {type(base).__name__} value", loc
    )


def _cast(v: Any) -> Any:
    if isinstance(v, float):
        return int(v)
    return v


def _aix(seq: Any, index: Any, value: Any, loc: Any) -> Any:
    if not isinstance(seq, list) or not isinstance(index, int):
        raise MetaInterpError(
            "indexed assignment requires a list and an int", loc
        )
    if index < 0 or index >= len(seq):
        raise MetaInterpError(f"list index {index} out of range", loc)
    seq[index] = value
    return value


def _amb(base: Any, name: str, value: Any, loc: Any) -> Any:
    if isinstance(base, nodes.TupleValue):
        for f in base.fields:
            if f.name == name:
                f.value = value
                return value
        raise MetaInterpError(f"tuple has no field {name!r}", loc)
    raise MetaInterpError(
        "member assignment requires a tuple value", loc
    )


# -- template helpers -------------------------------------------------------


def _aslist(v: Any) -> list:
    return v if isinstance(v, list) else [v]


def _sc(result: Any, tname: str, fname: str, loc: Any, mark: Any) -> Any:
    """Scalar position: adapt a list-valued fill, pass nodes through."""
    if isinstance(result, list):
        return adapt_list_to_scalar(result, tname, fname, loc, mark)
    return result


def _fillx(ph: Node, value: Any) -> Any:
    """``PlaceholderExpr`` fill fast path: meta ints/floats/strings
    become fresh literal nodes directly.  Node and list values (and the
    NULL error) take the shared path unchanged."""
    cls = value.__class__
    if cls is int:
        return nodes.IntLit(value)
    if cls is str:
        return nodes.StringLit(value)
    if cls is float:
        return nodes.FloatLit(value)
    return fill_placeholder(ph, value)


#: exec() namespace shared by every generated body (read-only).
_HELPER_NS: dict[str, Any] = {
    "__builtins__": {},
    "int": int,
    "_N": NULL,
    "_Break": _Break,
    "_Continue": _Continue,
    "_CC": CompiledClosure,
    "_truthy": truthy,
    "_over": _over,
    "_nr": _nr,
    "_g": _g,
    "_ag": _ag,
    "_callg": _callg,
    "_callv": _callv,
    "_calle": _calle,
    "_raise_expr": _raise_expr,
    "_raise_stmt": _raise_stmt,
    "_raise_decl": _raise_decl,
    "_badop": _badop,
    "_reqint": _reqint,
    "_add": _add,
    "_sub": _sub,
    "_mul": _mul,
    "_div": _div,
    "_mod": _mod,
    "_eq": _eq,
    "_ne": _ne,
    "_lt": _lt,
    "_gt": _gt,
    "_le": _le,
    "_ge": _ge,
    "_shl": _shl,
    "_shr": _shr,
    "_band": _band,
    "_bor": _bor,
    "_bxor": _bxor,
    "_neg": _neg,
    "_pos": _pos,
    "_inv": _inv,
    "_head": _head,
    "_ix": _ix,
    "_mb": _mb,
    "_cast": _cast,
    "_aix": _aix,
    "_amb": _amb,
    "_fill": fill_placeholder,
    "_fillx": _fillx,
    "_aslist": _aslist,
    "_sc": _sc,
    "_nz": _normalize,
    "_dflt": default_value,
}

#: Binary meta-operator -> runtime helper (short-circuit ops excluded).
_BINOP_HELPERS = {
    "+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "%": "_mod",
    "==": "_eq", "!=": "_ne", "<": "_lt", ">": "_gt", "<=": "_le",
    ">=": "_ge", "<<": "_shl", ">>": "_shr", "&": "_band", "|": "_bor",
    "^": "_bxor",
}

#: Operator -> inline form, used when both operand code strings are
#: side-effect-free atoms and both values are ints at runtime.  Each
#: fast form replicates its helper's int path exactly: comparisons
#: produce 0/1 ints, and ``/`` / ``%`` only shortcut where Python
#: floor semantics coincide with the C truncation the helpers
#: implement (non-negative over positive).
_INT_FAST_OPS = {
    "+": "{l} + {r}",
    "-": "{l} - {r}",
    "*": "{l} * {r}",
    "/": "{l} // {r}",
    "%": "{l} % {r}",
    "==": "(1 if {l} == {r} else 0)",
    "!=": "(1 if {l} != {r} else 0)",
    "<": "(1 if {l} < {r} else 0)",
    ">": "(1 if {l} > {r} else 0)",
    "<=": "(1 if {l} <= {r} else 0)",
    ">=": "(1 if {l} >= {r} else 0)",
}

_CMP_OPS = frozenset(("==", "!=", "<", ">", "<=", ">="))

#: Generated-code strings safe to mention more than once: Python
#: locals produced by the compiler itself and non-negative int
#: literals.  (Global reads compile to ``_g(...)`` calls and never
#: match, so re-evaluation semantics are preserved.)
_ATOM_RE = re.compile(r"(?:[A-Za-z_]\w*|\d+)\Z")


def _is_atom(code: str) -> bool:
    return _ATOM_RE.match(code) is not None


def _int_guards(op: str, left: str, right: str) -> list[str] | None:
    """Runtime conditions under which ``op``'s inline form is exact.
    Digit atoms are int literals, so their type (and sign) guards are
    settled statically; returns ``None`` when the fast form can never
    apply (e.g. a literal division by zero must use the helper)."""
    guards = []
    if not left[0].isdigit():
        guards.append(f"{left}.__class__ is int")
    if not right[0].isdigit():
        guards.append(f"{right}.__class__ is int")
    if op in ("/", "%"):
        if not left[0].isdigit():
            guards.append(f"{left} >= 0")
        if right[0].isdigit():
            if int(right) <= 0:
                return None
        else:
            guards.append(f"{right} > 0")
    return guards

#: Node classes whose rebuilt form needs template._normalize fixups.
_NORMALIZED_CLASSES = (
    ctypes.EnumType,
    ctypes.StructOrUnionType,
    nodes.Member,
    decls.Declaration,
    stmts.CompoundStmt,
)

#: Values inlined as Python literals in generated source.
_INLINE_TYPES = (str, int, float, bool, type(None))


class _Scope:
    """Compile-time lexical scope: meta name -> generated Python local."""

    __slots__ = ("parent", "names")

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.names: dict[str, str] = {}

    def lookup(self, name: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            py = scope.names.get(name)
            if py is not None:
                return py
            scope = scope.parent
        return None


class _FnCtx:
    """One generated Python function (the body, or a nested anon fn)."""

    __slots__ = ("own_names", "nonlocals")

    def __init__(self) -> None:
        self.own_names: set[str] = set()
        self.nonlocals: set[str] = set()


class _BodyCompiler:
    """Lowers one macro body to Python source and compiles it."""

    def __init__(self, definition: Any, params: list[str]) -> None:
        self.definition = definition
        self.param_names = params
        self.lines: list[str] = []
        self.consts: list[Any] = []
        self.const_names: dict[int, str] = {}
        self.ns: dict[str, Any] = {}
        self.counter = 0
        self.template_count = 0
        #: Innermost-first loop kinds ("while" / "for" / "dowhile").
        self.loop_stack: list[str] = []
        #: Pending statement lines (nested defs) to flush before the
        #: line that uses them; one list per open function context.
        self.pending: list[list[str]] = [[]]
        self.fn_stack: list[_FnCtx] = [_FnCtx()]

    # -- small utilities ----------------------------------------------

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def const(self, value: Any) -> str:
        name = self.const_names.get(id(value))
        if name is None:
            name = f"c{len(self.consts)}"
            self.const_names[id(value)] = name
            self.consts.append(value)
            self.ns[name] = value
        return name

    def lit(self, value: Any) -> str:
        """A Python expression for a constant value."""
        if type(value) in (str, int, float, bool, type(None)):
            return repr(value)
        return self.const(value)

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def flush_pending(self, indent: int) -> None:
        lines = self.pending[-1]
        if lines:
            for line in lines:
                self.emit(indent, line)
            self.pending[-1] = []

    def charge(self, indent: int, n: int, loc: Any) -> None:
        """Fuel: batch-charge ``n`` interpreter ticks."""
        if n <= 0:
            return
        self.emit(indent, f"I._steps += {n}")
        self.emit(
            indent,
            f"if I._steps > {MAX_STEPS}: _over({self.const(loc)})",
        )

    def define_local(self, scope: _Scope, name: str) -> str:
        py = f"u{self.counter}_{name}"
        self.counter += 1
        scope.names[name] = py
        self.fn_stack[-1].own_names.add(py)
        return py

    def note_assignment(self, py: str) -> None:
        """Track assignments to enclosing-function locals so nested
        defs declare them ``nonlocal``."""
        ctx = self.fn_stack[-1]
        if py not in ctx.own_names:
            ctx.nonlocals.add(py)

    # -- entry point ---------------------------------------------------

    def compile(self) -> CompiledBody:
        definition = self.definition
        body = definition.body
        if not isinstance(body, stmts.CompoundStmt):
            raise _Uncompilable("non-compound body")
        scope = _Scope()
        self.emit(0, "def _body(I, B):")
        self.emit(1, "M = I.current_mark")
        for name in self.param_names:
            py = self.define_local(scope, name)
            self.emit(1, f"{py} = B[{name!r}]")
        # call_macro's exec_compound gives the body its own block scope
        # under the parameter frame.
        self.compile_block(body, _Scope(scope), 1)
        self.emit(
            1,
            f"_nr({definition.name!r}, {self.const(body.loc)})",
        )
        source = "\n".join(self.lines) + "\n"
        code = compile(source, f"<ms2:{definition.name}>", "exec")
        ns = dict(_HELPER_NS)
        ns.update(self.ns)
        exec(code, ns)
        return CompiledBody(
            definition.name,
            frozenset(self.param_names),
            ns["_body"],
            body.loc,
            self.template_count,
        )

    # -- statements ----------------------------------------------------

    def compile_block(
        self, block: stmts.CompoundStmt, scope: _Scope, indent: int
    ) -> None:
        """A compound's declarations then statements (C89 order), in
        the given (fresh) scope."""
        for d in block.decls:
            self.compile_declaration(d, scope, indent)
        for s in block.stmts:
            self.compile_stmt(s, scope, indent)

    def compile_declaration(
        self, d: Node, scope: _Scope, indent: int
    ) -> None:
        if not isinstance(d, decls.Declaration):
            # The interpreter raises lazily, when the block executes.
            self.emit(
                indent,
                f"_raise_decl({type(d).__name__!r}, {self.const(d.loc)})",
            )
            return
        try:
            bindings = bindings_from_declaration(d)
        except Ms2Error:
            # The converter would raise the same (deterministic) error
            # at run time; keep the interpreter's exact behaviour.
            raise _Uncompilable("declaration") from None
        for (name, asttype), item in zip(bindings, d.init_declarators):
            if (
                isinstance(item, decls.InitDeclarator)
                and item.init is not None
            ):
                code, ticks = self.compile_expr(item.init, scope)
                self.charge(indent, ticks, item.init.loc)
                self.flush_pending(indent)
                py = self.define_local(scope, name)
                self.emit(indent, f"{py} = {code}")
            else:
                py = self.define_local(scope, name)
                self.emit(indent, f"{py} = {self.default_code(asttype)}")

    def default_code(self, asttype: Any) -> str:
        if isinstance(asttype, ListType):
            return "[]"
        if isinstance(asttype, CType):
            if asttype.name in ("int", "char"):
                return "0"
            if asttype.name == "float":
                return "0.0"
            if asttype.name == "string":
                return "''"
            return "_N"
        if asttype is None:
            return "_N"
        return f"_dflt({self.const(asttype)})"

    def compile_stmt(self, s: Node, scope: _Scope, indent: int) -> None:
        if isinstance(s, stmts.ExprStmt):
            code, ticks = self.compile_expr(s.expr, scope)
            self.charge(indent, 1 + ticks, s.loc)
            self.flush_pending(indent)
            self.emit(indent, code)
        elif isinstance(s, stmts.CompoundStmt):
            self.charge(indent, 1, s.loc)
            self.compile_block(s, _Scope(scope), indent)
        elif isinstance(s, stmts.IfStmt):
            cond, ticks = self.compile_condition(s.cond, scope, s.loc)
            self.charge(indent, 1 + ticks, s.loc)
            self.flush_pending(indent)
            self.emit(indent, f"if {cond}:")
            self.compile_stmt(s.then, scope, indent + 1)
            if s.otherwise is not None:
                self.emit(indent, "else:")
                self.compile_stmt(s.otherwise, scope, indent + 1)
        elif isinstance(s, stmts.WhileStmt):
            self.compile_while(s, scope, indent)
        elif isinstance(s, stmts.DoWhileStmt):
            self.compile_dowhile(s, scope, indent)
        elif isinstance(s, stmts.ForStmt):
            self.compile_for(s, scope, indent)
        elif isinstance(s, stmts.ReturnStmt):
            if s.expr is None:
                self.charge(indent, 1, s.loc)
                self.emit(indent, "return _N")
            else:
                code, ticks = self.compile_expr(s.expr, scope)
                self.charge(indent, 1 + ticks, s.loc)
                self.flush_pending(indent)
                self.emit(indent, f"return {code}")
        elif isinstance(s, stmts.BreakStmt):
            if not self.loop_stack:
                raise _Uncompilable("break outside loop")
            self.charge(indent, 1, s.loc)
            self.emit(indent, "break")
        elif isinstance(s, stmts.ContinueStmt):
            if not self.loop_stack:
                raise _Uncompilable("continue outside loop")
            self.charge(indent, 1, s.loc)
            if self.loop_stack[-1] == "while":
                self.emit(indent, "continue")
            else:
                # C continue in for/do-while falls through to the step
                # (or the bottom condition): replicate the
                # interpreter's exception-based jump.
                self.emit(indent, "raise _Continue()")
        elif isinstance(s, stmts.NullStmt):
            self.charge(indent, 1, s.loc)
        elif isinstance(s, stmts.LabeledStmt):
            self.charge(indent, 1, s.loc)
            self.compile_stmt(s.stmt, scope, indent)
        elif isinstance(s, stmts.SwitchStmt):
            raise _Uncompilable("switch")
        else:
            self.charge(indent, 1, s.loc)
            self.emit(
                indent,
                f"_raise_stmt({type(s).__name__!r}, {self.const(s.loc)})",
            )

    # Loop bodies are wrapped in ``try/except _Break/_Continue`` even
    # though break/continue compile to native jumps: the interpreter's
    # loop handlers also catch a stray ``break;`` escaping from a
    # *called* (interpreted) meta-function, and parity includes that
    # corner.  try/except is free on the non-raising path (3.11+).

    def compile_while(
        self, s: stmts.WhileStmt, scope: _Scope, indent: int
    ) -> None:
        self.charge(indent, 1, s.loc)
        cond, cticks = self.compile_condition(s.cond, scope, s.loc)
        cond_pending = self.pending[-1]
        self.pending[-1] = []
        if cond_pending:
            self.emit(indent, "while True:")
            body_indent = indent + 1
            for line in cond_pending:
                self.emit(body_indent, line)
            self.emit(body_indent, f"if not {cond}: break")
        else:
            self.emit(indent, f"while {cond}:")
            body_indent = indent + 1
        self.charge(body_indent, 1 + cticks, s.loc)
        self.emit(body_indent, "try:")
        self.loop_stack.append("while")
        self.compile_stmt(s.body, scope, body_indent + 1)
        self.loop_stack.pop()
        self.emit(body_indent, "except _Break: break")
        self.emit(body_indent, "except _Continue: continue")

    def compile_dowhile(
        self, s: stmts.DoWhileStmt, scope: _Scope, indent: int
    ) -> None:
        self.charge(indent, 1, s.loc)
        self.emit(indent, "while True:")
        body_indent = indent + 1
        cond, cticks = self.compile_condition(s.cond, scope, s.loc)
        cond_pending = self.pending[-1]
        self.pending[-1] = []
        self.charge(body_indent, 1 + cticks, s.loc)
        self.emit(body_indent, "try:")
        self.loop_stack.append("dowhile")
        self.compile_stmt(s.body, scope, body_indent + 1)
        self.loop_stack.pop()
        self.emit(body_indent, "except _Break: break")
        self.emit(body_indent, "except _Continue: pass")
        for line in cond_pending:
            self.emit(body_indent, line)
        self.emit(body_indent, f"if not {cond}: break")

    def compile_for(
        self, s: stmts.ForStmt, scope: _Scope, indent: int
    ) -> None:
        init_ticks = 0
        if s.init is not None:
            init_code, init_ticks = self.compile_expr(s.init, scope)
        self.charge(indent, 1 + init_ticks, s.loc)
        self.flush_pending(indent)
        if s.init is not None:
            self.emit(indent, init_code)
        cond = None
        cticks = 0
        if s.cond is not None:
            cond, cticks = self.compile_condition(s.cond, scope, s.loc)
        cond_pending = self.pending[-1]
        self.pending[-1] = []
        if cond is not None and not cond_pending:
            self.emit(indent, f"while {cond}:")
            body_indent = indent + 1
        else:
            self.emit(indent, "while True:")
            body_indent = indent + 1
            if cond is not None:
                for line in cond_pending:
                    self.emit(body_indent, line)
                self.emit(body_indent, f"if not {cond}: break")
        step_code = None
        sticks = 0
        if s.step is not None:
            step_code, sticks = self.compile_expr(s.step, scope)
        step_pending = self.pending[-1]
        self.pending[-1] = []
        self.charge(body_indent, 1 + cticks + sticks, s.loc)
        self.emit(body_indent, "try:")
        self.loop_stack.append("for")
        self.compile_stmt(s.body, scope, body_indent + 1)
        self.loop_stack.pop()
        self.emit(body_indent, "except _Break: break")
        self.emit(body_indent, "except _Continue: pass")
        if step_code is not None:
            for line in step_pending:
                self.emit(body_indent, line)
            self.emit(body_indent, step_code)

    # -- expressions ---------------------------------------------------
    #
    # Each compiles to one Python *expression* (so templates and
    # conditions stay inline); the paired int is the statically known
    # number of interpreter ticks the equivalent evaluation performs
    # unconditionally (short-circuited operands are undercounted —
    # fuel batches may only ever under-charge, never over-charge).

    def compile_expr(self, e: Node, scope: _Scope) -> tuple[str, int]:
        if isinstance(e, nodes.Identifier):
            py = scope.lookup(e.name)
            if py is not None:
                return py, 1
            return f"_g(I, {e.name!r}, {self.const(e.loc)})", 1
        if isinstance(e, nodes.IntLit):
            return repr(e.value), 1
        if isinstance(e, nodes.FloatLit):
            return repr(e.value), 1
        if isinstance(e, nodes.CharLit):
            return repr(e.value), 1
        if isinstance(e, nodes.StringLit):
            return repr(e.value), 1
        if isinstance(e, nodes.BinaryOp):
            return self.compile_binop(e, scope)
        if isinstance(e, nodes.UnaryOp):
            return self.compile_unary(e, scope)
        if isinstance(e, nodes.PostfixOp):
            return self.compile_incdec(e, e.op, scope, post=True)
        if isinstance(e, nodes.AssignOp):
            return self.compile_assign(e, scope)
        if isinstance(e, nodes.ConditionalOp):
            cond, ct = self.compile_condition(e.cond, scope, e.loc)
            then, _ = self.compile_expr(e.then, scope)
            other, _ = self.compile_expr(e.otherwise, scope)
            return f"({then} if {cond} else {other})", 1 + ct
        if isinstance(e, nodes.CommaOp):
            left, lt = self.compile_expr(e.left, scope)
            right, rt = self.compile_expr(e.right, scope)
            return f"({left}, {right})[1]", 1 + lt + rt
        if isinstance(e, nodes.Index):
            base, bt = self.compile_expr(e.base, scope)
            index, it = self.compile_expr(e.index, scope)
            return (
                f"_ix({base}, {index}, {self.const(e.loc)})",
                1 + bt + it,
            )
        if isinstance(e, nodes.Member):
            base, bt = self.compile_expr(e.base, scope)
            return (
                f"_mb({base}, {e.name!r}, {self.const(e.loc)})",
                1 + bt,
            )
        if isinstance(e, nodes.Cast):
            operand, ot = self.compile_expr(e.operand, scope)
            return f"_cast({operand})", 1 + ot
        if isinstance(e, nodes.Call):
            return self.compile_call(e, scope)
        if isinstance(e, nodes.Backquote):
            return self.compile_template_expr(e, scope)
        if isinstance(e, nodes.AnonFunction):
            return self.compile_anon(e, scope)
        if isinstance(e, nodes.PlaceholderExpr):
            # Outside a template the interpreter evaluates the
            # placeholder's meta-expression directly.
            code, ticks = self.compile_expr(e.meta_expr, scope)
            return code, 1 + ticks
        # Anything else raises lazily, exactly when evaluated.
        return (
            f"_raise_expr({type(e).__name__!r}, {self.const(e.loc)})",
            1,
        )

    def compile_binop(
        self, e: nodes.BinaryOp, scope: _Scope
    ) -> tuple[str, int]:
        loc = self.const(e.loc)
        if e.op == "&&":
            left, lt = self.compile_condition(e.left, scope, e.loc)
            right, _ = self.compile_condition(e.right, scope, e.loc)
            return (
                f"((1 if {right} else 0) if {left} else 0)",
                1 + lt,
            )
        if e.op == "||":
            left, lt = self.compile_condition(e.left, scope, e.loc)
            right, _ = self.compile_condition(e.right, scope, e.loc)
            return (
                f"(1 if {left} else (1 if {right} else 0))",
                1 + lt,
            )
        helper = _BINOP_HELPERS.get(e.op)
        left, lt = self.compile_expr(e.left, scope)
        right, rt = self.compile_expr(e.right, scope)
        if helper is None:
            return f"_badop({e.op!r}, {loc})", 1 + lt + rt
        fast = _INT_FAST_OPS.get(e.op)
        if fast is not None and _is_atom(left) and _is_atom(right):
            guards = _int_guards(e.op, left, right)
            if guards:
                return (
                    f"({fast.format(l=left, r=right)}"
                    f" if {' and '.join(guards)}"
                    f" else {helper}({left}, {right}, {loc}))",
                    1 + lt + rt,
                )
            if guards is not None:
                return (
                    f"({fast.format(l=left, r=right)})",
                    1 + lt + rt,
                )
        return f"{helper}({left}, {right}, {loc})", 1 + lt + rt

    def compile_condition(
        self, e: Node, scope: _Scope, at: Any
    ) -> tuple[str, int]:
        """Code for ``e`` in a boolean context (if/while/ternary
        tests): an all-int comparison between atoms tests natively,
        anything else funnels through ``_truthy`` exactly as the
        interpreter does.  ``at`` is the location the enclosing
        construct reports (statement loc for statements)."""
        if isinstance(e, nodes.BinaryOp) and e.op in _CMP_OPS:
            left, lt = self.compile_expr(e.left, scope)
            right, rt = self.compile_expr(e.right, scope)
            loc = self.const(at)
            helper = _BINOP_HELPERS[e.op]
            if _is_atom(left) and _is_atom(right):
                guards = _int_guards(e.op, left, right)
                eloc = self.const(e.loc)
                if guards:
                    return (
                        f"({left} {e.op} {right}"
                        f" if {' and '.join(guards)}"
                        f" else _truthy("
                        f"{helper}({left}, {right}, {eloc}), {loc}))",
                        1 + lt + rt,
                    )
                return f"({left} {e.op} {right})", 1 + lt + rt
            eloc = self.const(e.loc)
            return (
                f"_truthy({helper}({left}, {right}, {eloc}), {loc})",
                1 + lt + rt,
            )
        code, ticks = self.compile_expr(e, scope)
        return f"_truthy({code}, {self.const(at)})", ticks

    def compile_unary(
        self, e: nodes.UnaryOp, scope: _Scope
    ) -> tuple[str, int]:
        if e.op in ("++", "--"):
            return self.compile_incdec(e, e.op, scope, post=False)
        if e.op == "!":
            cond, ot = self.compile_condition(e.operand, scope, e.loc)
            return f"(0 if {cond} else 1)", 1 + ot
        operand, ot = self.compile_expr(e.operand, scope)
        loc = self.const(e.loc)
        if e.op == "*":
            return f"_head({operand}, {loc})", 1 + ot
        if e.op == "-":
            return f"_neg({operand}, {loc})", 1 + ot
        if e.op == "+":
            return f"_pos({operand}, {loc})", 1 + ot
        if e.op == "~":
            return f"_inv({operand}, {loc})", 1 + ot
        return f"_badop({e.op!r}, {loc})", 1 + ot

    def compile_incdec(
        self, e: Node, op: str, scope: _Scope, post: bool
    ) -> tuple[str, int]:
        """``++x`` / ``x++`` and friends: read, require int, write
        back via the same target shapes the interpreter accepts."""
        target = e.operand
        read, rticks = self.compile_expr(target, scope)
        loc = self.const(e.loc)
        delta = "+ 1" if op == "++" else "- 1"
        if _is_atom(read) and not read[0].isdigit():
            checked = (
                f"({read} if {read}.__class__ is int"
                f" else _reqint({read}, {loc}))"
            )
        else:
            checked = f"_reqint({read}, {loc})"
        if post:
            old = self.fresh("_t")
            write, wticks = self.compile_store(
                target, f"{old} {delta}", scope
            )
            if write is None:
                raise _Uncompilable("increment target")
            return (
                f"(({old} := {checked}), {write})[0]",
                1 + rticks + wticks,
            )
        write, wticks = self.compile_store(
            target, f"{checked} {delta}", scope
        )
        if write is None:
            raise _Uncompilable("increment target")
        return f"({write})", 1 + rticks + wticks

    def compile_store(
        self, target: Node, value_code: str, scope: _Scope
    ) -> tuple[str | None, int]:
        """An expression that assigns ``value_code`` to ``target`` and
        evaluates to the stored value; mirrors ``_assign_to``.  The
        int counts the ticks of re-evaluating the target's address
        sub-expressions (the interpreter re-evaluates them too)."""
        if isinstance(target, nodes.Identifier):
            py = scope.lookup(target.name)
            if py is not None:
                self.note_assignment(py)
                return f"({py} := {value_code})", 0
            loc = self.const(target.loc)
            return f"_ag(I, {target.name!r}, {value_code}, {loc})", 0
        if isinstance(target, nodes.Index):
            base, bt = self.compile_expr(target.base, scope)
            index, it = self.compile_expr(target.index, scope)
            loc = self.const(target.loc)
            tmp = self.fresh("_t")
            return (
                f"(({tmp} := {value_code}), "
                f"_aix({base}, {index}, {tmp}, {loc}))[1]",
                bt + it,
            )
        if isinstance(target, nodes.Member):
            base, bt = self.compile_expr(target.base, scope)
            loc = self.const(target.loc)
            tmp = self.fresh("_t")
            return (
                f"(({tmp} := {value_code}), "
                f"_amb({base}, {target.name!r}, {tmp}, {loc}))[1]",
                bt,
            )
        # Invalid targets ("invalid assignment target") are rare and
        # error-only; keep the interpreter's exact behaviour.
        return None, 0

    def compile_assign(
        self, e: nodes.AssignOp, scope: _Scope
    ) -> tuple[str, int]:
        if e.op == "=":
            value, vticks = self.compile_expr(e.value, scope)
            write, wticks = self.compile_store(e.target, value, scope)
            if write is None:
                raise _Uncompilable("assignment target")
            return write, 1 + vticks + wticks
        op = e.op[:-1]
        helper = _BINOP_HELPERS.get(op)
        if helper is None:
            raise _Uncompilable(f"compound assignment {e.op!r}")
        # The interpreter evaluates target-as-expression, then the
        # value, applies the operator, then re-evaluates the target's
        # address parts for the store — so do we.
        read, rticks = self.compile_expr(e.target, scope)
        value, vticks = self.compile_expr(e.value, scope)
        loc = self.const(e.loc)
        combined = f"{helper}({read}, {value}, {loc})"
        if isinstance(e.target, nodes.Identifier):
            write, wticks = self.compile_store(e.target, combined, scope)
            if write is None:
                raise _Uncompilable("assignment target")
            return write, 1 + rticks + vticks + wticks
        tmp = self.fresh("_t")
        write, wticks = self.compile_store(e.target, tmp, scope)
        if write is None:
            raise _Uncompilable("assignment target")
        return (
            f"(({tmp} := {combined}), {write})[0]",
            1 + rticks + vticks + wticks,
        )

    def compile_call(
        self, e: nodes.Call, scope: _Scope
    ) -> tuple[str, int]:
        parts = []
        ticks = 1
        for a in e.args:
            code, t = self.compile_expr(a, scope)
            parts.append(code)
            ticks += t
        args = "[" + ", ".join(parts) + "]"
        loc = self.const(e.loc)
        if isinstance(e.func, nodes.Identifier):
            name = e.func.name
            py = scope.lookup(name)
            if py is not None:
                return f"_callv(I, {name!r}, {py}, {args}, {loc})", ticks
            return f"_callg(I, {name!r}, {args}, {loc})", ticks
        func, ft = self.compile_expr(e.func, scope)
        # The interpreter evaluates arguments before the callee.
        return f"_calle(I, {args}, {func}, {loc})", ticks + ft

    def compile_anon(
        self, e: nodes.AnonFunction, scope: _Scope
    ) -> tuple[str, int]:
        """An anonymous function becomes a nested Python def (hoisted
        just before the statement that evaluates this expression) plus
        a :class:`CompiledClosure` created at the expression site."""
        fname = self.fresh("_af")
        params = [name for name, _ in e.params]
        fn_scope = _Scope(scope)
        self.fn_stack.append(_FnCtx())
        self.pending.append([])
        prologue: list[str] = []
        for i, name in enumerate(params):
            py = self.define_local(fn_scope, name)
            prologue.append(f"{py} = _a[{i}]")
        body_code, bticks = self.compile_expr(e.body, fn_scope)
        inner_pending = self.pending.pop()
        ctx = self.fn_stack.pop()
        lines = [f"def {fname}(I, _a):"]
        for py in sorted(ctx.nonlocals):
            lines.append(f"    nonlocal {py}")
            # An assignment through *this* scope also needs declaring
            # one level up if it isn't ours either.
            self.note_assignment(py)
        # Templates in the closure body stamp the mark current at
        # *call* time (the closure may be stored and invoked under a
        # later expansion) — exactly what the interpreter does.
        lines.append("    M = I.current_mark")
        for line in prologue:
            lines.append("    " + line)
        # The interpreter would tick every node of the body expression
        # when the closure is called.
        lines.append(f"    I._steps += {bticks}")
        lines.append(
            f"    if I._steps > {MAX_STEPS}: _over({self.const(e.loc)})"
        )
        for line in inner_pending:
            lines.append("    " + line)
        lines.append(f"    return {body_code}")
        self.pending[-1].extend(lines)
        return f"_CC({self.const(params)}, {fname})", 1

    # -- templates -----------------------------------------------------

    def compile_template_expr(
        self, e: nodes.Backquote, scope: _Scope
    ) -> tuple[str, int]:
        self.template_count += 1
        code, ticks = self.compile_template(e.template, scope)
        return code, 1 + ticks

    def fill_call(self, ph: Node, meta_code: str) -> str:
        """Placeholder fill: expression placeholders get the scalar
        fast path, every other placeholder kind the shared one."""
        fn = "_fillx" if isinstance(ph, nodes.PlaceholderExpr) else "_fill"
        return f"{fn}({self.const(ph)}, {meta_code})"

    def compile_template(
        self, t: Any, scope: _Scope
    ) -> tuple[str, int]:
        """Straight-line constructor code for a template (the compiled
        form of ``template._Instantiator.run``)."""
        if t is None:
            return "None", 0
        if isinstance(t, NullValue):
            return "_N", 0
        if isinstance(t, list):
            return self.compile_template_list(t, scope)
        if isinstance(t, _PLACEHOLDER_CLASSES):
            meta, ticks = self.compile_expr(t.meta_expr, scope)
            return self.fill_call(t, meta), ticks
        if isinstance(t, Node):
            return self.compile_rebuild(t, scope)
        return self.lit(t), 0

    def compile_template_list(
        self, items: list[Any], scope: _Scope
    ) -> tuple[str, int]:
        """A template list: placeholder results splice, single nodes
        append — compiled to list-literal concatenation."""
        parts: list[str] = []
        run: list[str] = []
        ticks = 0
        for item in items:
            code, t = self.compile_template(item, scope)
            ticks += t
            if isinstance(item, _PLACEHOLDER_CLASSES) or isinstance(
                item, list
            ):
                if run:
                    parts.append("[" + ", ".join(run) + "]")
                    run = []
                parts.append(
                    code if isinstance(item, list) else f"_aslist({code})"
                )
            else:
                run.append(code)
        if run:
            parts.append("[" + ", ".join(run) + "]")
        if not parts:
            return "[]", 0
        return "(" + " + ".join(parts) + ")", ticks

    def compile_rebuild(
        self, node: Node, scope: _Scope
    ) -> tuple[str, int]:
        cls = type(node)
        clsname = cls.__name__
        self.ns[clsname] = cls
        args: list[str] = []
        ticks = 0
        for f in dataclasses.fields(node):
            if not f.init:
                continue
            value = getattr(node, f.name)
            if f.name == "mark":
                args.append("mark=M")
                continue
            if f.name == "loc":
                args.append(f"loc={self.const(value)}")
                continue
            if isinstance(value, _PLACEHOLDER_CLASSES):
                meta, t = self.compile_expr(value.meta_expr, scope)
                ticks += t
                fill = self.fill_call(value, meta)
                args.append(
                    f"{f.name}=_sc({fill}, {clsname!r}, {f.name!r}, "
                    f"{self.const(node.loc)}, M)"
                )
            elif isinstance(value, Node):
                code, t = self.compile_rebuild(value, scope)
                ticks += t
                args.append(f"{f.name}={code}")
            elif isinstance(value, list):
                code, t = self.compile_rebuild_list(value, scope)
                ticks += t
                args.append(f"{f.name}={code}")
            else:
                args.append(f"{f.name}={self.lit(value)}")
        code = f"{clsname}({', '.join(args)})"
        if isinstance(node, _NORMALIZED_CLASSES):
            code = f"_nz({code})"
        return code, ticks

    def compile_rebuild_list(
        self, items: list[Any], scope: _Scope
    ) -> tuple[str, int]:
        """A list-valued template field: node items recurse (direct
        placeholders may splice), non-node items pass through."""
        parts: list[str] = []
        run: list[str] = []
        ticks = 0
        for item in items:
            if isinstance(item, _PLACEHOLDER_CLASSES):
                meta, t = self.compile_expr(item.meta_expr, scope)
                ticks += t
                if run:
                    parts.append("[" + ", ".join(run) + "]")
                    run = []
                parts.append(f"_aslist({self.fill_call(item, meta)})")
            elif isinstance(item, Node):
                code, t = self.compile_rebuild(item, scope)
                ticks += t
                run.append(code)
            else:
                run.append(self.lit(item))
        if run:
            parts.append("[" + ", ".join(run) + "]")
        if not parts:
            return "[]", 0
        return "(" + " + ".join(parts) + ")", ticks
