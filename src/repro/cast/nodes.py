"""Expression nodes for the C AST, plus the meta-expression forms.

The meta-language is C extended with AST values, so its expressions
reuse every node here and add three forms that only occur in
meta-code:

* :class:`Backquote` — a code template (paper section 2);
* :class:`AnonFunction` — the downward-only anonymous functions; and
* :class:`PlaceholderExpr` — a ``$``-hole inside a template.

:class:`MacroInvocation` is also defined here: it is a single node
class usable at expression, statement, and declaration positions (the
three positions the paper's system supports), carrying the parsed
actual parameters as :class:`MacroArg` bindings.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, ClassVar

from repro.cast.base import Node, node

# ---------------------------------------------------------------------------
# Literals and names
# ---------------------------------------------------------------------------


@node
class Identifier(Node):
    """A name.  This is also the ``id`` primitive AST type's node."""

    sexpr_name: ClassVar[str] = "id"
    name: str


@node
class IntLit(Node):
    """Integer literal; the ``num`` primitive AST type's main node."""

    sexpr_name: ClassVar[str] = "num"
    value: int
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            self.text = str(self.value)


@node
class FloatLit(Node):
    sexpr_name: ClassVar[str] = "float"
    value: float
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            self.text = repr(self.value)


@node
class CharLit(Node):
    sexpr_name: ClassVar[str] = "char"
    value: int
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            self.text = f"'{chr(self.value)}'"


@node
class StringLit(Node):
    sexpr_name: ClassVar[str] = "string"
    value: str
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            escaped = (
                self.value.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
                .replace("\t", "\\t")
            )
            self.text = f'"{escaped}"'


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

#: Prefix unary operator spellings.
UNARY_OPS = frozenset({"+", "-", "*", "&", "!", "~", "++", "--"})
#: Postfix unary operator spellings.
POSTFIX_OPS = frozenset({"++", "--"})
#: Binary (non-assignment) operator spellings.
BINARY_OPS = frozenset(
    {
        "*", "/", "%", "+", "-", "<<", ">>", "<", ">", "<=", ">=",
        "==", "!=", "&", "^", "|", "&&", "||",
    }
)
#: Assignment operator spellings.
ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|="}
)


@node
class UnaryOp(Node):
    """A prefix unary operation (``-x``, ``*p``, ``++i`` …)."""

    sexpr_name: ClassVar[str] = "unary"
    op: str
    operand: Node


@node
class PostfixOp(Node):
    """A postfix ``++`` or ``--``."""

    sexpr_name: ClassVar[str] = "postfix"
    op: str
    operand: Node


@node
class BinaryOp(Node):
    sexpr_name: ClassVar[str] = "binop"
    op: str
    left: Node
    right: Node


@node
class AssignOp(Node):
    sexpr_name: ClassVar[str] = "assign"
    op: str
    target: Node
    value: Node


@node
class ConditionalOp(Node):
    """The ternary ``cond ? then : otherwise``."""

    sexpr_name: ClassVar[str] = "cond"
    cond: Node
    then: Node
    otherwise: Node


@node
class CommaOp(Node):
    sexpr_name: ClassVar[str] = "comma"
    left: Node
    right: Node


@node
class Call(Node):
    sexpr_name: ClassVar[str] = "call"
    func: Node
    args: list[Node]


@node
class Index(Node):
    sexpr_name: ClassVar[str] = "index"
    base: Node
    index: Node


@node
class Member(Node):
    """``base.name`` (``arrow=False``) or ``base->name`` (``arrow=True``)."""

    sexpr_name: ClassVar[str] = "member"
    base: Node
    name: str
    arrow: bool = False


@node
class Cast(Node):
    """``(type) operand``; ``type_name`` is a :class:`~repro.cast.decls.TypeName`."""

    sexpr_name: ClassVar[str] = "cast"
    type_name: Node
    operand: Node


@node
class SizeofExpr(Node):
    sexpr_name: ClassVar[str] = "sizeof-expr"
    operand: Node


@node
class SizeofType(Node):
    sexpr_name: ClassVar[str] = "sizeof-type"
    type_name: Node


# ---------------------------------------------------------------------------
# Meta-language expression forms
# ---------------------------------------------------------------------------


@node
class PlaceholderExpr(Node):
    """A ``$name`` / ``$(expr)`` hole standing in an expression position.

    ``meta_expr`` is the parsed meta-expression to evaluate at
    expansion time; ``asttype`` is the AST type the parser's semantic
    analysis assigned to it (an :class:`repro.asttypes.types.AstType`).
    """

    sexpr_name: ClassVar[str] = "ph"
    meta_expr: Node
    asttype: Any = field(compare=False, default=None, repr=False)


@node
class Backquote(Node):
    """A code template.

    ``form`` is one of ``"exp"``, ``"stmt"``, ``"decl"``, or
    ``"pattern"``; ``template`` is the parsed template AST (containing
    placeholder nodes); ``asttype`` is the AST type the template
    produces.  For the general pattern form, ``template`` is a
    :class:`TemplateTuple` or list as dictated by the pspec.
    """

    sexpr_name: ClassVar[str] = "backquote"
    form: str
    template: Any
    asttype: Any = field(compare=False, default=None, repr=False)


@node
class AnonFunction(Node):
    """The ``( declaration-list expression )`` anonymous function.

    ``params`` is a list of ``(name, asttype_or_none)`` pairs parsed
    from the declaration list; ``body`` is the expression whose value
    the function returns (no ``return`` statement is needed).
    """

    sexpr_name: ClassVar[str] = "lambda"
    params: list[Any]
    body: Node


# ---------------------------------------------------------------------------
# Macro invocations
# ---------------------------------------------------------------------------


@node
class MacroArg(Node):
    """One named actual parameter of a macro invocation.

    ``value`` is whatever the pattern element produced: an AST node,
    a list (for repetitions), a :class:`TupleValue` (for sub-pattern
    tuples), or ``None`` (for an absent optional element).
    """

    sexpr_name: ClassVar[str] = "arg"
    name: str
    value: Any


@node
class TupleValue(Node):
    """A tuple of named components, produced by a sub-pattern."""

    sexpr_name: ClassVar[str] = "tuple"
    fields: list[MacroArg]

    def get(self, name: str) -> Any:
        for f in self.fields:
            if f.name == name:
                return f.value
        raise KeyError(name)


@node
class MacroInvocation(Node):
    """A parsed-but-not-yet-expanded macro invocation.

    One node class serves all three invocation positions (declaration,
    statement, expression); the parser only creates it where the
    macro's declared return type is legal.  ``definition`` is the
    :class:`repro.macros.definition.MacroDefinition` (not compared so
    that structural equality is about the program text).
    """

    sexpr_name: ClassVar[str] = "macro-invocation"
    name: str
    args: list[MacroArg]
    definition: Any = field(compare=False, default=None, repr=False)
    #: How the invocation was parsed (``"compiled"`` /
    #: ``"interpreted"``); recorded by the parser for tracing spans.
    parse_mode: str | None = field(compare=False, default=None, repr=False)


# ---------------------------------------------------------------------------
# Poisoned nodes (recovery mode)
# ---------------------------------------------------------------------------


@node
class ErrorExpr(Node):
    """A poisoned expression standing where parsing or expansion failed.

    Produced only in recovery mode (``Ms2Options(recover=True)``).
    Type inference treats it as ``any`` so one fault does not cascade
    into follow-on diagnostics; the printer renders it as a comment.
    """

    sexpr_name: ClassVar[str] = "error-exp"
    message: str = ""


@node
class ErrorStmt(Node):
    """A poisoned statement covering a recovered region of source."""

    sexpr_name: ClassVar[str] = "error-stmt"
    message: str = ""


@node
class ErrorDecl(Node):
    """A poisoned declaration / top-level item from a recovered region."""

    sexpr_name: ClassVar[str] = "error-decl"
    message: str = ""
