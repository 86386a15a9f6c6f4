"""The recursive-descent parser for C extended with the macro language.

Architecture (paper section 3): hand-written recursive descent at the
declaration and statement levels, operator-precedence at the expression
level (:mod:`repro.parser.exprs`).  The parser is fully re-entrant —
placeholder expressions are parsed by recursive calls on the same
stream — and performs AST type analysis *while parsing* so that:

* code templates parse deterministically (placeholder tokens carry the
  AST type of their expression — Figures 2 and 3), and
* macro bodies are fully type-checked at definition time.

The parser is usable standalone for plain C.  Macro definition,
meta-declaration and expansion behaviour is delegated to a *host*
object (see :class:`MacroHost`); :class:`repro.engine.MacroProcessor`
provides the full implementation.
"""

from __future__ import annotations

import contextlib
from typing import Any, Protocol

from repro.asttypes.body import BodyChecker
from repro.asttypes.check import MetaTypeInferencer
from repro.asttypes.convert import (
    bindings_from_declaration,
    is_meta_declaration,
)
from repro.asttypes.env import TypeEnv
from repro.asttypes.types import (
    DECL,
    EXP,
    ID,
    STMT,
    TYPE_SPEC,
    AstType,
    FuncType,
    ListType,
    list_of,
    prim,
)
from repro.cast import ctypes, decls, nodes, stmts
from repro.cast.base import Node
from repro.diagnostics import DiagnosticSink
from repro.errors import MacroSyntaxError, Ms2Error, ParseError, SYNTHETIC
from repro.lexer.scanner import tokenize
from repro.lexer.tokens import AST_SPECIFIER_NAMES, Token, TokenKind
from repro.macros.lookahead import validate_pattern
from repro.macros.pattern import Pattern, PatternParser
from repro.parser.exprs import ExpressionParserMixin
from repro.parser.stream import TokenStream

_STORAGE_KEYWORDS = frozenset(
    {"typedef", "extern", "static", "auto", "register"}
)
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile"})
_PRIMITIVE_KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "signed", "unsigned",
    }
)
_TYPE_KEYWORDS = _PRIMITIVE_KEYWORDS | {"struct", "union", "enum"}
_DECL_KEYWORDS = _STORAGE_KEYWORDS | _QUALIFIER_KEYWORDS | _TYPE_KEYWORDS


class MacroHost(Protocol):
    """What the parser needs from the macro machinery.

    The engine implements this; a parser without a host handles plain
    C only (``syntax`` / ``metadcl`` / invocations become errors).
    """

    def lookup_macro(self, name: str) -> Any | None:
        """Return the macro definition registered under ``name``."""

    def dispatch_macro(self, name: str, position: str) -> Any | None:
        """Return the macro invocable as ``name`` at ``position``
        (single-probe dispatch index); optional — the parser falls
        back to :meth:`lookup_macro` plus a position check."""

    def handle_macro_def(self, macro: decls.MacroDef, parser: "Parser") -> Any:
        """Compile and register a just-parsed macro definition."""

    def handle_meta_decl(self, meta: decls.MetaDecl, parser: "Parser") -> None:
        """Record (and initialize) a global meta-declaration."""

    def handle_meta_function(
        self, fn: decls.FunctionDef, parser: "Parser"
    ) -> None:
        """Register a meta-function definition."""

    def expand_invocation(
        self, invocation: nodes.MacroInvocation, position: str
    ) -> Node | list[Node]:
        """Run the macro and return the replacement AST(s)."""


class Parser(ExpressionParserMixin):
    """Parser for the extended language.

    Parameters
    ----------
    source:
        Program text, or a pre-built :class:`TokenStream`.
    host:
        The macro host (None for plain C).
    expand_inline:
        When true (and a host is present), macro invocations are
        expanded as soon as they are parsed — "macros operate during
        parsing".  When false, :class:`~repro.cast.nodes.MacroInvocation`
        nodes are left in the tree.
    filename:
        For source locations.
    """

    def __init__(
        self,
        source: str | TokenStream,
        host: MacroHost | None = None,
        *,
        expand_inline: bool = True,
        filename: str = "<string>",
        stats: Any = None,
        diagnostics: DiagnosticSink | None = None,
    ) -> None:
        #: Optional :class:`repro.stats.PipelineStats` hooked up by the
        #: engine; None for standalone parsers.
        self.stats = stats
        #: Optional :class:`repro.diagnostics.DiagnosticSink`; when
        #: present the parser recovers from errors (panic-mode resync)
        #: instead of failing fast.
        self.diagnostics = diagnostics
        if isinstance(source, TokenStream):
            self.stream = source
        else:
            self.stream = TokenStream(
                tokenize(source, filename, stats=stats)
            )
        self.host = host
        self.expand_inline = expand_inline
        self.filename = filename

        #: Scoped typedef-name table (context sensitivity, paper §3).
        self.typedef_scopes: list[set[str]] = [set()]

        #: Scoped C symbol table (the semantic-macro substrate, §5).
        from repro.semantics import CScope

        self.c_scope = CScope()

        #: Global meta type environment (metadcl vars, meta functions).
        self.global_type_env = TypeEnv()
        #: Current meta type environment (rebound inside bodies/scopes).
        self.type_env = self.global_type_env
        self.inferencer = MetaTypeInferencer(self.type_env)

        #: True while parsing meta-code (macro bodies, meta functions).
        self.meta_mode = False
        #: True while parsing inside a backquote template.
        self.template_mode = False

    # ==================================================================
    # Token plumbing (placeholder conversion happens here)
    # ==================================================================

    def peek(self, ahead: int = 0) -> Token:
        if ahead == 0:
            self._convert_placeholder()
        return self.stream.peek(ahead)

    def next_token(self) -> Token:
        self._convert_placeholder()
        return self.stream.next()

    def _convert_placeholder(self) -> None:
        """The tokenizer/parser co-routine of paper section 3.

        Inside a template, a ``$`` token is replaced by a synthesized
        placeholder token wrapping the parsed-and-typed placeholder
        expression.  Every downstream parse routine then needs only
        one token of lookahead to decide what the placeholder stands
        for.
        """
        if not self.template_mode:
            return
        token = self.stream.peek()
        if token.kind is not TokenKind.DOLLAR:
            return
        self.stream.next()  # consume '$'
        with self._template(False):
            meta_expr = self._parse_placeholder_meta_expr(token)
        asttype = self.inferencer.infer(meta_expr)
        payload = nodes.PlaceholderExpr(
            meta_expr, asttype, loc=token.location
        )
        synthesized = Token(
            TokenKind.PLACEHOLDER,
            f"${getattr(meta_expr, 'name', '(...)')}",
            token.location,
            value=payload,
        )
        self.stream.push(synthesized)

    def _parse_placeholder_meta_expr(self, dollar: Token) -> Node:
        nxt = self.stream.peek()
        if nxt.kind is TokenKind.IDENT:
            self.stream.next()
            return nodes.Identifier(nxt.text, loc=nxt.location)
        if nxt.is_punct("("):
            self.stream.next()
            expr = self.parse_expression()
            self.stream.expect_punct(")")
            return expr
        raise ParseError(
            "a placeholder is '$' followed by an identifier or a "
            f"parenthesized expression, got {nxt.describe()}",
            dollar.location,
        )

    # ==================================================================
    # Mode management
    # ==================================================================

    @contextlib.contextmanager
    def _template(self, on: bool):
        saved = self.template_mode
        self.template_mode = on
        try:
            yield
        finally:
            self.template_mode = saved

    @contextlib.contextmanager
    def _meta(self, on: bool):
        saved = self.meta_mode
        self.meta_mode = on
        try:
            yield
        finally:
            self.meta_mode = saved

    @contextlib.contextmanager
    def _scoped_env(self, env: TypeEnv):
        saved = self.type_env
        self.type_env = env
        self.inferencer.env = env
        try:
            yield
        finally:
            self.type_env = saved
            self.inferencer.env = saved

    # ==================================================================
    # Typedef table
    # ==================================================================

    def push_typedef_scope(self) -> None:
        self.typedef_scopes.append(set())

    def pop_typedef_scope(self) -> None:
        self.typedef_scopes.pop()

    def add_typedef(self, name: str) -> None:
        self.typedef_scopes[-1].add(name)

    def is_typedef_name(self, name: str) -> bool:
        return any(name in scope for scope in self.typedef_scopes)

    # ==================================================================
    # Macro table access
    # ==================================================================

    def macro_lookup(self, name: str):
        if self.host is None:
            return None
        return self.host.lookup_macro(name)

    def macro_dispatch(self, name: str, position: str):
        """The macro invocable as ``name`` at ``position``, or None.

        Probes the host's dispatch index (one trie-root hit) when it
        has one; otherwise degrades to lookup + position check.
        """
        host = self.host
        if host is None:
            return None
        dispatch = getattr(host, "dispatch_macro", None)
        if dispatch is not None:
            defn = dispatch(name, position)
        else:
            defn = host.lookup_macro(name)
            if defn is not None and defn.ret_spec != position:
                defn = None
        stats = self.stats
        if stats is not None:
            if defn is not None:
                stats.dispatch_hits += 1
            else:
                stats.dispatch_misses += 1
        return defn

    # ==================================================================
    # Program / top level
    # ==================================================================

    def parse_program(self) -> decls.TranslationUnit:
        items: list[Node] = []
        sink = self.diagnostics
        while not self.stream.at_eof():
            if sink is None:
                item = self.parse_top_level_item()
            else:
                before = self.stream.save()
                try:
                    item = self.parse_top_level_item()
                except Ms2Error as exc:
                    item = self._recover_top_level(exc, sink, before)
                    if item is None:
                        break
            if isinstance(item, list):
                items.extend(item)
            elif item is not None:
                items.append(item)
        return decls.TranslationUnit(items)

    # ------------------------------------------------------------------
    # Panic-mode error recovery (active only with a diagnostic sink)
    # ------------------------------------------------------------------

    def _recover_top_level(
        self,
        exc: Ms2Error,
        sink: DiagnosticSink,
        before: tuple[int, list[Token]],
    ) -> Node | None:
        """Record ``exc`` and resynchronize at a top-level boundary.

        Returns a poisoned :class:`~repro.cast.nodes.ErrorDecl`
        covering the skipped region, or ``None`` once the sink is
        saturated (the caller then stops parsing altogether).
        """
        if sink.saturated or not sink.emit_error(exc):
            # Cap reached: fast-forward to EOF, surface what we have.
            while not self.stream.at_eof():
                self.stream.next()
            return None
        if self.stats is not None:
            self.stats.parse_recoveries += 1
        # Guarantee progress even when the failing parse consumed
        # nothing, then skip to the next plausible item boundary.
        if self.stream.save() == before and not self.stream.at_eof():
            self.stream.next()
        self._resync_top_level()
        return nodes.ErrorDecl(
            message=exc.message, loc=exc.location or SYNTHETIC
        )

    def _resync_top_level(self) -> None:
        """Skip tokens until a plausible top-level boundary: past a
        balanced ``}`` or a ``;`` at brace depth zero, or just before
        a keyword that can start a top-level item (``syntax`` /
        ``metadcl`` / declaration specifiers), or EOF."""
        depth = 0
        while not self.stream.at_eof():
            token = self.stream.peek()
            if (
                depth == 0
                and token.kind is TokenKind.KEYWORD
                and (
                    token.text in ("syntax", "metadcl")
                    or token.text in _DECL_KEYWORDS
                )
            ):
                return
            self.stream.next()
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                if depth <= 1:
                    return
                depth -= 1
            elif token.is_punct(";") and depth == 0:
                return

    def _recover_in_compound(
        self, exc: Ms2Error, sink: DiagnosticSink
    ) -> nodes.ErrorStmt:
        """Record ``exc`` and resynchronize inside a compound
        statement (skip to ``;`` — consumed — or stop short of the
        closing ``}``).  Raises when the sink is saturated so the
        give-up propagates to the top level."""
        if sink.saturated or not sink.emit_error(exc):
            raise exc
        if self.stats is not None:
            self.stats.parse_recoveries += 1
        depth = 0
        while not self.stream.at_eof():
            token = self.stream.peek()
            if depth == 0 and token.is_punct("}"):
                break
            self.stream.next()
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                depth -= 1
            elif token.is_punct(";") and depth == 0:
                break
        return nodes.ErrorStmt(
            message=exc.message, loc=exc.location or SYNTHETIC
        )

    @property
    def _recovering(self) -> bool:
        """True when errors should be trapped at statement level:
        recovery is confined to plain program code — a fault inside
        meta-code (macro bodies, templates) poisons the whole
        definition at the top level instead, so no half-checked macro
        is ever registered."""
        return (
            self.diagnostics is not None
            and not self.meta_mode
            and not self.template_mode
        )

    def parse_top_level_item(self) -> Node | list[Node] | None:
        token = self.peek()
        if token.is_keyword("syntax"):
            return self.parse_macro_definition()
        if token.is_keyword("metadcl"):
            return self.parse_meta_declaration()
        if token.kind is TokenKind.IDENT:
            defn = self.macro_dispatch(token.text, "decl")
            if defn is not None:
                return self._invocation_at(defn, "decl")
        if token.kind is TokenKind.PLACEHOLDER:
            return self._placeholder_decl_item(token)
        return self.parse_declaration_or_function()

    def _placeholder_decl_item(self, token: Token) -> Node:
        payload = token.value
        if payload.asttype.is_usable_as(DECL) or payload.asttype.is_usable_as(
            list_of(DECL)
        ):
            self.next_token()
            node = decls.PlaceholderDecl(
                payload.meta_expr, payload.asttype, loc=token.location
            )
            self.stream.accept_punct(";")
            return node
        raise ParseError(
            f"placeholder of AST type {payload.asttype} cannot stand "
            "where a declaration is expected",
            token.location,
        )

    # ------------------------------------------------------------------
    # Declarations and function definitions
    # ------------------------------------------------------------------

    def parse_declaration_or_function(self) -> Node | list[Node] | None:
        """Top-level: a declaration, function definition, or meta item."""
        specs = self.parse_decl_specs()
        if self.stream.accept_punct(";"):
            # e.g. a bare struct/enum definition.
            return decls.Declaration(specs, [], loc=specs.loc)

        declarator = self.parse_declarator()
        nxt = self.peek()

        is_funcdef = False
        if _innermost_is_function(declarator):
            if nxt.is_punct("{"):
                is_funcdef = True
            elif self._starts_declaration(nxt):
                # K&R definitions: parameter declarations before '{'.
                func = _find_func_declarator(declarator)
                if not func.prototype:
                    is_funcdef = True

        if is_funcdef:
            return self._finish_function_def(specs, declarator)
        return self._finish_declaration(specs, declarator)

    def _finish_function_def(
        self, specs: decls.DeclSpecs, declarator: Node
    ) -> Node:
        kr_decls: list[Node] = []
        while not self.peek().is_punct("{"):
            kr_decls.append(self.parse_declaration())

        meta = _specs_are_meta(specs) or any(
            isinstance(n, ctypes.AstTypeSpec)
            for n in _walk_declarator(declarator)
        )
        if meta:
            fn = self._parse_meta_function(specs, declarator, kr_decls)
            if self.host is not None:
                self.host.handle_meta_function(fn, self)
            return decls.MetaDecl(fn, loc=fn.loc)

        # Open a C scope holding the parameters (semantic-macro
        # substrate: invocations in the body can query their types).
        saved_scope = self.c_scope
        self.c_scope = saved_scope.child()
        self.c_scope.record_parameters(declarator)
        for kr in kr_decls:
            if isinstance(kr, decls.Declaration):
                self.c_scope.record_declaration(kr)
        try:
            body = self.parse_compound_statement()
        finally:
            self.c_scope = saved_scope
        return decls.FunctionDef(specs, declarator, kr_decls, body,
                                 loc=specs.loc)

    def _parse_meta_function(
        self,
        specs: decls.DeclSpecs,
        declarator: Node,
        kr_decls: list[Node],
    ) -> decls.FunctionDef:
        """Parse a meta-function body with its parameters in scope."""
        from repro.asttypes.convert import (
            base_type_of_specs,
            binding_from_declarator,
        )

        base = base_type_of_specs(specs)
        name, fn_type = binding_from_declarator(base, declarator)
        if not isinstance(fn_type, FuncType):
            raise MacroSyntaxError(
                f"meta-function {name!r} has a non-function declarator",
                declarator.loc,
            )
        # Bind the function itself (recursion) before parsing the body.
        self.global_type_env.bind(name, fn_type)

        env = self.global_type_env.child()
        func_declarator = _find_func_declarator(declarator)
        for p in func_declarator.params:
            if isinstance(p, decls.ParamDecl):
                pbase = base_type_of_specs(p.specs)
                pname, ptype = binding_from_declarator(pbase, p.declarator)
                env.bind(pname, ptype)

        with self._meta(True), self._scoped_env(env):
            body = self.parse_compound_statement()
            BodyChecker(env, fn_type.result).check_body(body)
        return decls.FunctionDef(specs, declarator, kr_decls, body,
                                 loc=specs.loc)

    def _finish_declaration(
        self, specs: decls.DeclSpecs, first_declarator: Node
    ) -> Node:
        init_declarators = [self._init_declarator_from(first_declarator)]
        while self.stream.accept_punct(","):
            init_declarators.append(self.parse_init_declarator())
        self.stream.expect_punct(";")
        declaration = decls.Declaration(specs, init_declarators,
                                        loc=specs.loc)
        if specs.is_typedef():
            for name in _declared_names(declaration):
                self.add_typedef(name)
        if not self.meta_mode and not is_meta_declaration(declaration):
            self.c_scope.record_declaration(declaration)
        if not self.meta_mode and is_meta_declaration(declaration):
            # A top-level declaration using @-types belongs to the meta
            # program even without an explicit ``metadcl`` prefix.
            for name, asttype in bindings_from_declaration(declaration):
                self.global_type_env.bind(name, asttype)
            meta = decls.MetaDecl(declaration, loc=declaration.loc)
            if self.host is not None:
                self.host.handle_meta_decl(meta, self)
            return meta
        return declaration

    def _init_declarator_from(self, declarator: Node) -> Node:
        if isinstance(
            declarator, (decls.PlaceholderInitDeclarator,)
        ):
            return declarator
        init = None
        if self.stream.accept_punct("="):
            init = self.parse_initializer()
        return decls.InitDeclarator(declarator, init, loc=declarator.loc)

    def parse_declaration(self) -> Node:
        """A plain declaration (no function definitions)."""
        specs = self.parse_decl_specs()
        if self.stream.accept_punct(";"):
            return decls.Declaration(specs, [], loc=specs.loc)
        init_declarators = [self.parse_init_declarator()]
        while self.stream.accept_punct(","):
            init_declarators.append(self.parse_init_declarator())
        self.stream.expect_punct(";")
        declaration = decls.Declaration(specs, init_declarators,
                                        loc=specs.loc)
        if specs.is_typedef():
            for name in _declared_names(declaration):
                self.add_typedef(name)
        return declaration

    # ------------------------------------------------------------------
    # Declaration specifiers
    # ------------------------------------------------------------------

    def parse_decl_specs(self) -> decls.DeclSpecs:
        storage: list[str] = []
        qualifiers: list[str] = []
        primitives: list[str] = []
        type_spec: Node | None = None
        start = self.peek().location

        while True:
            token = self.peek()
            if token.kind is TokenKind.KEYWORD:
                if token.text in _STORAGE_KEYWORDS:
                    storage.append(self.next_token().text)
                    continue
                if token.text in _QUALIFIER_KEYWORDS:
                    qualifiers.append(self.next_token().text)
                    continue
                if token.text in _PRIMITIVE_KEYWORDS:
                    if type_spec is not None:
                        break
                    primitives.append(self.next_token().text)
                    continue
                if token.text in ("struct", "union"):
                    if type_spec is not None or primitives:
                        break
                    type_spec = self.parse_struct_or_union()
                    continue
                if token.text == "enum":
                    if type_spec is not None or primitives:
                        break
                    type_spec = self.parse_enum()
                    continue
                break
            if token.kind is TokenKind.AT:
                if type_spec is not None or primitives:
                    break
                type_spec = self.parse_ast_type_spec()
                continue
            if token.kind is TokenKind.PLACEHOLDER:
                payload = token.value
                if (
                    type_spec is None
                    and not primitives
                    and payload.asttype.is_usable_as(TYPE_SPEC)
                ):
                    self.next_token()
                    type_spec = ctypes.PlaceholderTypeSpec(
                        payload.meta_expr, payload.asttype,
                        loc=token.location,
                    )
                    continue
                break
            if (
                token.kind is TokenKind.IDENT
                and type_spec is None
                and not primitives
                and self.is_typedef_name(token.text)
            ):
                self.next_token()
                type_spec = ctypes.TypedefNameType(
                    token.text, loc=token.location
                )
                continue
            break

        if primitives:
            type_spec = ctypes.PrimitiveType(primitives, loc=start)
        if type_spec is None and not storage and not qualifiers:
            raise ParseError(
                f"expected declaration specifiers, got "
                f"{self.peek().describe()}",
                self.peek().location,
            )
        return decls.DeclSpecs(storage, qualifiers, type_spec, loc=start)

    def parse_ast_type_spec(self) -> ctypes.AstTypeSpec:
        at = self.stream.expect_kind(TokenKind.AT)
        name = self.next_token()
        if (
            name.kind not in (TokenKind.IDENT, TokenKind.KEYWORD)
            or name.text not in AST_SPECIFIER_NAMES
        ):
            raise ParseError(
                f"expected an AST specifier after '@', got {name.describe()}"
                f" (one of: {', '.join(sorted(AST_SPECIFIER_NAMES))})",
                name.location,
            )
        return ctypes.AstTypeSpec(name.text, loc=at.location)

    def parse_struct_or_union(self) -> ctypes.StructOrUnionType:
        kw = self.next_token()
        tag: Any = None
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            tag = self.next_token().text
        elif token.kind is TokenKind.PLACEHOLDER and (
            token.value.asttype.is_usable_as(ID)
        ):
            self.next_token()
            tag = nodes.PlaceholderExpr(
                token.value.meta_expr, token.value.asttype,
                loc=token.location,
            )
        members: list[Node] | None = None
        if self.stream.accept_punct("{"):
            members = []
            while not self.peek().is_punct("}"):
                inner = self.peek()
                if inner.kind is TokenKind.PLACEHOLDER and (
                    _is_decl_placeholder(inner.value.asttype)
                ):
                    # Template member list: struct $name { $fields };
                    self.next_token()
                    self.stream.accept_punct(";")
                    members.append(
                        decls.PlaceholderDecl(
                            inner.value.meta_expr, inner.value.asttype,
                            loc=inner.location,
                        )
                    )
                    continue
                members.append(self.parse_struct_member())
            self.stream.expect_punct("}")
        if tag is None and members is None:
            raise ParseError(
                f"{kw.text} requires a tag or a member list", kw.location
            )
        return ctypes.StructOrUnionType(kw.text, tag, members,
                                        loc=kw.location)

    def parse_struct_member(self) -> Node:
        specs = self.parse_decl_specs()
        declarators: list[Node] = []
        if not self.peek().is_punct(";"):
            declarators.append(
                decls.InitDeclarator(self.parse_declarator(), None)
            )
            while self.stream.accept_punct(","):
                declarators.append(
                    decls.InitDeclarator(self.parse_declarator(), None)
                )
        self.stream.expect_punct(";")
        return decls.Declaration(specs, declarators, loc=specs.loc)

    def parse_enum(self) -> ctypes.EnumType:
        kw = self.next_token()
        tag: Any = None
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            tag = self.next_token().text
        elif token.kind is TokenKind.PLACEHOLDER and (
            token.value.asttype.is_usable_as(ID)
        ):
            # A template tag: ``enum $name { ... }``.
            self.next_token()
            tag = nodes.PlaceholderExpr(
                token.value.meta_expr, token.value.asttype,
                loc=token.location,
            )
        enumerators: list[Node] | None = None
        if self.stream.accept_punct("{"):
            enumerators = []
            while not self.peek().is_punct("}"):
                enumerators.append(self.parse_enumerator())
                if not self.stream.accept_punct(","):
                    break
            self.stream.expect_punct("}")
        if tag is None and enumerators is None:
            raise ParseError("enum requires a tag or an enumerator list",
                             kw.location)
        return ctypes.EnumType(tag, enumerators, loc=kw.location)

    def parse_enumerator(self) -> Node:
        token = self.peek()
        if token.kind is TokenKind.PLACEHOLDER:
            payload = token.value
            ok = payload.asttype.is_usable_as(ID) or (
                isinstance(payload.asttype, ListType)
                and payload.asttype.element.is_usable_as(ID)
            )
            if not ok:
                raise ParseError(
                    f"enumerator placeholder must have type id or id[], "
                    f"got {payload.asttype}",
                    token.location,
                )
            self.next_token()
            return nodes.PlaceholderExpr(
                payload.meta_expr, payload.asttype, loc=token.location
            )
        name = self.stream.expect_ident()
        value: Node | None = None
        if self.stream.accept_punct("="):
            value = self.parse_conditional()
        return ctypes.Enumerator(name.text, value, loc=name.location)

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------

    def parse_declarator(self, allow_abstract: bool = False) -> Node:
        token = self.peek()
        if token.is_punct("*"):
            self.next_token()
            qualifiers: list[str] = []
            while self.peek().kind is TokenKind.KEYWORD and (
                self.peek().text in _QUALIFIER_KEYWORDS
            ):
                qualifiers.append(self.next_token().text)
            inner = self.parse_declarator(allow_abstract)
            return decls.PointerDeclarator(inner, qualifiers,
                                           loc=token.location)
        return self.parse_direct_declarator(allow_abstract)

    def parse_direct_declarator(self, allow_abstract: bool) -> Node:
        token = self.peek()
        base: Node
        if token.kind is TokenKind.IDENT:
            self.next_token()
            base = decls.NameDeclarator(token.text, loc=token.location)
        elif token.kind is TokenKind.PLACEHOLDER:
            payload = token.value
            if payload.asttype.is_usable_as(
                prim("declarator")
            ) or payload.asttype.is_usable_as(ID):
                self.next_token()
                base = decls.PlaceholderDeclarator(
                    payload.meta_expr, payload.asttype, loc=token.location
                )
            elif allow_abstract:
                base = decls.AbstractDeclarator(loc=token.location)
            else:
                raise ParseError(
                    f"placeholder of AST type {payload.asttype} cannot "
                    "stand where a declarator is expected",
                    token.location,
                )
        elif token.is_punct("(") and self._paren_opens_declarator():
            self.next_token()
            base = self.parse_declarator(allow_abstract)
            self.stream.expect_punct(")")
        elif allow_abstract:
            base = decls.AbstractDeclarator(loc=token.location)
        else:
            raise ParseError(
                f"expected a declarator, got {token.describe()}",
                token.location,
            )
        return self._parse_declarator_suffixes(base, allow_abstract)

    def _paren_opens_declarator(self) -> bool:
        """Distinguish ``(*fp)`` from a parameter list ``(int x)``."""
        nxt = self.stream.peek(1)
        if nxt.is_punct("*") or nxt.is_punct("("):
            return True
        if nxt.kind is TokenKind.IDENT and not self.is_typedef_name(nxt.text):
            # A lone identifier could be a K&R parameter list; treat
            # '(' ident ')' '(' as nested declarator only when the
            # identifier is followed by ')' and then a suffix opener.
            after = self.stream.peek(2)
            if nxt.kind is TokenKind.IDENT and after.is_punct(")"):
                opener = self.stream.peek(3)
                return opener.is_punct("(") or opener.is_punct("[")
        return False

    def _parse_declarator_suffixes(
        self, base: Node, allow_abstract: bool
    ) -> Node:
        while True:
            token = self.peek()
            if token.is_punct("["):
                self.next_token()
                size: Node | None = None
                if not self.peek().is_punct("]"):
                    size = self.parse_conditional()
                self.stream.expect_punct("]")
                base = decls.ArrayDeclarator(base, size, loc=token.location)
                continue
            if token.is_punct("("):
                base = self._parse_function_suffix(base, token)
                continue
            return base

    def _parse_function_suffix(self, base: Node, open_paren: Token) -> Node:
        self.next_token()
        params: list[Node] = []
        kr_names: list[str] = []
        variadic = False
        prototype = True
        token = self.peek()
        if token.is_punct(")"):
            prototype = False
        elif self.starts_type_name(token):
            while True:
                if self.peek().is_punct("..."):
                    self.next_token()
                    variadic = True
                    break
                pspecs = self.parse_decl_specs()
                pdecl = self.parse_declarator(allow_abstract=True)
                params.append(
                    decls.ParamDecl(pspecs, pdecl, loc=pspecs.loc)
                )
                if not self.stream.accept_punct(","):
                    break
        else:
            prototype = False
            while True:
                name = self.stream.expect_ident()
                kr_names.append(name.text)
                if not self.stream.accept_punct(","):
                    break
        self.stream.expect_punct(")")
        return decls.FuncDeclarator(
            base, params, kr_names, variadic, prototype,
            loc=open_paren.location,
        )

    def parse_init_declarator(self) -> Node:
        token = self.peek()
        if token.kind is TokenKind.PLACEHOLDER:
            payload = token.value
            asttype = payload.asttype
            # Figure 2 dispatch: the placeholder's AST type decides the
            # parse of the init-declarator position.
            if _is_init_declarator_list_type(asttype):
                self.next_token()
                return decls.PlaceholderInitDeclarator(
                    payload.meta_expr, asttype, loc=token.location
                )
            if asttype.is_usable_as(prim("init_declarator")):
                self.next_token()
                return decls.PlaceholderInitDeclarator(
                    payload.meta_expr, asttype, loc=token.location
                )
            # declarator / id fall through to parse_declarator, which
            # wraps the placeholder in the right declarator context.
        declarator = self.parse_declarator()
        init: Node | None = None
        if self.stream.accept_punct("="):
            init = self.parse_initializer()
        return decls.InitDeclarator(declarator, init, loc=declarator.loc)

    def parse_initializer(self) -> Node:
        if self.peek().is_punct("{"):
            open_brace = self.next_token()
            items: list[Node] = []
            while not self.peek().is_punct("}"):
                items.append(self.parse_initializer())
                if not self.stream.accept_punct(","):
                    break
            self.stream.expect_punct("}")
            return decls.ListInitializer(items, loc=open_brace.location)
        return self.parse_assignment()

    # ------------------------------------------------------------------
    # Type names (casts, sizeof)
    # ------------------------------------------------------------------

    def starts_type_name(self, token: Token) -> bool:
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        if token.kind is TokenKind.KEYWORD and token.text in (
            _QUALIFIER_KEYWORDS
        ):
            return True
        if token.kind is TokenKind.AT:
            return True
        if token.kind is TokenKind.IDENT and self.is_typedef_name(token.text):
            return True
        if token.kind is TokenKind.PLACEHOLDER:
            return token.value.asttype.is_usable_as(TYPE_SPEC)
        return False

    def parse_type_name(self) -> decls.TypeName:
        specs = self.parse_decl_specs()
        declarator = self.parse_declarator(allow_abstract=True)
        return decls.TypeName(specs, declarator, loc=specs.loc)

    def parse_type_spec_only(self) -> Node:
        """A bare type specifier (pattern parameter of type type_spec)."""
        specs = self.parse_decl_specs()
        if specs.storage or specs.qualifiers:
            raise ParseError(
                "storage classes and qualifiers are not part of a "
                "type_spec actual parameter",
                specs.loc,
            )
        assert specs.type_spec is not None
        return specs.type_spec

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _starts_declaration(self, token: Token) -> bool:
        if token.kind is TokenKind.KEYWORD and token.text in _DECL_KEYWORDS:
            return True
        if token.kind is TokenKind.AT:
            return True
        if token.kind is TokenKind.IDENT and self.is_typedef_name(token.text):
            return True
        if token.kind is TokenKind.PLACEHOLDER:
            asttype = token.value.asttype
            if asttype.is_usable_as(DECL) or asttype.is_usable_as(
                list_of(DECL)
            ):
                return True
            if asttype.is_usable_as(TYPE_SPEC):
                return True
        return False

    def parse_compound_statement(self) -> stmts.CompoundStmt:
        open_brace = self.stream.expect_punct("{")
        self.push_typedef_scope()
        saved_c_scope = self.c_scope
        self.c_scope = saved_c_scope.child()
        env = self.type_env.child() if self.meta_mode else self.type_env
        declarations: list[Node] = []
        statements: list[Node] = []
        try:
            with self._scoped_env(env):
                # Declaration list (Figure 3: placeholder types decide
                # where declarations end and statements begin).
                while True:
                    token = self.peek()
                    if token.is_punct("}"):
                        break
                    if token.kind is TokenKind.IDENT:
                        defn = self.macro_dispatch(token.text, "decl")
                        if defn is not None:
                            try:
                                expanded = self._invocation_at(defn, "decl")
                            except Ms2Error as exc:
                                if not self._recovering:
                                    raise
                                declarations.append(
                                    self._recover_in_compound(
                                        exc, self.diagnostics
                                    )
                                )
                                if self.stream.at_eof():
                                    break
                                continue
                            if isinstance(expanded, list):
                                declarations.extend(expanded)
                            else:
                                declarations.append(expanded)
                            continue
                    if token.kind is TokenKind.PLACEHOLDER and (
                        _is_decl_placeholder(token.value.asttype)
                    ):
                        self.next_token()
                        self.stream.accept_punct(";")
                        declarations.append(
                            decls.PlaceholderDecl(
                                token.value.meta_expr, token.value.asttype,
                                loc=token.location,
                            )
                        )
                        continue
                    if self._starts_declaration(token):
                        try:
                            declaration = self.parse_declaration()
                        except Ms2Error as exc:
                            if not self._recovering:
                                raise
                            declarations.append(
                                self._recover_in_compound(
                                    exc, self.diagnostics
                                )
                            )
                            if self.stream.at_eof():
                                break
                            continue
                        if self.meta_mode and not self.template_mode:
                            self._bind_meta_locals(declaration, env)
                        elif not self.template_mode and isinstance(
                            declaration, decls.Declaration
                        ):
                            self.c_scope.record_declaration(declaration)
                        declarations.append(declaration)
                        continue
                    break
                # Statement list.
                while not self.peek().is_punct("}"):
                    token = self.peek()
                    if token.kind is TokenKind.PLACEHOLDER and (
                        _is_decl_placeholder(token.value.asttype)
                    ):
                        raise ParseError(
                            "syntactically illegal program: a "
                            "declaration-typed placeholder cannot follow "
                            "statements in a compound statement",
                            token.location,
                        )
                    try:
                        statements.append(self.parse_statement())
                    except Ms2Error as exc:
                        if not self._recovering:
                            raise
                        statements.append(
                            self._recover_in_compound(exc, self.diagnostics)
                        )
                        if self.stream.at_eof():
                            break
        finally:
            self.pop_typedef_scope()
            self.c_scope = saved_c_scope
        self.stream.expect_punct("}")
        return stmts.CompoundStmt(declarations, statements,
                                  loc=open_brace.location)

    def _bind_meta_locals(
        self, declaration: decls.Declaration, env: TypeEnv
    ) -> None:
        """Meta-body locals enter the type env as soon as parsed, so
        that placeholders later in the body can reference them."""
        for name, asttype in bindings_from_declaration(declaration):
            env.bind(name, asttype)

    def parse_statement(self) -> Node:
        token = self.peek()

        if token.kind is TokenKind.PLACEHOLDER:
            payload = token.value
            asttype = payload.asttype
            if asttype.is_usable_as(STMT) or (
                isinstance(asttype, ListType)
                and asttype.element.is_usable_as(STMT)
            ):
                self.next_token()
                self.stream.accept_punct(";")
                return stmts.PlaceholderStmt(
                    payload.meta_expr, asttype, loc=token.location
                )
            # Otherwise: must be an expression placeholder — falls
            # through to the expression-statement case below.

        if token.is_punct("{"):
            return self.parse_compound_statement()
        if token.is_punct(";"):
            self.next_token()
            return stmts.NullStmt(loc=token.location)

        if token.kind is TokenKind.KEYWORD:
            handler = _STMT_KEYWORD_HANDLERS.get(token.text)
            if handler is not None:
                return handler(self)

        if token.kind is TokenKind.IDENT:
            defn = self.macro_dispatch(token.text, "stmt")
            if defn is not None:
                expanded = self._invocation_at(defn, "stmt")
                if isinstance(expanded, list):
                    # A stmt-list macro at a single-statement position
                    # becomes a compound statement.
                    return stmts.CompoundStmt([], expanded,
                                              loc=token.location)
                return expanded
            # Labeled statement: ident ':' (but not '::').
            if self.stream.peek(1).is_punct(":"):
                name = self.next_token()
                self.next_token()  # ':'
                inner = self.parse_statement()
                return stmts.LabeledStmt(name.text, inner,
                                         loc=name.location)

        expr = self.parse_expression()
        self.stream.expect_punct(";")
        return stmts.ExprStmt(expr, loc=expr.loc)

    # Individual statement keywords --------------------------------------

    def _parse_if(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct("(")
        cond = self.parse_expression()
        self.stream.expect_punct(")")
        then = self.parse_statement()
        otherwise: Node | None = None
        if self.peek().is_keyword("else"):
            self.next_token()
            otherwise = self.parse_statement()
        return stmts.IfStmt(cond, then, otherwise, loc=kw.location)

    def _parse_while(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct("(")
        cond = self.parse_expression()
        self.stream.expect_punct(")")
        body = self.parse_statement()
        return stmts.WhileStmt(cond, body, loc=kw.location)

    def _parse_do(self) -> Node:
        kw = self.next_token()
        body = self.parse_statement()
        self.stream.expect_keyword("while")
        self.stream.expect_punct("(")
        cond = self.parse_expression()
        self.stream.expect_punct(")")
        self.stream.expect_punct(";")
        return stmts.DoWhileStmt(body, cond, loc=kw.location)

    def _parse_for(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct("(")
        init = None if self.peek().is_punct(";") else self.parse_expression()
        self.stream.expect_punct(";")
        cond = None if self.peek().is_punct(";") else self.parse_expression()
        self.stream.expect_punct(";")
        step = None if self.peek().is_punct(")") else self.parse_expression()
        self.stream.expect_punct(")")
        body = self.parse_statement()
        return stmts.ForStmt(init, cond, step, body, loc=kw.location)

    def _parse_switch(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct("(")
        expr = self.parse_expression()
        self.stream.expect_punct(")")
        body = self.parse_statement()
        return stmts.SwitchStmt(expr, body, loc=kw.location)

    def _parse_case(self) -> Node:
        kw = self.next_token()
        expr = self.parse_conditional()
        self.stream.expect_punct(":")
        stmt = self.parse_statement()
        return stmts.CaseStmt(expr, stmt, loc=kw.location)

    def _parse_default(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct(":")
        stmt = self.parse_statement()
        return stmts.DefaultStmt(stmt, loc=kw.location)

    def _parse_break(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct(";")
        return stmts.BreakStmt(loc=kw.location)

    def _parse_continue(self) -> Node:
        kw = self.next_token()
        self.stream.expect_punct(";")
        return stmts.ContinueStmt(loc=kw.location)

    def _parse_return(self) -> Node:
        kw = self.next_token()
        expr: Node | None = None
        if not self.peek().is_punct(";"):
            expr = self.parse_expression()
        self.stream.expect_punct(";")
        return stmts.ReturnStmt(expr, loc=kw.location)

    def _parse_goto(self) -> Node:
        kw = self.next_token()
        label = self.stream.expect_ident()
        self.stream.expect_punct(";")
        return stmts.GotoStmt(label.text, loc=kw.location)

    # ==================================================================
    # Macro definitions (``syntax``)
    # ==================================================================

    def parse_macro_definition(self) -> Node:
        kw = self.stream.expect_keyword("syntax")
        if self.template_mode:
            raise MacroSyntaxError(
                "macro definitions cannot appear inside templates",
                kw.location,
            )

        ret = self.next_token()
        if (
            ret.kind not in (TokenKind.IDENT, TokenKind.KEYWORD)
            or ret.text not in AST_SPECIFIER_NAMES
        ):
            raise MacroSyntaxError(
                f"expected an AST specifier after 'syntax', got "
                f"{ret.describe()}",
                ret.location,
            )
        name = self.stream.expect_ident()
        returns_list = False
        if self.peek().is_punct("[") and self.stream.peek(1).is_punct("]"):
            self.next_token()
            self.next_token()
            returns_list = True

        pattern = self._parse_pattern_block(name.text)

        # Parse the body with the pattern's bindings in scope.
        env = self.global_type_env.child()
        for pname, ptype in pattern.binding_types().items():
            env.bind(pname, ptype)
        ret_type: AstType = prim(ret.text)
        if returns_list:
            ret_type = list_of(ret_type)

        with self._meta(True), self._scoped_env(env):
            body = self.parse_compound_statement()
            BodyChecker(env, ret_type).check_body(body)

        macro = decls.MacroDef(
            ret.text, returns_list, name.text, pattern, body,
            loc=kw.location,
        )
        if self.host is not None:
            self.host.handle_macro_def(macro, self)
        return macro

    def _parse_pattern_block(self, macro_name: str) -> Pattern:
        open_tok = self.next_token()
        if open_tok.kind is not TokenKind.LBRACE_BAR:
            raise MacroSyntaxError(
                f"expected '{{|' to open the macro pattern, got "
                f"{open_tok.describe()}",
                open_tok.location,
            )
        raw: list[Token] = []
        while True:
            token = self.stream.next()
            if token.kind is TokenKind.BAR_RBRACE:
                break
            if token.kind is TokenKind.EOF:
                raise MacroSyntaxError(
                    "unterminated macro pattern (missing '|}')",
                    open_tok.location,
                )
            raw.append(token)
        parser = PatternParser(raw)
        pattern = parser.parse_pattern()
        if parser.pos != len(raw):
            extra = raw[parser.pos]
            raise MacroSyntaxError(
                f"trailing tokens in pattern: {extra.describe()}",
                extra.location,
            )
        validate_pattern(pattern, macro_name)
        return pattern

    # ==================================================================
    # Meta declarations (``metadcl``)
    # ==================================================================

    def parse_meta_declaration(self) -> Node:
        kw = self.stream.expect_keyword("metadcl")
        with self._meta(True):
            specs = self.parse_decl_specs()
            if self.stream.accept_punct(";"):
                raise MacroSyntaxError(
                    "metadcl requires at least one declarator", kw.location
                )
            declarator = self.parse_declarator()
            if self.peek().is_punct("{"):
                fn = self._parse_meta_function(specs, declarator, [])
                meta = decls.MetaDecl(fn, loc=kw.location)
                if self.host is not None:
                    self.host.handle_meta_function(fn, self)
                return meta
            init_declarators = [self._init_declarator_from(declarator)]
            while self.stream.accept_punct(","):
                init_declarators.append(self.parse_init_declarator())
            self.stream.expect_punct(";")
        declaration = decls.Declaration(specs, init_declarators,
                                        loc=kw.location)
        # Bind the globals in the meta type environment.
        for name, asttype in bindings_from_declaration(declaration):
            self.global_type_env.bind(name, asttype)
        meta = decls.MetaDecl(declaration, loc=kw.location)
        if self.host is not None:
            self.host.handle_meta_decl(meta, self)
        return meta

    # ==================================================================
    # Backquote templates
    # ==================================================================

    def parse_backquote(self) -> nodes.Backquote:
        bq = self.stream.expect_kind(TokenKind.BACKQUOTE)
        token = self.stream.peek()
        if token.is_punct("("):
            self.stream.next()
            with self._template(True):
                template = self.parse_expression()
            self.stream.expect_punct(")")
            return nodes.Backquote("exp", template, EXP, loc=bq.location)
        if token.is_punct("{"):
            with self._template(True):
                template = self.parse_compound_statement()
            # "The open brace signifies a statement follows": the braces
            # delimit the template.  A single brace-enclosed statement is
            # that statement; several become a compound statement.  Write
            # `{{...}} to force a genuine one-statement compound.
            if not template.decls and len(template.stmts) == 1:
                template = template.stmts[0]
            return nodes.Backquote("stmt", template, STMT, loc=bq.location)
        if token.is_punct("["):
            self.stream.next()
            with self._template(True):
                template = self.parse_template_declaration()
            self.stream.expect_punct("]")
            return nodes.Backquote("decl", template, DECL, loc=bq.location)
        if token.kind is TokenKind.LBRACE_BAR:
            return self._parse_general_backquote(bq)
        raise ParseError(
            "expected '(', '{', '[' or '{|' after backquote, got "
            f"{token.describe()}",
            token.location,
        )

    def parse_template_declaration(self) -> Node:
        """A top-level declaration inside a ``\\`[...]`` template."""
        specs = self.parse_decl_specs()
        if self.stream.accept_punct(";"):
            return decls.Declaration(specs, [], loc=specs.loc)
        token = self.peek()
        if token.kind is TokenKind.PLACEHOLDER and (
            _is_init_declarator_list_type(token.value.asttype)
            or token.value.asttype.is_usable_as(prim("init_declarator"))
        ):
            # Figure 2: the placeholder type decides whether it is the
            # whole init-declarator list or a single element.
            first = self.parse_init_declarator()
        else:
            declarator = self.parse_declarator()
            if self.peek().is_punct("{"):
                body = self.parse_compound_statement()
                return decls.FunctionDef(specs, declarator, [], body,
                                         loc=specs.loc)
            first = self._init_declarator_from(declarator)
        init_declarators = [first]
        while self.stream.accept_punct(","):
            init_declarators.append(self.parse_init_declarator())
        self.stream.expect_punct(";")
        return decls.Declaration(specs, init_declarators, loc=specs.loc)

    def _parse_general_backquote(self, bq: Token) -> nodes.Backquote:
        """The general form `` `{| pspec :: syntax |} ``."""
        self.stream.next()  # '{|'
        raw: list[Token] = []
        depth = 0
        while True:
            peeked = self.stream.peek()
            # The pspec-terminating '::' is the first one outside any
            # tuple sub-pattern parentheses (whose parameters contain
            # their own '::').
            if peeked.kind is TokenKind.COLON_COLON and depth == 0:
                break
            token = self.stream.next()
            if token.kind is TokenKind.EOF:
                raise ParseError(
                    "unterminated general backquote (missing '::')",
                    bq.location,
                )
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                depth -= 1
            raw.append(token)
        self.stream.next()  # '::'
        pattern_parser = PatternParser(raw)
        pspec = pattern_parser.parse_pspec()
        if pattern_parser.pos != len(raw):
            raise ParseError(
                "trailing tokens in backquote parameter specifier",
                bq.location,
            )
        from repro.macros.invocation import InvocationParser

        with self._template(True):
            inv_parser = InvocationParser(self)
            value = inv_parser.parse_pspec_value(pspec, follow_text="|}")
        close = self.stream.next()
        if close.kind is not TokenKind.BAR_RBRACE:
            raise ParseError(
                f"expected '|}}' closing general backquote, got "
                f"{close.describe()}",
                close.location,
            )
        return nodes.Backquote(
            "pattern", value, pspec.binding_type(), loc=bq.location
        )

    # ==================================================================
    # Anonymous functions
    # ==================================================================

    def parse_anon_function(self) -> nodes.AnonFunction:
        """``( declaration-list expression )`` — meta-code only."""
        open_paren = self.stream.expect_punct("(")
        params: list[tuple[str, AstType | None]] = []
        env = self.type_env.child()
        while self._starts_declaration(self.peek()):
            declaration = self.parse_declaration()
            for name, asttype in bindings_from_declaration(declaration):
                params.append((name, asttype))
                env.bind(name, asttype)
        if not params:
            raise ParseError(
                "anonymous function requires at least one parameter "
                "declaration",
                open_paren.location,
            )
        with self._scoped_env(env):
            body = self.parse_expression()
        self.stream.expect_punct(")")
        return nodes.AnonFunction(
            [(n, t) for n, t in params], body, loc=open_paren.location
        )

    # ==================================================================
    # Macro invocations
    # ==================================================================

    def parse_macro_invocation_node(self, defn) -> Node:
        """Parse an invocation (no expansion).

        Uses the macro's compiled parse routine when one was attached
        (the paper's suggested acceleration), the interpreted pattern
        engine otherwise.
        """
        from repro.macros.invocation import InvocationParser

        keyword = self.next_token()
        matcher = getattr(defn, "compiled_matcher", None)
        if matcher is not None:
            if self.stats is not None:
                self.stats.compiled_parses += 1
            invocation = matcher.parse_invocation(self, defn, keyword)
            invocation.parse_mode = "compiled"
        else:
            if self.stats is not None:
                self.stats.interpreted_parses += 1
            inv_parser = InvocationParser(self)
            invocation = inv_parser.parse_invocation(defn, keyword)
            invocation.parse_mode = "interpreted"
        return invocation

    def expand_expression_invocation(self, defn) -> Node:
        """Expression-position invocation; expands inline when enabled."""
        invocation = self.parse_macro_invocation_node(defn)
        if self.template_mode or not self.expand_inline or self.host is None:
            return invocation
        result = self.host.expand_invocation(invocation, "exp")
        if isinstance(result, list):
            raise ParseError(
                f"macro {defn.name!r} produced a list where a single "
                "expression is required",
                invocation.loc,
            )
        return result

    def _invocation_at(self, defn, position: str) -> Node | list[Node]:
        invocation = self.parse_macro_invocation_node(defn)
        # Statement/declaration invocations may carry a trailing ';'.
        self.stream.accept_punct(";")
        if self.template_mode or not self.expand_inline or self.host is None:
            return invocation
        return self.host.expand_invocation(invocation, position)


_STMT_KEYWORD_HANDLERS = {
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "case": Parser._parse_case,
    "default": Parser._parse_default,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "return": Parser._parse_return,
    "goto": Parser._parse_goto,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _specs_are_meta(specs: decls.DeclSpecs) -> bool:
    return isinstance(specs.type_spec, ctypes.AstTypeSpec)


def _walk_declarator(declarator: Node):
    from repro.cast.base import walk

    return walk(declarator)


def _innermost_is_function(declarator: Node) -> bool:
    current = declarator
    while isinstance(current, decls.PointerDeclarator):
        current = current.inner
    return isinstance(current, decls.FuncDeclarator)


def _find_func_declarator(declarator: Node) -> decls.FuncDeclarator:
    current = declarator
    while not isinstance(current, decls.FuncDeclarator):
        if isinstance(current, decls.PointerDeclarator):
            current = current.inner
        else:
            raise MacroSyntaxError("expected a function declarator")
    return current


def _declared_names(declaration: decls.Declaration) -> list[str]:
    names: list[str] = []
    for item in declaration.init_declarators:
        if isinstance(item, decls.InitDeclarator):
            name = _declarator_name(item.declarator)
            if name is not None:
                names.append(name)
    return names


def _declarator_name(declarator: Node) -> str | None:
    current = declarator
    while True:
        if isinstance(current, decls.NameDeclarator):
            return current.name
        if isinstance(
            current,
            (decls.PointerDeclarator, decls.ArrayDeclarator,
             decls.FuncDeclarator),
        ):
            current = current.inner
            continue
        return None


def _is_init_declarator_list_type(asttype: AstType) -> bool:
    if not isinstance(asttype, ListType):
        return False
    element = asttype.element
    return (
        element.is_usable_as(prim("init_declarator"))
        or element.is_usable_as(prim("declarator"))
        or element.is_usable_as(ID)
    )


def _is_decl_placeholder(asttype: AstType) -> bool:
    if asttype.is_usable_as(DECL):
        return True
    return isinstance(asttype, ListType) and asttype.element.is_usable_as(
        DECL
    )
