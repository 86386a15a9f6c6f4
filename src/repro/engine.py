"""The public facade: :class:`MacroProcessor`.

Ties the parser, the macro table, the meta-interpreter and the
expander together into the compiler-adjunct workflow of the paper:

.. code-block:: python

    from repro import MacroProcessor

    mp = MacroProcessor()
    c_source = mp.expand_to_c('''
        syntax stmt Painting {| $$stmt::body |}
        { return(`{BeginPaint(hDC, &ps); $body; EndPaint(hDC, &ps);}); }

        void redraw(void)
        {
            Painting { draw_line(); draw_text(); }
        }
    ''')

Meta-programming constructs and regular code "can either be located in
separate files, or mixed together into the same file"; use
:meth:`MacroProcessor.load` for macro-package files and
:meth:`MacroProcessor.expand_program` / :meth:`expand_to_c` for
programs.  "None of [the meta-program] exists at runtime": expanded
output contains no ``syntax`` / ``metadcl`` items.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.analysis import analyze_macro_purity
from repro.asttypes.env import TypeEnv
from repro.asttypes.types import AstType
from repro.cast import decls, nodes
from repro.cast.base import Node
from repro.cast.printer import render_c
from repro.diagnostics import Diagnostic, DiagnosticSink
from repro.errors import ExpansionError, Ms2Error, ResourceLimitError
from repro.macros.cache import ExpansionCache
from repro.macros.compiled import compile_pattern
from repro.macros.definition import MacroDefinition, MacroTable
from repro.macros.expander import Expander
from repro.macros.memo import ProcessMemo
from repro.meta.interp import Interpreter
from repro.options import ExpandResult, Ms2Options
from repro.parser.core import Parser
from repro.stats import PipelineStats
from repro.trace import Tracer

#: Most parsed package loads the process-wide load memo keeps; the
#: least recently used entry goes first.
LOAD_MEMO_SIZE = 64

_LOAD_MEMO = ProcessMemo()

#: The counters a package parse advances; a replayed load adds the
#: recorded deltas so its session reports what a parse would.
_PARSE_COUNTERS = (
    "tokens_scanned",
    "dispatch_hits",
    "dispatch_misses",
    "compiled_parses",
    "interpreted_parses",
)


@dataclass(frozen=True, slots=True)
class _ParsedLoad:
    """What one successful, expansion-free package parse did to its
    context: the parsed nodes it handed to the host, in order, the
    parse state later files inherit, and its counter deltas."""

    host_calls: tuple[tuple[str, Node], ...]
    typedef_scopes: tuple[frozenset[str], ...]
    meta_types: tuple[tuple[str, AstType], ...]
    counters: tuple[int, ...]


class MacroProcessor:
    """A complete MS2 macro-processing pipeline.

    Configured by one :class:`~repro.options.Ms2Options` value::

        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        result = mp.expand(source)          # -> ExpandResult

    ``options`` is the single source of defaults for the whole
    pipeline — the CLI, the batch driver (:mod:`repro.driver`) and
    the library all construct one, and its
    :meth:`~repro.options.Ms2Options.options_hash` keys the driver's
    incremental rebuilds.
    """

    def __init__(self, options: Ms2Options | None = None) -> None:
        if options is None:
            options = Ms2Options()
        #: The session's frozen configuration.
        self.options = options
        #: Fast-path hit/miss counters for this session.
        self.stats = PipelineStats()
        #: Expansion-span recorder, or None when tracing is off.
        self.tracer: Tracer | None = (
            Tracer(
                hooks=list(options.trace_hooks) or None,
                jsonl=options.trace_jsonl,
            )
            if options.wants_tracer()
            else None
        )
        self.table = MacroTable()
        self.interpreter = Interpreter()
        self.interpreter.stats = self.stats
        # The expansion cache is off where a replay would differ from
        # a fresh expansion: hygienic renames depend on the code around
        # each invocation, and ``annotate`` prints the one flat location
        # a replay stamps on every node.
        replay_differs = options.hygienic or options.annotate
        use_cache = options.cache and not replay_differs
        self.cache = ExpansionCache() if use_cache else None
        #: Optional resource budget shared by every expansion run,
        #: built from the options' budget fields.
        self.budget = options.make_budget()
        self.expander = Expander(
            self.table,
            self.interpreter,
            hygienic=options.hygienic,
            cache=self.cache,
            stats=self.stats,
            tracer=self.tracer,
            budget=self.budget,
            compiled_bodies=options.compiled_bodies,
        )
        self.compiled_patterns = options.compiled_patterns
        self._parser: Parser | None = None
        #: The typedef scopes and global meta type environment every
        #: file parsed in this context shares; None before the first.
        self._parse_state: tuple[list[set[str]], TypeEnv] | None = None
        #: ``(handler name, node)`` for each host call, during a load.
        self._host_calls: list[tuple[str, Node]] | None = None
        #: Running sha256 of the options hash and every file loaded so
        #: far; None once a program run or a failed load has touched
        #: the context, after which new macros get no ``body_key``.
        self._load_history = hashlib.sha256(
            options.options_hash().encode("utf-8")
        )
        #: The digest through the file being loaded, during ``load()``.
        self._body_key_prefix: str | None = None
        #: The active :class:`~repro.diagnostics.DiagnosticSink`
        #: during a recovery run; None in fail-fast mode.
        self.diagnostics: DiagnosticSink | None = None

    # ==================================================================
    # Parser-host protocol
    # ==================================================================

    def lookup_macro(self, name: str) -> MacroDefinition | None:
        return self.table.lookup(name)

    def dispatch_macro(self, name: str, position: str) -> MacroDefinition | None:
        """Single-probe keyword dispatch (the parser's hot path)."""
        return self.table.dispatch(name, position)

    def handle_macro_def(
        self, macro: decls.MacroDef, parser: Parser | None
    ) -> MacroDefinition:
        if self._host_calls is not None:
            self._host_calls.append(("handle_macro_def", macro))
        definition = MacroDefinition.from_node(macro)
        if self.compiled_patterns:
            definition.compiled_matcher = compile_pattern(
                definition.pattern, definition.name
            )
        self.table.define(definition)
        if self._body_key_prefix is not None:
            definition.body_key = (
                self._body_key_prefix, definition.name, definition.generation
            )
        definition.purity = analyze_macro_purity(
            definition, self.interpreter.globals, self.table.lookup
        )
        return definition

    def handle_meta_decl(
        self, meta: decls.MetaDecl, parser: Parser | None
    ) -> None:
        if self._host_calls is not None:
            self._host_calls.append(("handle_meta_decl", meta))
        inner = meta.inner
        if isinstance(inner, decls.Declaration):
            self.interpreter.run_meta_declaration(inner)

    def handle_meta_function(
        self, fn: decls.FunctionDef, parser: Parser | None
    ) -> None:
        if self._host_calls is not None:
            self._host_calls.append(("handle_meta_function", fn))
        self.interpreter.define_meta_function(fn)
        # A (re)defined meta-function can change the behaviour — and
        # the purity — of macros analyzed earlier: drop stale memo
        # state and re-analyze lazily at the next definition pass.
        self._invalidate_purity()

    def _invalidate_purity(self) -> None:
        if self.cache is not None:
            self.cache.clear()
        for name in self.table.defined_names():
            definition = self.table.lookup(name)
            definition.purity = analyze_macro_purity(
                definition, self.interpreter.globals, self.table.lookup
            )

    def expand_invocation(
        self, invocation: nodes.MacroInvocation, position: str
    ) -> Node | list[Node]:
        if self._host_calls is not None:
            # Logged so the load is not memoized: a replay would skip
            # this expansion's effects.
            self._host_calls.append(("expand_invocation", invocation))
        # Semantic macros (§5): expose the C scope live at the
        # invocation site to type_of()/has_type().
        saved_scope = self.interpreter.semantic_scope
        if self._parser is not None:
            self.interpreter.semantic_scope = self._parser.c_scope
        try:
            result = self.expander.expand_invocation(invocation)
            self._check_position(invocation, result, position)
        except Ms2Error as exc:
            poisoned = self._recover_expansion(exc, invocation, position)
            if poisoned is None:
                raise
            return poisoned
        finally:
            self.interpreter.semantic_scope = saved_scope
        return result

    def _recover_expansion(
        self,
        exc: Ms2Error,
        invocation: nodes.MacroInvocation,
        position: str,
    ) -> Node | None:
        """Expansion-failure isolation (recovery mode): record the
        error — whose location already carries the
        ``ExpandedLocation`` backtrace for nested failures — and
        degrade the invocation to a poisoned node so parsing
        continues.  Returns None in fail-fast mode, when the sink is
        saturated, or while parsing meta-code (a failing expansion
        inside a macro body must still reject the definition)."""
        sink = self.diagnostics
        parser = self._parser
        if (
            sink is None
            or parser is None
            or parser.meta_mode
            or parser.template_mode
        ):
            return None
        if sink.saturated or not sink.emit_error(exc):
            return None
        self.stats.expansion_recoveries += 1
        if position == "exp":
            return nodes.ErrorExpr(message=exc.message, loc=invocation.loc)
        if position == "stmt":
            return nodes.ErrorStmt(message=exc.message, loc=invocation.loc)
        return nodes.ErrorDecl(message=exc.message, loc=invocation.loc)

    @staticmethod
    def _check_position(
        invocation: nodes.MacroInvocation,
        result: Node | list[Node],
        position: str,
    ) -> None:
        if position == "exp" and isinstance(result, list):
            raise ExpansionError(
                f"macro {invocation.name!r} produced a list at an "
                "expression position",
                invocation.loc,
            )

    # ==================================================================
    # Public API
    # ==================================================================

    def make_parser(
        self,
        source: str,
        filename: str = "<string>",
        diagnostics: DiagnosticSink | None = None,
    ) -> Parser:
        # Parse state now depends on more than the loaded files.
        self._load_history = None
        parser = Parser(
            source, host=self, expand_inline=True, filename=filename,
            stats=self.stats, diagnostics=diagnostics,
        )
        if self._parse_state is not None:
            # Later files see typedefs and meta bindings of earlier ones.
            parser.typedef_scopes, env = self._parse_state
            parser.global_type_env = parser.type_env = env
            parser.inferencer.env = env
        self._parse_state = (parser.typedef_scopes, parser.global_type_env)
        self._parser = parser
        return parser

    @staticmethod
    def _parse_guarded(parser: Parser) -> decls.TranslationUnit:
        """Run a parse, converting the host interpreter's own stack
        limit into an :class:`Ms2Error` subclass — the pipeline never
        lets a raw :class:`RecursionError` escape."""
        try:
            return parser.parse_program()
        except RecursionError:
            raise ResourceLimitError(
                "input nests too deeply for the macro processor "
                "(host recursion limit exceeded while parsing)"
            ) from None

    def load(self, source: str, filename: str = "<package>") -> None:
        """Process a macro-package file: definitions are registered,
        any plain C in the file is discarded.

        While the context has seen only successful loads, the macros
        defined here get a ``body_key`` naming this load history, so
        their compiled bodies are shared with every context that
        loads the same files under the same options.  The parse is
        shared the same way: a successful load that expands nothing
        is memoized process-wide under that history, and a later
        context with the same history replays it instead of parsing.
        The replay hands the same parsed nodes to this context's
        handlers, which build its own definitions, purity verdicts
        and interpreter globals, and counts what the parse counted.
        """
        history = self._load_history
        key = None
        if history is not None:
            for part in (filename, source):
                data = part.encode("utf-8", "surrogatepass")
                history.update(b"%d:" % len(data) + data)
            self._body_key_prefix = history.hexdigest()
            key = (self._body_key_prefix, self.compiled_patterns)
        # Any failure below leaves the context unkeyed.
        self._load_history = None
        try:
            parsed = None if key is None else _LOAD_MEMO.get(key)
            if parsed is not None:
                self._replay_load(parsed)
            else:
                parsed = self._parse_load(source, filename)
                if key is not None and parsed is not None:
                    _LOAD_MEMO.put(key, parsed, LOAD_MEMO_SIZE)
        finally:
            self._body_key_prefix = None
        self._load_history = history

    def _parse_load(self, source: str, filename: str) -> _ParsedLoad | None:
        """Parse a package file; its replay record, or None when it
        expanded an invocation."""
        stats = self.stats
        before = [getattr(stats, name) for name in _PARSE_COUNTERS]
        self._host_calls = calls = []
        try:
            parser = self.make_parser(source, filename)
            self._parse_guarded(parser)
        finally:
            self._host_calls = None
        if any(handler == "expand_invocation" for handler, _ in calls):
            return None
        return _ParsedLoad(
            host_calls=tuple(calls),
            typedef_scopes=tuple(map(frozenset, parser.typedef_scopes)),
            meta_types=tuple(parser.global_type_env.bindings.items()),
            counters=tuple(
                getattr(stats, name) - count
                for name, count in zip(_PARSE_COUNTERS, before)
            ),
        )

    def _replay_load(self, parsed: _ParsedLoad) -> None:
        for handler, node in parsed.host_calls:
            getattr(self, handler)(node, None)
        env = TypeEnv()
        env.bindings.update(parsed.meta_types)
        self._parse_state = (list(map(set, parsed.typedef_scopes)), env)
        stats = self.stats
        for name, delta in zip(_PARSE_COUNTERS, parsed.counters):
            setattr(stats, name, getattr(stats, name) + delta)

    # -- internal, options-driven pipeline stages ----------------------

    def _run_program(
        self, source: str, filename: str
    ) -> tuple[decls.TranslationUnit, list[Diagnostic] | None]:
        """Parse-and-expand under the session options; ``(unit,
        diagnostics)`` with diagnostics None in fail-fast mode (which
        raises)."""
        if not self.options.recover:
            parser = self.make_parser(source, filename)
            return self._parse_guarded(parser), None
        sink = DiagnosticSink(max_errors=self.options.max_errors)
        self.diagnostics = sink
        try:
            # Tokenization happens eagerly in the Parser constructor,
            # so a LexError must be inside the backstop too.
            parser = self.make_parser(source, filename, diagnostics=sink)
            unit = self._parse_guarded(parser)
        except Ms2Error as exc:
            # Backstop: a fault that escaped every recovery point
            # (e.g. raised after saturation) still ends as a
            # diagnostic, never as an exception from a recover run.
            sink.emit_error(exc)
            unit = decls.TranslationUnit([])
        finally:
            self.diagnostics = None
        return unit, list(sink.diagnostics)

    @staticmethod
    def _strip_meta(unit: decls.TranslationUnit) -> decls.TranslationUnit:
        """Drop macro definitions and metadcls — "none of [the
        meta-program] exists at runtime"."""
        items = [
            item
            for item in unit.items
            if not isinstance(item, (decls.MacroDef, decls.MetaDecl))
        ]
        return decls.TranslationUnit(items, loc=unit.loc)

    # -- the unified entry point ---------------------------------------

    def expand(
        self, source: str, filename: str = "<string>"
    ) -> ExpandResult:
        """Run the full pipeline under this session's options and
        return an :class:`~repro.options.ExpandResult` carrying the
        expanded C text, the (meta-stripped unless ``keep_meta``)
        unit, any recovery diagnostics, the session stats and the
        trace spans recorded for this source.

        In fail-fast mode (``options.recover`` unset) errors raise
        :class:`~repro.errors.Ms2Error` exactly like the
        ``expand_*`` methods; with recovery enabled the result's
        ``diagnostics`` carry every fault.
        """
        span_start = len(self.tracer.roots) if self.tracer else 0
        unit, diagnostics = self._run_program(source, filename)
        if not self.options.keep_meta:
            unit = self._strip_meta(unit)
        text = render_c(unit, annotate=self.options.annotate)
        spans = self.tracer.roots[span_start:] if self.tracer else []
        return ExpandResult(
            output=text,
            unit=unit,
            diagnostics=diagnostics or [],
            stats=self.stats,
            spans=spans,
        )

    # -- shaped convenience methods over the options path -------------

    def expand_program(
        self, source: str, filename: str = "<string>"
    ) -> decls.TranslationUnit | tuple[
        decls.TranslationUnit, list[Diagnostic]
    ]:
        """Parse-and-expand a program; returns the expanded AST
        including meta items (macro definitions, metadcls).

        With ``options.recover`` the run collects up to
        ``options.max_errors`` diagnostics instead of raising on the
        first fault: failed regions become poisoned ``Error*`` nodes
        and the result is a ``(unit, diagnostics)`` pair.
        """
        unit, diagnostics = self._run_program(source, filename)
        return unit if diagnostics is None else (unit, diagnostics)

    def expand_to_ast(
        self, source: str, filename: str = "<string>"
    ) -> decls.TranslationUnit | tuple[
        decls.TranslationUnit, list[Diagnostic]
    ]:
        """Like :meth:`expand_program` but with all meta-program items
        stripped — the translation unit a downstream C compiler sees."""
        unit, diagnostics = self._run_program(source, filename)
        stripped = self._strip_meta(unit)
        return stripped if diagnostics is None else (stripped, diagnostics)

    def expand_to_c(
        self, source: str, filename: str = "<string>"
    ) -> str | tuple[str, list[Diagnostic]]:
        """Full pipeline: source with macros in, plain C text out.

        With ``options.annotate`` the printer emits provenance
        comments (``/* <- Macro @ file:line */``) on macro-generated
        code and ``#line`` directives mapping the output back to user
        source.  With ``options.recover`` returns ``(text,
        diagnostics)``; recovered faults render as
        ``/* <error: ...> */`` comments.
        """
        unit, diagnostics = self._run_program(source, filename)
        text = render_c(
            self._strip_meta(unit), annotate=self.options.annotate
        )
        return text if diagnostics is None else (text, diagnostics)

    # ------------------------------------------------------------------

    def define_macros(self, source: str) -> list[str]:
        """Register the macros defined in ``source``; returns their
        names in definition order (convenience for building macro
        packages)."""
        before = set(self.table.defined_names())
        self.load(source)
        return [
            n for n in self.table.defined_names() if n not in before
        ]

    @property
    def expansion_count(self) -> int:
        return self.expander.expansion_count


def expand_source(
    source: str,
    *,
    packages: list[str] | None = None,
    options: Ms2Options | None = None,
) -> str:
    """One-shot convenience: expand ``source`` (optionally after
    loading macro-package sources) and return C text.

    Accepts the same :class:`~repro.options.Ms2Options` as
    :class:`MacroProcessor`, so the one-shot path and the session path
    share every default (recovery, budgets, hygiene) by construction.
    """
    mp = MacroProcessor(options=options)
    for pkg in packages or []:
        mp.load(pkg)
    return mp.expand(source).output
