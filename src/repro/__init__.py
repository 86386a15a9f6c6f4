"""repro — a reproduction of "Programmable Syntax Macros" (PLDI 1993).

The package implements MS2, Weise & Crew's fully programmable,
statically type-checked syntax macro system for C, together with every
substrate it needs: a C front end (lexer, recursive-descent/precedence
parser, typed AST, unparser), the AST type language and its
definition-time checker, the pattern language with one-token-lookahead
validation, backquote code templates with placeholder-token parsing,
the embedded meta-language interpreter, and baseline character- and
token-level macro processors for comparison.

Quickstart::

    from repro import MacroProcessor

    mp = MacroProcessor()
    print(mp.expand_to_c('''
        syntax stmt Painting {| $$stmt::body |}
        { return(`{BeginPaint(hDC, &ps); $body; EndPaint(hDC, &ps);}); }

        void redraw(void) { Painting { draw(); } }
    '''))
"""

import sys as _sys

# Recursive-descent parsing, tree-walking expansion and printing all
# recurse with program depth; lift CPython's conservative default so
# realistic left-deep expression chains don't overflow the C stack.
if _sys.getrecursionlimit() < 20_000:
    _sys.setrecursionlimit(20_000)

from repro._lazy import lazy_exports

# Every public name is imported from its home module on first use, so
# ``import repro.cli`` (and with it each ``repro expand`` process) pays
# only for the modules its subcommand runs.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cast.printer": ("render_c",),
    "repro.cast.sexpr": ("render_sexpr",),
    "repro.diagnostics": ("Diagnostic", "DiagnosticSink", "ExpansionBudget"),
    "repro.engine": ("MacroProcessor", "expand_source"),
    "repro.options": ("ExpandResult", "Ms2Options"),
    "repro.provenance": ("ExpandedLocation", "ExpansionSite"),
    "repro.trace": ("ExpansionSpan", "Tracer"),
    "repro.errors": (
        "ExpansionBudgetError",
        "ExpansionError",
        "LexError",
        "MacroSyntaxError",
        "MacroTypeError",
        "MetaInterpError",
        "Ms2Error",
        "ParseError",
        "PatternLookaheadError",
        "ResourceLimitError",
        "SourceLocation",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "ExpandedLocation",
    "ExpansionBudget",
    "ExpandResult",
    "ExpansionBudgetError",
    "ExpansionError",
    "ExpansionSite",
    "ExpansionSpan",
    "ResourceLimitError",
    "LexError",
    "MacroProcessor",
    "Ms2Options",
    "MacroSyntaxError",
    "MacroTypeError",
    "MetaInterpError",
    "Ms2Error",
    "ParseError",
    "PatternLookaheadError",
    "SourceLocation",
    "Tracer",
    "expand_source",
    "render_c",
    "render_sexpr",
    "__version__",
]
