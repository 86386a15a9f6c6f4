"""Expansion provenance: backtraces on errors, annotated output.

Synthesized nodes carry an :class:`~repro.provenance.ExpandedLocation`
recording the chain of invocation sites that produced them, so errors
inside macro-generated code point at user source — not ``<synthetic>``
— and the C printer can annotate generated code with its origin.
"""

import pytest

from perfbench import gen
from repro import MacroProcessor, Ms2Options
from repro.api import expand
from repro.errors import Ms2Error
from repro.provenance import (
    ExpandedLocation,
    ExpansionSite,
    expansion_chain,
    format_expansion_backtrace,
    provenance_of,
    strip_expansion,
    user_site,
)
from repro.cast.base import SourceLocation, walk

NESTED = """
syntax exp inner {| ( ) |} { error("inner exploded"); return(`(0)); }
syntax exp outer {| ( ) |} { return(`(inner() + 1)); }
"""

TWICE = "syntax exp twice {| ( $$exp::e ) |} { return(`(($e) * 2)); }"


class TestExpandedLocation:
    def test_chain_prepends_innermost_frame(self):
        base = SourceLocation(3, 7, 0, "f.c")
        chain = expansion_chain("m", base)
        assert len(chain) == 1
        assert chain[0].macro == "m"
        assert chain[0].location == base

    def test_chain_composes_through_expanded_location(self):
        user = SourceLocation(9, 1, 0, "f.c")
        outer = expansion_chain("outer", user)
        inner_site = ExpandedLocation(2, 5, 0, "pkg.c", expanded_from=outer)
        chain = expansion_chain("inner", inner_site)
        assert [frame.macro for frame in chain] == ["inner", "outer"]
        assert chain[-1].location == user

    def test_strip_expansion_returns_plain_location(self):
        loc = ExpandedLocation(
            1, 2, 0, "f.c",
            expanded_from=(ExpansionSite("m", SourceLocation(3, 4, 0, "g.c")),),
        )
        plain = strip_expansion(loc)
        assert type(plain) is SourceLocation
        assert (plain.line, plain.column, plain.filename) == (1, 2, "f.c")

    def test_user_site_is_outermost_frame(self):
        user = SourceLocation(9, 1, 0, "f.c")
        outer = expansion_chain("outer", user)
        inner = expansion_chain(
            "inner", ExpandedLocation(2, 5, 0, "pkg.c", expanded_from=outer)
        )
        assert user_site(ExpandedLocation(0, 0, 0, "x", expanded_from=inner)) \
            == user

    def test_format_backtrace(self):
        frames = expansion_chain("m", SourceLocation(3, 7, 0, "f.c"))
        text = format_expansion_backtrace(frames)
        assert "expanded from m at f.c:3:7" in text


class TestRestamping:
    def test_template_nodes_carry_invocation_chain(self):
        mp = MacroProcessor()
        mp.load(TWICE)
        unit = mp.expand_to_ast("int x = twice(1);", "user.c")
        init = unit.items[0].init_declarators[0].init
        frames = provenance_of(init.loc)
        assert len(frames) == 1
        assert frames[0].macro == "twice"
        assert frames[0].location.filename == "user.c"
        # Base coordinates stay at the invocation site.
        assert init.loc.line == 1

    def test_user_actuals_keep_their_location(self):
        mp = MacroProcessor()
        mp.load(TWICE)
        unit = mp.expand_to_ast("int x = twice(a_var);", "user.c")
        init = unit.items[0].init_declarators[0].init
        idents = [
            n for n in walk(init)
            if type(n).__name__ == "Identifier" and n.name == "a_var"
        ]
        assert idents
        # The spliced actual is not macro-generated: no backtrace.
        assert provenance_of(idents[0].loc) == ()

    def test_nested_expansion_extends_chain(self):
        mp = MacroProcessor()
        mp.load(
            TWICE
            + "\nsyntax exp quad {| ( $$exp::e ) |}"
            "{ return(`(twice(twice($e)))); }"
        )
        unit = mp.expand_to_ast("int x = quad(1);", "user.c")
        init = unit.items[0].init_declarators[0].init
        chains = [provenance_of(n.loc) for n in walk(init)]
        deepest = max(chains, key=len)
        assert [f.macro for f in deepest] == ["twice", "quad"]
        assert deepest[-1].location.filename == "user.c"


class TestErrorBacktrace:
    def test_nested_failure_reports_full_chain(self):
        """Regression: an error raised while expanding a macro that
        another macro's template invoked must show both frames and end
        at the user's source line — never at ``<synthetic>``."""
        mp = MacroProcessor()
        mp.load(NESTED, "pkg.c")
        with pytest.raises(Ms2Error) as info:
            mp.expand_to_c("void f(void) { int x; x = outer(); }", "user.c")
        text = str(info.value)
        assert "inner exploded" in text
        assert "expanded from inner at" in text
        assert "expanded from outer at user.c:1" in text
        assert text.count("expanded from") >= 2
        assert "<synthetic>" not in text

    def test_single_level_failure_reports_one_frame(self):
        mp = MacroProcessor()
        mp.load(
            'syntax exp boom {| ( ) |} { error("bang"); return(`(0)); }',
            "pkg.c",
        )
        with pytest.raises(Ms2Error) as info:
            mp.expand_to_c("int x = boom();", "user.c")
        text = str(info.value)
        assert "bang" in text
        assert "expanded from boom at user.c:1" in text
        assert "<synthetic>" not in text

    def test_clean_expansion_has_no_backtrace_noise(self):
        mp = MacroProcessor()
        mp.load(TWICE)
        out = mp.expand_to_c("int x = twice(3);")
        assert "expanded from" not in out


class TestAnnotatedOutput:
    def test_generated_code_gets_provenance_comment(self):
        mp = MacroProcessor(options=Ms2Options(annotate=True))
        mp.load(
            "syntax stmt bump {| ( ) |} { return(`{n = n + 1;}); }",
            "pkg.c",
        )
        out = mp.expand_to_c("void f(void) { int n; bump(); }", "user.c")
        assert "/* <- bump @ user.c:1 */" in out
        assert '#line 1 "user.c"' in out

    def test_annotate_off_is_clean(self):
        mp = MacroProcessor()
        mp.load("syntax stmt bump {| ( ) |} { return(`{n = n + 1;}); }")
        out = mp.expand_to_c("void f(void) { int n; bump(); }")
        assert "/* <-" not in out
        assert "#line" not in out

    @pytest.mark.parametrize(
        "source",
        [
            "void f(void) { Painting { g(1); } Painting { g(1); } "
            "Painting { g(1); } }"
        ]
        + [unit.source for unit in gen.units("repeat", 1, 6)],
        ids=["painting-thrice"] + [f"repeat-{i}" for i in range(6)],
    )
    def test_annotated_output_ignores_the_cache(self, source):
        """Replays carry one flat location, so ``annotate`` keeps the
        replay cache off: the comments match an uncached run's."""
        outputs = {
            expand(
                source,
                packages=gen.PACKAGES,
                options=Ms2Options(annotate=True, cache=cache),
            ).output
            for cache in (True, False)
        }
        assert len(outputs) == 1

    def test_annotated_output_still_parses(self):
        """Annotation must not corrupt the C text (comments only)."""
        mp = MacroProcessor(options=Ms2Options(annotate=True))
        mp.load(TWICE)
        out = mp.expand_to_c("int x = twice(3);", "user.c")
        stripped = "\n".join(
            line for line in out.splitlines()
            if not line.startswith("#line")
        )
        # Reparse the annotated output with a fresh processor.
        MacroProcessor().expand_to_c(stripped)
