"""Expansion tracing and the span profile table (:mod:`repro.trace`)."""

import io
import json

import pytest

from repro import MacroProcessor, Ms2Options
from repro.errors import Ms2Error
from repro.macros import codegen
from repro.packages import loops
from repro.trace import ExpansionSpan, Tracer, profile_table

TWICE = "syntax exp twice {| ( $$exp::e ) |} { return(`(($e) * 2)); }"
NESTING = (
    TWICE
    + "\nsyntax exp quad {| ( $$exp::e ) |}"
    "{ return(`(twice(twice($e)))); }"
)


class TestSpans:
    def test_spans_record_invocation_metadata(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.load(TWICE, "pkg.c")
        mp.expand_to_c("int x = twice(1 + 2);", "user.c")
        [span] = mp.tracer.roots
        assert span.macro == "twice"
        assert span.site.startswith("user.c:1:")
        assert span.pattern == "( $$exp::e )"
        assert span.arg_types == ("BinaryOp",)
        assert span.parse_mode == "compiled"
        assert span.cache == "miss"
        assert span.output_nodes > 0
        assert span.duration > 0
        assert span.error is None

    def test_nested_expansions_form_a_tree(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.load(NESTING)
        mp.expand_to_c("int x = quad(1);")
        [root] = mp.tracer.roots
        assert root.macro == "quad"
        assert [c.macro for c in root.children] == ["twice"]
        assert [c.macro for c in root.children[0].children] == ["twice"]
        depths = {s.macro: s.depth for s in mp.tracer.walk_spans()}
        assert depths["quad"] == 0

    def test_cache_hit_recorded(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.load(TWICE)
        mp.expand_to_c(
            "int a = twice(q); int b = twice(q); int c = twice(q);"
        )
        statuses = [s.cache for s in mp.tracer.roots]
        assert statuses == ["miss", "miss", "hit"]

    def test_interpreted_parse_mode_recorded(self):
        mp = MacroProcessor(
            options=Ms2Options(trace=True, compiled_patterns=False)
        )
        mp.load(TWICE)
        mp.expand_to_c("int x = twice(1);")
        [span] = mp.tracer.roots
        assert span.parse_mode == "interpreted"

    def test_failed_expansion_closes_span_with_error(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.load('syntax exp boom {| ( ) |} { error("no"); return(`(0)); }')
        try:
            mp.expand_to_c("int x = boom();")
        except Ms2Error:
            pass
        [span] = mp.tracer.roots
        assert span.error is not None and "no" in span.error
        assert "!!" in span.describe()

    def test_render_tree_indents_children(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.load(NESTING)
        mp.expand_to_c("int x = quad(1);")
        lines = mp.tracer.render_tree().splitlines()
        assert lines[0].startswith("quad @")
        assert lines[1].startswith("  twice @")
        assert lines[2].startswith("    twice @")

    def test_empty_tree_renders_placeholder(self):
        assert "no macro expansions" in Tracer().render_tree()

    def test_tracing_off_means_no_tracer(self):
        assert MacroProcessor().tracer is None


class TestHooksAndSinks:
    def test_hooks_see_start_end_events(self):
        events = []
        mp = MacroProcessor(
            options=Ms2Options(
                trace_hooks=(
                    lambda ev, span: events.append((ev, span.macro)),
                )
            )
        )
        mp.load(NESTING)
        mp.expand_to_c("int x = quad(1);")
        assert events[0] == ("start", "quad")
        assert events[-1] == ("end", "quad")
        # Children start after and end before their parent.
        assert ("start", "twice") in events and ("end", "twice") in events

    def test_error_event_emitted(self):
        events = []
        mp = MacroProcessor(
            options=Ms2Options(
                trace_hooks=(lambda ev, span: events.append(ev),)
            )
        )
        mp.load('syntax exp boom {| ( ) |} { error("no"); return(`(0)); }')
        try:
            mp.expand_to_c("int x = boom();")
        except Ms2Error:
            pass
        assert "error" in events

    def test_jsonl_stream_gets_one_line_per_span(self):
        sink = io.StringIO()
        mp = MacroProcessor(options=Ms2Options(trace_jsonl=sink))
        mp.load(NESTING)
        mp.expand_to_c("int x = quad(1);")
        mp.tracer.close()
        records = [json.loads(line) for line in
                   sink.getvalue().splitlines()]
        assert len(records) == 3
        assert all(r["event"] == "span" for r in records)
        # Completion order: children before parents.
        assert records[-1]["macro"] == "quad"
        assert records[-1]["parent"] is None

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(ring_size=2)
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.tracer = tracer
        mp.expander.tracer = tracer
        mp.load(TWICE)
        mp.expand_to_c(
            "int a = twice(1); int b = twice(2); int c = twice(3);"
        )
        assert len(tracer.ring) == 2


def _span(macro, ms, *children, cache="miss"):
    """A closed span of ``ms`` milliseconds over ``children``."""
    return ExpansionSpan(
        span_id=0, parent_id=None, macro=macro, pattern="", site="",
        arg_types=(), parse_mode="compiled", depth=0, start=0.0,
        cache=cache, duration=ms / 1000.0, children=list(children),
    )


def _rows(table):
    """``{macro: (calls, hits, incl_ms, self_ms)}`` from a table."""
    rows = {}
    for line in table.splitlines()[1:]:
        macro, calls, hits, incl, own = line.split()
        rows[macro] = (int(calls), int(hits), float(incl), float(own))
    return rows


class TestProfileTable:
    def test_rows_count_calls_and_cache_hits(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        loops.register(mp)
        result = mp.expand(
            "void f(void) { unroll (2) {a();} unroll (2) {a();} "
            "unroll (2) {a();} }"
        )
        rows = _rows(profile_table(result.spans))
        # Admission on the second sighting: miss, miss, hit.
        assert rows["unroll"][:2] == (3, 1)
        assert rows["total"][:2] == (3, 1)

    def test_self_ms_sums_to_root_total(self):
        roots = [
            _span("quad", 10.0, _span("twice", 3.0), _span("twice", 2.5)),
            _span("twice", 1.5, cache="hit"),
        ]
        rows = _rows(profile_table(roots))
        assert rows["quad"] == (1, 0, 10.0, 4.5)
        assert rows["twice"] == (3, 1, 7.0, 7.0)
        total = rows.pop("total")
        assert total == (4, 1, 11.5, 11.5)
        assert sum(row[3] for row in rows.values()) == pytest.approx(
            total[3]
        )

    def test_self_ms_sums_on_a_real_run(self):
        mp = MacroProcessor(options=Ms2Options(trace=True))
        mp.load(NESTING)
        result = mp.expand("int x = quad(1);")
        rows = _rows(profile_table(result.spans))
        total = rows.pop("total")
        assert set(rows) == {"quad", "twice"}
        assert total[3] == pytest.approx(
            sum(span.duration for span in result.spans) * 1000, abs=1e-3
        )
        assert sum(row[3] for row in rows.values()) == pytest.approx(
            total[3], abs=1e-2
        )

    def test_recursive_macro_counts_inclusive_time_once(self):
        roots = [_span("rec", 8.0, _span("rec", 5.0, _span("rec", 1.0)))]
        assert _rows(profile_table(roots))["rec"] == (3, 0, 8.0, 8.0)

    def test_profile_off_records_nothing(self):
        mp = MacroProcessor()
        loops.register(mp)
        result = mp.expand("void f(void) { unroll (2) {a();} }")
        assert mp.tracer is None
        assert result.spans == []
        assert profile_table(result.spans) == (
            "(no macro expansions recorded)"
        )

    def test_tracing_keeps_the_compiled_path(self):
        def run(options):
            mp = MacroProcessor(options=options)
            loops.register(mp)
            out = mp.expand_to_c("void f(void) { unroll (2) {a();} }")
            return out, mp.stats.bodies_compiled

        assert run(Ms2Options(trace=True)) == run(Ms2Options())
        # Bodies compile unless the MS2_DISABLE_BODY_COMPILE kill
        # switch is set.
        assert (run(Ms2Options())[1] > 0) is not codegen._DISABLED


class TestCounters:
    def test_gensym_calls_counted(self):
        mp = MacroProcessor()
        mp.load(
            "syntax stmt g {| ( ) |}"
            "{ @id t = gensym(); return(`{{int $t = 0; use($t);}}); }"
        )
        mp.expand_to_c("void f(void) { g(); g(); }")
        assert mp.stats.gensym_calls == 2

    def test_hygiene_renames_counted(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(
            "syntax stmt s {| ( ) |}"
            "{ return(`{{int saved = 0; saved = saved + 1;}}); }"
        )
        mp.expand_to_c("void f(void) { s(); }")
        assert mp.stats.hygiene_renames == 1
        # The hygienic rename routes through gensym.
        assert mp.stats.gensym_calls >= 1
