"""Expansion cache: structural keys, replay semantics, purity gating.

The cache may only fire for macros whose meta-bodies are pure
functions of their actuals; everything here checks the two halves of
that contract — replays are indistinguishable from re-expansions, and
impure macros (``metadcl`` state, ``gensym``, semantic builtins,
transitively impure meta-functions) are never replayed.
"""

import re

import pytest

from repro import MacroProcessor, Ms2Options
from repro.cast import nodes
from repro.cast.base import walk
from repro.cast.struct_hash import Unhashable, structural_key
from repro.errors import SourceLocation
from repro.packages import dispatch, loops


def loc(line=1, col=1):
    return SourceLocation(line, col, 0, "<test>")


class TestStructuralKey:
    def test_equal_trees_equal_keys(self):
        a = nodes.BinaryOp("+", nodes.Identifier("x"), nodes.IntLit(1))
        b = nodes.BinaryOp("+", nodes.Identifier("x"), nodes.IntLit(1))
        assert structural_key(a) == structural_key(b)

    def test_different_trees_differ(self):
        a = nodes.BinaryOp("+", nodes.Identifier("x"), nodes.IntLit(1))
        b = nodes.BinaryOp("-", nodes.Identifier("x"), nodes.IntLit(1))
        assert structural_key(a) != structural_key(b)

    def test_locations_and_marks_ignored(self):
        a = nodes.Identifier("x", loc=loc(1, 1))
        b = nodes.Identifier("x", loc=loc(9, 9))
        b.mark = 42
        assert structural_key(a) == structural_key(b)

    def test_lists_keyed_structurally(self):
        a = [nodes.IntLit(1), nodes.IntLit(2)]
        b = [nodes.IntLit(1), nodes.IntLit(2)]
        assert structural_key(a) == structural_key(b)
        assert structural_key(a) != structural_key(list(reversed(b)))

    def test_unhashable_payload_raises(self):
        with pytest.raises(Unhashable):
            structural_key(object())


class TestReplaySemantics:
    SOURCE = (
        "syntax stmt wrap {| ( $$exp::e ) |}"
        "{ return(`{{int t = $e; use(t);}}); }"
    )

    def test_hit_is_a_fresh_tree(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_ast("void e(void) { wrap(1); }")
        first = mp.expand_to_ast("void f(void) { wrap(1); }")
        second = mp.expand_to_ast("void g(void) { wrap(1); }")
        assert mp.stats.cache_hits == 1
        # Replay must not alias the stored tree or the first result.
        s1 = first.items[0].body.stmts[0]
        s2 = second.items[0].body.stmts[0]
        assert s1 == s2 and s1 is not s2
        assert s1.stmts[0] is not s2.stmts[0]

    def test_replay_shares_no_node(self):
        """No node of a replay is a node of the stored entry, of the
        storing call's own result or of an earlier replay."""
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_ast("void e(void) { wrap(1); }")
        original = mp.expand_to_ast("void f(void) { wrap(1); }")
        first = mp.expand_to_ast("void g(void) { wrap(1); }")
        second = mp.expand_to_ast("void h(void) { wrap(1); }")
        assert mp.stats.cache_hits == 2
        [(stored, _cost)] = mp.cache._entries.values()

        def ids(tree):
            return {id(node) for node in walk(tree)}

        trees = [
            stored,
            original.items[0].body.stmts[0],
            first.items[0].body.stmts[0],
            second.items[0].body.stmts[0],
        ]
        for index, tree in enumerate(trees):
            for other in trees[index + 1:]:
                assert ids(tree).isdisjoint(ids(other))

    def test_mutating_the_stored_result_leaves_replays_unchanged(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_ast("void e(void) { wrap(1); }")
        # The second sighting stores; then its caller edits its result.
        unit = mp.expand_to_ast("void f(void) { wrap(1); }")
        assert len(mp.cache) == 1
        result = unit.items[0].body.stmts[0]
        for node in walk(result):
            if isinstance(node, nodes.Identifier):
                node.name = "hijacked"
            elif isinstance(node, nodes.IntLit):
                node.value = 99
        result.stmts.append(result.stmts[0])
        program = "void g(void) { wrap(1); }"
        replayed = mp.expand_to_c(program)
        assert mp.stats.cache_hits == 1
        uncached = MacroProcessor(options=Ms2Options(cache=False))
        uncached.load(self.SOURCE)
        assert replayed == uncached.expand_to_c(program)
        assert "hijacked" not in replayed

    def test_replay_relocates_to_invocation_site(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_ast("void e(void) {\n wrap(1);\n}")
        mp.expand_to_ast("void f(void) {\n wrap(1);\n}")
        unit = mp.expand_to_ast("void g(void) {\n\n\n wrap(1);\n}")
        assert mp.stats.cache_hits == 1
        replayed = unit.items[0].body.stmts[0]
        assert replayed.loc.line == 4

    def test_replay_provenance_names_second_site(self):
        """A cached expansion replayed at a *second* call site must
        carry provenance pointing at that second site, not at the
        site that originally populated the cache."""
        from repro.provenance import provenance_of

        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_ast("void e(void) {\n wrap(1);\n}", "first.c")
        mp.expand_to_ast("void f(void) {\n wrap(1);\n}", "first.c")
        unit = mp.expand_to_ast(
            "void g(void) {\n\n\n wrap(1);\n}", "second.c"
        )
        assert mp.stats.cache_hits == 1
        replayed = unit.items[0].body.stmts[0]
        frames = provenance_of(replayed.loc)
        assert len(frames) == 1
        assert frames[0].macro == "wrap"
        assert frames[0].location.filename == "second.c"
        assert frames[0].location.line == 4

    def test_replay_error_backtrace_names_second_site(self):
        """Errors inside replayed code report the replaying site."""
        mp = MacroProcessor()
        mp.load(
            "syntax exp twice {| ( $$exp::e ) |}"
            "{ return(`(($e) * 2)); }\n"
            "syntax exp boom {| ( ) |}"
            '{ error("late"); return(`(0)); }\n'
            "syntax exp outer {| ( $$exp::e ) |}"
            "{ return(`(twice($e) + boom())); }",
            "pkg.c",
        )
        # boom() fails inside outer's template: both call sites miss
        # the cache, but each failure must name its own user line.
        from repro.errors import Ms2Error

        with pytest.raises(Ms2Error) as info:
            mp.expand_to_c("int a = outer(1);", "user.c")
        assert "expanded from outer at user.c:1" in str(info.value)

    def test_distinct_replays_get_distinct_marks(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        unit = mp.expand_to_ast(
            "void f(void) { wrap(1); wrap(1); wrap(1); wrap(1); }"
        )
        assert mp.stats.cache_hits == 2
        marks = {s.mark for s in unit.items[0].body.stmts}
        assert len(marks) == 4

    def test_different_arguments_miss(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_c("void f(void) { wrap(1); wrap(2); }")
        assert mp.stats.cache_hits == 0
        assert mp.stats.cache_misses == 2

    def test_redefinition_changes_generation(self):
        mp = MacroProcessor()
        mp.load(
            "syntax stmt a {| ( ) |} { return(`{x();}); }\n"
            "syntax stmt b {| ( ) |} { return(`{y();}); }"
        )
        a = mp.table.lookup("a")
        b = mp.table.lookup("b")
        assert a.generation != b.generation


class TestSecondSightingAdmission:
    """A key's first fresh expansion records only the key, its second
    stores the snapshot, and the third invocation replays it."""

    SOURCE = TestReplaySemantics.SOURCE

    def test_one_sighting_stores_nothing(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_c("void f(void) { wrap(1); }")
        assert len(mp.cache) == 0
        assert mp.stats.cache_misses == 1

    def test_second_stores_and_third_hits(self):
        mp = MacroProcessor()
        mp.load(self.SOURCE)
        mp.expand_to_c("void f(void) { wrap(1); wrap(1); }")
        assert len(mp.cache) == 1
        assert mp.stats.cache_hits == 0
        mp.expand_to_c("void g(void) { wrap(1); }")
        assert mp.stats.cache_hits == 1
        assert mp.stats.cache_misses == 2

    def test_store_admits_on_second_call(self):
        from repro.macros.cache import ExpansionCache

        cache = ExpansionCache()
        result = nodes.Identifier("x")
        cache.store("k", result)
        assert len(cache) == 0 and cache.lookup("k") is None
        cache.store("k", result)
        assert len(cache) == 1 and cache.lookup("k") is not None

    def test_clear_forgets_sightings(self):
        from repro.macros.cache import ExpansionCache

        cache = ExpansionCache()
        result = nodes.Identifier("x")
        cache.store("k", result)
        cache.store("k", result)
        cache.clear()
        cache.store("k", result)
        assert len(cache) == 0
        cache.store("k", result)
        assert len(cache) == 1


class TestPurityGating:
    def test_gensym_macro_never_cached(self):
        mp = MacroProcessor()
        mp.load(
            "syntax stmt g {| ( ) |}"
            "{ @id t = gensym(); return(`{{int $t = 0; use($t);}}); }"
        )
        out = mp.expand_to_c("void f(void) { g(); g(); }")
        assert mp.stats.cache_hits == 0
        assert mp.stats.cache_uncacheable == 2
        names = set(re.findall(r"__g_\d+", out))
        assert len(names) == 2  # each expansion got its own name

    def test_metadcl_state_never_cached(self):
        mp = MacroProcessor()
        mp.load(
            "metadcl int n;\n"
            "syntax exp tick {| ( ) |}"
            "{ n = n + 1; return(make_num(n)); }"
        )
        out = mp.expand_to_c("int a = tick(); int b = tick(); "
                             "int c = tick();")
        assert mp.stats.cache_hits == 0
        assert mp.stats.cache_uncacheable == 3
        assert "1" in out and "2" in out and "3" in out

    def test_transitive_metadcl_through_meta_function(self):
        """A macro is impure if a meta-function it calls touches
        ``metadcl`` state — even though the macro body itself never
        names the meta-global."""
        mp = MacroProcessor()
        mp.load(
            "metadcl int n;\n"
            "@exp bump() { n = n + 1; return(make_num(n)); }\n"
            "syntax exp stamp {| ( ) |} { return(bump()); }"
        )
        out = mp.expand_to_c("int a = stamp(); int b = stamp();")
        assert mp.stats.cache_hits == 0
        assert mp.stats.cache_uncacheable == 2
        assert "1" in out and "2" in out

    def test_template_invoking_impure_macro_never_cached(self):
        """A template's invocations expand into the result, so a macro
        invoking a ``metadcl``-touching macro is impure too."""
        mp = MacroProcessor()
        mp.load(
            "metadcl int n;\n"
            "syntax exp tick {| ( ) |} { n = n + 1; return(make_num(n)); }\n"
            "syntax exp outer {| ( ) |} { return(`(tick() + 0)); }"
        )
        out = mp.expand_to_c(
            "int a = outer(); int b = outer(); int c = outer();"
        )
        assert mp.stats.cache_hits == 0
        assert "1 + 0" in out and "2 + 0" in out and "3 + 0" in out
        assert not mp.table.lookup("outer").purity.cacheable

    def test_pure_meta_function_call_is_cacheable(self):
        mp = MacroProcessor()
        mp.load(
            "@exp dbl(@exp e) { return(`($e + $e)); }\n"
            "syntax exp twice {| ( $$exp::e ) |} { return(dbl(e)); }"
        )
        mp.expand_to_c(
            "int a = twice(q); int b = twice(q); int c = twice(q);"
        )
        assert mp.stats.cache_hits == 1

    def test_semantic_builtins_never_cached(self):
        mp = MacroProcessor()
        mp.load(
            "syntax stmt show {| ( $$id::var ) |}\n"
            "{ @type_spec t = type_of(var);\n"
            "  return(`{print($var);}); }"
        )
        mp.expand_to_c("void f(int a) { show(a); show(a); }")
        assert mp.stats.cache_hits == 0
        assert mp.stats.cache_uncacheable == 2

    def test_window_dispatch_accumulation_with_cache_enabled(self):
        """The paper's non-local transformation (window-procedure
        dispatch tables) mutates meta-globals across invocations; the
        purity analysis must keep the cache out of its way."""
        mp = MacroProcessor()  # cache on by default
        dispatch.register(mp)
        out = mp.expand_to_c(
            "new_window_proc wproc default DefWindowProc;\n"
            "window_proc_dispatch(wproc, WM_CREATE) {setup(hWnd);}\n"
            "window_proc_dispatch(wproc, WM_PAINT) {paint(hWnd);}\n"
            "emit_window_proc wproc;\n"
        )
        assert mp.stats.cache_hits == 0
        assert "case WM_CREATE" in out
        assert "case WM_PAINT" in out
        assert "DefWindowProc" in out

    def test_hygienic_mode_disables_cache(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        assert mp.cache is None
        loops.register(mp)
        mp.expand_to_c("void f() { unroll (2) {a();} unroll (2) {a();} }")
        assert mp.stats.cache_hits == 0


class TestStatsWiring:
    def test_counters_populate(self):
        mp = MacroProcessor()
        loops.register(mp)
        mp.expand_to_c(
            "void f() { unroll (2) {a();} unroll (2) {a();} "
            "unroll (2) {a();} }"
        )
        s = mp.stats
        assert s.cache_hits == 1 and s.cache_misses == 2
        assert s.cache_hit_rate() == pytest.approx(1 / 3)
        assert s.compiled_parses == 3
        assert s.dispatch_hits == 3
        assert s.expansions == 3
        assert s.tokens_scanned > 0

    def test_as_dict_and_summary_agree(self):
        mp = MacroProcessor()
        loops.register(mp)
        mp.expand_to_c("void f() { unroll (2) {a();} }")
        d = mp.stats.to_json()
        text = mp.stats.summary()
        for key in d:
            assert key in text

