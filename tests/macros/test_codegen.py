"""Unit tests for the macro body/template compiler.

The compiler's contract is *exact* semantic parity with the
meta-interpreter — same values, same error types, same error messages
— plus observability (stats counters) and a per-macro fallback for
constructs it punts on.  Output-level parity over the whole corpus
lives in the differential matrix,
``tests/integration/test_differential.py``; these tests pin down the
contract construct by construct.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import MacroProcessor, Ms2Options
from repro.errors import Ms2Error
from repro.macros import codegen
from repro.macros.codegen import CompiledBody, get_compiled_body


def run_both(macro_src: str, program: str):
    """Expand ``program`` with bodies interpreted and compiled;
    return the two outcomes as comparable tuples."""
    outcomes = []
    for compiled in (False, True):
        mp = MacroProcessor(
            options=Ms2Options(cache=False, compiled_bodies=compiled)
        )
        mp.load(macro_src)
        try:
            outcomes.append(("ok", mp.expand_to_c(program)))
        except Ms2Error as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def assert_parity(macro_src: str, program: str):
    interpreted, compiled = run_both(macro_src, program)
    assert compiled == interpreted
    return compiled


class TestValueParity:
    def test_for_loop_with_break_and_continue(self):
        outcome = assert_parity(
            "syntax exp sumto {| ( ) |} {\n"
            "  int i; int s; s = 0;\n"
            "  for (i = 0; i < 10; i++) {\n"
            "    if (i == 3) continue;\n"
            "    if (i > 6) break;\n"
            "    s = s + i;\n"
            "  }\n"
            "  return(`($(s)));\n"
            "}",
            "int r = sumto();",
        )
        assert outcome[0] == "ok" and "18" in outcome[1]

    def test_do_while_with_continue_checks_condition(self):
        outcome = assert_parity(
            "syntax exp dw {| ( ) |} {\n"
            "  int i; int s; i = 0; s = 0;\n"
            "  do { i++; if (i == 2) continue; s = s + i; }\n"
            "  while (i < 4);\n"
            "  return(`($(s)));\n"
            "}",
            "int r = dw();",
        )
        assert outcome[0] == "ok" and "8" in outcome[1]

    def test_while_with_compound_assignment(self):
        outcome = assert_parity(
            "syntax exp wl {| ( ) |} {\n"
            "  int i; i = 1;\n"
            "  while (i < 100) { i *= 3; }\n"
            "  return(`($(i)));\n"
            "}",
            "int r = wl();",
        )
        assert outcome[0] == "ok" and "243" in outcome[1]

    def test_string_builtins_and_ternary(self):
        # Strings arise from literals/builtins (no declarable string
        # type, and the checker rejects indexing them).
        outcome = assert_parity(
            "syntax exp pick {| ( $$id::n ) |} {\n"
            "  return(`($(strlen(pstring(n)) > 1 ? 98 : 97)));\n"
            "}",
            "int r = pick(ab);",
        )
        assert outcome[0] == "ok" and "98" in outcome[1]

    def test_anonymous_function_mutates_enclosing_local(self):
        # The closure assigns the macro body's local (a ``nonlocal``
        # in the generated Python) — once per mapped element.
        outcome = assert_parity(
            "syntax exp count {| ( $$+/, exp::xs ) |} {\n"
            "  int n; n = 0;\n"
            "  return(`(f($(map((@exp e; `($(n = n + 1))), xs)))));\n"
            "}",
            "int r = count(a, b, c);",
        )
        assert outcome[0] == "ok"
        assert "f(1, 2, 3)" in outcome[1]

    def test_meta_function_called_from_compiled_body(self):
        assert_parity(
            "@exp dbl(@exp e) { return(`(($e) * 2)); }\n"
            "syntax exp twice {| ( $$exp::x ) |}"
            "{ return(dbl(x)); }",
            "int r = twice(5);",
        )


class TestErrorMessageParity:
    """Same error class, same message, same location — byte for byte."""

    CASES = {
        # The definition-time type checker demands the returned value
        # have the macro's declared AST type, so runtime errors are
        # provoked inside template placeholders (typed ``exp``).
        "division-by-zero": (
            "syntax exp bad {| ( ) |} "
            "{ int x; x = 0; return(`($(1 / x))); }",
            "int r = bad();",
        ),
        "modulo-by-zero": (
            "syntax exp bad {| ( ) |} "
            "{ int x; x = 0; return(`($(1 % x))); }",
            "int r = bad();",
        ),
        "head-of-empty-list": (
            "syntax exp bad {| ( ) |} { @exp ys[]; return(*ys); }",
            "int r = bad();",
        ),
        "list-index-out-of-range": (
            "syntax exp bad {| ( $$+/, exp::xs ) |} { return(xs[9]); }",
            "int r = bad(a, b);",
        ),
        # A return statement exists (the checker requires one) but is
        # skipped at runtime: the body falls off the end.
        "missing-return": (
            "syntax exp bad {| ( ) |} "
            "{ int x; x = 0; if (x) return(`(1)); }",
            "int r = bad();",
        ),
        "meta-recursion-limit": (
            "@exp f(int n) { return(f(n)); }\n"
            "syntax exp bad {| ( ) |} { return(f(0)); }",
            "int r = bad();",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical_errors(self, case):
        macro_src, program = self.CASES[case]
        interpreted, compiled = run_both(macro_src, program)
        assert compiled == interpreted
        assert compiled[0] != "ok"

    def test_execution_budget_message(self):
        # Compiled bodies batch-charge the shared fuel counter; a
        # runaway loop must still exhaust it with the interpreter's
        # exact message.  (Interpreted comparison skipped: walking
        # 5M ticks through the tree-walker takes tens of seconds.)
        mp = MacroProcessor(options=Ms2Options(cache=False))
        mp.load(
            "syntax exp spin {| ( ) |} "
            "{ int x; x = 0; while (1) { x = x + 1; } "
            "return(`($(x))); }"
        )
        with pytest.raises(Ms2Error) as err:
            mp.expand_to_c("int r = spin();")
        assert "exceeded its execution budget" in str(err.value)
        assert "5000000 steps" in str(err.value)


class TestFallbacks:
    SWITCH_MACRO = (
        "syntax exp pick {| ( $$exp::n ) |} {\n"
        "  int k; int r; k = 2; r = 0;\n"
        "  switch (k) { case 1: r = 10; break;\n"
        "               case 2: r = 20; break;\n"
        "               default: r = 30; }\n"
        "  return(`(($n) + $(r)));\n"
        "}"
    )

    def test_switch_falls_back_to_interpreter(self):
        mp = MacroProcessor(options=Ms2Options(cache=False))
        mp.load(self.SWITCH_MACRO)
        out = mp.expand_to_c("int r = pick(1);")
        assert "20" in out
        assert mp.stats.compile_fallbacks == 1
        assert mp.stats.bodies_compiled == 0

    def test_fallback_output_matches_interpreter(self):
        assert_parity(self.SWITCH_MACRO, "int r = pick(1);")

    def test_fallback_is_cached_per_definition(self):
        mp = MacroProcessor(options=Ms2Options(cache=False))
        mp.load(self.SWITCH_MACRO)
        mp.expand_to_c("int a = pick(1); int b = pick(2); int c = pick(3);")
        assert mp.stats.compile_fallbacks == 1
        assert mp.table.lookup("pick").compiled_body is False


class TestStatsAndCaching:
    MACRO = (
        "syntax exp three {| ( ) |} "
        "{ return(`(1 + $(2))); }"
    )

    def test_compiled_once_per_definition(self):
        mp = MacroProcessor(options=Ms2Options(cache=False))
        mp.load(self.MACRO)
        mp.expand_to_c("int a = three(); int b = three(); int c = three();")
        assert mp.stats.bodies_compiled == 1
        assert mp.stats.templates_compiled == 1
        assert mp.stats.compile_fallbacks == 0
        assert mp.stats.compile_time_ms > 0
        assert isinstance(
            mp.table.lookup("three").compiled_body, CompiledBody
        )

    def test_counters_survive_json_round_trip(self):
        from repro.stats import PipelineStats

        stats = PipelineStats(
            bodies_compiled=3,
            templates_compiled=7,
            compile_fallbacks=1,
            compile_time_ms=1.5,
        )
        payload = stats.to_json()
        for key in (
            "bodies_compiled",
            "templates_compiled",
            "compile_fallbacks",
            "compile_time_ms",
        ):
            assert key in payload
        loaded = PipelineStats.from_json(payload)
        assert loaded.bodies_compiled == 3
        assert loaded.compile_time_ms == 1.5
        merged = PipelineStats()
        merged.merge(stats)
        merged.merge(stats)
        assert merged.templates_compiled == 14
        assert merged.compile_time_ms == 3.0

    def test_kill_switch_disables_compilation(self, mp, monkeypatch):
        monkeypatch.setattr(codegen, "_DISABLED", True)
        mp.load(self.MACRO)
        assert get_compiled_body(mp.table.lookup("three")) is None
        assert mp.table.lookup("three").compiled_body is None

    def test_options_flag_disables_compilation(self):
        mp = MacroProcessor(
            options=Ms2Options(cache=False, compiled_bodies=False)
        )
        mp.load(self.MACRO)
        mp.expand_to_c("int a = three();")
        assert mp.stats.bodies_compiled == 0
        assert mp.table.lookup("three").compiled_body is None


class TestSemanticsNeutralOptions:
    def test_compiled_closure_masquerades_as_closure(self):
        # Dynamic-type error messages print type(v).__name__; a
        # compiled closure must not leak its implementation class.
        assert codegen.CompiledClosure.__name__ == "Closure"


# ---------------------------------------------------------------------------
# The process-wide compiled-body memo
# ---------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Units for the hermeticity check: (packages, package sources,
#: program, option fields).  B recovers from a bad invocation, so its
#: outcome carries diagnostics.
MEMO_UNITS = {
    "A": (
        ("loops", "exceptions", "painting-protected"),
        (),
        "void f(void) { unroll (3) { a(); } unroll (3) { a(); }\n"
        "  unroll (3) { a(); } for_range k = 0 to 3 { b(k); }\n"
        "  catch oops { fix(); } { throw oops; }\n"
        "  Painting { draw(); } }",
        {},
    ),
    "B": (
        ("loops",),
        (("extra.ms2", "syntax exp sq {| ( $$exp::e ) |}"
          " { return(`(($e) * ($e))); }"),),
        "int x = sq(2) + sq(2) + sq(2);\n"
        "void g(void) { unroll (-1) { c(); } swap (int, p, q); }",
        {"recover": True, "hygienic": True},
    ),
}


def memo_outcome(name: str) -> dict:
    """Bytes, diagnostics and session counters of one ``api.expand``
    of a :data:`MEMO_UNITS` entry.  Every counter is compared except
    the ``compile_time_ms`` timing (a memo hit compiles nothing)."""
    from repro.api import expand

    names, sources, program, fields = MEMO_UNITS[name]
    result = expand(
        program, f"{name}.c", options=Ms2Options(**fields),
        packages=names, package_sources=sources,
    )
    stats = result.stats.to_json()
    del stats["compile_time_ms"]
    return {
        "output": result.output,
        "diagnostics": [d.render() for d in result.diagnostics],
        "stats": stats,
    }


class TestProcessWideMemo:
    def test_a_b_a_matches_fresh_processes(self):
        in_process = [memo_outcome(n) for n in ("A", "B", "A")]
        fresh = {}
        for name in ("A", "B"):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import json, sys\n"
                 "from tests.macros.test_codegen import memo_outcome\n"
                 "print(json.dumps(memo_outcome(sys.argv[1])))",
                 name],
                cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                    [str(REPO_ROOT / "src"), str(REPO_ROOT)])),
            )
            assert proc.returncode == 0, proc.stderr
            fresh[name] = json.loads(proc.stdout)
        assert fresh["B"]["diagnostics"]
        assert fresh["A"]["stats"]["bodies_compiled"] > 0
        assert in_process == [fresh["A"], fresh["B"], fresh["A"]]

    def test_same_name_different_bodies_never_share(self):
        program = "int x = m();"
        outs = []
        for value in (1, 2, 1, 2):
            mp = MacroProcessor()
            mp.load(
                f"syntax exp m {{| ( ) |}} {{ return(`({value})); }}",
                "same.ms2",
            )
            outs.append(mp.expand_to_c(program))
        assert "1" in outs[0] and "2" in outs[1]
        assert outs == [outs[0], outs[1], outs[0], outs[1]]

    def test_equal_history_shares_one_body(self):
        bodies = []
        for _ in range(2):
            mp = MacroProcessor()
            mp.load(TestStatsAndCaching.MACRO, "shared.ms2")
            mp.expand_to_c("int a = three();")
            assert mp.stats.bodies_compiled == 1
            bodies.append(mp.table.lookup("three").compiled_body)
        assert bodies[0] is bodies[1]

    def test_shared_body_invokes_this_contexts_macros(self):
        """A body compiled in one context builds invocations of that
        context's definitions; expansion must use its own, whose
        purity reflects its own meta-function redefinitions."""
        pkg = (
            "metadcl int n;\n"
            "@exp f() { return(`(1)); }\n"
            "syntax exp inner {| ( ) |} { return(f()); }\n"
            "syntax exp outer {| ( ) |} { return(`(inner() + 0)); }\n"
        )
        prog = (
            "@exp f() { n = n + 1; return(make_num(n)); }\n"
            "int a = outer(); int b = outer(); int c = outer();"
        )
        warm = MacroProcessor()
        warm.load(pkg, "pkg.ms2")
        warm.expand_to_c("int z = outer();")
        outs = []
        for options in (Ms2Options(), Ms2Options(cache=False)):
            mp = MacroProcessor(options=options)
            mp.load(pkg, "pkg.ms2")
            outs.append(mp.expand_to_c(prog))
        assert outs[0] == outs[1]
        assert "3 + 0" in outs[0]

    def test_key_covers_options_and_history(self):
        def key(options=None, before=None):
            mp = MacroProcessor(options=options)
            if before is not None:
                mp.load(before, "before.ms2")
            mp.load(TestStatsAndCaching.MACRO, "shared.ms2")
            return mp.table.lookup("three").body_key

        plain = key()
        assert plain is not None
        assert key(Ms2Options(hygienic=True)) != plain
        assert key(before="metadcl int n;") != plain
        # Unhashed fast-path options compile the same body.
        assert key(Ms2Options(cache=False)) == plain

    def test_program_macros_and_later_loads_get_no_key(self):
        mp = MacroProcessor()
        mp.expand_to_c(TestStatsAndCaching.MACRO + "\nint a = three();")
        assert mp.table.lookup("three").body_key is None
        # A program run changes parse state, so later loads are
        # private to this context too.
        mp.load("syntax exp four {| ( ) |} { return(`(4)); }")
        assert mp.table.lookup("four").body_key is None

    def test_failed_load_stops_keying(self):
        mp = MacroProcessor()
        with pytest.raises(Ms2Error):
            mp.load("syntax exp ok {| ( ) |} { return(`(1)); }\n"
                    "syntax exp bad {| ( ) |} { return(`(1 +)); }")
        assert mp.table.lookup("ok").body_key is not None
        mp.load("syntax exp later {| ( ) |} { return(`(2)); }")
        assert mp.table.lookup("later").body_key is None

    def test_memo_stays_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(codegen, "BODY_MEMO_SIZE", 4)
        for i in range(10):
            mp = MacroProcessor()
            mp.load(
                f"syntax exp n{i} {{| ( ) |}} {{ return(`({i})); }}",
                "bound.ms2",
            )
            assert f"= {i};" in mp.expand_to_c(f"int x = n{i}();")
            assert len(codegen._BODY_MEMO) <= 4

    def test_memo_hit_counts_like_a_compile(self):
        codegen.clear_body_memo()
        runs = []
        for _ in range(2):
            mp = MacroProcessor()
            mp.load(TestFallbacks.SWITCH_MACRO + "\n" + TestStatsAndCaching.MACRO)
            mp.expand_to_c("int r = pick(1); int a = three();")
            runs.append(mp.stats)
        first, second = runs
        assert (first.bodies_compiled, first.compile_fallbacks) == (1, 1)
        assert (second.bodies_compiled, second.compile_fallbacks) == (1, 1)
        assert second.templates_compiled == first.templates_compiled
        assert first.compile_time_ms > 0
        assert second.compile_time_ms == 0

    def test_threads_share_the_memo_byte_identically(self, monkeypatch):
        """More threads than cores expanding fresh contexts while the
        memo churns at a tiny bound: every output stays identical to
        the interpreter's."""
        from repro.api import expand

        units = [
            (("loops",), "void f(void) { unroll (2) { a(); } }"),
            (("exceptions",), "void f(void) { catch e { h(); } { throw e; } }"),
            (("loops", "exceptions"),
             "void f(void) { for_range k = 0 to 2 { unroll (2) { b(k); } } }"),
        ]
        slow = Ms2Options(compiled_bodies=False, cache=False)
        expected = [
            expand(src, options=slow, packages=names).output
            for names, src in units
        ]
        monkeypatch.setattr(codegen, "BODY_MEMO_SIZE", 3)
        deadline = time.monotonic() + 2.0
        failures: list[str] = []

        def worker(offset: int) -> None:
            i = offset
            while time.monotonic() < deadline and not failures:
                names, src = units[i % len(units)]
                try:
                    out = expand(src, packages=names).output
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))
                    return
                if out != expected[i % len(units)]:
                    failures.append(f"unit {i % len(units)} diverged")
                i += 1

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(2 * (os.cpu_count() or 1) + 2)
        ]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(codegen._BODY_MEMO) <= 3
