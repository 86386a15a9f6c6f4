"""End-to-end expansion throughput (the paper's announced-but-never-
reported "large scale experiments").

Measures the full pipeline — tokenize, parse, type-check, expand,
unparse — on synthesized programs of growing size, with and without
macro use, plus the per-invocation cost of each standard package
macro.
"""

import pytest

from repro import MacroProcessor, Ms2Options
from repro.packages import load_standard


def plain_program(n_functions: int) -> str:
    parts = []
    for i in range(n_functions):
        parts.append(
            f"int fn{i}(int a, int b)\n"
            f"{{\n"
            f"    int total;\n"
            f"    total = a * {i} + b;\n"
            f"    if (total > 100) total = total - 100;\n"
            f"    while (total > 10) total = total / 2;\n"
            f"    return total;\n"
            f"}}\n"
        )
    return "\n".join(parts)


def macro_program(n_functions: int) -> str:
    parts = []
    for i in range(n_functions):
        parts.append(
            f"void fn{i}(void)\n"
            f"{{\n"
            f"    int i;\n"
            f"    Painting {{ draw{i}(); }}\n"
            f"    for_range i = 0 to {i + 3} {{ tick(); }}\n"
            f"    unless (done()) {{ catch tag{i} {{h();}} {{risky();}} }}\n"
            f"}}\n"
        )
    return "\n".join(parts)


@pytest.mark.benchmark(group="throughput-plain")
class TestPlainCThroughput:
    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_plain(self, benchmark, n):
        src = plain_program(n)
        benchmark(lambda: MacroProcessor().expand_to_c(src))


@pytest.mark.benchmark(group="throughput-macros")
class TestMacroThroughput:
    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_macro_heavy(self, benchmark, n):
        src = macro_program(n)

        def run():
            mp = MacroProcessor()
            load_standard(mp)
            return mp.expand_to_c(src)

        out = run()
        assert "setjmp" in out  # macros actually expanded
        benchmark(run)


@pytest.mark.benchmark(group="per-macro-cost")
class TestPerMacroCost:
    """Cost of a single expansion of each standard macro."""

    CASES = {
        "Painting": "void f(void) { Painting { draw(); } }",
        "dynamic_bind": (
            "void f(void) { dynamic_bind {int d = 1} {go();} }"
        ),
        "throw": "void f(void) { throw tag; }",
        "catch": "void f(void) { catch tag {h();} {b();} }",
        "unwind_protect": (
            "void f(void) { unwind_protect {b();} {c();} }"
        ),
        "myenum": "myenum fruit {apple, banana, kiwi};",
        "for_range": (
            "void f(void) { int i; for_range i = 0 to 9 {t();} }"
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_single_macro(self, benchmark, name):
        src = self.CASES[name]

        def run():
            mp = MacroProcessor()
            load_standard(mp)
            return mp.expand_to_c(src)

        benchmark(run)


@pytest.mark.benchmark(group="definition-cost")
class TestDefinitionCost:
    """Cost of loading (parsing + type-checking) the macro packages."""

    def test_load_standard_packages(self, benchmark):
        def load():
            mp = MacroProcessor()
            load_standard(mp)
            return mp

        mp = load()
        assert len(mp.table) >= 10
        benchmark(load)


# ---------------------------------------------------------------------------
# Repeated-invocation workloads: the expansion cache's target case
# ---------------------------------------------------------------------------

def repeated_unroll(reps: int) -> str:
    """One pure macro invoked many times with identical arguments —
    the best case for the expansion cache (everything after the first
    expansion is a replay)."""
    return (
        "void f() {\n"
        + "unroll (32) { a[i] = i * 2; }\n" * reps
        + "}\n"
    )


def repeated_mixed(reps: int) -> str:
    """Two pure loop macros alternating; every invocation after the
    first pair is a cache hit."""
    return (
        "void g() {\n"
        + (
            "unroll (16) { b[i] = i; }\n"
            "for_range j = 0 to 10 { use(j); }\n"
        ) * reps
        + "}\n"
    )


def repeated_exceptions(reps: int) -> str:
    """Pure setjmp/longjmp macros from the exceptions package; the
    bodies are large, so replay saves the most meta-interpretation."""
    return (
        "void h() {\n"
        + (
            "catch err { handle(); } { risky(); }\n"
            "unwind_protect { work(); } { cleanup(); }\n"
        ) * reps
        + "}\n"
    )


#: name -> (source builder, package names, full-size rep count)
REPEATED_WORKLOADS = {
    "pure-unroll": (repeated_unroll, ("loops",), 80),
    "mixed": (repeated_mixed, ("loops",), 40),
    "exceptions": (repeated_exceptions, ("exceptions",), 75),
}


def _load_named(mp: MacroProcessor, names) -> None:
    from repro import packages

    for name in names:
        mp.load(getattr(packages, name).SOURCE)


def _expand(src: str, pkg_names, **kwargs):
    mp = MacroProcessor(options=Ms2Options(**kwargs))
    _load_named(mp, pkg_names)
    return mp.expand_to_c(src), mp.stats


@pytest.mark.benchmark(group="repeated-invocation")
class TestRepeatedInvocation:
    """pytest-benchmark numbers for the cache's target workloads."""

    @pytest.mark.parametrize("name", sorted(REPEATED_WORKLOADS))
    @pytest.mark.parametrize("mode", ["fast", "baseline"])
    def test_workload(self, benchmark, name, mode):
        builder, pkg_names, reps = REPEATED_WORKLOADS[name]
        src = builder(reps)
        kwargs = (
            {} if mode == "fast"
            else {"cache": False, "compiled_patterns": False}
        )
        benchmark(lambda: _expand(src, pkg_names, **kwargs))


class TestFastPathBehaviour:
    """Correctness-side assertions for the repeated workloads (these
    run even without pytest-benchmark's measurement machinery)."""

    @pytest.mark.parametrize("name", sorted(REPEATED_WORKLOADS))
    def test_parity_and_cache_hits(self, name):
        builder, pkg_names, _ = REPEATED_WORKLOADS[name]
        src = builder(6)
        fast_out, stats = _expand(src, pkg_names)
        slow_out, _ = _expand(
            src, pkg_names, cache=False, compiled_patterns=False
        )
        assert fast_out == slow_out
        assert stats.cache_hits > 0
        assert stats.compiled_parses > 0
