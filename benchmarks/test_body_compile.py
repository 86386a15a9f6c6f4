"""Cold-path cost of macro body evaluation: interpreter vs compiler.

The body/template compiler (:mod:`repro.macros.codegen`) targets the
*baseline* dimension every cache-oriented BENCH number divides by: a
cache-off expansion used to tree-walk the meta-interpreter for every
invocation.  This benchmark records that dimension — each workload
expanded cold (``cache=False``) with ``compiled_bodies`` off and on —
plus compile-time amortization (the 1st invocation pays the one-time
lowering to Python, the Nth only the generated code).

Workloads come in two flavours:

* the three repeated-invocation workloads shared with
  ``test_expansion_throughput`` (template/splice-heavy — the compiler
  helps, but clone-on-splice and the recursive expansion pass bound
  the win), and
* two compute-heavy macros (``ct-table``/``ct-fold``) in the paper's
  compile-time-computation tradition (section 4's table generation),
  where the meta-program itself is the cost and compilation pays off
  an order of magnitude.

Results append to ``BENCH_expansion.json`` under a ``baseline`` key
(the cache trajectory under ``trajectory`` is left untouched):

    BENCH_SMOKE=1 python benchmarks/test_body_compile.py
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro import MacroProcessor, Ms2Options
from repro.macros.codegen import clear_body_memo

try:
    from .test_expansion_throughput import REPEATED_WORKLOADS, _expand
except ImportError:  # run as a script: benchmarks/ is sys.path[0]
    from test_expansion_throughput import REPEATED_WORKLOADS, _expand

# ---------------------------------------------------------------------------
# Compute-heavy workloads: meta-evaluation IS the cold-path cost
# ---------------------------------------------------------------------------

CT_TABLE_SOURCE = (
    "syntax exp sqtable {| ( $$exp::n ) |} {\n"
    "  int i; int acc; @exp parts[];\n"
    "  acc = 0; parts = list();\n"
    "  for (i = 0; i < 768; i++) {\n"
    "    acc = (acc * 31 + i * i + (acc >> 3)) % 65521;\n"
    "    if (i % 64 == 63) parts = cons(`($(acc)), parts);\n"
    "  }\n"
    "  return(`(pick($n, $parts)));\n"
    "}"
)

CT_FOLD_SOURCE = (
    "syntax exp ctpow {| ( $$exp::b , $$exp::e ) |} {\n"
    "  int r; int i; int n; int base;\n"
    "  r = 1; base = 17; n = 4000;\n"
    "  for (i = 0; i < n; i++) { r = (r * base) % 1000003; }\n"
    "  return(`($(r)));\n"
    "}"
)

#: name -> (macro source, program)
COMPUTE_WORKLOADS = {
    "ct-table": (CT_TABLE_SOURCE, "int r = sqtable(3);"),
    "ct-fold": (CT_FOLD_SOURCE, "int r = ctpow(2, 10);"),
}


def _expand_custom(source: str, program: str, **kwargs):
    mp = MacroProcessor(options=Ms2Options(cache=False, **kwargs))
    mp.load(source)
    out = mp.expand_to_c(program)
    return out, mp.stats


def _median(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _workload_runner(name: str, smoke: bool):
    """A zero-arg expander for ``name`` under given body options,
    plus a parity-checked reference run collecting stats."""
    if name in COMPUTE_WORKLOADS:
        source, program = COMPUTE_WORKLOADS[name]

        def run(**kwargs):
            return _expand_custom(source, program, **kwargs)

        return run
    builder, pkg_names, reps = REPEATED_WORKLOADS[name]
    scale = 5 if smoke else 1
    src = builder(max(2, reps // scale))

    def run(**kwargs):
        return _expand(src, pkg_names, cache=False, **kwargs)

    return run


def measure_baseline(smoke: bool = False) -> dict:
    """Cold (cache-off) expansion per workload, bodies interpreted vs
    compiled; byte-parity is asserted before timing."""
    repeats = 3 if smoke else 9
    workloads = {}
    names = list(REPEATED_WORKLOADS) + list(COMPUTE_WORKLOADS)
    for name in names:
        run = _workload_runner(name, smoke)
        slow_out, _ = run(compiled_bodies=False)
        fast_out, stats = run(compiled_bodies=True)
        assert fast_out == slow_out, f"parity failure on {name!r}"
        slow = _median(lambda: run(compiled_bodies=False), repeats)
        fast = _median(lambda: run(compiled_bodies=True), repeats)
        workloads[name] = {
            "interpreted_ms": round(slow * 1000, 2),
            "compiled_ms": round(fast * 1000, 2),
            "speedup": round(slow / fast, 2),
            "bodies_compiled": stats.bodies_compiled,
            "templates_compiled": stats.templates_compiled,
            "compile_fallbacks": stats.compile_fallbacks,
        }
    return {
        "smoke": smoke,
        "workloads": workloads,
        "amortization": measure_amortization(smoke=smoke),
    }


def measure_amortization(smoke: bool = False) -> dict:
    """1st vs Nth invocation on one processor: the first expansion
    pays the one-time body lowering (tracked in ``compile_time_ms``),
    later ones only run the generated code."""
    repeats = 3 if smoke else 9
    source, program = COMPUTE_WORKLOADS["ct-fold"]
    # Earlier workloads loaded this source too: forget their bodies so
    # the first expansion pays a real compile, not a memo hit.
    clear_body_memo()
    mp = MacroProcessor(options=Ms2Options(cache=False))
    mp.load(source)
    start = time.perf_counter()
    mp.expand_to_c(program)
    first = time.perf_counter() - start
    steady = _median(lambda: mp.expand_to_c(program), repeats)
    return {
        "workload": "ct-fold",
        "first_ms": round(first * 1000, 2),
        "steady_ms": round(steady * 1000, 2),
        "first_over_steady": round(first / steady, 2),
        "compile_time_ms": round(mp.stats.compile_time_ms, 2),
    }


def emit_baseline(path: Path, smoke: bool = False) -> dict:
    """Append one ``baseline`` point to BENCH_expansion.json (the
    cache ``trajectory`` list is preserved untouched)."""
    point = measure_baseline(smoke=smoke)
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data.setdefault("baseline", []).append(point)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return point


# ---------------------------------------------------------------------------
# pytest-benchmark + correctness-side assertions
# ---------------------------------------------------------------------------

ALL_WORKLOADS = sorted(list(REPEATED_WORKLOADS) + list(COMPUTE_WORKLOADS))


@pytest.mark.benchmark(group="body-compile")
class TestBodyCompileBench:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_cold_expansion(self, benchmark, name, mode):
        run = _workload_runner(name, smoke=True)
        benchmark(lambda: run(compiled_bodies=(mode == "compiled")))


class TestBodyCompileBehaviour:
    """Structural assertions that run without the benchmark plugin."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_cold_parity_and_compilation(self, name):
        run = _workload_runner(name, smoke=True)
        slow_out, _ = run(compiled_bodies=False)
        fast_out, stats = run(compiled_bodies=True)
        assert fast_out == slow_out
        assert stats.bodies_compiled > 0
        assert stats.compile_fallbacks == 0

    def test_compute_workloads_beat_interpreter(self):
        # The compute-heavy macros are eval-bound; even on a noisy
        # machine the compiled run must at least beat the tree-walker.
        source, program = COMPUTE_WORKLOADS["ct-fold"]
        slow = _median(
            lambda: _expand_custom(
                source, program, compiled_bodies=False
            ),
            3,
        )
        fast = _median(
            lambda: _expand_custom(source, program), 3
        )
        assert fast < slow

    def test_emit_baseline_smoke(self, tmp_path):
        path = tmp_path / "BENCH_expansion.json"
        path.write_text(json.dumps({"trajectory": [{"smoke": True}]}))
        point = emit_baseline(path, smoke=True)
        assert set(point["workloads"]) == set(ALL_WORKLOADS)
        for numbers in point["workloads"].values():
            assert numbers["speedup"] > 0
            assert numbers["compile_fallbacks"] == 0
        data = json.loads(path.read_text())
        assert data["trajectory"] == [{"smoke": True}]
        assert len(data["baseline"]) == 1
        assert point["amortization"]["first_over_steady"] >= 1


if __name__ == "__main__":
    out = Path(
        os.environ.get("BENCH_EXPANSION_JSON", "BENCH_expansion.json")
    )
    smoke_mode = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
    result = emit_baseline(out, smoke=smoke_mode)
    print(json.dumps(result, indent=2))
