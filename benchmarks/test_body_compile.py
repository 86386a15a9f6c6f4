"""Cold-path cost of macro body evaluation: interpreter vs compiler.

The body/template compiler (:mod:`repro.macros.codegen`) targets the
cache-off expansion, which used to tree-walk the meta-interpreter for
every invocation.  These benchmarks expand each workload cold
(``cache=False``) with ``compiled_bodies`` off and on, and assert
byte parity between the two.

Workloads come in two flavours:

* the three repeated-invocation workloads shared with
  ``test_expansion_throughput`` (template/splice-heavy — the compiler
  helps, but the expander's pass over each result bounds the win),
  and
* two compute-heavy macros (``ct-table``/``ct-fold``) in the paper's
  compile-time-computation tradition (section 4's table generation),
  where the meta-program itself is the cost and compilation pays off
  an order of magnitude.

End-to-end timings of the shipping configuration live in
``perfbench/``.
"""

import statistics
import time

import pytest

from repro import MacroProcessor, Ms2Options

from .test_expansion_throughput import REPEATED_WORKLOADS, _expand

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
