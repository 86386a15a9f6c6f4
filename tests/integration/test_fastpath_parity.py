"""Fast-path parity sweep.

The perf layers (expansion cache, compiled dispatch, master-regex
scanner) are pure optimizations: for any macro program and any
(hygienic, compiled_patterns) configuration, enabling or disabling
them must not change a single byte of the emitted C.  This sweep
drives every shipped package and every ``examples/`` program through
all four (hygienic, compiled_patterns) combinations, each with the
cache on and off, and compares the output byte-for-byte against the
interpreted, uncached engine.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import pytest

from repro import MacroProcessor, Ms2Options
from repro import packages

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"


def _example(name: str):
    """Import an ``examples/`` script as a module (guarded main)."""
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# One exercising program per package in src/repro/packages/
# ---------------------------------------------------------------------------

PACKAGE_CASES = {
    "contracts": (
        lambda mp: packages.contracts.register(mp),
        "void f(int n) { require (n > 0); ensure (n < 9); "
        "check_range (n, 0, 9); }",
    ),
    "dispatch": (
        lambda mp: packages.dispatch.register(mp),
        lambda: _example("window_dispatch").PROGRAM,
    ),
    "dynbind": (
        lambda mp: packages.dynbind.register(mp),
        "void f(void) { int depth; dynamic_bind {int depth = 1} {go();} }",
    ),
    "enumio": (
        lambda mp: packages.enumio.register(mp),
        "myenum fruit {apple, banana, kiwi};",
    ),
    "exceptions": (
        lambda mp: packages.exceptions.register(mp),
        "void f(int *c) {\n"
        "    catch division_by_zero {handle();} {*c = freq();}\n"
        "    unwind_protect {start();} {stop();}\n"
        "    throw division_by_zero;\n"
        "}",
    ),
    "loops": (
        lambda mp: packages.loops.register(mp),
        "void f(int a, int b) {\n"
        "    int j;\n"
        "    unless (done()) { step(); }\n"
        "    for_range j = 0 to 9 { tick(j); }\n"
        "    unroll (4) { work(i); }\n"
        "    with_resource (open_it(), close_it()) { use(); }\n"
        "    swap (int, a, b);\n"
        "    forever { poll(); }\n"
        "}",
    ),
    "painting": (
        lambda mp: packages.painting.register(mp),
        "void f(void) { Painting { draw(); } }",
    ),
    "painting-protected": (
        lambda mp: (
            packages.exceptions.register(mp),
            packages.painting.register(mp, protected=True),
        ),
        "void f(void) { Painting { draw(); } }",
    ),
    "portvm": (
        lambda mp: packages.portvm.register(mp),
        "vm_target unix;\n"
        "void f(void) {\n"
        "    int h;\n"
        "    vm_open(h, path);\n"
        "    vm_sleep(250);\n"
        "    vm_yield();\n"
        "    vm_close(h);\n"
        "}",
    ),
    "semantic": (
        lambda mp: packages.semantic.register(mp),
        "void f(int a, int b) {\n"
        "    int depth;\n"
        "    sdynamic_bind {depth = 1} {g();}\n"
        "    sswap (a, b);\n"
        "    show (a);\n"
        "}",
    ),
    "statemachine": (
        lambda mp: packages.statemachine.register(mp),
        lambda: _example("state_machine").PROGRAM,
    ),
    "structio": (
        lambda mp: packages.structio.register(mp),
        lambda: _example("serialization").PROGRAM,
    ),
}

# ---------------------------------------------------------------------------
# Every examples/ program (register exactly as the script does)
# ---------------------------------------------------------------------------

EXAMPLE_CASES = {
    "quickstart": (lambda mp: None, lambda: _example("quickstart").PROGRAM),
    "capture_lint": (
        lambda mp: mp.load(_example("capture_lint").CAPTURING_MACRO),
        lambda: _example("capture_lint").PROGRAM,
    ),
    "capture_lint-gensym": (
        lambda mp: mp.load(_example("capture_lint").GENSYM_MACRO),
        lambda: _example("capture_lint").PROGRAM,
    ),
    "exceptions_demo": (
        lambda mp: (
            packages.exceptions.register(mp),
            packages.painting.register(mp, protected=True),
        ),
        lambda: _example("exceptions_demo").PROGRAM,
    ),
    "enum_io": (
        lambda mp: packages.enumio.register(mp),
        lambda: _example("enum_io").PROGRAM,
    ),
    "portable_vm-unix": (
        lambda mp: packages.portvm.register(mp),
        lambda: "vm_target unix;\n" + _example("portable_vm").PROGRAM,
    ),
    "portable_vm-windows": (
        lambda mp: packages.portvm.register(mp),
        lambda: "vm_target windows;\n" + _example("portable_vm").PROGRAM,
    ),
    "semantic_macros": (
        lambda mp: packages.semantic.register(mp),
        lambda: _example("semantic_macros").PROGRAM,
    ),
    "serialization": (
        lambda mp: packages.structio.register(mp),
        lambda: _example("serialization").PROGRAM,
    ),
    "state_machine": (
        lambda mp: packages.statemachine.register(mp),
        lambda: _example("state_machine").PROGRAM,
    ),
    "window_dispatch": (
        lambda mp: packages.dispatch.register(mp),
        lambda: _example("window_dispatch").PROGRAM,
    ),
    "taxonomy_tour": (
        lambda mp: [
            mp.load(src) for src in _example("taxonomy_tour").TRACE_SOURCES
        ],
        lambda: _example("taxonomy_tour").TRACE_PROGRAM,
    ),
}

ALL_CASES = {**PACKAGE_CASES, **EXAMPLE_CASES}


def _expand(case: str, **kwargs) -> str:
    setup, program = ALL_CASES[case]
    if callable(program):
        program = program()
    mp = MacroProcessor(options=Ms2Options(**kwargs))
    setup(mp)
    return mp.expand_to_c(program)


class TestFastPathParity:
    @pytest.mark.parametrize("case", sorted(ALL_CASES))
    @pytest.mark.parametrize("hygienic", [False, True])
    def test_all_configurations_byte_identical(self, case, hygienic):
        """For a fixed hygiene setting, every combination of
        (compiled_patterns, cache) must produce the same C text as
        the interpreted, uncached engine."""
        reference = _expand(
            case, hygienic=hygienic, compiled_patterns=False, cache=False
        )
        for compiled, cache in itertools.product([False, True], repeat=2):
            if not compiled and not cache:
                continue
            out = _expand(
                case,
                hygienic=hygienic,
                compiled_patterns=compiled,
                cache=cache,
            )
            assert out == reference, (
                f"{case}: output diverged with hygienic={hygienic}, "
                f"compiled_patterns={compiled}, cache={cache}"
            )

    def test_sweep_covers_every_package(self):
        """A new package module must be added to the sweep."""
        pkg_dir = REPO_ROOT / "src" / "repro" / "packages"
        modules = {
            p.stem for p in pkg_dir.glob("*.py") if p.stem != "__init__"
        }
        covered = {name.split("-")[0] for name in PACKAGE_CASES}
        assert modules <= covered, (
            f"packages missing from parity sweep: {modules - covered}"
        )

    def test_sweep_covers_every_example_program(self):
        """A new examples/ script with a PROGRAM must join the sweep."""
        with_program = {
            p.stem
            for p in EXAMPLES_DIR.glob("*.py")
            if "PROGRAM = " in p.read_text()
        }
        covered = {name.split("-")[0] for name in EXAMPLE_CASES}
        assert with_program <= covered, (
            f"examples missing from parity sweep: {with_program - covered}"
        )

    def test_repeat_invocations_hit_cache_without_changing_output(self):
        src = "void f() {\n" + "unroll (3) { a[i] = i; }\n" * 6 + "}\n"
        mp = MacroProcessor()
        packages.loops.register(mp)
        fast = mp.expand_to_c(src)
        assert mp.stats.cache_hits == 4
        slow = MacroProcessor(
            options=Ms2Options(cache=False, compiled_patterns=False)
        )
        packages.loops.register(slow)
        assert fast == slow.expand_to_c(src)
