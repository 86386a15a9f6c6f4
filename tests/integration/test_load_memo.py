"""The process-wide package-load memo keeps every context hermetic.

:meth:`repro.engine.MacroProcessor.load` parses a package file once
per load history and replays the parsed nodes into later contexts.
A replay must be indistinguishable from a parse: same bytes, same
diagnostics, same counters, same parse state for later files.  These
tests run on both the compiled-body and the interpreter path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import MacroProcessor, Ms2Options
from repro import engine
from repro.errors import Ms2Error, ParseError
from repro.macros.codegen import clear_body_memo
from repro.packages import register_named

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A package file whose template invokes ``unroll``: its parse counts
#: one compiled or interpreted invocation parse.
EXTRA = (
    "extra.ms2",
    "syntax exp sq {| ( $$exp::e ) |} { return(`(($e) * ($e))); }\n"
    "syntax stmt twice {| $$stmt::s |} { return(`{unroll (2) $s;}); }\n",
)

#: name -> (standard packages, extra package files, program, options)
UNITS = {
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
        (EXTRA,),
        "int x = sq(2) + sq(2) + sq(2);\n"
        "void g(void) { twice { c(); } for_range k = 0 to 2 { d(k); } }",
        {"compiled_patterns": False, "compiled_bodies": False},
    ),
    "C": (
        ("loops", "exceptions"),
        (),
        "void h(void) { unroll (2) { e(); } catch x { g(); } { throw x; } }",
        {"recover": True, "max_expansions": 0},
    ),
    # B's load history, whose parse counts compiled parses instead.
    "D": (
        ("loops",),
        (EXTRA,),
        "void g(void) { twice { e(); } }",
        {},
    ),
}


def outcome(name: str) -> dict:
    """Bytes, diagnostics and every session counter but the
    ``compile_time_ms`` timing of one ``api.expand`` of a unit."""
    from repro.api import expand

    names, sources, program, fields = UNITS[name]
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


def fresh_outcome(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from tests.integration.test_load_memo import outcome\n"
         "print(json.dumps(outcome(sys.argv[1])))",
         name],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)])),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_replays_match_fresh_processes():
    clear_body_memo()
    order = tuple(UNITS) * 2
    in_process = [outcome(name) for name in order]
    fresh = {name: fresh_outcome(name) for name in UNITS}
    assert fresh["A"]["stats"]["tokens_scanned"] > 0
    assert fresh["B"]["stats"]["compiled_parses"] == 0
    assert fresh["D"]["stats"]["interpreted_parses"] == 0
    assert fresh["C"]["diagnostics"]
    assert in_process == [fresh[name] for name in order]


def test_second_load_replays_instead_of_parsing(monkeypatch):
    clear_body_memo()
    parsed = []
    original = MacroProcessor._parse_load

    def counting(self, source, filename):
        parsed.append(filename)
        return original(self, source, filename)

    monkeypatch.setattr(MacroProcessor, "_parse_load", counting)
    for _ in range(2):
        register_named(MacroProcessor(), "loops")
    assert parsed == ["<loops>"]


def test_missing_dependency_fails_the_same_every_time():
    """``painting-protected`` uses ``exceptions``' macros: loaded
    alone it is a parse error, and stays one on a retry."""
    before = len(engine._LOAD_MEMO)
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            register_named(MacroProcessor(), "painting-protected")
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("<painting>:6:14:")
    assert len(engine._LOAD_MEMO) == before


def test_failed_load_stores_nothing():
    clear_body_memo()
    source = (
        "syntax exp ok {| ( ) |} { return(`(1)); }\n"
        "syntax exp bad {| ( ) |} { return(`(1 +)); }"
    )
    for _ in range(2):
        with pytest.raises(Ms2Error):
            MacroProcessor().load(source, "broken.ms2")
        assert len(engine._LOAD_MEMO) == 0


def test_package_with_top_level_invocation_is_never_replayed():
    """Expanding ``tick()`` while loading bumps ``n``; a replay that
    skipped the expansion would leave the program reading 1."""
    clear_body_memo()
    package = (
        "metadcl int n;\n"
        "syntax exp tick {| ( ) |} { n = n + 1; return(make_num(n)); }\n"
        "int first = tick();\n"
    )
    outputs = []
    for _ in range(3):
        mp = MacroProcessor()
        mp.load(package, "ticks.ms2")
        outputs.append(mp.expand_to_c("int second = tick();"))
    assert len(engine._LOAD_MEMO) == 0
    assert all("second = 2;" in out for out in outputs)


def test_program_after_a_replay_sees_typedefs_and_meta_types():
    package = (
        "typedef struct point point_t;\n"
        "metadcl int counter;\n"
        "metadcl @exp last;\n"
    )
    program = (
        "syntax exp bump {| ( $$exp::e ) |}\n"
        "{ counter = counter + 1; last = e; return(`($last + 1)); }\n"
        "typedef int local_t;\n"
        "point_t origin;\n"
        "int a = bump(x); int b = bump(y);"
    )
    clear_body_memo()
    outputs = []
    for _ in range(2):
        mp = MacroProcessor()
        mp.load(package, "types.ms2")
        # A second file parses against the first one's state.
        mp.load("point_t *later; metadcl int other = counter;", "more.ms2")
        outputs.append(mp.expand_to_c(program))
    assert len(engine._LOAD_MEMO) == 2
    assert outputs[0] == outputs[1]
    assert "point_t origin;" in outputs[0]
    assert "b = y + 1;" in outputs[0]
    # The programs' own typedef stays in their contexts.
    mp = MacroProcessor()
    mp.load(package, "types.ms2")
    with pytest.raises(ParseError, match="'local_t'"):
        mp.expand_to_c("local_t z;")


def test_replayed_templates_use_this_contexts_purity():
    """Parsed templates are shared between contexts, so the purity
    of a macro a template invokes must come from this context."""
    package = (
        "metadcl int n;\n"
        "@exp f() { return(`(1)); }\n"
        "syntax exp inner {| ( ) |} { return(f()); }\n"
        "syntax exp outer {| ( ) |} { return(`(inner() + 0)); }\n"
    )
    program = (
        "@exp f() { n = n + 1; return(make_num(n)); }\n"
        "int a = outer(); int b = outer(); int c = outer();"
    )
    clear_body_memo()
    warm = MacroProcessor()
    warm.load(package, "pkg.ms2")
    assert warm.expand_to_c("int z = outer();").count("1 + 0") == 1
    outputs = []
    for options in (Ms2Options(), Ms2Options(cache=False)):
        mp = MacroProcessor(options=options)
        mp.load(package, "pkg.ms2")
        outputs.append(mp.expand_to_c(program))
    assert outputs[0] == outputs[1]
    assert "3 + 0" in outputs[0]


def test_threads_replay_byte_identically(monkeypatch):
    """More threads than cores load packages into fresh contexts
    while the memo churns at a tiny bound."""
    from repro.api import expand

    monkeypatch.setattr(engine, "LOAD_MEMO_SIZE", 2)
    units = [
        (("loops",), "void f(void) { unroll (2) { a(); } }"),
        (("exceptions",), "void f(void) { catch e { h(); } { throw e; } }"),
        (("loops", "exceptions"),
         "void f(void) { for_range k = 0 to 2 { unroll (2) { b(k); } } }"),
        (("exceptions", "painting-protected"),
         "void f(void) { Painting { draw(); } }"),
    ]
    expected = []
    for names, program in units:
        clear_body_memo()  # every reference parses its packages
        expected.append(expand(program, packages=names).output)
    clear_body_memo()
    failures: list[str] = []

    def worker(offset: int) -> None:
        try:
            for i in range(12):
                index = (offset + i) % len(units)
                names, program = units[index]
                if expand(program, packages=names).output != expected[index]:
                    failures.append(f"unit {index} diverged")
        except Exception as exc:  # noqa: BLE001 - report, don't hang
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(engine._LOAD_MEMO) <= 2
