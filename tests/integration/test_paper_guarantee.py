"""The paper's guarantee, checked by the host parser: a successful
expansion is plain C.

Macros build syntax trees, never token strings, so their output needs
no further macro processing: it re-parses with a parser that has no
macro host, and printing is a fixed point (print -> parse -> print).
Under ``hygienic=True`` no user identifier is captured by a
macro-introduced declaration.  The inputs are the benchmark's
generated units and the example corpus; the checks are the
benchmark's own output oracle.  The capture check is shown to be live
on ``examples/capture_lint.py``'s capturing macro, which captures
without hygiene.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from perfbench import gen
from perfbench.oracle import plain_c_problem
from repro.analysis import detect_captures
from repro.api import Ms2Options, expand
from repro.engine import MacroProcessor
from repro.errors import Ms2Error
from repro.packages import register_named

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
CORPUS = EXAMPLES / "corpus"


def _expands(path: Path) -> bool:
    try:
        expand(path.read_text(), str(path))
    except Ms2Error:
        return False
    return True


INPUTS = [
    pytest.param(unit.source, gen.PACKAGES, id=f"{kind}-{unit.name}")
    for kind in ("distinct", "repeat")
    for unit in gen.units(kind, 1, 24)
] + [
    pytest.param(path.read_text(), (), id=f"corpus-{path.name}")
    for path in sorted(CORPUS.iterdir())
    if _expands(path)
]


@pytest.mark.parametrize("hygienic", [False, True], ids=["plain", "hygienic"])
@pytest.mark.parametrize("source, packages", INPUTS)
def test_expansion_is_plain_c(source, packages, hygienic):
    options = Ms2Options(hygienic=hygienic)
    output = expand(source, packages=packages, options=options).output
    assert plain_c_problem(output) is None
    if hygienic:
        mp = MacroProcessor(options=options)
        for name in packages:
            register_named(mp, name)
        assert detect_captures(mp.expand_to_ast(source)) == []


def test_the_corpus_takes_part():
    assert any(p.id.startswith("corpus-") for p in INPUTS)


def _capture_lint():
    spec = importlib.util.spec_from_file_location(
        "example_capture_lint", EXAMPLES / "capture_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LINT = _capture_lint()

#: Three invocations in one function: with the cache on (hygiene off)
#: the third is a replay-cache hit.
SAVED_THRICE = """
void f(int saved)
{
    save_level { saved = saved + level; }
    save_level { saved = saved + level; }
    save_level { saved = saved + level; }
}
"""


@pytest.mark.parametrize("hygienic", [False, True], ids=["plain", "hygienic"])
@pytest.mark.parametrize(
    "source", [LINT.PROGRAM, SAVED_THRICE], ids=["once", "thrice"]
)
def test_capture_check_is_live(source, hygienic):
    """The capturing macro captures the user's ``saved`` without
    hygiene and captures nothing with it; the output is plain C either
    way."""
    options = Ms2Options(hygienic=hygienic)
    mp = MacroProcessor(options=options)
    mp.load(LINT.CAPTURING_MACRO)
    assert plain_c_problem(mp.expand(source).output) is None
    mp = MacroProcessor(options=options)
    mp.load(LINT.CAPTURING_MACRO)
    captures = detect_captures(mp.expand_to_ast(source))
    if hygienic:
        assert captures == []
    else:
        assert len(captures) >= 1
