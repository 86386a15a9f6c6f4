"""Crash-safety: no mutant may escape the ``Ms2Error`` hierarchy.

Runs a seeded sweep of mutated example programs through the pipeline
in both fail-fast and recovery modes.  Knobs (environment variables):

- ``FUZZ_SEED``     — base RNG seed (default ``0xC0FFEE``)
- ``FUZZ_MUTANTS``  — mutants per mode (default ``200``)
- ``FUZZ_ARTIFACT_DIR`` — if set, failing mutants are written there
  as ``escape-<mode>-<index>.c`` plus a ``.txt`` with the traceback
  (CI uploads these as artifacts).
"""

import os
import traceback
from pathlib import Path

import pytest

from .fuzzer import Mutator, load_corpus, run_mutant

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", str(0xC0FFEE)), 0)
FUZZ_MUTANTS = int(os.environ.get("FUZZ_MUTANTS", "200"))
ARTIFACT_DIR = os.environ.get("FUZZ_ARTIFACT_DIR", "")

CORPUS = load_corpus()


def _dump_artifact(mode: str, index: int, mutant: str, exc) -> None:
    if not ARTIFACT_DIR:
        return
    out = Path(ARTIFACT_DIR)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"escape-{mode}-{index}.c").write_text(mutant)
    (out / f"escape-{mode}-{index}.txt").write_text(
        "".join(traceback.format_exception(exc))
    )


def _sweep(mode: str) -> list[str]:
    """Run FUZZ_MUTANTS mutants; return failure descriptions."""
    recover = mode == "recover"
    mutator = Mutator(FUZZ_SEED if recover else FUZZ_SEED ^ 0x5EED)
    failures = []
    for i in range(FUZZ_MUTANTS):
        name, program, registrars = CORPUS[i % len(CORPUS)]
        mutant, op = mutator.mutate(program)
        safe, exc = run_mutant(mutant, registrars, recover=recover)
        if not safe:
            _dump_artifact(mode, i, mutant, exc)
            failures.append(
                f"mutant {i} ({name}, {op}, {mode}): "
                f"{type(exc).__name__}: {exc}"
            )
    return failures


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 5
    for name, program, _ in CORPUS:
        assert program.strip(), name


def test_corpus_expands_cleanly_unmutated():
    # Baseline sanity: the unmutated corpus must not trip the harness.
    for name, program, registrars in CORPUS:
        safe, exc = run_mutant(program, registrars, recover=False)
        assert safe, f"{name}: {exc!r}"


@pytest.mark.parametrize("mode", ["failfast", "recover"])
def test_seeded_mutants_never_escape(mode):
    # ISSUE acceptance: 200 seeded mutants, zero non-Ms2Error escapes
    # in fail-fast mode; zero raises of any kind in recover mode.
    failures = _sweep(mode)
    assert not failures, "\n".join(failures[:20])


def test_mutations_are_reproducible():
    _, program, _ = CORPUS[0]
    a = Mutator(1234).mutate(program)
    b = Mutator(1234).mutate(program)
    assert a == b

