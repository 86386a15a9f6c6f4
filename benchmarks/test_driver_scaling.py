"""Batch-driver scaling: cold vs warm cache, sequential vs ``-j N``.

The workload is a generated 50-file corpus (8 in the smoke-size tests)
of macro-heavy translation units over the standard loop and exception
packages — the shape of build the paper's "large scale experiments"
would have run.  Three configurations per point:

- **cold** — empty cache, ``jobs=1``: every file pays the full
  pipeline (package load + expand);
- **warm** — same cache, same corpus: every file replays its
  persistent snapshot (the acceptance bar is >= 2x over cold);
- **cold -j N** — empty cache, process-pool fan-out, recorded with
  ``cpu_count`` because ``-j`` can only buy wall-clock time when the
  host has cores to run the workers on.

The recorded build timings (cold, local-warm, remote-warm) come from
``perfbench/``; these tests check the shape of the result.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.driver import BuildSession

CORPUS_FILES = 50
SMOKE_FILES = 8
PARALLEL_JOBS = (2, 4)


def driver_corpus(count: int) -> list[tuple[str, str]]:
    """``count`` distinct macro-heavy translation units."""
    sources = []
    for i in range(count):
        sources.append(
            (
                f"unit_{i:03d}.c",
                f"void fn{i}(void)\n"
                "{\n"
                "    int i;\n"
                f"    for_range i = 0 to {i + 3} {{ tick({i}); }}\n"
                f"    unroll (8) {{ a[i] = i * {i + 1}; }}\n"
                f"    catch tag{i} {{ handle(); }} {{ risky({i}); }}\n"
                "}\n",
            )
        )
    return sources


def make_session(cache_dir: Path | None, jobs: int = 1) -> BuildSession:
    return BuildSession(
        package_names=("loops", "exceptions"),
        jobs=jobs,
        cache=cache_dir,
    )


def _timed_build(
    sources, cache_dir: Path | None, jobs: int = 1
) -> tuple[float, list[str]]:
    session = make_session(cache_dir, jobs=jobs)
    start = time.perf_counter()
    report = session.build_sources(sources)
    elapsed = time.perf_counter() - start
    assert report.ok
    return elapsed, [r.output for r in report.results]


def measure_driver(tmp_root: Path, smoke: bool = False) -> dict:
    """Cold/warm/parallel wall times on the generated corpus."""
    count = SMOKE_FILES if smoke else CORPUS_FILES
    sources = driver_corpus(count)

    cache_dir = tmp_root / "seq-cache"
    cold_s, cold_outputs = _timed_build(sources, cache_dir)
    warm_s, warm_outputs = _timed_build(sources, cache_dir)
    assert warm_outputs == cold_outputs, "warm cache changed output"

    parallel = {}
    for jobs in PARALLEL_JOBS:
        job_cache = tmp_root / f"j{jobs}-cache"
        cold_j_s, outputs_j = _timed_build(sources, job_cache, jobs=jobs)
        assert outputs_j == cold_outputs, f"-j {jobs} changed output"
        parallel[f"cold_j{jobs}_ms"] = round(cold_j_s * 1000, 2)

    return {
        "files": count,
        "cpu_count": os.cpu_count(),
        "cold_ms": round(cold_s * 1000, 2),
        "warm_ms": round(warm_s * 1000, 2),
        "warm_speedup": round(cold_s / warm_s, 2),
        **parallel,
    }


# ---------------------------------------------------------------------------
# pytest coverage (kept timing-tolerant; perfbench is the record)
# ---------------------------------------------------------------------------


def test_warm_cache_beats_cold(tmp_path: Path) -> None:
    point = measure_driver(tmp_path, smoke=True)
    assert point["warm_speedup"] > 1.0, point
    assert point["files"] == SMOKE_FILES


@pytest.mark.benchmark(group="driver-scaling")
@pytest.mark.parametrize("mode", ["cold", "warm"])
def test_driver_build(benchmark, tmp_path: Path, mode: str) -> None:
    sources = driver_corpus(SMOKE_FILES)
    cache_dir = tmp_path / "cache"
    if mode == "warm":
        make_session(cache_dir).build_sources(sources)

    def run():
        if mode == "cold":
            make_session(cache_dir).cache.clear()
        return make_session(cache_dir).build_sources(sources)

    report = benchmark(run)
    assert report.ok
