"""BuildSession: incremental rebuilds, parallel parity, fault cases.

The two load-bearing properties:

- **parity** — a batch build (any ``jobs``, cached or cold) produces
  byte-identical output to expanding each file alone with
  ``expand_to_c``;
- **robustness** — bad files, racing invocations and a cache
  directory yanked mid-build degrade a run, never break it.
"""

from __future__ import annotations

import multiprocessing
import shutil
from pathlib import Path

import pytest

from repro.driver import BuildSession, resolve_inputs, write_outputs
from repro.options import Ms2Options

from tests.driver.corpus import (
    PROGRAM_BROKEN,
    PROGRAM_USES_SHARED,
    SHARED_MACROS,
    synthetic_sources,
)
from tests.fuzz.fuzzer import load_corpus, make_processor


def session(cache_dir, **kwargs) -> BuildSession:
    kwargs.setdefault("package_sources", [("shared.ms2", SHARED_MACROS)])
    return BuildSession(cache=cache_dir, **kwargs)


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------


def test_resolve_inputs_directory(corpus_dir: Path) -> None:
    files = resolve_inputs([corpus_dir])
    assert [p.name for p in files] == [
        "a_shared.c", "b_private.ms2", "c_plain.c",
    ]


def test_resolve_inputs_deduplicates(corpus_dir: Path) -> None:
    one = corpus_dir / "a_shared.c"
    files = resolve_inputs([one, corpus_dir, one])
    assert len(files) == 3
    assert files[0] == one


def test_resolve_inputs_errors(tmp_path: Path) -> None:
    with pytest.raises(FileNotFoundError):
        resolve_inputs([tmp_path / "nope.c"])
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        resolve_inputs([empty])


# ---------------------------------------------------------------------------
# Cold / warm / invalidation
# ---------------------------------------------------------------------------


def test_cold_then_warm(corpus_dir: Path, cache_dir: Path) -> None:
    cold = session(cache_dir).build([corpus_dir])
    assert cold.ok
    assert cold.files_expanded == 3
    assert cold.files_from_cache == 0

    warm = session(cache_dir).build([corpus_dir])
    assert warm.ok
    assert warm.files_expanded == 0
    assert warm.files_from_cache == 3
    assert warm.cache["hits"] == 3
    assert [r.output for r in warm.results] == [
        r.output for r in cold.results
    ]
    assert all(r.from_cache for r in warm.results)


def test_touched_file_rebuilds_alone(
    corpus_dir: Path, cache_dir: Path
) -> None:
    session(cache_dir).build([corpus_dir])
    target = corpus_dir / "c_plain.c"
    target.write_text(target.read_text() + "\nint touched;\n")
    report = session(cache_dir).build([corpus_dir])
    assert report.files_expanded == 1
    assert report.files_from_cache == 2
    rebuilt = [r for r in report.results if not r.from_cache]
    assert rebuilt[0].path.endswith("c_plain.c")
    assert "touched" in rebuilt[0].output


def test_options_change_invalidates(
    corpus_dir: Path, cache_dir: Path
) -> None:
    session(cache_dir).build([corpus_dir])
    report = session(
        cache_dir, options=Ms2Options(annotate=True)
    ).build([corpus_dir])
    assert report.files_from_cache == 0
    assert report.files_expanded == 3


def test_observability_options_do_not_invalidate(
    corpus_dir: Path, cache_dir: Path
) -> None:
    """Tracing never changes output, so it shares cache keys."""
    session(cache_dir).build([corpus_dir])
    report = session(
        cache_dir, options=Ms2Options(trace=True)
    ).build([corpus_dir])
    assert report.files_from_cache == 3


def test_fast_path_options_share_the_cache(
    corpus_dir: Path, cache_dir: Path
) -> None:
    """The pattern compiler and the in-memory replay cache leave
    output byte-identical, so they stay out of ``options_hash``: a
    build without them warms the cache for a default build."""
    cold = session(
        cache_dir, options=Ms2Options(cache=False, compiled_patterns=False)
    ).build([corpus_dir])
    assert cold.ok and cold.files_expanded == 3
    warm = session(cache_dir, options=Ms2Options()).build([corpus_dir])
    assert warm.files_expanded == 0
    assert warm.files_from_cache == 3
    assert warm.cache["hits"] == 3 and warm.cache["misses"] == 0
    assert all(r.from_cache for r in warm.results)
    assert [(r.path, r.output, r.diagnostics) for r in warm.results] == [
        (r.path, r.output, r.diagnostics) for r in cold.results
    ]


@pytest.mark.parametrize("max_expansions", [3, 4])
def test_budgeted_builds_share_the_cache_exactly(
    tmp_path: Path, max_expansions: int
) -> None:
    """Cache replays charge the budget like re-expansions, so a
    budgeted build without the in-memory cache may reuse a snapshot
    from one with it: both fail at 3 expansions, both pass at 4."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "nested.c").write_text("int a = outer(); int b = outer();\n")
    nested = (
        "syntax exp twice {| ( $$exp::e ) |} { return(`(($e) * 2)); }\n"
        "syntax exp outer {| ( ) |} { return(`(twice(1) + 1)); }\n"
    )

    def build(cache_dir: Path, cache: bool):
        options = Ms2Options(max_expansions=max_expansions, cache=cache)
        return BuildSession(
            cache=cache_dir,
            package_sources=[("nested.ms2", nested)],
            options=options,
        ).build([src])

    build(tmp_path / "shared", cache=True)
    warm = build(tmp_path / "shared", cache=False)
    alone = build(tmp_path / "alone", cache=False)
    assert warm.files_from_cache == (1 if max_expansions == 4 else 0)
    assert [(r.status, r.output, r.diagnostics) for r in warm.results] == [
        (r.status, r.output, r.diagnostics) for r in alone.results
    ]


def test_macro_change_invalidates(
    corpus_dir: Path, cache_dir: Path
) -> None:
    session(cache_dir).build([corpus_dir])
    changed = SHARED_MACROS.replace("$body; $body;", "$body;")
    report = session(
        cache_dir, package_sources=[("shared.ms2", changed)]
    ).build([corpus_dir])
    assert report.files_from_cache == 0


def test_no_incremental_rebuilds_but_stores(
    corpus_dir: Path, cache_dir: Path
) -> None:
    session(cache_dir, incremental=False).build([corpus_dir])
    again = session(cache_dir, incremental=False).build([corpus_dir])
    assert again.files_expanded == 3
    assert again.files_from_cache == 0
    # ...but the snapshots it stored serve a later incremental run.
    warm = session(cache_dir).build([corpus_dir])
    assert warm.files_from_cache == 3


def test_disabled_cache(corpus_dir: Path, cache_dir: Path) -> None:
    report = session(None).build([corpus_dir])
    assert report.ok
    assert report.files_expanded == 3
    assert not cache_dir.exists()


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


def test_broken_file_fails_alone(
    corpus_dir: Path, cache_dir: Path
) -> None:
    (corpus_dir / "d_broken.c").write_text(PROGRAM_BROKEN)
    report = session(cache_dir).build([corpus_dir])
    assert not report.ok
    assert report.files_failed == 1
    good = [r for r in report.results if r.status == "ok"]
    assert len(good) == 3
    # Errors are never cached: the warm run retries the bad file.
    warm = session(cache_dir).build([corpus_dir])
    assert warm.files_from_cache == 3
    assert warm.files_failed == 1


def test_recovered_diagnostics_survive_the_cache(
    corpus_dir: Path, cache_dir: Path
) -> None:
    (corpus_dir / "d_broken.c").write_text(PROGRAM_BROKEN)
    options = Ms2Options(recover=True)
    cold = session(cache_dir, options=options).build([corpus_dir])
    assert not cold.ok  # error diagnostics recorded, not raised
    warm = session(cache_dir, options=options).build([corpus_dir])
    assert warm.files_from_cache == 4
    assert not warm.ok, "cached diagnostics must still fail the build"


def test_cache_dir_deleted_mid_build(
    corpus_dir: Path, cache_dir: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    """`rm -rf .ms2-cache` racing a build costs reuse, nothing else."""
    sess = session(cache_dir)
    real_store = sess.cache.store

    def sabotaged_store(key, payload):
        shutil.rmtree(cache_dir, ignore_errors=True)
        return real_store(key, payload)

    monkeypatch.setattr(sess.cache, "store", sabotaged_store)
    report = sess.build([corpus_dir])
    assert report.ok
    assert report.files_expanded == 3
    # The last store recreated the directory; later runs still work.
    assert session(cache_dir).build([corpus_dir]).ok


def test_identical_content_at_two_paths_is_not_conflated(
    cache_dir: Path,
) -> None:
    """With ``annotate`` the path is embedded in the output (#line,
    provenance comments), so a snapshot built for one path must never
    replay for identical content at another path."""
    options = Ms2Options(annotate=True)
    cold = session(cache_dir, options=options).build_sources(
        [("a/unit.c", PROGRAM_USES_SHARED)]
    )
    assert '"a/unit.c"' in cold.results[0].output
    other = session(cache_dir, options=options).build_sources(
        [("b/unit.c", PROGRAM_USES_SHARED)]
    )
    assert other.files_from_cache == 0
    assert '"b/unit.c"' in other.results[0].output
    assert "a/unit.c" not in other.results[0].output
    # The original path still warm-hits its own snapshot.
    warm = session(cache_dir, options=options).build_sources(
        [("a/unit.c", PROGRAM_USES_SHARED)]
    )
    assert warm.files_from_cache == 1
    assert warm.results[0].output == cold.results[0].output


def test_file_key_and_snapshot_header_are_pinned() -> None:
    """Build keys and the snapshot header outlive a process: they name
    snapshot files on disk and in shared caches.  For unchanged inputs
    they may move only with ``__version__`` or the snapshot format
    version, else every stored snapshot is orphaned."""
    from repro import __version__
    from repro.driver.diskcache import CACHE_FORMAT_VERSION, SNAPSHOT_HEADER

    assert (__version__, CACHE_FORMAT_VERSION) == ("1.0.0", 1)
    assert SNAPSHOT_HEADER == b"MS2C\x01"
    sess = BuildSession(
        Ms2Options(),
        package_names=("loops",),
        package_sources=(
            ("pkg.c", "syntax stmt nop {| ( ) |} { return(`{;}); }"),
        ),
        cache=None,
    )
    assert sess.file_key("src/unit.c", "int x = 1;\n") == (
        "19e9e3b776da7d4a351bea094a20479cba1b34c8dac18bc761e76071693ea132"
    )


def test_snapshot_with_mismatched_path_is_discarded(
    cache_dir: Path,
) -> None:
    """A snapshot whose stored path disagrees with the file being
    built (copied/forged entry) is evicted, never replayed."""
    sess = session(cache_dir)
    key = sess.file_key("b.c", PROGRAM_USES_SHARED)
    assert sess.cache.store(
        key, {"path": "a.c", "output": "void wrong(void);\n"}
    )
    report = sess.build_sources([("b.c", PROGRAM_USES_SHARED)])
    assert report.files_from_cache == 0
    assert report.files_expanded == 1
    assert sess.cache.failures == 1
    assert "wrong" not in report.results[0].output


def test_budget_exhausted_result_is_never_cached(
    cache_dir: Path,
) -> None:
    """deadline_s makes budget exhaustion wall-clock nondeterministic,
    so truncated recover-mode output must not be pinned by the cache —
    every run retries the file."""
    options = Ms2Options(recover=True, max_expansions=1)
    source = "void f(void) { Twice { a(); } Twice { b(); } }\n"
    first = session(cache_dir, options=options).build_sources(
        [("f.c", source)]
    )
    assert first.results[0].status == "ok"
    assert any(
        d.get("category") == "ExpansionBudgetError"
        for d in first.results[0].diagnostics
    )
    second = session(cache_dir, options=options).build_sources(
        [("f.c", source)]
    )
    assert second.files_from_cache == 0
    assert second.files_expanded == 1


# ---------------------------------------------------------------------------
# Parallelism and parity
# ---------------------------------------------------------------------------


def test_parallel_matches_sequential(cache_dir: Path) -> None:
    sources = synthetic_sources(6)
    seq = session(None, jobs=1).build_sources(sources)
    par = session(None, jobs=4).build_sources(sources)
    assert par.ok
    assert [r.path for r in par.results] == [r.path for r in seq.results]
    assert [r.output for r in par.results] == [
        r.output for r in seq.results
    ]


def test_parallel_warm_cache(cache_dir: Path) -> None:
    sources = synthetic_sources(6)
    cold = session(cache_dir, jobs=4).build_sources(sources)
    assert cold.files_expanded == 6
    warm = session(cache_dir, jobs=4).build_sources(sources)
    assert warm.files_from_cache == 6
    assert [r.output for r in warm.results] == [
        r.output for r in cold.results
    ]


def test_driver_parity_with_expand_to_c_across_examples() -> None:
    """Every example program builds byte-identically through the
    driver and through a lone ``expand_to_c`` call."""
    checked = 0
    for name, program, loaders in load_corpus():
        expected = make_processor(loaders).expand_to_c(program, name)
        package_names = tuple(
            item.__name__.rsplit(".", 1)[1]
            for item in loaders
            if not isinstance(item, str)
        )
        package_sources = tuple(
            (f"{name}_{i}.ms2", item)
            for i, item in enumerate(loaders)
            if isinstance(item, str)
        )
        sess = BuildSession(
            package_names=package_names,
            package_sources=package_sources,
            cache=None,
        )
        report = sess.build_sources([(name, program)])
        assert report.ok, f"{name}: {report.results[0].error}"
        assert report.results[0].output == expected, name
        checked += 1
    assert checked >= 5


def test_per_file_isolation(cache_dir: Path) -> None:
    """A macro defined inside one translation unit is invisible to
    its siblings — building them together equals building them apart."""
    defines = (
        "syntax stmt Solo {| $$stmt::body |}\n"
        "{ return(`{ before(); $body; }); }\n"
        "void a(void) { Solo { work(); } }\n"
    )
    uses_undefined = "void b(void) { Solo(); }\n"
    report = session(None).build_sources(
        [("defines.c", defines), ("plain.c", uses_undefined)]
    )
    assert report.ok
    alone = session(None).build_sources([("plain.c", uses_undefined)])
    assert report.results[1].output == alone.results[0].output


# ---------------------------------------------------------------------------
# Two invocations racing on one cache directory
# ---------------------------------------------------------------------------


def _race_worker(src_dir: str, cache_root: str, queue) -> None:
    from repro.driver import BuildSession as Session

    sess = Session(
        package_sources=[("shared.ms2", SHARED_MACROS)],
        cache=cache_root,
    )
    report = sess.build([src_dir])
    queue.put((report.ok, [r.output for r in report.results]))


def test_racing_invocations_share_a_cache_dir(
    corpus_dir: Path, cache_dir: Path
) -> None:
    queue: multiprocessing.Queue = multiprocessing.Queue()
    procs = [
        multiprocessing.Process(
            target=_race_worker,
            args=(str(corpus_dir), str(cache_dir), queue),
        )
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    outcomes = [queue.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    assert all(ok for ok, _ in outcomes)
    assert outcomes[0][1] == outcomes[1][1], "racing builds must agree"
    # And the directory they fought over is a valid warm cache now.
    warm = session(cache_dir).build([corpus_dir])
    assert warm.files_from_cache == 3


# ---------------------------------------------------------------------------
# Outputs on disk
# ---------------------------------------------------------------------------


def test_write_outputs(corpus_dir: Path, tmp_path: Path) -> None:
    report = session(None).build([corpus_dir])
    out_dir = tmp_path / "out"
    written = write_outputs(report, out_dir)
    assert sorted(p.name for p in written) == [
        "a_shared.c", "b_private.c", "c_plain.c",
    ]
    assert (out_dir / "a_shared.c").read_text() == report.results[0].output


def test_write_outputs_mirrors_dirs_on_stem_collision(
    tmp_path: Path,
) -> None:
    """``a/util.c`` and ``b/util.c`` must both survive: colliding
    stems mirror the input tree below the common ancestor instead of
    silently overwriting each other."""
    for sub, body in (("a", "int a;\n"), ("b", "int b;\n")):
        (tmp_path / "src" / sub).mkdir(parents=True)
        (tmp_path / "src" / sub / "util.c").write_text(body)
    report = session(None).build([tmp_path / "src"])
    out_dir = tmp_path / "out"
    written = write_outputs(report, out_dir)
    assert sorted(p.relative_to(out_dir) for p in written) == [
        Path("a/util.c"), Path("b/util.c"),
    ]
    assert "int a;" in (out_dir / "a" / "util.c").read_text()
    assert "int b;" in (out_dir / "b" / "util.c").read_text()


def test_write_outputs_rejects_unresolvable_collision(
    tmp_path: Path,
) -> None:
    """``util.c`` next to ``util.ms2`` collides even after mirroring
    (both land as util.c) — that's an error, not an overwrite."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "util.c").write_text("int c;\n")
    (src / "util.ms2").write_text("int m;\n")
    report = session(None).build([src])
    with pytest.raises(ValueError, match="collision"):
        write_outputs(report, tmp_path / "out")


def test_concurrent_sessions_do_not_share_worker_state() -> None:
    """Two in-process (jobs=1) sessions with different macro contexts
    built from sibling threads must each use their own context — the
    sequential path takes no detour through process-global state."""
    import threading

    variants = {
        "twice": SHARED_MACROS,
        "thrice": SHARED_MACROS.replace(
            "$body; $body;", "$body; $body; $body;"
        ),
    }
    sources = synthetic_sources(4)
    expected = {
        name: [
            r.output
            for r in BuildSession(
                package_sources=[("shared.ms2", macros)], cache=None
            ).build_sources(sources).results
        ]
        for name, macros in variants.items()
    }
    assert expected["twice"] != expected["thrice"]

    results: dict[str, list[str]] = {}
    barrier = threading.Barrier(len(variants))

    def run(name: str, macros: str) -> None:
        barrier.wait()
        report = BuildSession(
            package_sources=[("shared.ms2", macros)], cache=None
        ).build_sources(sources)
        results[name] = [r.output for r in report.results]

    threads = [
        threading.Thread(target=run, args=item)
        for item in variants.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert results == expected
