"""The parallel batch-build scheduler.

:class:`BuildSession` turns a set of ``.c``/``.ms2`` translation
units into expanded C concurrently.  The model follows the paper's
multi-file workflow — macro packages first, then program files, where
"meta-programming constructs and regular code can either be located
in separate files, or mixed together" — scaled out:

- every worker process shares the same macro-package preamble (the
  named standard packages plus any package source files), loaded once
  per worker by the pool initializer;
- each translation unit is expanded *independently*, by a fresh
  :class:`~repro.engine.MacroProcessor` over the shared packages, so
  macro definitions inside one program file can never leak into
  another and results are identical to building each file alone;
- results are keyed by ``(path, source hash, macro hash, options
  hash)`` and stored in the
  :class:`~repro.driver.diskcache.PersistentCache`, so an incremental
  rebuild skips files whose key is unchanged — across runs and across
  processes.  The path is part of the key because output can embed it
  (``--annotate`` ``#line`` directives, provenance comments,
  diagnostic locations): identical content at two paths must never
  share a snapshot.

Workers communicate in plain dicts (the
:class:`~repro.driver.report.FileResult` wire form); the session
aggregates them into one :class:`~repro.driver.report.BuildReport`.
With ``jobs=1`` the whole build runs in-process through the very same
worker code path, which keeps sequential and parallel builds
byte-identical by construction.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Sequence

import repro.packages as _packages
from repro import __version__, faults
from repro.driver.cacheconfig import CacheConfig
from repro.driver.report import BuildReport, FileResult
from repro.engine import MacroProcessor
from repro.errors import ExpansionBudgetError, Ms2Error
from repro.options import Ms2Options

__all__ = ["BuildSession", "resolve_inputs", "write_outputs"]

#: Source-file suffixes the driver picks up when handed a directory.
SOURCE_SUFFIXES = (".c", ".ms2")

#: Base pause before re-running a task whose worker process died
#: (scaled by attempt number — a crashing worker often means memory
#: pressure, and an immediate respawn just reproduces it).
_RESTART_BACKOFF_S = 0.05


def resolve_inputs(paths: Iterable[Path | str]) -> list[Path]:
    """Expand the CLI's ``<dir|files...>`` arguments into a sorted,
    de-duplicated list of translation units.  Directories contribute
    every ``*.c``/``*.ms2`` file below them."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(
                p for p in path.rglob("*")
                if p.is_file() and p.suffix in SOURCE_SUFFIXES
            )
            if not found:
                raise FileNotFoundError(
                    f"no {'/'.join(SOURCE_SUFFIXES)} files under {path}"
                )
            candidates = found
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _WorkerConfig:
    """Everything a worker needs to rebuild the shared macro context
    (picklable: names + sources + a hook-free options value)."""

    package_names: tuple[str, ...]
    package_sources: tuple[tuple[str, str], ...]  # (filename, source)
    options: Ms2Options


#: Per-process worker state, set by :func:`_worker_init`.
_WORKER: dict = {}


def _worker_init(config: _WorkerConfig) -> None:
    """Pool initializer: remember the shared macro context.  Also used
    verbatim by the in-process sequential path."""
    _WORKER["config"] = config


def _fresh_processor(config: _WorkerConfig) -> MacroProcessor:
    """A processor with the shared packages loaded — the per-file
    isolation boundary (definitions in one program file never leak
    into another)."""
    mp = MacroProcessor(options=config.options)
    for name in config.package_names:
        _packages.register_named(mp, name)
    for filename, source in config.package_sources:
        mp.load(source, filename)
    return mp


def _build_one(
    task: tuple[str, str], config: _WorkerConfig | None = None
) -> dict:
    """Expand one translation unit; returns the FileResult wire dict.

    Ms2Error faults (fail-fast mode) become ``status: "error"``
    records — one bad file never aborts the batch.

    ``config`` falls back to the pool-initializer global only on the
    process-pool path; the in-process path passes it explicitly so
    concurrent sessions in one process cannot stomp each other.
    """
    path, source = task
    if config is None:
        config = _WORKER["config"]
    start = perf_counter()
    try:
        if faults.ACTIVE is not None:
            # "driver.worker" is the batch-build chaos site: a kill
            # fault here dies like a real worker crash (os._exit, no
            # exception), anything else surfaces below.
            faults.ACTIVE.hit("driver.worker", context=path)
        mp = _fresh_processor(config)
        result = mp.expand(source, path)
    except Ms2Error as exc:
        return {
            "path": path,
            "status": "error",
            "error": str(exc),
            "error_type": type(exc).__name__,
            "duration_ms": (perf_counter() - start) * 1000.0,
        }
    except Exception as exc:  # infrastructure failure, not the file
        return {
            "path": path,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "error_type": type(exc).__name__,
            "duration_ms": (perf_counter() - start) * 1000.0,
        }
    record = result.to_json()
    return {
        "path": path,
        "status": "ok",
        "output": record["output"],
        "diagnostics": record["diagnostics"],
        "stats": record["stats"],
        "spans": record["spans"],
        "duration_ms": (perf_counter() - start) * 1000.0,
    }


# ---------------------------------------------------------------------------
# Session side
# ---------------------------------------------------------------------------


class BuildSession:
    """A batch compilation session over one macro context.

    Parameters
    ----------
    options:
        The :class:`~repro.options.Ms2Options` applied to every file;
        its :meth:`~repro.options.Ms2Options.options_hash` is one
        third of the incremental-rebuild key.  Runtime trace hooks
        are stripped (they cannot cross process boundaries).
    package_names:
        Standard packages (``repro.packages`` registry names) loaded
        into every worker before any file is expanded.
    package_sources:
        ``(filename, source)`` pairs of macro-package files, loaded
        after the named packages — the paper's separate meta-program
        files.
    jobs:
        Worker processes.  1 (the default) builds sequentially
        in-process through the same code path.
    cache:
        The snapshot cache, in any of four spellings: a
        :class:`~repro.driver.cacheconfig.CacheConfig` (the full
        surface — local dir, remote authority, write-behind policy),
        a path (shorthand for a local-only config rooted there), a
        ready :class:`~repro.driver.cachebackend.CacheBackend`
        instance, or ``None`` to disable caching.  Omitted, it
        defaults to ``CacheConfig()`` — a local ``.ms2-cache/``.
    incremental:
        When True (default), files whose (source, macros, options)
        key has a usable snapshot are served from the cache without
        expanding.  When False every file is re-expanded, but fresh
        results are still stored for future runs.
    retries:
        How many times a task whose worker *process died* (signal,
        ``os._exit``, OOM kill) is re-run, each time in a fresh
        single-worker pool so one poisonous file cannot take
        neighbours down with it again.  A file that outlives its
        worker on every attempt is quarantined as ``status:
        "poisoned"`` instead of aborting the batch.
    """

    def __init__(
        self,
        options: Ms2Options | None = None,
        *,
        package_names: Sequence[str] = (),
        package_sources: Sequence[tuple[str, str]] = (),
        jobs: int = 1,
        cache: Any = CacheConfig(),
        incremental: bool = True,
        retries: int = 2,
    ) -> None:
        base = options if options is not None else Ms2Options()
        self.options = base.without_runtime_hooks()
        self.package_names = tuple(package_names)
        self.package_sources = tuple(
            (str(name), source) for name, source in package_sources
        )
        self.jobs = max(1, int(jobs))
        self.incremental = incremental
        self.retries = max(0, int(retries))
        #: Pools rebuilt after a worker process died mid-batch.
        self.worker_restarts = 0
        self.cache_config, self.cache = self._resolve_cache(cache)
        self.macro_hash = self._macro_hash()
        self._config = _WorkerConfig(
            package_names=self.package_names,
            package_sources=self.package_sources,
            options=self.options,
        )

    @staticmethod
    def _resolve_cache(cache: Any) -> tuple[CacheConfig | None, Any]:
        """(config, backend) from the ``cache=`` argument."""
        if cache is None:
            return None, None
        if isinstance(cache, CacheConfig):
            return cache, cache.build_backend()
        if isinstance(cache, (str, Path)):
            config = CacheConfig(local_dir=str(cache))
            return config, config.build_backend()
        # A ready backend object (anything speaking the protocol).
        return None, cache

    def close(self) -> None:
        """Release the cache backend — flushes the tiered backend's
        write-behind queue, so every snapshot this session published
        is visible to the fleet before the process moves on."""
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "BuildSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The incremental-rebuild key
    # ------------------------------------------------------------------

    def _macro_hash(self) -> str:
        """Digest of the shared macro context: package names, package
        sources, pipeline version, snapshot format version.  Any
        change to what macros mean invalidates every file's key."""
        # Imported here, so importing the scheduler does not load the
        # disk cache.
        from repro.driver.diskcache import CACHE_FORMAT_VERSION

        digest = hashlib.sha256()
        digest.update(__version__.encode("utf-8"))
        digest.update(bytes([CACHE_FORMAT_VERSION]))
        for name in self.package_names:
            digest.update(b"\x00name\x00" + name.encode("utf-8"))
        for filename, source in self.package_sources:
            digest.update(b"\x00file\x00" + filename.encode("utf-8"))
            digest.update(source.encode("utf-8"))
        return digest.hexdigest()[:16]

    def file_key(self, name: str, source: str) -> str:
        """The content key for one translation unit:
        path x sha256(source) x macro hash x options hash.

        The path participates because expanded output is not a pure
        function of content: ``annotate`` embeds the filename in
        ``#line`` directives and provenance comments, and recovered
        diagnostics carry file locations.  Identical content at two
        paths therefore keys two distinct snapshots."""
        source_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        name_sha = hashlib.sha256(name.encode("utf-8")).hexdigest()
        return hashlib.sha256(
            (
                f"{name_sha}\x00{source_sha}\x00{self.macro_hash}"
                f"\x00{self.options.options_hash()}"
            ).encode("ascii")
        ).hexdigest()

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(self, paths: Iterable[Path | str]) -> BuildReport:
        """Build files and/or directories of translation units."""
        files = resolve_inputs(paths)
        sources = [(str(path), path.read_text()) for path in files]
        return self.build_sources(sources)

    def build_sources(
        self, sources: Sequence[tuple[str, str]]
    ) -> BuildReport:
        """Build ``(name, source)`` pairs (the filesystem-free core
        of :meth:`build`)."""
        start = perf_counter()
        results: list[FileResult | None] = [None] * len(sources)
        pending: list[tuple[int, str, str, str]] = []

        for index, (name, source) in enumerate(sources):
            key = self.file_key(name, source)
            snapshot = (
                self.cache.load(key)
                if (self.cache is not None and self.incremental)
                else None
            )
            if snapshot is not None and snapshot.get("path") != name:
                # The key covers the path, so a mismatch means the
                # snapshot was copied or forged — replaying it would
                # emit another file's embedded locations.
                self.cache.discard(key)
                snapshot = None
            if snapshot is not None:
                # Replayed result: output and diagnostics are part of
                # the file's meaning and come back; stats/spans stay
                # empty because no pipeline work happened this run.
                results[index] = FileResult(
                    path=name,
                    status="ok",
                    output=snapshot["output"],
                    diagnostics=list(snapshot.get("diagnostics", [])),
                    from_cache=True,
                    key=key,
                )
            else:
                pending.append((index, name, source, key))

        for index, key, record in self._expand_pending(pending):
            result = FileResult(
                path=record["path"],
                status=record["status"],
                output=record.get("output", ""),
                diagnostics=record.get("diagnostics", []),
                stats=record.get("stats", {}),
                spans=record.get("spans", []),
                duration_ms=record.get("duration_ms", 0.0),
                error=record.get("error"),
                error_type=record.get("error_type"),
                key=key,
            )
            results[index] = result
            if self._cacheable(result) and self.cache is not None:
                self.cache.store(
                    key,
                    {
                        "path": result.path,
                        "output": result.output,
                        "diagnostics": result.diagnostics,
                        "stats": result.stats,
                        "spans": result.spans,
                        "macro_hash": self.macro_hash,
                        "options_hash": self.options.options_hash(),
                    },
                )

        return BuildReport(
            results=[r for r in results if r is not None],
            jobs=self.jobs,
            cache_dir=(
                self.cache.describe() if self.cache is not None else None
            ),
            incremental=self.incremental,
            elapsed_ms=(perf_counter() - start) * 1000.0,
            cache=(
                self.cache.counters() if self.cache is not None else {}
            ),
            worker_restarts=self.worker_restarts,
        )

    @staticmethod
    def _cacheable(result: FileResult) -> bool:
        """Whether a fresh result may be persisted.  Failures are
        never cached, and neither is recovered output truncated by a
        budget — ``deadline_s`` makes budget exhaustion wall-clock
        nondeterministic, so replaying it would pin one transient
        timeout's output forever."""
        if result.status != "ok":
            return False
        budget = ExpansionBudgetError.__name__
        return not any(
            d.get("category") == budget for d in result.diagnostics
        )

    def _expand_pending(
        self, pending: list[tuple[int, str, str, str]]
    ) -> list[tuple[int, str, dict]]:
        """Expand cache misses, in-process or on a process pool."""
        if not pending:
            return []
        tasks = [(name, source) for _, name, source, _ in pending]
        if self.jobs == 1 or len(pending) == 1:
            records = [_build_one(task, self._config) for task in tasks]
        else:
            records = self._expand_on_pool(tasks)
        return [
            (index, key, record)
            for (index, _, _, key), record in zip(pending, records)
        ]

    def _expand_on_pool(
        self, tasks: list[tuple[str, str]]
    ) -> list[dict]:
        """Run ``tasks`` on a process pool, surviving worker death.

        A worker that dies (signal, ``os._exit``, OOM kill) breaks
        the whole :class:`ProcessPoolExecutor`: every unfinished
        future raises :class:`BrokenProcessPool`, including tasks
        that never ran.  Rather than abort the batch, each such task
        is re-run — in its *own* single-worker pool, so the one
        poisonous file among the innocent bystanders can only kill
        itself — up to ``self.retries`` times with a short backoff.
        Tasks that outlive a worker on every attempt come back as
        ``status: "poisoned"`` records and the batch completes.
        """
        records: list[dict | None] = [None] * len(tasks)
        crashed: list[int] = []
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(tasks)),
            initializer=_worker_init,
            initargs=(self._config,),
        )
        try:
            futures = [pool.submit(_build_one, task) for task in tasks]
            for i, future in enumerate(futures):
                try:
                    records[i] = future.result()
                except BrokenProcessPool:
                    crashed.append(i)
                except Exception as exc:
                    # e.g. an unpicklable result — an error for this
                    # file, not a reason to abort the batch.
                    records[i] = self._infra_error(tasks[i][0], exc)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if crashed:
            self.worker_restarts += 1
            for i in crashed:
                records[i] = self._retry_after_crash(tasks[i])
        return [r for r in records if r is not None]

    def _retry_after_crash(self, task: tuple[str, str]) -> dict:
        """Re-run one task whose worker died, in isolation."""
        path = task[0]
        attempts = 0
        for attempt in range(1, self.retries + 1):
            attempts = attempt
            time.sleep(_RESTART_BACKOFF_S * attempt)
            with ProcessPoolExecutor(
                max_workers=1,
                initializer=_worker_init,
                initargs=(self._config,),
            ) as solo:
                try:
                    return solo.submit(_build_one, task).result()
                except BrokenProcessPool:
                    self.worker_restarts += 1
                except Exception as exc:
                    return self._infra_error(path, exc)
        return {
            "path": path,
            "status": "poisoned",
            "error": (
                "build worker process died "
                f"{attempts + 1} time(s) expanding this file; "
                "quarantined so the batch could finish"
            ),
            "error_type": BrokenProcessPool.__name__,
        }

    @staticmethod
    def _infra_error(path: str, exc: BaseException) -> dict:
        return {
            "path": path,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "error_type": type(exc).__name__,
        }


def write_outputs(report: BuildReport, out_dir: Path | str) -> list[Path]:
    """Write each successful result's expanded C under ``out_dir``;
    returns the written paths.

    Outputs land flat as ``<stem>.c`` when every stem is distinct.
    When two inputs share a stem (``a/util.c`` and ``b/util.c``, easy
    to get from a recursive directory build), the inputs' directory
    structure below their deepest common ancestor is mirrored instead
    so nothing is silently overwritten; inputs that still collide
    (``util.c`` next to ``util.ms2``) raise :class:`ValueError`.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    ok_results = [r for r in report.results if r.status == "ok"]
    targets = [Path(Path(r.path).stem + ".c") for r in ok_results]
    if len(set(targets)) != len(targets):
        try:
            base = os.path.commonpath(
                [Path(r.path).parent for r in ok_results]
            )
            targets = [
                Path(r.path).parent.relative_to(base)
                / (Path(r.path).stem + ".c")
                for r in ok_results
            ]
        except ValueError:  # mixed absolute/relative inputs
            pass
        if len(set(targets)) != len(targets):
            dupes = sorted(
                {str(t) for t in targets if targets.count(t) > 1}
            )
            raise ValueError(
                "output filename collision under "
                f"{root}: {', '.join(dupes)}"
            )
    written = []
    for result, rel in zip(ok_results, targets):
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(result.output)
        written.append(target)
    return written
