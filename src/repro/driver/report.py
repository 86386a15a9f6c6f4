"""Batch-build reporting: per-file results and the aggregate view.

One :class:`FileResult` per translation unit records where its output
came from (fresh expansion or persistent-cache snapshot), its
diagnostics, its pipeline counters and its trace spans — all in
JSON-ready form, because results cross process boundaries and are
persisted verbatim as cache snapshots.  :class:`BuildReport` rolls a
batch of them into one object: aggregate
:class:`~repro.stats.PipelineStats` (summed with
:meth:`~repro.stats.PipelineStats.merge`), cache counters, wall time,
and the text / JSON renderings behind ``repro build --report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.stats import PipelineStats

__all__ = ["BuildReport", "FileResult"]


@dataclass(slots=True)
class FileResult:
    """The outcome of building one translation unit."""

    #: Input path as given to the driver.
    path: str
    #: ``"ok"`` (expanded, possibly with recovered diagnostics),
    #: ``"error"`` (fail-fast error; ``output`` is empty) or
    #: ``"poisoned"`` (the file repeatedly crashed its build worker
    #: and was quarantined so the rest of the batch could finish).
    status: str
    #: Expanded C text.
    output: str = ""
    #: True when the output was replayed from a persistent snapshot.
    from_cache: bool = False
    #: The (source, macros, options) content key for this build.
    key: str = ""
    #: Wall-clock milliseconds spent on this file (0 for cache hits).
    duration_ms: float = 0.0
    #: Rendered diagnostics (``Diagnostic.to_json`` form).
    diagnostics: list[dict[str, Any]] = field(default_factory=list)
    #: Pipeline counters for this file (``PipelineStats.to_json``).
    stats: dict[str, Any] = field(default_factory=dict)
    #: Trace spans for this file (``ExpansionSpan.to_json`` records).
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: Fail-fast error text when ``status != "ok"``.
    error: str | None = None
    #: Exception class name behind ``error`` (e.g. ``"OSError"``,
    #: ``"BrokenProcessPool"``); lets the server distinguish
    #: transient infrastructure failures from real expansion errors.
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        """True unless the file failed outright or collected an
        error-severity diagnostic."""
        if self.status != "ok":
            return False
        return not any(
            d.get("severity") == "error" for d in self.diagnostics
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-ready rendering (one entry of ``--report json``; also
        the server's ``expand_file`` response body)."""
        return {
            "path": self.path,
            "status": self.status,
            "ok": self.ok,
            "from_cache": self.from_cache,
            "key": self.key,
            "duration_ms": round(self.duration_ms, 3),
            "output": self.output,
            "diagnostics": self.diagnostics,
            "stats": self.stats,
            "spans": self.spans,
            "error": self.error,
            "error_type": self.error_type,
        }


@dataclass(slots=True)
class BuildReport:
    """Everything one ``repro build`` invocation did."""

    #: Per-file outcomes, input order.
    results: list[FileResult] = field(default_factory=list)
    #: Worker processes used (1 = in-process sequential).
    jobs: int = 1
    #: Cache root, or None when the persistent cache was disabled.
    cache_dir: str | None = None
    #: Whether unchanged files were allowed to skip expansion.
    incremental: bool = True
    #: End-to-end wall milliseconds for the batch.
    elapsed_ms: float = 0.0
    #: Cache-backend session counters (hits/misses/failures/evictions
    #: plus load/store call counts and latency totals; tiered backends
    #: add nested ``"tiers"`` and ``"write_behind"`` sections).
    cache: dict[str, Any] = field(default_factory=dict)
    #: Worker-pool rebuilds after a crashed worker process.
    worker_restarts: int = 0

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every file built cleanly."""
        return all(result.ok for result in self.results)

    @property
    def files_from_cache(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    @property
    def files_expanded(self) -> int:
        return sum(
            1 for r in self.results
            if not r.from_cache and r.status == "ok"
        )

    @property
    def files_failed(self) -> int:
        return sum(1 for r in self.results if r.status == "error")

    @property
    def files_poisoned(self) -> int:
        return sum(1 for r in self.results if r.status == "poisoned")

    def aggregate_stats(self) -> PipelineStats:
        """Every file's pipeline counters summed into one object."""
        total = PipelineStats()
        for result in self.results:
            if result.stats:
                total.merge(PipelineStats.from_json(result.stats))
        return total

    # ------------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The ``--report json`` payload."""
        return {
            "ok": self.ok,
            "files": len(self.results),
            "files_from_cache": self.files_from_cache,
            "files_expanded": self.files_expanded,
            "files_failed": self.files_failed,
            "files_poisoned": self.files_poisoned,
            "worker_restarts": self.worker_restarts,
            "jobs": self.jobs,
            "incremental": self.incremental,
            "cache_dir": self.cache_dir,
            "cache": self.cache,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "stats": self.aggregate_stats().to_json(),
            "results": [result.to_json() for result in self.results],
        }

    def render(self) -> str:
        """Human-readable batch summary (the default CLI output)."""
        lines = []
        for result in self.results:
            if result.status == "poisoned":
                tag = "POISON"
            elif result.status == "error":
                tag = "FAIL"
            elif result.from_cache:
                tag = "cached"
            else:
                tag = "built"
            detail = f"{result.duration_ms:8.1f}ms"
            if result.diagnostics:
                detail += f"  {len(result.diagnostics)} diagnostic(s)"
            if result.error:
                first_line = result.error.splitlines()[0]
                detail += f"  {first_line}"
            lines.append(f"{tag:>6}  {result.path}  {detail}")
        summary = (
            f"-- {len(self.results)} file(s): "
            f"{self.files_expanded} built, "
            f"{self.files_from_cache} from cache, "
            f"{self.files_failed} failed"
        )
        if self.files_poisoned:
            summary += f", {self.files_poisoned} poisoned"
        summary += f" [{self.jobs} job(s), {self.elapsed_ms:.1f}ms]"
        lines.append(summary)
        if self.worker_restarts:
            lines.append(
                f"-- resilience: {self.worker_restarts} worker "
                "restart(s) after crashed build worker(s)"
            )
        if self.cache:
            lines.append(
                "-- disk cache: "
                f"{self.cache.get('hits', 0)} hit(s), "
                f"{self.cache.get('misses', 0)} miss(es), "
                f"{self.cache.get('failures', 0)} failure(s), "
                f"{self.cache.get('evictions', 0)} eviction(s) "
                f"[load {self.cache.get('load_ms', 0):.1f}ms, "
                f"store {self.cache.get('store_ms', 0):.1f}ms]"
            )
            tiers = self.cache.get("tiers")
            if isinstance(tiers, dict):
                for name, tier in tiers.items():
                    if not isinstance(tier, dict):
                        continue
                    line = (
                        f"--   {name}: "
                        f"{tier.get('hits', 0)} hit(s), "
                        f"{tier.get('misses', 0)} miss(es), "
                        f"{tier.get('failures', 0)} failure(s) "
                        f"[load {tier.get('load_ms', 0):.1f}ms, "
                        f"store {tier.get('store_ms', 0):.1f}ms]"
                    )
                    extras = []
                    if tier.get("timeouts"):
                        extras.append(f"{tier['timeouts']} timeout(s)")
                    if tier.get("errors"):
                        extras.append(f"{tier['errors']} error(s)")
                    if tier.get("down"):
                        extras.append("circuit OPEN")
                    if extras:
                        line += "  " + ", ".join(extras)
                    lines.append(line)
            wb = self.cache.get("write_behind")
            if isinstance(wb, dict) and wb.get("limit"):
                lines.append(
                    "--   write-behind: "
                    f"{wb.get('flushed', 0)} flushed, "
                    f"{wb.get('dropped', 0)} dropped, "
                    f"{wb.get('failed', 0)} failed "
                    f"(queue {wb.get('depth', 0)}/{wb.get('limit', 0)})"
                )
        return "\n".join(lines)
