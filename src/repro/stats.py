"""Counters and phase aggregates for the pipeline's observability layer.

One :class:`PipelineStats` instance is threaded through a
:class:`~repro.engine.MacroProcessor`'s scanner, parser dispatch,
expander, hygiene renamer, meta-interpreter and expansion cache, so a
single object answers "what did the pipeline actually do" for a whole
session.  The CLI exposes it via ``python -m repro expand --stats``
(text), ``--stats-json`` (machine-readable) and ``--profile``
(per-phase wall time, populated when the
:class:`~repro.trace.PhaseProfiler` is enabled).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class PipelineStats:
    """Counters for one macro-processing session."""

    # -- expansion cache ------------------------------------------------
    #: Invocations answered by replaying a cached expansion.
    cache_hits: int = 0
    #: Cacheable invocations that had to run the meta-program.
    cache_misses: int = 0
    #: Invocations of macros the purity analysis refused to cache.
    cache_uncacheable: int = 0

    # -- compiled dispatch ---------------------------------------------
    #: Macro-keyword probes answered by the dispatch index.
    dispatch_hits: int = 0
    #: Identifier probes that were not macro keywords.
    dispatch_misses: int = 0
    #: Invocations parsed by a compiled per-macro routine.
    compiled_parses: int = 0
    #: Invocations parsed by the interpreted pattern engine.
    interpreted_parses: int = 0

    # -- body compiler (repro.macros.codegen) --------------------------
    #: Macro bodies lowered to Python (once per definition; a body
    #: reused from the process-wide memo counts too).
    bodies_compiled: int = 0
    #: Backquote templates lowered inside those bodies.
    templates_compiled: int = 0
    #: Macro bodies that fell back to the interpreter (one per
    #: definition; the construct that punted stays interpreted).
    compile_fallbacks: int = 0
    #: Wall milliseconds spent compiling bodies (successes and
    #: fallbacks both; memo hits cost nothing here).
    compile_time_ms: float = 0.0

    # -- expander -------------------------------------------------------
    #: Total invocations expanded (cache hits included).
    expansions: int = 0

    # -- recovery / robustness -----------------------------------------
    #: Syntax errors recovered via panic-mode resync (recover mode).
    parse_recoveries: int = 0
    #: Failing invocations degraded to poisoned nodes (recover mode).
    expansion_recoveries: int = 0
    #: Cache entries whose snapshot failed to replay (corrupt or
    #: stale blob); each fell back to re-running the meta-program.
    cache_replay_failures: int = 0

    # -- hygiene / meta builtins ---------------------------------------
    #: Template-declared locals renamed by the hygienic renamer.
    hygiene_renames: int = 0
    #: ``gensym`` calls (explicit in meta-programs, plus those issued
    #: by the hygienic renamer itself).
    gensym_calls: int = 0

    # -- scanner --------------------------------------------------------
    #: Tokens produced by the master-regex fast path.
    tokens_scanned: int = 0
    #: Identifier/punctuator texts answered from the intern table.
    tokens_interned: int = 0

    # -- phase profiler (populated only under ``profile=True``) --------
    #: Cumulative wall seconds per pipeline phase.  Phases nest, so
    #: totals overlap (``meta-eval`` contains ``template-fill``).
    phase_seconds: dict = field(default_factory=dict)
    #: Number of timed entries per phase.
    phase_calls: dict = field(default_factory=dict)

    def merge(self, other: "PipelineStats") -> None:
        """Fold another session's counters into this one (the batch
        driver aggregates every worker's per-file stats this way).
        Phase timings sum; derived rates are recomputed on demand."""
        for stats_field in self.__dataclass_fields__:
            value = getattr(other, stats_field)
            if isinstance(value, (int, float)):
                setattr(
                    self, stats_field, getattr(self, stats_field) + value
                )
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + seconds
            )
        for name, calls in other.phase_calls.items():
            self.phase_calls[name] = self.phase_calls.get(name, 0) + calls

    @classmethod
    def from_json(cls, data: dict) -> "PipelineStats":
        """Rebuild counters from a :meth:`to_json` payload; unknown
        and derived keys (``cache_hit_rate``) are ignored, so payloads
        written by other pipeline versions still load."""
        stats = cls()
        for stats_field in stats.__dataclass_fields__:
            value = data.get(stats_field)
            current = getattr(stats, stats_field)
            if isinstance(value, int) and isinstance(current, int):
                setattr(stats, stats_field, value)
            elif isinstance(value, (int, float)) and isinstance(
                current, float
            ):
                setattr(stats, stats_field, float(value))
        for name, entry in (data.get("phases") or {}).items():
            stats.phase_seconds[name] = entry.get("ms", 0.0) / 1000.0
            stats.phase_calls[name] = entry.get("calls", 0)
        return stats

    def cache_hit_rate(self) -> float:
        """Hits over cacheable lookups (0.0 when nothing was cacheable)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_json(self) -> dict:
        """Machine-readable snapshot (the ``--stats-json`` payload
        and the server wire form).

        The ``phases`` sub-dict appears only when the phase profiler
        actually recorded timings (``profile=True`` sessions).
        """
        out = {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_uncacheable": self.cache_uncacheable,
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
            "dispatch_hits": self.dispatch_hits,
            "dispatch_misses": self.dispatch_misses,
            "compiled_parses": self.compiled_parses,
            "interpreted_parses": self.interpreted_parses,
            "bodies_compiled": self.bodies_compiled,
            "templates_compiled": self.templates_compiled,
            "compile_fallbacks": self.compile_fallbacks,
            "compile_time_ms": round(self.compile_time_ms, 3),
            "expansions": self.expansions,
            "parse_recoveries": self.parse_recoveries,
            "expansion_recoveries": self.expansion_recoveries,
            "cache_replay_failures": self.cache_replay_failures,
            "hygiene_renames": self.hygiene_renames,
            "gensym_calls": self.gensym_calls,
            "tokens_scanned": self.tokens_scanned,
            "tokens_interned": self.tokens_interned,
        }
        if self.phase_seconds:
            out["phases"] = {
                name: {
                    "calls": self.phase_calls.get(name, 0),
                    "ms": round(self.phase_seconds[name] * 1000, 3),
                }
                for name in sorted(self.phase_seconds)
            }
        return out

    def summary(self) -> str:
        """Multi-line human-readable rendering (the ``--stats`` output)."""
        lines = ["-- pipeline stats --"]
        for key, value in self.to_json().items():
            if isinstance(value, dict):
                continue  # phases get their own table (--profile)
            lines.append(f"{key:22} {value}")
        return "\n".join(lines)

    def profile_summary(self) -> str:
        """Per-phase wall-time table (the ``--profile`` output).

        Phase timers nest, so the column does not sum to end-to-end
        wall time — each row answers "how long did the pipeline spend
        inside this phase".
        """
        lines = ["-- phase profile (phases nest; totals overlap) --"]
        if not self.phase_seconds:
            lines.append("(no phases recorded; run with profiling enabled)")
            return "\n".join(lines)
        header = f"{'phase':18} {'calls':>8} {'total_ms':>10} {'avg_us':>10}"
        lines.append(header)
        for name, seconds in sorted(
            self.phase_seconds.items(), key=lambda kv: -kv[1]
        ):
            calls = self.phase_calls.get(name, 0)
            avg_us = (seconds / calls * 1e6) if calls else 0.0
            lines.append(
                f"{name:18} {calls:>8} {seconds * 1000:>10.2f} "
                f"{avg_us:>10.1f}"
            )
        return "\n".join(lines)
