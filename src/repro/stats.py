"""Counters for the pipeline's observability layer.

One :class:`PipelineStats` instance is threaded through a
:class:`~repro.engine.MacroProcessor`'s scanner, parser dispatch,
expander, hygiene renamer, meta-interpreter and expansion cache, so a
single object answers "what did the pipeline actually do" for a whole
session.  The CLI exposes it via ``python -m repro expand --stats``
(text) and ``--stats-json`` (machine-readable); timing lives in the
expansion spans of :class:`~repro.trace.Tracer` (``--profile``).
"""

from __future__ import annotations

from dataclasses import dataclass


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

    # -- hygiene / meta builtins ---------------------------------------
    #: Template-declared locals renamed by the hygienic renamer.
    hygiene_renames: int = 0
    #: ``gensym`` calls (explicit in meta-programs, plus those issued
    #: by the hygienic renamer itself).
    gensym_calls: int = 0

    # -- scanner --------------------------------------------------------
    #: Tokens produced by the master-regex fast path.
    tokens_scanned: int = 0

    def merge(self, other: "PipelineStats") -> None:
        """Fold another session's counters into this one (the batch
        driver aggregates every worker's per-file stats this way).
        Derived rates are recomputed on demand."""
        for stats_field in self.__dataclass_fields__:
            setattr(
                self,
                stats_field,
                getattr(self, stats_field) + getattr(other, stats_field),
            )

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
        return stats

    def cache_hit_rate(self) -> float:
        """Hits over cacheable lookups (0.0 when nothing was cacheable)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_json(self) -> dict:
        """Machine-readable snapshot (the ``--stats-json`` payload
        and the server wire form)."""
        return {
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
            "hygiene_renames": self.hygiene_renames,
            "gensym_calls": self.gensym_calls,
            "tokens_scanned": self.tokens_scanned,
        }

    def summary(self) -> str:
        """Multi-line human-readable rendering (the ``--stats`` output)."""
        lines = ["-- pipeline stats --"]
        for key, value in self.to_json().items():
            lines.append(f"{key:22} {value}")
        return "\n".join(lines)
