"""The unified configuration surface of the MS2 pipeline.

Every knob of the pipeline lives on :class:`Ms2Options`, one frozen
value object that is

- the **single source of defaults** (the CLI's argparse defaults and
  the library's behaviour both come from ``Ms2Options()``),
- **hashable into a stable digest** (:meth:`Ms2Options.options_hash`),
  which is one third of the incremental-rebuild key used by the batch
  driver's persistent cache (source hash, macro hash, options hash),
- **picklable** (minus run-time observability hooks), so the parallel
  batch driver can ship one options value to every worker process.

:class:`ExpandResult` is the matching return object for
:meth:`repro.engine.MacroProcessor.expand`: expanded output plus the
diagnostics, pipeline stats and trace spans of the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.diagnostics import DEFAULT_MAX_ERRORS, Diagnostic, ExpansionBudget
from repro.stats import PipelineStats

if TYPE_CHECKING:
    from repro.cast.decls import TranslationUnit
    from repro.trace import ExpansionSpan

__all__ = [
    "ExpandResult",
    "Ms2Options",
    "OPTION_FIELDS",
]


@dataclass(frozen=True, slots=True)
class Ms2Options:
    """Every knob of one macro-processing session, as a frozen value.

    Construct once, share freely: the object is immutable, comparable
    and (hooks aside) picklable.  Derive variants with
    :meth:`replace`.
    """

    # -- expansion semantics -------------------------------------------
    #: Rename template-declared locals automatically (§5 extension).
    hygienic: bool = False
    #: Keep ``syntax``/``metadcl`` items in the output.
    keep_meta: bool = False
    #: Emit provenance comments and ``#line`` directives on output.
    annotate: bool = False

    # -- fast paths -----------------------------------------------------
    #: Compiled per-macro invocation parse routines.
    compiled_patterns: bool = True
    #: Compile macro bodies/templates to Python (semantics-neutral;
    #: per-macro interpreter fallback — see repro.macros.codegen).
    compiled_bodies: bool = True
    #: Memoize expansions of pure macros (in-memory replay cache).
    cache: bool = True

    # -- fault tolerance ------------------------------------------------
    #: Collect diagnostics and keep going instead of raising on the
    #: first fault.
    recover: bool = False
    #: Cap on ``error`` diagnostics per recovered run.
    max_errors: int = DEFAULT_MAX_ERRORS
    #: Budget: cap on total macro expansions (None = unbounded).
    max_expansions: int | None = None
    #: Budget: cap on AST nodes produced by expansions.
    max_output_nodes: int | None = None
    #: Budget: wall-clock allowance in seconds.
    deadline_s: float | None = None

    # -- observability --------------------------------------------------
    #: Record an :class:`~repro.trace.ExpansionSpan` tree.
    trace: bool = False
    #: Span event hooks, ``hook(event, span)``.  Runtime-only: never
    #: part of the options hash, stripped before crossing processes.
    trace_hooks: tuple = ()
    #: Writable text stream for JSONL span events.  Runtime-only.
    trace_jsonl: Any = None

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "Ms2Options":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def make_budget(self) -> ExpansionBudget | None:
        """A fresh :class:`ExpansionBudget` from the budget fields, or
        None when every limit is unset.  Fresh per call — budgets
        latch once exhausted, so they must not be shared across runs
        that should be accounted separately."""
        if (
            self.max_expansions is None
            and self.max_output_nodes is None
            and self.deadline_s is None
        ):
            return None
        return ExpansionBudget(
            max_expansions=self.max_expansions,
            max_output_nodes=self.max_output_nodes,
            deadline_s=self.deadline_s,
        )

    def wants_tracer(self) -> bool:
        return bool(self.trace or self.trace_hooks or self.trace_jsonl)

    # ------------------------------------------------------------------
    # Wire format (the server protocol / persistent snapshots)
    # ------------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The wire form: every field except the runtime-only hook
        handles (``trace_hooks``/``trace_jsonl``), as JSON-able
        values.  :meth:`from_json` round-trips it exactly."""
        return {
            name: getattr(self, name)
            for name in OPTION_FIELDS
            if name not in _RUNTIME_FIELDS
        }

    @classmethod
    def from_json(cls, data: dict[str, Any] | None) -> "Ms2Options":
        """Rebuild an options value from a :meth:`to_json` payload.

        Unknown keys are ignored (payloads written by newer pipelines
        still load) and the runtime-only hook fields cannot cross the
        wire.  Values of the wrong JSON type raise :class:`ValueError`
        — the expansion server turns that into a ``bad_request``
        response instead of corrupting a worker.
        """
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ValueError("options payload must be a JSON object")
        kwargs: dict[str, Any] = {}
        for name in OPTION_FIELDS:
            if name in _RUNTIME_FIELDS or name not in data:
                continue
            kwargs[name] = _check_field(name, data[name])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Hashing / serialization (the incremental-rebuild key)
    # ------------------------------------------------------------------

    def hashed_fields(self) -> dict[str, Any]:
        """The fields that can change the output bytes or
        diagnostics, as a JSON-able dict.  Observability settings and
        the byte-identical fast paths (``compiled_patterns``,
        ``compiled_bodies``, ``cache``) are excluded."""
        return {
            name: getattr(self, name)
            for name in OPTION_FIELDS
            if name not in _UNHASHED_FIELDS
        }

    def options_hash(self) -> str:
        """A stable hex digest of :meth:`hashed_fields`.

        Equal options produce equal digests across processes and
        runs; this is the "options" third of the batch driver's
        (source, macros, options) incremental-rebuild key."""
        payload = json.dumps(self.hashed_fields(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def without_runtime_hooks(self) -> "Ms2Options":
        """A copy safe to pickle across process boundaries."""
        if not self.trace_hooks and self.trace_jsonl is None:
            return self
        return self.replace(trace_hooks=(), trace_jsonl=None)


#: Every field name of :class:`Ms2Options`, declaration order.
OPTION_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(Ms2Options)
)

#: Fields excluded from :meth:`Ms2Options.options_hash`.  The rule: a
#: field is hashed iff it can change the output bytes or diagnostics.
#: These cannot — they are observability, or a fast path
#: (``compiled_patterns``, ``compiled_bodies``, the in-memory ``cache``)
#: whose output is byte-identical by contract (cache replays charge
#: budgets and the depth limit as re-expansion would).
_UNHASHED_FIELDS = frozenset(
    {
        "trace",
        "trace_hooks",
        "trace_jsonl",
        "compiled_patterns",
        "compiled_bodies",
        "cache",
    }
)

#: Runtime-only handles: never serialized, never on the wire.
_RUNTIME_FIELDS = frozenset({"trace_hooks", "trace_jsonl"})

#: Fields whose wire value must be a JSON boolean.
_BOOL_FIELDS = frozenset(
    name
    for name in OPTION_FIELDS
    if isinstance(getattr(Ms2Options(), name), bool)
)


def _check_field(name: str, value: Any) -> Any:
    """Validate one wire value for :meth:`Ms2Options.from_json`."""
    if name in _BOOL_FIELDS:
        if not isinstance(value, bool):
            raise ValueError(f"option {name!r} must be a boolean")
        return value
    if name == "max_errors":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"option {name!r} must be an integer")
        return value
    if name in ("max_expansions", "max_output_nodes"):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"option {name!r} must be an integer or null")
        return value
    if name == "deadline_s":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"option {name!r} must be a number or null")
        return float(value)
    return value


@dataclass(slots=True)
class ExpandResult:
    """Everything one :meth:`MacroProcessor.expand` run produced.

    Unlike the shape-shifting returns of the ``expand_*`` methods
    (``str`` in fail-fast mode, ``(str, diagnostics)`` with
    ``recover``), one object carries the output *and* the run's
    observability state.
    """

    #: Expanded C text (with ``keep_meta``, the full rendered unit).
    output: str
    #: The expanded translation unit the text was rendered from.
    unit: "TranslationUnit | None" = None
    #: Diagnostics collected during the run (empty in fail-fast mode,
    #: which raises instead).
    diagnostics: "list[Diagnostic]" = field(default_factory=list)
    #: The session's pipeline counters (shared with the processor).
    stats: "PipelineStats | None" = None
    #: Top-level expansion spans, program order (empty unless tracing).
    spans: "list[ExpansionSpan]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was recorded."""
        return not any(d.severity == "error" for d in self.diagnostics)

    def to_json(self) -> dict[str, Any]:
        """The wire form (server responses, batch-driver records,
        persistent snapshots).  Spans serialize flattened pre-order —
        every span of every recorded tree, parent ids preserving the
        shape — so :meth:`from_json` can rebuild the trees.  The
        expanded ``unit`` never crosses the wire: consumers that need
        the AST re-parse the output text."""
        spans: list[dict[str, Any]] = []
        for root in self.spans:
            stack = [root]
            while stack:
                span = stack.pop()
                spans.append(span.to_json())
                stack.extend(reversed(span.children))
        return {
            "ok": self.ok,
            "output": self.output,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "stats": self.stats.to_json() if self.stats else {},
            "spans": spans,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExpandResult":
        """Rebuild a result from a :meth:`to_json` payload (the
        client side of the server protocol).  ``unit`` is None; span
        trees are relinked from their parent ids.  :mod:`repro.trace`
        (and the AST modules it needs) loads only for a payload that
        carries spans, so a thin client never imports the AST."""
        if not isinstance(data, dict):
            raise ValueError("result payload must be a JSON object")
        diagnostics = [
            Diagnostic.from_json(d) for d in data.get("diagnostics", [])
        ]
        stats_data = data.get("stats")
        stats = PipelineStats.from_json(stats_data) if stats_data else None
        roots = []
        records = data.get("spans")
        if records:
            from repro.trace import ExpansionSpan

            by_id: dict[int, Any] = {}
            for record in records:
                span = ExpansionSpan.from_json(record)
                by_id[span.span_id] = span
                parent = by_id.get(span.parent_id)
                if parent is not None:
                    parent.children.append(span)
                else:
                    roots.append(span)
        return cls(
            output=data.get("output", ""),
            unit=None,
            diagnostics=diagnostics,
            stats=stats,
            spans=roots,
        )
