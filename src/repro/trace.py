"""Structured tracing for the MS2 pipeline.

Every macro invocation opens an :class:`ExpansionSpan` recording the
macro name, the pattern it matched, the AST types of its actual
parameters, the invocation site, whether the expansion cache answered
it, whether the invocation was parsed by a compiled routine, wall time,
and the size of the produced tree.  Spans nest — recursive and
template-nested expansions form a tree — and completed spans stream
into a bounded in-memory ring buffer, to any subscribed hook
callables, and optionally to a JSONL event log.

:class:`Tracer` collects the spans of one session and is threaded
through :class:`~repro.engine.MacroProcessor` when
``Ms2Options.trace`` (or a hook or JSONL sink) is set.  Tracing times
the pipeline as it ships — compiled bodies, replay cache and all — so
the two views built on it describe the production path:

* ``repro trace <file>`` renders the span tree
  (:meth:`Tracer.render_tree`);
* ``--profile`` (on ``repro expand`` and ``repro trace``) prints
  :func:`profile_table`, a per-macro summary of the root spans with
  inclusive and self time.  Spans cross the daemon wire in
  ``ExpandResult.spans``, so ``repro expand --server`` renders the
  same table.

When tracing is off the expander pays one ``None`` check per
invocation.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import IO, Any, Callable, Iterator

from repro.cast.base import Node
from repro.provenance import provenance_of, strip_expansion

__all__ = ["ExpansionSpan", "Tracer", "TraceHook", "profile_table"]

#: Event hook signature: ``hook(event, span)`` with event one of
#: ``"start"`` / ``"end"`` / ``"error"``.
TraceHook = Callable[[str, "ExpansionSpan"], None]

#: Default capacity of the completed-span ring buffer.
DEFAULT_RING_SIZE = 4096


@dataclass(slots=True)
class ExpansionSpan:
    """One macro invocation, as observed by the tracer."""

    span_id: int
    parent_id: int | None
    macro: str
    #: The pattern the invocation matched (source text form).
    pattern: str
    #: Invocation site, ``file:line:col`` (backtrace frames stripped).
    site: str
    #: AST types of the actual parameters, pattern order.
    arg_types: tuple[str, ...]
    #: ``"compiled"`` / ``"interpreted"`` / ``"unknown"`` parse route.
    parse_mode: str
    #: Nesting depth (0 for a user-source invocation).
    depth: int
    #: ``perf_counter`` timestamp at span open.
    start: float
    #: ``"hit"`` / ``"miss"`` / ``"uncacheable"`` / ``"off"``.
    cache: str = "off"
    #: Wall-clock seconds from open to close.
    duration: float = 0.0
    #: Number of AST nodes in the produced replacement tree(s).
    output_nodes: int = 0
    #: Error text when the expansion failed, else None.
    error: str | None = None
    children: list["ExpansionSpan"] = field(default_factory=list)
    #: Correlation ID of the serving request (stamped by the tracer
    #: when :attr:`Tracer.request_id` is set; None for local runs).
    request_id: str | None = None

    def to_json(self) -> dict[str, Any]:
        """The wire form (children appear as parent-id references;
        :meth:`from_json` plus the ids rebuild the tree)."""
        record = {
            "id": self.span_id,
            "parent": self.parent_id,
            "macro": self.macro,
            "pattern": self.pattern,
            "site": self.site,
            "arg_types": list(self.arg_types),
            "parse": self.parse_mode,
            "depth": self.depth,
            "cache": self.cache,
            "ms": round(self.duration * 1000, 4),
            "output_nodes": self.output_nodes,
            "error": self.error,
        }
        if self.request_id is not None:
            record["request_id"] = self.request_id
        return record

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExpansionSpan":
        """Rebuild one span from a :meth:`to_json` record.  Children
        start empty — callers relink them from the parent ids (see
        :meth:`repro.options.ExpandResult.from_json`)."""
        return cls(
            span_id=int(data.get("id", 0)),
            parent_id=data.get("parent"),
            macro=data.get("macro", ""),
            pattern=data.get("pattern", ""),
            site=data.get("site", ""),
            arg_types=tuple(data.get("arg_types", ())),
            parse_mode=data.get("parse", "unknown"),
            depth=int(data.get("depth", 0)),
            start=0.0,
            cache=data.get("cache", "off"),
            duration=float(data.get("ms", 0.0)) / 1000.0,
            output_nodes=int(data.get("output_nodes", 0)),
            error=data.get("error"),
            request_id=data.get("request_id"),
        )

    def describe(self) -> str:
        """One-line rendering used by the span-tree view."""
        status = f"{self.cache}, {self.parse_mode}"
        tail = (
            f"!! {self.error.splitlines()[0]}"
            if self.error
            else f"-> {self.output_nodes} nodes"
        )
        return (
            f"{self.macro} @ {self.site} [{status}] "
            f"{self.duration * 1000:.2f}ms {tail}"
        )


class Tracer:
    """Collects :class:`ExpansionSpan` trees for one session.

    Parameters
    ----------
    hooks:
        Callables invoked as ``hook(event, span)`` on ``"start"``,
        ``"end"`` and ``"error"`` events — the subscription API used by
        tests and external tools (``Ms2Options(trace_hooks=(...))``).
    jsonl:
        Optional writable text stream; every completed span is
        appended as one JSON line (an *event log*, in completion
        order — children complete before their parents).
    ring_size:
        Capacity of the completed-span ring buffer (oldest spans are
        evicted first).  The span *tree* in :attr:`roots` is kept in
        full for rendering.
    """

    def __init__(
        self,
        hooks: list[TraceHook] | None = None,
        jsonl: IO[str] | None = None,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        self.hooks: list[TraceHook] = list(hooks or [])
        self.jsonl = jsonl
        #: When set (the expansion daemon sets it per request), every
        #: span opened afterwards carries this correlation ID, so a
        #: request can be followed from the client through the event
        #: log into its expansion spans.
        self.request_id: str | None = None
        #: Completed spans, completion order, bounded.
        self.ring: deque[ExpansionSpan] = deque(maxlen=ring_size)
        #: Top-level spans (user-source invocations), in program order.
        self.roots: list[ExpansionSpan] = []
        self._stack: list[ExpansionSpan] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Span lifecycle (driven by the expander)
    # ------------------------------------------------------------------

    def begin(self, definition: Any, invocation: Any) -> ExpansionSpan:
        """Open a span for ``invocation``; nests under any open span."""
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span = ExpansionSpan(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            macro=definition.name,
            pattern=getattr(definition.pattern, "source_text", "..."),
            site=str(strip_expansion(invocation.loc)),
            arg_types=tuple(
                _arg_type_name(arg.value) for arg in invocation.args
            ),
            parse_mode=getattr(invocation, "parse_mode", None) or "unknown",
            depth=len(self._stack),
            start=perf_counter(),
            request_id=self.request_id,
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        self._emit("start", span)
        return span

    def end(self, span: ExpansionSpan, output_nodes: int, cache: str) -> None:
        """Close ``span`` successfully; its result has ``output_nodes``
        AST nodes."""
        span.duration = perf_counter() - span.start
        span.cache = cache
        span.output_nodes = output_nodes
        self._pop(span)
        self._emit("end", span)
        self._log(span)

    def fail(self, span: ExpansionSpan, error: Exception) -> None:
        """Close ``span`` after the expansion raised."""
        span.duration = perf_counter() - span.start
        span.error = str(error)
        self._pop(span)
        self._emit("error", span)
        self._log(span)

    def _pop(self, span: ExpansionSpan) -> None:
        # Tolerate unwinds that skipped inner end() calls (an error
        # propagating through several open spans).
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.ring.append(span)

    def _emit(self, event: str, span: ExpansionSpan) -> None:
        for hook in self.hooks:
            hook(event, span)

    def _log(self, span: ExpansionSpan) -> None:
        if self.jsonl is None:
            return
        record = {"event": "span", **span.to_json()}
        self.jsonl.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def walk_spans(self) -> Iterator[ExpansionSpan]:
        """Every recorded span, pre-order over the tree."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def as_records(self) -> list[dict[str, Any]]:
        """Every recorded span as a JSON-ready dict, pre-order — the
        serialized form carried by batch-build reports and persistent
        cache snapshots (parent ids preserve the tree shape)."""
        return [span.to_json() for span in self.walk_spans()]

    def render_tree(self, indent: str = "  ") -> str:
        """The nested span tree as text (the ``repro trace`` output)."""
        if not self.roots:
            return "(no macro expansions recorded)"
        lines: list[str] = []
        for root in self.roots:
            self._render_into(root, 0, indent, lines)
        return "\n".join(lines)

    def _render_into(
        self,
        span: ExpansionSpan,
        level: int,
        indent: str,
        lines: list[str],
    ) -> None:
        lines.append(f"{indent * level}{span.describe()}")
        for child in span.children:
            self._render_into(child, level + 1, indent, lines)

    def close(self) -> None:
        """Flush the JSONL sink (the stream itself stays owned by the
        caller)."""
        if self.jsonl is not None:
            self.jsonl.flush()


def _arg_type_name(value: Any) -> str:
    """A compact AST-type label for one actual parameter."""
    if value is None:
        return "absent"
    if isinstance(value, list):
        if not value:
            return "[]"
        return f"{_arg_type_name(value[0])}[{len(value)}]"
    if isinstance(value, Node):
        return type(value).__name__
    return type(value).__name__



# ---------------------------------------------------------------------------
# Per-macro profile
# ---------------------------------------------------------------------------


def profile_table(roots: list[ExpansionSpan]) -> str:
    """The ``--profile`` output: one row per macro over the span trees
    under ``roots``.

    ``incl_ms`` is the wall time of the macro's spans, counting only
    the outermost span when a macro nests inside itself; ``self_ms``
    subtracts the time of each span's child spans, so the ``self_ms``
    column sums to the total time of the root spans.
    """
    rows: dict[str, list] = {}  # macro -> [calls, hits, incl, self]

    def visit(span: ExpansionSpan, active: frozenset[str]) -> None:
        row = rows.setdefault(span.macro, [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.cache == "hit"
        if span.macro not in active:
            row[2] += span.duration
        row[3] += span.duration - sum(c.duration for c in span.children)
        for child in span.children:
            visit(child, active | {span.macro})

    for root in roots:
        visit(root, frozenset())
    if not rows:
        return "(no macro expansions recorded)"
    lines = [
        f"{'macro':24} {'calls':>7} {'hits':>7} {'incl_ms':>10} "
        f"{'self_ms':>10}"
    ]
    for macro, (calls, hits, incl, own) in sorted(
        rows.items(), key=lambda kv: (-kv[1][3], kv[0])
    ):
        lines.append(
            f"{macro:24} {calls:>7} {hits:>7} {incl * 1000:>10.3f} "
            f"{own * 1000:>10.3f}"
        )
    total = sum(root.duration for root in roots)
    lines.append(
        f"{'total':24} {sum(r[0] for r in rows.values()):>7} "
        f"{sum(r[1] for r in rows.values()):>7} {total * 1000:>10.3f} "
        f"{total * 1000:>10.3f}"
    )
    return "\n".join(lines)
