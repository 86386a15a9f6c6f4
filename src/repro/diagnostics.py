"""Multi-error diagnostics and expansion resource budgets.

The paper's "syntactic safety" story is about *what* errors say; this
module is about *how many* the pipeline can report before giving up,
and about bounding how much work a runaway meta-program may consume.

:class:`DiagnosticSink` collects :class:`Diagnostic` records during a
recovery-mode run (``MacroProcessor(options=Ms2Options(recover=True))``
or ``repro expand --recover``).  Each diagnostic preserves the full
provenance-aware rendering of the :class:`~repro.errors.Ms2Error` it
was born from — including the "expanded from Macro at file:line:col"
backtrace — so recovered runs lose no information relative to the
fail-fast default.  A ``max_errors`` cap bounds cascades: once reached
the sink records a closing note and the parser stops recovering.

:class:`ExpansionBudget` bounds total expansions, produced AST nodes
and wall-clock time, alongside the expander's fixed depth cap.
Exhaustion raises :class:`~repro.errors.ExpansionBudgetError` — an
ordinary ``Ms2Error``, so in recovery mode it degrades to a diagnostic
plus a poisoned node rather than aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import ExpansionBudgetError, Ms2Error, SourceLocation

__all__ = [
    "ERROR",
    "WARNING",
    "NOTE",
    "Diagnostic",
    "DiagnosticSink",
    "ExpansionBudget",
    "DEFAULT_MAX_ERRORS",
]

#: Severity levels, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"
NOTE = "note"

#: Default cap on ``error``-severity diagnostics per recovered run.
DEFAULT_MAX_ERRORS = 20


def _parse_location(text) -> SourceLocation | None:
    """Parse a ``file:line:col`` rendering back into a
    :class:`SourceLocation` (None when absent or unparseable —
    filenames may contain colons, so split from the right)."""
    if not isinstance(text, str):
        return None
    filename, _, rest = text.rpartition(":")
    filename, _, line = filename.rpartition(":")
    try:
        return SourceLocation(
            line=int(line), column=int(rest), filename=filename or "<string>"
        )
    except ValueError:
        return None


@dataclass(slots=True)
class Diagnostic:
    """One reported problem.

    ``rendered`` is the full user-facing text (location prefix plus
    any expansion backtrace); ``message`` is the bare message and
    ``location``/``category`` support programmatic filtering.
    """

    severity: str
    message: str
    location: SourceLocation | None = None
    #: The originating error class name (``"ParseError"``, ...), or a
    #: tool-chosen tag for synthesized notes.
    category: str = ""
    rendered: str = ""

    def __post_init__(self) -> None:
        if not self.rendered:
            prefix = f"{self.location}: " if self.location else ""
            self.rendered = f"{prefix}{self.message}"

    @classmethod
    def from_error(cls, exc: Ms2Error, severity: str = ERROR) -> "Diagnostic":
        """Wrap an :class:`Ms2Error`, preserving its provenance-aware
        rendering (``str(exc)`` is the multi-frame backtrace)."""
        return cls(
            severity=severity,
            message=exc.message,
            location=exc.location,
            category=type(exc).__name__,
            rendered=str(exc),
        )

    def render(self) -> str:
        return f"{self.severity}: {self.rendered}"

    def to_json(self) -> dict:
        """The wire form (server responses, batch-driver reports,
        persistent snapshots).  Locations flatten to their
        ``file:line:col`` rendering — the round trip preserves
        everything a consumer needs; expansion backtraces live in
        ``rendered``."""
        return {
            "severity": self.severity,
            "message": self.message,
            "location": str(self.location) if self.location else None,
            "category": self.category,
            "rendered": self.rendered,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Diagnostic":
        """Rebuild from a :meth:`to_json` payload (cache replay and
        the client side of the server protocol).  The location string
        parses back into a plain :class:`SourceLocation` (character
        offset and backtrace frames are not wire data)."""
        return cls(
            severity=data.get("severity", ERROR),
            message=data.get("message", ""),
            location=_parse_location(data.get("location")),
            category=data.get("category", ""),
            rendered=data.get("rendered", ""),
        )


class DiagnosticSink:
    """Collects diagnostics during a recovery-mode run.

    ``emit``/``emit_error`` return ``True`` while the consumer should
    keep recovering and ``False`` once the error cap is reached; the
    cap-hit itself is recorded as a closing ``note`` diagnostic.
    """

    def __init__(self, max_errors: int = DEFAULT_MAX_ERRORS) -> None:
        self.max_errors = max(1, max_errors)
        self.diagnostics: list[Diagnostic] = []
        self.error_count = 0
        self._gave_up = False

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    @property
    def saturated(self) -> bool:
        """True once the error cap was hit (recovery should stop)."""
        return self._gave_up

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def emit(self, diagnostic: Diagnostic) -> bool:
        """Record one diagnostic; returns False once at the cap."""
        if diagnostic.severity != ERROR:
            self.diagnostics.append(diagnostic)
            return not self._gave_up
        if self.error_count >= self.max_errors:
            self._give_up()
            return False
        self.error_count += 1
        self.diagnostics.append(diagnostic)
        if self.error_count >= self.max_errors:
            self._give_up()
            return False
        return True

    def emit_error(self, exc: Ms2Error) -> bool:
        """Record an :class:`Ms2Error` at ``error`` severity."""
        return self.emit(Diagnostic.from_error(exc))

    def _give_up(self) -> None:
        if self._gave_up:
            return
        self._gave_up = True
        message = (
            f"too many errors ({self.max_errors}); giving up on recovery"
        )
        self.diagnostics.append(
            Diagnostic(NOTE, message, None, "DiagnosticSink", message)
        )

    def render(self) -> str:
        """All diagnostics, one rendered entry per line group."""
        return "\n".join(d.render() for d in self.diagnostics)


@dataclass(slots=True)
class ExpansionBudget:
    """Resource bounds for one expansion run.

    All limits are optional; an unset limit is unbounded.  The
    wall-clock deadline starts counting at the first charge, so a
    budget can be constructed ahead of time.  Once any limit trips,
    ``exhausted`` latches and every further charge raises again —
    callers in recovery mode turn each raise into one poisoned node
    without restarting the runaway work.
    """

    #: Cap on total macro expansions (a cache replay counts as the
    #: expansions its fresh run did).
    max_expansions: int | None = None
    #: Cap on total AST nodes produced by expansions.
    max_output_nodes: int | None = None
    #: Wall-clock allowance in seconds, measured from the first charge.
    deadline_s: float | None = None

    expansions_used: int = field(default=0, init=False)
    output_nodes_used: int = field(default=0, init=False)
    exhausted: str | None = field(default=None, init=False)
    _started_at: float | None = field(default=None, init=False)

    def _trip(self, reason: str, loc: SourceLocation | None) -> None:
        self.exhausted = reason
        raise ExpansionBudgetError(f"expansion budget exhausted: {reason}", loc)

    def charge_expansion(self, loc: SourceLocation | None = None) -> None:
        """Account for one macro expansion; checks the deadline too."""
        if self.exhausted is not None:
            raise ExpansionBudgetError(
                f"expansion budget exhausted: {self.exhausted}", loc
            )
        if self._started_at is None:
            self._started_at = perf_counter()
        elif (
            self.deadline_s is not None
            and perf_counter() - self._started_at > self.deadline_s
        ):
            self._trip(
                f"wall-clock deadline of {self.deadline_s:g}s passed", loc
            )
        self.expansions_used += 1
        if (
            self.max_expansions is not None
            and self.expansions_used > self.max_expansions
        ):
            self._trip(
                f"more than {self.max_expansions} macro expansions", loc
            )

    def charge_replay(self, expansions: int, output_nodes: int) -> bool:
        """Account for the work a cache replay stands in for.

        Returns False, charging nothing, when that work would pass a
        count limit: the caller then re-expands, so the limit trips at
        the same charge as in an uncached run.  The deadline is
        wall-clock, so it is checked per real expansion only."""
        if (
            self.max_expansions is not None
            and self.expansions_used + expansions > self.max_expansions
        ) or (
            self.max_output_nodes is not None
            and self.output_nodes_used + output_nodes
            > self.max_output_nodes
        ):
            return False
        self.expansions_used += expansions
        self.output_nodes_used += output_nodes
        return True

    def charge_output(
        self, produced: int, loc: SourceLocation | None = None
    ) -> None:
        """Account for the ``produced`` AST nodes of one expansion."""
        if self.max_output_nodes is None:
            return
        self.output_nodes_used += produced
        if self.output_nodes_used > self.max_output_nodes:
            self._trip(
                f"more than {self.max_output_nodes} output AST nodes", loc
            )
