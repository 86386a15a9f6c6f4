"""Expansion provenance: where macro-generated code came from.

The paper's "syntactic safety" requirement is that users only ever see
errors in terms of code they wrote.  Before this module, every node a
macro synthesized carried the bare ``SYNTHETIC`` location, so a failure
inside generated code pointed at ``<synthetic>:0:0`` with no record of
which invocation produced it.

Provenance fixes that by enriching locations instead of nodes: an
:class:`ExpandedLocation` is a :class:`~repro.errors.SourceLocation`
(the position where the text of the node was *written* — a template
line in a macro package, or the synthetic origin) plus an *expansion
backtrace*: the chain of :class:`ExpansionSite` invocation frames that
produced the node, innermost first.  The last frame is always user
source.

The expander stamps chains in its one pass over each fresh result
(:func:`repro.macros.expander.rewrite`).  They compose through
locations, not a global stack: an ``Inner`` invocation in ``Outer``'s
template is stamped with ``Outer``'s chain before it expands, and
:func:`expansion_chain` prepends the ``Inner`` frame to it.  A cache
replay stamps one :class:`ExpandedLocation` from the *replay* site on
every node, flattening nested chains, so annotated output keeps the
cache off (see :mod:`repro.macros.cache`).

``repro.errors`` deliberately does not import this module; rendering
in :meth:`~repro.errors.Ms2Error._format` duck-types on the
``expanded_from`` attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SourceLocation

__all__ = [
    "ExpandedLocation",
    "ExpansionSite",
    "expansion_chain",
    "format_expansion_backtrace",
    "provenance_of",
    "replay_location",
    "strip_expansion",
    "user_site",
]


@dataclass(frozen=True, slots=True)
class ExpansionSite:
    """One frame of an expansion backtrace: which macro was invoked,
    and where the invocation appeared."""

    macro: str
    location: SourceLocation

    def __str__(self) -> str:
        return f"expanded from {self.macro} at {self.location}"


@dataclass(frozen=True, slots=True)
class ExpandedLocation(SourceLocation):
    """A location inside macro-generated code.

    The base fields say where the node's text was written (template
    source, or the synthetic origin); ``expanded_from`` is the chain of
    invocation sites that produced it, innermost first.  The final
    frame is the user-source invocation.
    """

    expanded_from: tuple[ExpansionSite, ...] = ()


def provenance_of(loc: SourceLocation | None) -> tuple[ExpansionSite, ...]:
    """The expansion backtrace riding on ``loc`` (empty for plain
    locations and ``None``)."""
    return getattr(loc, "expanded_from", ())


def strip_expansion(loc: SourceLocation) -> SourceLocation:
    """``loc`` without its backtrace (a plain :class:`SourceLocation`)."""
    if type(loc) is SourceLocation:
        return loc
    return SourceLocation(loc.line, loc.column, loc.offset, loc.filename)


def expansion_chain(
    macro: str, invocation_loc: SourceLocation
) -> tuple[ExpansionSite, ...]:
    """The backtrace for code produced by invoking ``macro`` at
    ``invocation_loc``.

    The invocation site itself becomes the innermost frame; any frames
    already riding on the invocation's location (because the invocation
    node was itself macro-generated) follow, so nesting composes
    without any global state.
    """
    site = ExpansionSite(macro, strip_expansion(invocation_loc))
    return (site,) + provenance_of(invocation_loc)


def replay_location(
    invocation_loc: SourceLocation, chain: tuple[ExpansionSite, ...]
) -> ExpandedLocation:
    """The location stamped over every node of a cache replay: the
    replaying invocation's position, carrying the replay-site chain."""
    base = strip_expansion(invocation_loc)
    return ExpandedLocation(
        base.line, base.column, base.offset, base.filename, chain
    )


def user_site(loc: SourceLocation | None) -> SourceLocation | None:
    """The outermost (user-source) invocation site for ``loc``, or
    ``None`` when the location carries no backtrace."""
    frames = provenance_of(loc)
    return frames[-1].location if frames else None


def format_expansion_backtrace(
    frames: tuple[ExpansionSite, ...], indent: str = "  "
) -> str:
    """Render ``frames`` as the multi-line backtrace suffix used by
    :meth:`~repro.errors.Ms2Error._format`."""
    return "\n".join(f"{indent}{frame}" for frame in frames)
