"""to_json()/from_json() round trips — the server wire format.

Every payload that crosses the daemon's NDJSON protocol (or lands in
a persistent snapshot) round-trips through its ``to_json`` /
``from_json`` pair: :class:`Ms2Options`, :class:`Diagnostic`,
:class:`PipelineStats`, :class:`ExpansionSpan` and the composite
:class:`ExpandResult`.  The properties pin two contracts:

- **object fidelity** where the object is fully wire-representable
  (``Ms2Options``: equality after a round trip);
- **JSON stability** where serialization deliberately flattens
  run-time state (locations, span trees, timings): a second
  round trip must produce byte-identical JSON.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MacroProcessor, Ms2Options
from repro.diagnostics import Diagnostic
from repro.errors import SourceLocation
from repro.options import ExpandResult
from repro.stats import PipelineStats
from repro.trace import ExpansionSpan

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_options = st.builds(
    Ms2Options,
    hygienic=st.booleans(),
    keep_meta=st.booleans(),
    annotate=st.booleans(),
    compiled_patterns=st.booleans(),
    cache=st.booleans(),
    recover=st.booleans(),
    max_errors=st.integers(min_value=1, max_value=500),
    max_expansions=st.none() | st.integers(min_value=0, max_value=10**6),
    max_output_nodes=st.none() | st.integers(min_value=0, max_value=10**6),
    deadline_s=st.none()
    | st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
    trace=st.booleans(),
)

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)

_location = st.builds(
    SourceLocation,
    line=st.integers(min_value=1, max_value=10**6),
    column=st.integers(min_value=1, max_value=10**4),
    filename=st.text(min_size=1, max_size=30).filter(
        lambda s: "\n" not in s
    ),
)

_diagnostic = st.builds(
    Diagnostic,
    severity=st.sampled_from(["error", "warning", "note"]),
    message=_text,
    location=st.none() | _location,
    category=st.sampled_from(["", "ParseError", "ExpansionError"]),
)

_stats = st.builds(
    PipelineStats,
    cache_hits=st.integers(min_value=0, max_value=10**6),
    cache_misses=st.integers(min_value=0, max_value=10**6),
    expansions=st.integers(min_value=0, max_value=10**6),
    hygiene_renames=st.integers(min_value=0, max_value=10**6),
    compile_time_ms=st.floats(
        min_value=0.0, max_value=1e4, allow_nan=False
    ),
)


def _wire(payload: dict) -> dict:
    """One trip through actual JSON text, as the protocol does."""
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------------------
# Ms2Options: full object fidelity
# ---------------------------------------------------------------------------


@given(_options)
@settings(max_examples=100)
def test_options_round_trip_is_identity(options: Ms2Options) -> None:
    assert Ms2Options.from_json(_wire(options.to_json())) == options


@given(_options)
@settings(max_examples=50)
def test_options_round_trip_preserves_hash(options: Ms2Options) -> None:
    restored = Ms2Options.from_json(_wire(options.to_json()))
    assert restored.options_hash() == options.options_hash()


def test_options_from_json_ignores_unknown_keys() -> None:
    payload = {"hygienic": True, "from_the_future": 42}
    assert Ms2Options.from_json(payload) == Ms2Options(hygienic=True)
    # A field a past pipeline had (the removed ``profile``) loads too.
    assert Ms2Options.from_json({"profile": True}) == Ms2Options()


def test_options_from_json_rejects_wrong_types() -> None:
    import pytest

    for bad in (
        {"hygienic": "yes"},
        {"max_errors": "many"},
        {"max_errors": True},
        {"max_expansions": 1.5},
        {"deadline_s": "soon"},
        "not an object",
    ):
        with pytest.raises(ValueError):
            Ms2Options.from_json(bad)  # type: ignore[arg-type]


def test_options_from_json_none_is_defaults() -> None:
    assert Ms2Options.from_json(None) == Ms2Options()


def test_options_runtime_hooks_never_serialize() -> None:
    noisy = Ms2Options(trace_hooks=(lambda event, span: None,))
    payload = noisy.to_json()
    assert "trace_hooks" not in payload
    assert "trace_jsonl" not in payload
    json.dumps(payload)  # JSON-able by construction


# ---------------------------------------------------------------------------
# Diagnostic / PipelineStats / ExpansionSpan: JSON stability
# ---------------------------------------------------------------------------


@given(_diagnostic)
@settings(max_examples=100)
def test_diagnostic_round_trip_is_json_stable(diag: Diagnostic) -> None:
    once = _wire(diag.to_json())
    again = Diagnostic.from_json(once).to_json()
    assert again == once


def test_diagnostic_location_parses_back() -> None:
    diag = Diagnostic(
        "error", "boom", SourceLocation(3, 7, 42, "dir/prog.c")
    )
    restored = Diagnostic.from_json(diag.to_json())
    assert restored.location is not None
    assert restored.location.filename == "dir/prog.c"
    assert restored.location.line == 3
    assert restored.location.column == 7


def test_diagnostic_location_with_colons_in_filename() -> None:
    diag = Diagnostic("error", "x", SourceLocation(2, 4, 0, "C:\\a:b.c"))
    restored = Diagnostic.from_json(diag.to_json())
    assert restored.location.filename == "C:\\a:b.c"
    assert (restored.location.line, restored.location.column) == (2, 4)


@given(_stats)
@settings(max_examples=100)
def test_stats_round_trip_is_json_stable(stats: PipelineStats) -> None:
    once = _wire(stats.to_json())
    again = PipelineStats.from_json(once).to_json()
    assert again == once


def test_stats_from_an_older_daemon_still_load() -> None:
    """A payload carrying a retired counter (``cache_replay_failures``
    went with the in-memory cache's serialization) loads without it
    and round-trips."""
    old = PipelineStats(cache_hits=3, expansions=5).to_json()
    old["cache_replay_failures"] = 2
    stats = PipelineStats.from_json(_wire(old))
    assert (stats.cache_hits, stats.expansions) == (3, 5)
    once = _wire(stats.to_json())
    assert "cache_replay_failures" not in once
    assert PipelineStats.from_json(once).to_json() == once


def test_span_round_trip_is_json_stable() -> None:
    span = ExpansionSpan(
        span_id=3,
        parent_id=1,
        macro="unroll",
        pattern="( $count ) $$stmt::body",
        site="prog.c:4:5",
        arg_types=("IntConst", "Compound"),
        parse_mode="compiled",
        depth=1,
        start=123.0,
        cache="hit",
        duration=0.00123,
        output_nodes=17,
    )
    once = span.to_json()
    again = ExpansionSpan.from_json(_wire(once)).to_json()
    assert again == once


# ---------------------------------------------------------------------------
# ExpandResult: the composite payload, from a real pipeline run
# ---------------------------------------------------------------------------

_PROGRAM = """
syntax exp twice {| ( $$exp::e ) |} { return(`(($e) * 2)); }
syntax exp quad {| ( $$exp::e ) |} { return(`(twice(twice($e)))); }
int x = quad(1);
"""

_BROKEN = "void broken( {\nint x = ;\n"


def test_expand_result_round_trip_clean_traced() -> None:
    mp = MacroProcessor(options=Ms2Options(trace=True))
    result = mp.expand(_PROGRAM, "prog.c")
    once = _wire(result.to_json())
    restored = ExpandResult.from_json(once)
    assert restored.output == result.output
    assert restored.ok is result.ok
    assert restored.to_json() == once
    # The span *tree* survives: nested Twice under top-level Twice.
    assert restored.spans and restored.spans[0].children


def test_expand_result_round_trip_with_diagnostics() -> None:
    mp = MacroProcessor(options=Ms2Options(recover=True))
    result = mp.expand(_BROKEN, "broken.c")
    assert not result.ok
    once = _wire(result.to_json())
    restored = ExpandResult.from_json(once)
    assert not restored.ok
    assert [d.to_json() for d in restored.diagnostics] == once[
        "diagnostics"
    ]
    assert restored.to_json() == once


def test_expand_result_spans_serialize_whole_tree() -> None:
    """to_json flattens every span pre-order (not just the roots),
    so nested expansions survive the wire."""
    mp = MacroProcessor(options=Ms2Options(trace=True))
    result = mp.expand(_PROGRAM, "prog.c")
    payload = result.to_json()
    ids = {record["id"] for record in payload["spans"]}
    parents = {
        record["parent"]
        for record in payload["spans"]
        if record["parent"] is not None
    }
    assert parents and parents <= ids, "child spans reference parents"
    assert len(payload["spans"]) > len(result.spans)
