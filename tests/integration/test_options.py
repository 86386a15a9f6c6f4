"""Ms2Options: the unified configuration surface.

Covers the three contracts the redesign introduced:

- **CLI/API parity** — for *every* option field, the value the CLI
  derives from its defaults equals ``Ms2Options()``, and each flag
  maps onto exactly the field it names;
- **removed spellings** — every pre-``Ms2Options`` keyword spelling
  raises Python's own :class:`TypeError`;
- **hash stability** — ``options_hash`` moves with exactly the fields
  that can change output bytes or diagnostics (it keys the persistent
  cache and shard affinity), and ignores observability knobs and the
  byte-identical fast paths.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ExpandResult, MacroProcessor, Ms2Options, expand_source
from repro.cli import build_arg_parser, options_from_args
from repro.diagnostics import DEFAULT_MAX_ERRORS, ExpansionBudget
from repro.driver import BuildSession
from repro.options import OPTION_FIELDS
from repro.server import serve

PROGRAM = """
syntax stmt Twice {| $$stmt::body |}
{
  return(`{ $body; $body; });
}
void f(void) { Twice { step(); } }
"""

BROKEN = "void broken( {\n"


def parse(argv: list[str]):
    return build_arg_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# CLI/API parity — every option, both subcommands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", [["expand", "x.c"], ["build", "x.c"]])
@pytest.mark.parametrize("name", OPTION_FIELDS)
def test_cli_defaults_match_api_defaults(command, name) -> None:
    """`repro expand`/`repro build` with no flags must configure the
    pipeline exactly as `Ms2Options()` does — field by field, so a
    new option that misses the CLI mapping fails here by name."""
    options = options_from_args(parse(command))
    assert getattr(options, name) == getattr(Ms2Options(), name), name


FLAG_CASES = [
    (["--hygienic"], {"hygienic": True}),
    (["--keep-meta"], {"keep_meta": True}),
    (["--annotate"], {"annotate": True}),
    (["--no-compiled-patterns"], {"compiled_patterns": False}),
    (["--no-cache"], {"cache": False}),
    (["--recover"], {"recover": True}),
    (["--recover", "--max-errors", "3"],
     {"recover": True, "max_errors": 3}),
    (["--max-expansions", "7"], {"max_expansions": 7}),
    (["--max-output-nodes", "9000"], {"max_output_nodes": 9000}),
    (["--deadline-ms", "250"], {"deadline_s": 0.25}),
    (["--no-compiled-bodies"], {"compiled_bodies": False}),
]


@pytest.mark.parametrize("subcommand", ["expand", "build"])
@pytest.mark.parametrize("flags,expected", FLAG_CASES)
def test_each_flag_maps_to_its_field(subcommand, flags, expected) -> None:
    options = options_from_args(parse([subcommand, "x.c", *flags]))
    assert options == Ms2Options(**expected)


@pytest.mark.parametrize("subcommand", ["expand", "trace"])
def test_profile_flag_turns_tracing_on(subcommand) -> None:
    """``--profile`` reports the span tracer's figures, so it is
    tracing — no separate option, no second code path."""
    options = options_from_args(parse([subcommand, "x.c", "--profile"]))
    assert options == Ms2Options(trace=True)


@pytest.mark.parametrize(
    "argv", [["build", "x.c"], ["serve", "--socket", "s.sock"]]
)
def test_profile_flag_only_where_a_table_is_printed(argv, capsys) -> None:
    with pytest.raises(SystemExit):
        parse([*argv, "--profile"])
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


def test_trace_subcommand_shares_defaults() -> None:
    options = options_from_args(parse(["trace", "x.c"]))
    assert options == Ms2Options()


# ---------------------------------------------------------------------------
# The options value itself
# ---------------------------------------------------------------------------


def test_defaults() -> None:
    options = Ms2Options()
    assert options.hygienic is False
    assert options.compiled_patterns is True
    assert options.cache is True
    assert options.recover is False
    assert options.max_errors == DEFAULT_MAX_ERRORS
    assert options.max_expansions is None
    assert options.trace is False


def test_frozen() -> None:
    with pytest.raises(dataclasses.FrozenInstanceError):
        Ms2Options().hygienic = True  # type: ignore[misc]


def test_replace() -> None:
    base = Ms2Options()
    derived = base.replace(recover=True, max_errors=5)
    assert derived.recover and derived.max_errors == 5
    assert base.recover is False  # untouched


def test_make_budget() -> None:
    assert Ms2Options().make_budget() is None
    budget = Ms2Options(max_expansions=4).make_budget()
    assert isinstance(budget, ExpansionBudget)
    assert budget.max_expansions == 4
    # Fresh per call: budgets latch, so they must not be shared.
    assert budget is not Ms2Options(max_expansions=4).make_budget()


def test_hash_is_stable_and_ignores_observability() -> None:
    base = Ms2Options()
    assert base.options_hash() == Ms2Options().options_hash()
    noisy = base.replace(
        trace=True,
        trace_hooks=(lambda event, span: None,),
    )
    assert noisy.options_hash() == base.options_hash()


@pytest.mark.parametrize(
    "name",
    ["compiled_bodies", "compiled_patterns", "cache", "trace"],
)
def test_hash_ignores_fields_that_cannot_change_output(name) -> None:
    """A field is hashed iff it can change output bytes or
    diagnostics.  The fast paths are byte-identical by contract (the
    differential matrix pins that), and observability never reaches the
    output, so toggling any of them must keep the disk-cache key and
    the shard affinity."""
    default = Ms2Options()
    toggled = default.replace(**{name: not getattr(default, name)})
    assert toggled.options_hash() == default.options_hash()
    assert name not in default.hashed_fields()


SEMANTIC_CHANGES = [
    {"hygienic": True},
    {"keep_meta": True},
    {"annotate": True},
    # A zero limit is falsy but is not "no limit": it must not hash
    # like the ``None`` default.
    {"max_expansions": 0},
    {"max_output_nodes": 0},
    {"recover": True},
    {"max_errors": 3},
    {"max_expansions": 10},
    {"max_output_nodes": 10},
    {"deadline_s": 1.0},
]


@pytest.mark.parametrize("change", SEMANTIC_CHANGES)
def test_hash_moves_with_every_semantic_field(change) -> None:
    assert (
        Ms2Options(**change).options_hash() != Ms2Options().options_hash()
    )


def test_semantic_cases_cover_every_hashed_field() -> None:
    covered = {name for change in SEMANTIC_CHANGES for name in change}
    assert covered == set(Ms2Options().hashed_fields())


def test_without_runtime_hooks_is_picklable() -> None:
    import pickle

    noisy = Ms2Options(trace_hooks=(lambda event, span: None,))
    clean = noisy.without_runtime_hooks()
    assert clean.trace_hooks == ()
    assert pickle.loads(pickle.dumps(clean)) == clean


# ---------------------------------------------------------------------------
# Removed spellings fail natively
# ---------------------------------------------------------------------------


REMOVED_SPELLINGS = {
    "MacroProcessor(hygienic=)": lambda: MacroProcessor(hygienic=True),
    "MacroProcessor(budget=)": lambda: MacroProcessor(
        budget=ExpansionBudget(max_expansions=50)
    ),
    "expand_to_c(recover=)": lambda: MacroProcessor().expand_to_c(
        PROGRAM, recover=True
    ),
    "expand_to_c(annotate=)": lambda: MacroProcessor().expand_to_c(
        PROGRAM, annotate=True
    ),
    "expand_to_c(max_errors=)": lambda: MacroProcessor().expand_to_c(
        PROGRAM, max_errors=3
    ),
    "expand_source(hygienic=)": lambda: expand_source(
        PROGRAM, hygienic=True
    ),
    "BuildSession(cache_dir=)": lambda: BuildSession(
        cache_dir="unused-cache-dir"
    ),
    "BuildSession(use_disk_cache=)": lambda: BuildSession(
        use_disk_cache=False
    ),
    # Two listen addresses: even a serve() that accepted the keyword
    # could never start a daemon from this call.
    "serve(socket_path=)": lambda: serve(
        socket_path="unused.sock", port=0
    ),
}


@pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
def test_removed_spelling_raises_type_error(spelling) -> None:
    """The pre-``Ms2Options`` keyword spellings are gone: each raises
    Python's own "unexpected keyword argument" TypeError, naming the
    keyword, before any work starts."""
    keyword = spelling.split("(")[1].rstrip("=)")
    with pytest.raises(TypeError, match=f"unexpected keyword.*{keyword}"):
        REMOVED_SPELLINGS[spelling]()


def test_unknown_constructor_kwarg_is_an_error() -> None:
    with pytest.raises(TypeError, match="hygenic"):
        MacroProcessor(hygenic=True)  # typo must not pass silently


def test_clean_api_emits_no_warnings(recwarn) -> None:
    mp = MacroProcessor(options=Ms2Options(recover=True))
    mp.expand(PROGRAM)
    expand_source(PROGRAM, options=Ms2Options())
    assert [w for w in recwarn if issubclass(
        w.category, DeprecationWarning
    )] == []


# ---------------------------------------------------------------------------
# ExpandResult
# ---------------------------------------------------------------------------


def test_expand_returns_result_object() -> None:
    mp = MacroProcessor(options=Ms2Options(trace=True))
    result = mp.expand(PROGRAM, "prog.c")
    assert isinstance(result, ExpandResult)
    assert result.ok
    assert "step" in result.output
    assert result.diagnostics == []
    assert result.stats is mp.stats
    assert result.spans, "tracing was on: top-level spans expected"
    record = result.to_json()
    assert record["ok"] is True
    assert record["output"] == result.output
    assert record["spans"]


def test_expand_result_carries_diagnostics() -> None:
    mp = MacroProcessor(options=Ms2Options(recover=True))
    result = mp.expand(BROKEN)
    assert not result.ok
    assert any(d.severity == "error" for d in result.diagnostics)
    payload = result.to_json()
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["severity"] == "error"
