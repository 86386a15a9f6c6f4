"""One differential oracle for every way of running an expansion.

Each input runs at a slice of points.  The dimensions:

* the fast paths (``compiled_patterns``, ``compiled_bodies``, the
  replay ``cache``), each alone and all together, against the all-off
  reference;
* plain, ``hygienic`` and ``annotate`` output;
* ``recover`` under ``max_expansions`` / ``max_output_nodes`` budgets,
  0 included, and the depth limit;
* transport: the library, the NDJSON daemon, its HTTP front and a
  2-shard fleet;
* build replay: cold, local-warm and remote-warm ``BuildSession``
  builds.

On every point:

* the output bytes and the ``Diagnostic.to_json()`` list equal the
  reference's;
* a successful expansion is plain C (:func:`plain_c_problem`);
* :func:`detect_captures` finds nothing under hygiene, and finds the
  capture without it on the capturing inputs;
* hygiene keeps the program's meaning: when the unhygienic tree
  captures nothing, the hygienic tree prints the same once bound names
  are canonicalised (:func:`alpha_canonical`).

Remote and build points carry no tree; they equal a library point,
whose tree is checked.  The inputs are the package and example
programs, ``examples/corpus``, the perfbench ``distinct``/``repeat``
units (seed 1), seeded nested-binder macros, the fuzz mutants, the
budget and depth-limit programs and the capturing macro of
``examples/capture_lint.py``.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import socket
from dataclasses import dataclass
from pathlib import Path

import pytest

from perfbench import gen
from perfbench.oracle import plain_c_problem
from repro.analysis import alpha_canonical, detect_captures
from repro.api import Ms2Options, expand
from repro.cast.printer import render_c
from repro.client import Ms2Client
from repro.driver import BuildSession, CacheConfig
from repro.errors import Ms2Error
from repro.macros import codegen
from repro.macros.expander import MAX_EXPANSION_DEPTH
from repro.serveconfig import ServeConfig
from tests.fuzz.fuzzer import Mutator, load_corpus
from tests.server.conftest import ServerHandle
from tests.server.test_shards import FleetHandle

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"
CORPUS = EXAMPLES / "corpus"


@functools.cache
def example(name: str):
    """An ``examples/`` script imported as a module (guarded main)."""
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Case:
    """One input: a program, the standard packages and the macro
    package texts loaded before it."""

    name: str
    program: str
    packages: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()
    #: "unhygienic": captures a user name only without hygiene;
    #: "always": binds user names on purpose, hygiene or not.
    captures: str = ""
    #: False where a successful expansion is not plain C on its own;
    #: the plain-C check then skips it.
    plain_c: bool = True

    def run(self, options: Ms2Options, client: Ms2Client | None = None):
        """``(outcome, ExpandResult or None)``: the outcome is the
        output and diagnostics, or the error a fail-fast run raised."""
        run = expand if client is None else client.expand
        try:
            result = run(
                self.program, f"{self.name}.c", options=options,
                packages=self.packages,
                package_sources=[("<package>", text) for text in self.sources],
            )
        except Ms2Error as exc:
            return ("raised", type(exc).__name__, str(exc)), None
        diagnostics = [d.to_json() for d in result.diagnostics]
        return (result.output, diagnostics), result


LINT = example("capture_lint")
SAVED_THRICE = """
void f(int saved)
{
    save_level { saved = saved + level; }
    save_level { saved = saved + level; }
    save_level { saved = saved + level; }
}
"""
ROADMAP_REPRO = (
    "syntax stmt sh {| ( ) |} "
    "{ return(`{{ int tmp = 1; { int tmp = 2; f(tmp); } }}); }\n"
    "void g(void) { sh(); }\n"
)

CASES = [
    Case("contracts", "void f(int n) { require (n > 0); ensure (n < 9); "
         "check_range (n, 0, 9); }", ("contracts",)),
    Case("dynbind", "void f(void) { int depth; "
         "dynamic_bind {int depth = 1} {go();} }", ("dynbind",)),
    Case("enumio", "myenum fruit {apple, banana, kiwi};", ("enumio",)),
    Case("exceptions", "void f(int *c) {\n"
         "    catch division_by_zero {handle();} {*c = freq();}\n"
         "    unwind_protect {start();} {stop();}\n"
         "    throw division_by_zero;\n}", ("exceptions",)),
    Case("loops", "void f(int a, int b) {\n    int j;\n"
         "    unless (done()) { step(); }\n"
         "    for_range j = 0 to 9 { tick(j); }\n"
         "    unroll (4) { work(i); }\n"
         "    with_resource (open_it(), close_it()) { use(); }\n"
         "    swap (int, a, b);\n    forever { poll(); }\n}", ("loops",)),
    Case("painting", "void f(void) { Painting { draw(); } }", ("painting",)),
    Case("painting-protected", "void f(void) { Painting { draw(); } }",
         ("exceptions", "painting-protected")),
    Case("portvm", "vm_target unix;\nvoid f(void) {\n    int h;\n"
         "    vm_open(h, path);\n    vm_sleep(250);\n    vm_yield();\n"
         "    vm_close(h);\n}", ("portvm",)),
    Case("semantic", "void f(int a, int b) {\n    int depth;\n"
         "    sdynamic_bind {depth = 1} {g();}\n    sswap (a, b);\n"
         "    show (a);\n}", ("semantic",)),
    Case("quickstart", example("quickstart").PROGRAM),
    Case("capture_lint", LINT.PROGRAM, sources=(LINT.CAPTURING_MACRO,),
         captures="unhygienic"),
    Case("capture_lint-thrice", SAVED_THRICE,
         sources=(LINT.CAPTURING_MACRO,), captures="unhygienic"),
    Case("capture_lint-gensym", LINT.PROGRAM, sources=(LINT.GENSYM_MACRO,)),
    Case("exceptions_demo", example("exceptions_demo").PROGRAM,
         ("exceptions", "painting-protected")),
    Case("enum_io", example("enum_io").PROGRAM, ("enumio",)),
    Case("portable_vm-unix", "vm_target unix;\n"
         + example("portable_vm").PROGRAM, ("portvm",)),
    Case("portable_vm-windows", "vm_target windows;\n"
         + example("portable_vm").PROGRAM, ("portvm",)),
    Case("semantic_macros", example("semantic_macros").PROGRAM,
         ("semantic",)),
    Case("serialization", example("serialization").PROGRAM, ("structio",)),
    Case("state_machine", example("state_machine").PROGRAM,
         ("statemachine",)),
    # The window procedure hands its parameters (hWnd, ...) to the
    # handler bodies, and its output names HWND & co., which only the
    # package's meta source typedefs.
    Case("window_dispatch", example("window_dispatch").PROGRAM,
         ("dispatch",), captures="always", plain_c=False),
    Case("taxonomy_tour", example("taxonomy_tour").TRACE_PROGRAM,
         sources=tuple(example("taxonomy_tour").TRACE_SOURCES)),
    Case("roadmap-repro", ROADMAP_REPRO),
]

CORPUS_CASES = [
    Case(f"corpus-{path.name}", path.read_text())
    for path in sorted(CORPUS.iterdir())
]

# ---------------------------------------------------------------------------
# Nested binders: templates whose compounds rebind the same names
# ---------------------------------------------------------------------------

_BINDERS = ("tmp", "i", "acc")


def nested_binders(seed: int) -> Case:
    """A macro whose template nests compounds that rebind ``tmp``,
    ``i`` and ``acc`` and reads them from inner scopes; some blocks are
    binding compounds handed to ``dup``, which splices its argument
    twice."""
    rng = random.Random(f"nested-binders/{seed}")

    def block(depth: int, scope: tuple[str, ...]) -> str:
        names = rng.sample(_BINDERS, rng.randint(1, 2))
        scope = scope + tuple(names)
        parts = [f"int {name} = {rng.randrange(9)};" for name in names]
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if depth and roll < 0.35:
                parts.append(block(depth - 1, scope))
            elif depth and roll < 0.6:
                parts.append("dup " + block(depth - 1, scope))
            else:
                parts.append(f"f({rng.choice(scope)}, $e);")
        return "{ " + " ".join(parts) + " }"

    program = (
        "syntax stmt dup {| $$stmt::s |} { return(`{{ $s; $s; }}); }\n"
        "syntax stmt nest {| ( $$exp::e ) |}\n"
        f"{{ return(`{{{block(rng.randint(1, 3), ())}}}); }}\n"
        f"void g(int x) {{ nest (x + {seed}); }}\n"
    )
    return Case(f"nested-{seed}", program)


NESTED_CASES = [nested_binders(seed) for seed in range(24)]

#: The units the benchmark times: ``expand-distinct``'s 24 and
#: ``expand-repeat``'s 6 (``UNIT_COUNTS`` in ``perfbench/run.py``).
UNIT_CASES = [
    Case(f"{kind}-{unit.name}", unit.source, gen.PACKAGES)
    for kind, count in (("distinct", 24), ("repeat", 6))
    for unit in gen.units(kind, 1, count)
]

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

FAST_PATHS = ("compiled_patterns", "compiled_bodies", "cache")
#: The slow, simple path every fast path must agree with.
REFERENCE = Ms2Options(**dict.fromkeys(FAST_PATHS, False))
#: Each fast path alone, then all of them (the shipped default).
FAST = [REFERENCE.replace(**{path: True}) for path in FAST_PATHS] + [
    Ms2Options()
]
MODES = {"plain": {}, "hygienic": {"hygienic": True},
         "annotate": {"annotate": True}}


#: Points that agree print the same text: check each text once.
plain_c_problem = functools.cache(plain_c_problem)


def check_point(case: Case, result, options: Ms2Options) -> None:
    """The per-point checks a library result's tree makes possible."""
    if result is None:
        return
    if result.ok and case.plain_c:
        text = render_c(result.unit) if options.annotate else result.output
        assert plain_c_problem(text) is None, case.name
    captures = detect_captures(result.unit)
    if options.hygienic:
        assert bool(captures) == (case.captures == "always"), captures
    elif case.captures:
        assert captures, f"{case.name}: the capture check is not live"


def run_points(case: Case, mode: str, configs) -> list:
    """Results at each config in ``mode``, each checked and equal to
    the first config's (the reference)."""
    results = []
    for options in configs:
        options = options.replace(**MODES[mode])
        outcome, result = case.run(options)
        if results:
            assert outcome == results[0][0], (
                f"{case.name}: {mode} output diverged under {options}"
            )
        check_point(case, result, options)
        results.append((outcome, result))
    return [result for _, result in results]


def check_alpha(case: Case, plain, hygienic) -> None:
    """Hygienic output means what unhygienic output means, when the
    latter captures nothing."""
    if plain is None or hygienic is None or detect_captures(plain.unit):
        return
    assert alpha_canonical(hygienic.unit) == alpha_canonical(plain.unit), (
        f"{case.name}: hygiene changed which binder a reference reads"
    )


@pytest.mark.parametrize(
    "case", CASES + CORPUS_CASES + NESTED_CASES, ids=lambda c: c.name
)
def test_every_fast_path_and_mode(case):
    """Every fast path, alone and together, against the reference in
    each mode; hygienic against plain at each config."""
    points = {
        mode: run_points(case, mode, [REFERENCE, *FAST]) for mode in MODES
    }
    for plain, hygienic in zip(points["plain"], points["hygienic"]):
        check_alpha(case, plain, hygienic)


@pytest.mark.parametrize("case", UNIT_CASES, ids=lambda c: c.name)
def test_perfbench_units(case):
    """The benchmark's units are large, so they take a thinner slice:
    the shipped default against the reference, plain and hygienic."""
    plain = run_points(case, "plain", [REFERENCE, Ms2Options()])
    hygienic = run_points(case, "hygienic", [REFERENCE, Ms2Options()])
    check_alpha(case, plain[-1], hygienic[-1])


def test_inputs_cover_every_package_and_example():
    """A new package module or examples/ script must join the matrix."""
    modules = {
        p.stem
        for p in (REPO / "src" / "repro" / "packages").glob("*.py")
        if p.stem != "__init__"
    }
    named = {name.split("-")[0] for case in CASES for name in case.packages}
    assert modules <= named
    with_program = {
        p.stem for p in EXAMPLES.glob("*.py") if "PROGRAM = " in p.read_text()
    }
    assert with_program <= {case.name.split("-")[0] for case in CASES}


def test_shipped_bodies_compile_without_fallback():
    """Every shipped macro body stays on the compiled path, unless the
    ``MS2_DISABLE_BODY_COMPILE`` kill switch is set."""
    compiled = fallbacks = 0
    for case in CASES:
        _, result = case.run(Ms2Options(cache=False))
        compiled += result.stats.bodies_compiled
        fallbacks += result.stats.compile_fallbacks
    assert (compiled > 0) is not codegen._DISABLED
    assert fallbacks == 0


# ---------------------------------------------------------------------------
# Budgets, the depth limit, fuzz mutants
# ---------------------------------------------------------------------------

#: ``outer`` expands ``twice``: the third ``outer`` is a cache hit,
#: charged the budget its fresh expansion used.
BUDGET = Case(
    "budget",
    "int a = outer(); int b = outer(); int c = outer();",
    sources=(
        "syntax exp twice {| ( $$exp::e ) |} { return(`(($e) * 2)); }\n"
        "syntax exp outer {| ( ) |} { return(`(twice(1) + 1)); }\n",
    ),
)
BUDGETS = (
    [{"max_expansions": n} for n in range(8)]
    + [{"max_output_nodes": n} for n in (0, 5, 12, 15, 20, 25, 40, 45)]
    + [{"max_expansions": 5, "max_output_nodes": n} for n in (25, 45)]
)


#: ``outer`` first expands at the top, then 199 frames deep, where its
#: nested ``twice`` passes the depth limit.  Callees are defined first:
#: a template may only invoke macros that already exist.
_CALLEES = [f"m{i + 1}" for i in range(MAX_EXPANSION_DEPTH - 2)] + ["outer"]
DEPTH = Case("depth", "int a = outer(); int b = m0();", sources=(
    BUDGET.sources[0] + "".join(
        f"syntax exp m{i} {{| ( ) |}} {{ return(`({callee}())); }}\n"
        for i, callee in reversed(list(enumerate(_CALLEES)))
    ),
))


@pytest.mark.parametrize("recover", [False, True])
def test_budgets_and_depth_limit(recover):
    """A replay charges the budget and the depth limit with the work
    its fresh expansion did, so every fast path stops where the
    reference stops."""
    for budget in BUDGETS:
        run_points(BUDGET, "plain", [
            options.replace(recover=recover, **budget)
            for options in (REFERENCE, *FAST)
        ])
    run_points(DEPTH, "plain", [
        options.replace(recover=recover) for options in (REFERENCE, *FAST)
    ])
    outcome, _ = DEPTH.run(REFERENCE.replace(recover=recover))
    assert "exceeded depth" in str(outcome)
    # Hits still fire within budget: two fresh ``outer`` expansions
    # (the second admits it), then two hits, each charged 2: 8 in all.
    hits = Case(BUDGET.name, BUDGET.program + " int d = outer();",
                sources=BUDGET.sources)
    _, result = hits.run(Ms2Options(recover=recover, max_expansions=8))
    assert result.stats.cache_hits == 2


FUZZ_MUTANTS = 60


@pytest.mark.parametrize("recover", [False, True], ids=["failfast", "recover"])
def test_fuzz_mutants(recover):
    """Malformed input fails, or recovers, the same way on every fast
    path."""
    corpus = [
        Case(name, program,
             tuple(m.__name__.rsplit(".", 1)[1] for m in loaders
                   if not isinstance(m, str)),
             tuple(m for m in loaders if isinstance(m, str)),
             plain_c=name != "window_dispatch")
        for name, program, loaders in load_corpus()
    ]
    mutator = Mutator(0xC0FFEE ^ 0xB0D1)
    for i in range(FUZZ_MUTANTS):
        base = corpus[i % len(corpus)]
        mutant, op = mutator.mutate(base.program)
        case = Case(f"{base.name}-{op}-{i}", mutant, base.packages,
                    base.sources, plain_c=base.plain_c)
        run_points(case, "plain", [
            REFERENCE.replace(recover=recover), Ms2Options(recover=recover)
        ])


# ---------------------------------------------------------------------------
# Transports and build replay
# ---------------------------------------------------------------------------

#: The preamble every server in the matrix serves to requests that
#: name no packages of their own.
PREAMBLE = (("unroll.ms2", (CORPUS / "unroll.ms2").read_text()),)
PREAMBLE_PROGRAM = "void f(void) { unroll (2) { g(); } }"


@pytest.fixture(scope="module")
def remotes(tmp_path_factory):
    """``{transport: address}``: a daemon (also the builds' remote
    cache), its HTTP front, and a 2-shard fleet on NDJSON and HTTP."""
    tmp = tmp_path_factory.mktemp("remotes")
    daemon = ServerHandle(
        tmp / "ms2.sock", cache_dir=tmp / "authority", metrics_port=0,
        package_sources=PREAMBLE,
    ).start()
    addresses = {
        "daemon": f"unix://{daemon.socket_path}",
        "http": f"http://{daemon.server.sidecar.address}",
    }
    fleet = None
    if hasattr(socket, "SO_REUSEPORT"):
        fleet = FleetHandle(ServeConfig(
            port=0, shards=2, metrics_port=0, package_sources=PREAMBLE
        )).start()
        addresses["fleet"] = fleet.address
        addresses["fleet-http"] = fleet.gateway_url
    yield addresses
    daemon.stop()
    if fleet is not None:
        fleet.stop()


#: Options rotate over the inputs, so each transport sees every one.
VARIANTS = [
    Ms2Options(), Ms2Options(hygienic=True), Ms2Options(annotate=True),
    REFERENCE, Ms2Options(recover=True, max_expansions=2),
]
TRANSPORT_POINTS = [
    (case, VARIANTS[i % len(VARIANTS)])
    for i, case in enumerate(CASES + CORPUS_CASES)
] + [
    (BUDGET, Ms2Options(recover=True, **budget))
    for budget in ({"max_expansions": 0}, {"max_output_nodes": 0},
                   {"max_output_nodes": 15})
]


@pytest.mark.parametrize(
    "transport", ["daemon", "http", "fleet", "fleet-http"]
)
def test_transports(remotes, transport):
    """Every transport returns the library's bytes and diagnostics, to
    a cold worker and a warm one alike."""
    if transport not in remotes:
        pytest.skip("sharded serving needs SO_REUSEPORT")
    with Ms2Client(remotes[transport]) as client:
        for case, options in TRANSPORT_POINTS:
            local, result = case.run(options)
            check_point(case, result, options)
            for _ in ("cold", "warm"):
                assert case.run(options, client)[0] == local, case.name
        # A request that names no packages gets the server's preamble.
        remote = client.expand(PREAMBLE_PROGRAM, "p.c")
    local = expand(PREAMBLE_PROGRAM, "p.c", package_sources=PREAMBLE)
    assert remote.output == local.output


def build_outcomes(report) -> list:
    return [
        (r.output, r.diagnostics) if r.status == "ok"
        else ("raised", r.error_type, r.error)
        for r in report.results
    ]


@pytest.mark.parametrize("options", [
    Ms2Options(), Ms2Options(hygienic=True, annotate=True, recover=True),
], ids=["default", "hygienic-annotate-recover"])
def test_build_replay(remotes, tmp_path, options):
    """Cold, local-warm and remote-warm builds give the library's
    bytes and diagnostics; the warm builds replay every file."""
    for cases, packages in [
        (CORPUS_CASES + NESTED_CASES, ()), (UNIT_CASES[:6], gen.PACKAGES)
    ]:
        expected = []
        for case in cases:
            outcome, result = case.run(options)
            check_point(case, result, options)
            expected.append(outcome)
        sources = [(f"{case.name}.c", case.program) for case in cases]
        for build, local_dir in [
            ("cold", "a"), ("local-warm", "a"), ("remote-warm", "b")
        ]:
            config = CacheConfig(
                local_dir=str(tmp_path / local_dir),
                remote=remotes["daemon"], write_behind=0,
            )
            with BuildSession(
                options, package_names=packages, cache=config
            ) as session:
                report = session.build_sources(sources)
            assert build_outcomes(report) == expected, build
            replayed = {"cold": 0, "local-warm": len(cases),
                        "remote-warm": len(cases)}[build]
            assert report.files_from_cache == replayed, build
            assert report.cache["tiers"]["remote"]["hits"] == (
                len(cases) if build == "remote-warm" else 0
            ), build
