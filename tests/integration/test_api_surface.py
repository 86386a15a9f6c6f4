"""The :mod:`repro.api` compatibility surface, pinned.

``repro.api.__all__`` is the public contract: this test fails if a
name is ever removed or renamed, if an entry point loses its minimal
call shape, or if the facade drifts from the implementation objects
it re-exports.  *Adding* names is fine — the assertion is a superset
check, so the surface can grow but never shrink.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api

SRC = Path(__file__).resolve().parents[2] / "src"

#: The v1 surface.  Names may be ADDED over time; removing or
#: renaming any of these is a compatibility break.
V1_SURFACE = frozenset(
    {
        "Ms2Options",
        "ExpandResult",
        "Diagnostic",
        "MacroProcessor",
        "expand",
        "expand_file",
        "Ms2Client",
        "serve",
    }
)


def test_api_surface_never_shrinks() -> None:
    assert set(api.__all__) >= V1_SURFACE, (
        "repro.api.__all__ lost part of the v1 surface: "
        f"{sorted(V1_SURFACE - set(api.__all__))}"
    )


def test_every_exported_name_resolves() -> None:
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_facade_reexports_the_real_objects() -> None:
    from repro.client import Ms2Client
    from repro.diagnostics import Diagnostic
    from repro.driver.cacheconfig import CacheConfig
    from repro.engine import MacroProcessor
    from repro.options import ExpandResult, Ms2Options
    from repro.server import serve

    assert api.Ms2Options is Ms2Options
    assert api.ExpandResult is ExpandResult
    assert api.Diagnostic is Diagnostic
    assert api.MacroProcessor is MacroProcessor
    assert api.Ms2Client is Ms2Client
    assert api.serve is serve
    assert api.CacheConfig is CacheConfig


def test_library_import_leaves_the_daemon_unloaded() -> None:
    """``serve`` resolves on first use: importing the library pulls
    in neither the daemon nor asyncio."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.api\n"
         "print(sorted({'repro.server', 'asyncio'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_library_import_leaves_the_client_unloaded() -> None:
    """The client and its config values resolve on first use too: a
    local caller pays for neither the socket layer nor telemetry."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.api\n"
         "print(sorted({'repro.client', 'repro.telemetry', "
         "'repro.faults', 'socket'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# What each ``repro expand`` path imports
# ---------------------------------------------------------------------------

LOOPS_PROGRAM = """\
int main(void) {
    int i;
    unroll (3) { work(i); }
    for_range j = 0 to 4 { tick(j); }
    unless (done) stop();
    return 0;
}
"""


def run_cli_expand(*args: str) -> tuple[str, set[str]]:
    """``python -m repro expand ARGS`` in a fresh interpreter: its
    stdout and the names of every module it imported (read from
    ``-X importtime``, which lists each one as it first loads)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "expand",
         *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }
    assert "repro.cli" in loaded, proc.stderr
    return proc.stdout, loaded


def loaded_under(loaded: set[str], packages: tuple[str, ...]) -> list[str]:
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_local_expand_loads_no_driver_daemon_or_client(tmp_path) -> None:
    program = tmp_path / "prog.c"
    program.write_text(LOOPS_PROGRAM)
    output, loaded = run_cli_expand("-p", "loops", str(program))
    assert loaded_under(loaded, (
        "repro.driver.scheduler", "repro.driver.cachebackend",
        "repro.server", "repro.client", "repro.faults", "asyncio",
    )) == []
    assert output == api.expand_file(program, packages=["loops"]).output


def test_thin_client_loads_no_ast_modules(tmp_path) -> None:
    """``repro expand --server`` against a live daemon imports none of
    the engine, parser, macro or AST modules, and prints the library's
    bytes."""
    from tests.server.conftest import ServerHandle

    program = tmp_path / "prog.c"
    program.write_text(LOOPS_PROGRAM)
    handle = ServerHandle(tmp_path / "d.sock").start()
    try:
        output, loaded = run_cli_expand(
            "-p", "loops", "--server", str(handle.socket_path),
            str(program),
        )
    finally:
        handle.stop()
    assert loaded_under(loaded, (
        "repro.engine", "repro.parser", "repro.macros", "repro.cast",
    )) == []
    assert output == api.expand_file(program, packages=["loops"]).output


# ---------------------------------------------------------------------------
# Lazy package roots
# ---------------------------------------------------------------------------

#: Each lazy root's public names by the module that defines them.
ROOT_HOMES = {
    "repro": {
        "repro.cast.printer": ["render_c"],
        "repro.cast.sexpr": ["render_sexpr"],
        "repro.diagnostics": [
            "Diagnostic", "DiagnosticSink", "ExpansionBudget",
        ],
        "repro.engine": ["MacroProcessor", "expand_source"],
        "repro.options": ["ExpandResult", "Ms2Options"],
        "repro.provenance": ["ExpandedLocation", "ExpansionSite"],
        "repro.trace": ["ExpansionSpan", "Tracer"],
        "repro.errors": [
            "ExpansionBudgetError", "ExpansionError", "LexError",
            "MacroSyntaxError", "MacroTypeError", "MetaInterpError",
            "Ms2Error", "ParseError", "PatternLookaheadError",
            "ResourceLimitError", "SourceLocation",
        ],
    },
    "repro.driver": {
        "repro.driver.cachebackend": [
            "CacheBackend", "RemoteCacheBackend", "TieredBackend",
        ],
        "repro.driver.cacheconfig": ["CacheConfig", "DEFAULT_CACHE_DIR"],
        "repro.driver.diskcache": ["PersistentCache"],
        "repro.driver.locks": ["FileLock", "LockTimeout"],
        "repro.driver.report": ["BuildReport", "FileResult"],
        "repro.driver.scheduler": [
            "BuildSession", "resolve_inputs", "write_outputs",
        ],
    },
}


@pytest.mark.parametrize("root_name", sorted(ROOT_HOMES))
def test_lazy_root_names_are_their_home_objects(root_name) -> None:
    root = importlib.import_module(root_name)
    homes = ROOT_HOMES[root_name]
    exported = set(root.__all__) - {"__version__"}
    assert exported == {n for names in homes.values() for n in names}
    for home, names in homes.items():
        module = importlib.import_module(home)
        for name in names:
            assert getattr(root, name) is getattr(module, name), name

    namespace: dict = {}
    exec(f"from {root_name} import *", namespace)
    for name in root.__all__:
        assert namespace[name] is getattr(root, name), name
    assert set(root.__all__) <= set(dir(root))
    with pytest.raises(AttributeError):
        getattr(root, "no_such_name")


def test_package_roots_import_nothing_eagerly() -> None:
    """``import repro.driver`` (and with it ``repro``) loads neither
    the engine nor the scheduler, yet sets the recursion limit."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.driver\n"
         "print(sorted({'repro.engine', 'repro.driver.scheduler', "
         "'repro.driver.diskcache'} & set(sys.modules)))\n"
         "print(sys.getrecursionlimit() >= 20000)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


def test_expand_minimal_call_shape() -> None:
    """``expand(source)`` with nothing else must keep working."""
    result = api.expand("int x = 1;")
    assert isinstance(result, api.ExpandResult)
    assert "int x = 1;" in result.output
    assert result.ok


def test_expand_with_packages_and_options() -> None:
    result = api.expand(
        "int main() { unless (0) { return 1; } return 0; }",
        "prog.c",
        options=api.Ms2Options(trace=True),
        package_sources=[
            (
                "unless.ms2",
                "syntax stmt unless {| ( $$exp::c ) $$stmt::body |}"
                " { return(`{if (!($c)) { $body; }}); }",
            )
        ],
    )
    assert result.ok
    assert "if" in result.output
    assert result.spans, "trace=True must record spans via the facade"


def test_expand_is_hermetic_between_calls() -> None:
    """Definitions from one expand() must not leak into the next."""
    defining = """
    syntax exp leaky {| ( ) |} { return(`(42)); }
    int x = leaky();
    """
    assert api.expand(defining).ok
    later = api.expand("int x = leaky();")
    # 'leaky' is not defined here: plain C, the call survives as-is.
    assert "leaky()" in later.output


def test_expand_file_reads_from_disk(tmp_path) -> None:
    source = tmp_path / "prog.c"
    source.write_text("int y = 2;\n")
    result = api.expand_file(source)
    assert result.ok
    assert "int y = 2;" in result.output


def test_entry_points_keep_keyword_signatures() -> None:
    """The keyword-only parameters the docs promise."""
    for func in (api.expand, api.expand_file):
        params = inspect.signature(func).parameters
        for name in ("options", "packages", "package_sources"):
            assert name in params, (func.__name__, name)
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    serve_params = inspect.signature(api.serve).parameters
    for name in ("options", "config"):
        assert name in serve_params, name


def test_serve_config_surface() -> None:
    """ServeConfig is part of the v1 surface: frozen, defaulted,
    JSON round-trippable."""
    config = api.ServeConfig()
    assert config.shards == 1
    assert api.ServeConfig.from_json(config.to_json()) == config
    variant = config.replace(port=7777, shards=4)
    assert variant.validate() is variant
    # Frozen: assignment must fail.
    try:
        config.port = 1  # type: ignore[misc]
    except Exception:
        pass
    else:  # pragma: no cover
        raise AssertionError("ServeConfig must be immutable")


def test_cache_config_surface() -> None:
    """CacheConfig is part of the v1 surface: frozen, defaulted,
    JSON round-trippable."""
    config = api.CacheConfig()
    assert config.local_dir == ".ms2-cache"
    assert config.remote is None
    assert api.CacheConfig.from_json(config.to_json()) == config
    variant = config.replace(
        remote="tcp://build-host:7777", write_behind=16
    )
    assert variant.validate() is variant
    try:
        config.remote = "tcp://x:1"  # type: ignore[misc]
    except Exception:
        pass
    else:  # pragma: no cover
        raise AssertionError("CacheConfig must be immutable")
