"""Command-line interface: the macro processor as a C preprocessor.

Usage (also via ``python -m repro``)::

    python -m repro expand prog.c               # expand to stdout
    python -m repro expand -p exceptions prog.c # preload a package
    python -m repro expand --hygienic prog.c
    python -m repro expand --profile --annotate prog.c
    python -m repro build srcdir/ -j 4          # batch build w/ cache
    python -m repro build a.c b.c --report json
    python -m repro trace -p loops prog.c       # expansion span tree
    python -m repro trace examples/quickstart.py
    python -m repro macros -p exceptions        # list macro keywords
    python -m repro figures                     # print Figures 2 and 3

``expand`` reads the named files in order (macro packages first, the
program last) and writes the expanded C of the *last* file to stdout,
mirroring the paper's model of meta-program files feeding program
files.  ``build`` expands *every* named file (or every ``.c``/``.ms2``
under a named directory) as an independent translation unit, in
parallel, against a persistent content-hash cache — see
:mod:`repro.driver`.

Every subcommand funnels its flags through one
:func:`options_from_args`, so the CLI's defaults are, by construction,
the :class:`~repro.options.Ms2Options` defaults the library uses.

Module-level imports here are the ones every subcommand's argument
parser needs (option and config defaults, package names).  The engine,
the driver, the daemon, the client and the fault injector load inside
the subcommands and branches that run them, so a ``repro expand
--server`` process never loads the AST modules at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.driver.cacheconfig import DEFAULT_CACHE_DIR, CacheConfig
from repro.errors import Ms2Error
from repro.options import Ms2Options
from repro.packages import PACKAGE_NAMES
from repro.serveconfig import ServeConfig

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

#: The single source of defaults for every flag below.
_DEFAULTS = Ms2Options()


def _load_package(mp: MacroProcessor, name: str) -> None:
    from repro.packages import register_named

    try:
        register_named(mp, name)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from None


def _add_package_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "-p", "--package", action="append", default=[],
        metavar="NAME", choices=PACKAGE_NAMES,
        help=f"preload a standard package ({', '.join(PACKAGE_NAMES)})",
    )


def _add_fault_flags(cmd: argparse.ArgumentParser) -> None:
    """Chaos-testing flags shared by expand/build/serve."""
    cmd.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="arm a deterministic fault site for this run "
        "(site[@match]:prob:kind[:after_n[:max_fires]]; repeatable; "
        "see docs/ROBUSTNESS.md)",
    )
    cmd.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed for the fault-injection RNG (default: random; the "
        "chosen seed is printed so a chaos run can be replayed)",
    )


def _arm_faults(args: argparse.Namespace) -> None:
    """Arm ``--inject-fault`` specs (and export them to the
    environment so spawned worker processes inherit the plan)."""
    specs = getattr(args, "inject_fault", [])
    if not specs:
        return
    from repro import faults

    try:
        parsed = [faults.parse_spec(spec) for spec in specs]
    except ValueError as exc:
        raise SystemExit(f"--inject-fault: {exc}") from None
    plan = faults.arm(*parsed, seed=getattr(args, "fault_seed", None))
    faults.export_to_env(plan)
    print(
        f"fault injection armed: {plan.describe()}",
        file=sys.stderr,
        flush=True,
    )


def _add_option_flags(cmd: argparse.ArgumentParser) -> None:
    """The pipeline flags shared by ``expand`` and ``build`` — one
    per :class:`Ms2Options` field, defaulted from the dataclass."""
    cmd.add_argument(
        "--hygienic", action="store_true", default=_DEFAULTS.hygienic,
        help="rename template-declared locals automatically",
    )
    cmd.add_argument(
        "--compiled-patterns", action="store_true",
        default=_DEFAULTS.compiled_patterns,
        help="use compiled per-macro invocation parse routines "
        "(the default; see --no-compiled-patterns)",
    )
    cmd.add_argument(
        "--no-compiled-patterns", dest="compiled_patterns",
        action="store_false",
        help="parse invocations with the interpreted pattern engine",
    )
    cmd.add_argument(
        "--compiled-bodies", action="store_true",
        default=_DEFAULTS.compiled_bodies,
        help="compile macro bodies/templates to Python "
        "(the default; see --no-compiled-bodies)",
    )
    cmd.add_argument(
        "--no-compiled-bodies", dest="compiled_bodies",
        action="store_false",
        help="run every macro body through the meta-interpreter",
    )
    cmd.add_argument(
        "--no-cache", dest="cache", action="store_false",
        default=_DEFAULTS.cache,
        help="disable the expansion cache (re-run every meta-program)",
    )
    cmd.add_argument(
        "--annotate", action="store_true", default=_DEFAULTS.annotate,
        help="mark macro-generated code with provenance comments and "
        "#line directives",
    )
    cmd.add_argument(
        "--keep-meta", action="store_true", default=_DEFAULTS.keep_meta,
        help="keep syntax/metadcl items in the output",
    )
    cmd.add_argument(
        "--recover", action="store_true", default=_DEFAULTS.recover,
        help="keep going after errors: report every diagnostic "
        "(stderr), emit poisoned /* <error: ...> */ comments for the "
        "failed regions, exit 1 if any errors were found",
    )
    cmd.add_argument(
        "--max-errors", type=int, default=_DEFAULTS.max_errors,
        metavar="N",
        help="stop recovering after N errors (with --recover; "
        f"default {_DEFAULTS.max_errors})",
    )
    cmd.add_argument(
        "--max-expansions", type=int, default=_DEFAULTS.max_expansions,
        metavar="N",
        help="budget: abort after N macro expansions",
    )
    cmd.add_argument(
        "--max-output-nodes", type=int,
        default=_DEFAULTS.max_output_nodes, metavar="N",
        help="budget: abort after macros have produced N AST nodes",
    )
    cmd.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="budget: abort expansion after MS milliseconds of "
        "wall-clock time",
    )


def _add_profile_flag(cmd: argparse.ArgumentParser, where: str) -> None:
    cmd.add_argument(
        "--profile", action="store_true",
        help="trace the expansion and print per-macro calls, cache "
        f"hits, inclusive and self milliseconds to {where}",
    )


def options_from_args(args: argparse.Namespace) -> Ms2Options:
    """The one place CLI flags become pipeline configuration.  Flags
    a subcommand doesn't expose fall back to the shared
    :class:`Ms2Options` defaults, so ``repro expand``, ``repro
    build``, ``repro trace`` and the library API cannot disagree."""
    deadline_ms = getattr(args, "deadline_ms", None)
    return Ms2Options(
        hygienic=getattr(args, "hygienic", _DEFAULTS.hygienic),
        keep_meta=getattr(args, "keep_meta", _DEFAULTS.keep_meta),
        annotate=getattr(args, "annotate", _DEFAULTS.annotate),
        compiled_patterns=getattr(
            args, "compiled_patterns", _DEFAULTS.compiled_patterns
        ),
        compiled_bodies=getattr(
            args, "compiled_bodies", _DEFAULTS.compiled_bodies
        ),
        cache=getattr(args, "cache", _DEFAULTS.cache),
        recover=getattr(args, "recover", _DEFAULTS.recover),
        max_errors=getattr(args, "max_errors", _DEFAULTS.max_errors),
        max_expansions=getattr(
            args, "max_expansions", _DEFAULTS.max_expansions
        ),
        max_output_nodes=getattr(
            args, "max_output_nodes", _DEFAULTS.max_output_nodes
        ),
        deadline_s=(
            deadline_ms / 1000.0
            if deadline_ms is not None
            else _DEFAULTS.deadline_s
        ),
        trace=getattr(args, "profile", _DEFAULTS.trace),
    )


def build_arg_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MS2 programmable syntax macros for C "
        "(Weise & Crew, PLDI 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser(
        "expand", help="expand macros in C source files"
    )
    expand.add_argument(
        "files", nargs="+", type=Path,
        help="input files; earlier files act as macro packages, the "
        "last file's expansion is printed",
    )
    _add_package_flag(expand)
    _add_option_flags(expand)
    _add_profile_flag(expand, "stderr")
    expand.add_argument(
        "--stats", action="store_true",
        help="print pipeline fast-path counters to stderr afterwards",
    )
    expand.add_argument(
        "--stats-json", action="store_true",
        help="print pipeline counters as JSON to stderr afterwards",
    )
    expand.add_argument(
        "--server", metavar="ADDR", default=None,
        help="expand on a running 'repro serve' daemon instead of "
        "in-process (ADDR: unix:///path/sock, tcp://HOST:PORT, "
        "http://HOST:PORT for the HTTP gateway, or the bare forms "
        "socket path, HOST:PORT, :PORT)",
    )
    expand.add_argument(
        "--fallback", choices=("local", "fail"), default="fail",
        help="with --server: when the daemon stays unreachable after "
        "retries, degrade to in-process expansion ('local') or exit "
        "with an error ('fail', the default)",
    )
    _add_fault_flags(expand)

    build = sub.add_parser(
        "build",
        help="batch-expand many translation units in parallel, with "
        "a persistent cross-run cache",
    )
    build.add_argument(
        "files", nargs="+", type=Path,
        help="translation units and/or directories (every *.c/*.ms2 "
        "below a directory is built)",
    )
    _add_package_flag(build)
    build.add_argument(
        "--package-file", action="append", default=[], type=Path,
        metavar="PATH",
        help="macro-package source file loaded into every worker "
        "before building (repeatable)",
    )
    _add_option_flags(build)
    build.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: sequential, in-process)",
    )
    # The single source of cache-flag defaults: the frozen CacheConfig
    # the library itself builds with (same pattern as serve below).
    cache_defaults = CacheConfig()
    build.add_argument(
        "--cache-dir", type=Path,
        default=Path(cache_defaults.local_dir or DEFAULT_CACHE_DIR),
        metavar="DIR",
        help=f"persistent snapshot cache root (default "
        f"{cache_defaults.local_dir})",
    )
    build.add_argument(
        "--no-disk-cache", action="store_true",
        help="disable the persistent cache entirely",
    )
    build.add_argument(
        "--remote-cache", metavar="ADDRESS", default=cache_defaults.remote,
        help="share snapshots with a 'repro serve --cache-dir' daemon "
        "at ADDRESS (unix:///path, tcp://host:port or http://host:port); "
        "reads fall through local->remote, stores publish both tiers",
    )
    build.add_argument(
        "--write-behind", type=int,
        default=cache_defaults.write_behind, metavar="N",
        help="queue up to N remote stores on a background uploader "
        "instead of blocking the build (0 = publish synchronously; "
        f"default {cache_defaults.write_behind})",
    )
    build.add_argument(
        "--remote-timeout-s", type=float,
        default=cache_defaults.remote_timeout_s, metavar="S",
        help="per-operation remote-cache budget; slower remote answers "
        "count as misses and the build expands locally "
        f"(default {cache_defaults.remote_timeout_s})",
    )
    build.add_argument(
        "--no-incremental", action="store_true",
        help="re-expand every file even when its snapshot is fresh "
        "(results are still stored for future runs)",
    )
    build.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-run a file whose worker process died up to N times "
        "before quarantining it as 'poisoned' (default 2)",
    )
    build.add_argument(
        "--report", choices=("text", "json"), default="text",
        help="batch report format on stdout (default text)",
    )
    _add_fault_flags(build)
    build.add_argument(
        "-o", "--out-dir", type=Path, default=None, metavar="DIR",
        help="write each file's expanded C to DIR/<stem>.c",
    )

    trace = sub.add_parser(
        "trace",
        help="expand, then render the nested macro-expansion span tree",
    )
    trace.add_argument(
        "files", nargs="*", type=Path,
        help="input files as for 'expand'; alternatively a single "
        "example script (*.py) exposing PROGRAM/TRACE_PROGRAM",
    )
    _add_package_flag(trace)
    trace.add_argument(
        "--no-cache", dest="cache", action="store_false",
        default=_DEFAULTS.cache,
        help="disable the expansion cache (every span shows a miss)",
    )
    _add_profile_flag(trace, "stdout, after the span tree")
    trace.add_argument(
        "--jsonl", type=Path, metavar="PATH",
        help="append completed spans to PATH as JSON lines",
    )
    trace.add_argument(
        "--events", type=Path, metavar="PATH",
        help="instead of expanding, read a daemon JSONL event log "
        "and print its records (see 'repro serve --event-log')",
    )
    trace.add_argument(
        "--request-id", metavar="ID", default=None,
        help="with --events: only records for this correlation ID "
        "(one request followed client -> daemon -> spans)",
    )

    # The single source of serve-flag defaults: the frozen ServeConfig
    # the library itself runs on (same pattern as _DEFAULTS above).
    serve_defaults = ServeConfig()

    serve = sub.add_parser(
        "serve",
        help="run a long-lived expansion daemon with warm workers "
        "(see docs/SERVER.md)",
    )
    _add_package_flag(serve)
    serve.add_argument(
        "--package-file", action="append", default=[], type=Path,
        metavar="PATH",
        help="macro-package source file loaded into every worker "
        "(repeatable)",
    )
    _add_option_flags(serve)
    listen = serve.add_mutually_exclusive_group(required=True)
    listen.add_argument(
        "--socket", type=Path, metavar="PATH",
        help="listen on a Unix domain socket at PATH",
    )
    listen.add_argument(
        "--port", type=int, metavar="N",
        help="listen on TCP port N (0 = ephemeral; the bound port is "
        "announced on stderr)",
    )
    serve.add_argument(
        "--host", default=serve_defaults.host, metavar="HOST",
        help=f"TCP bind address (default {serve_defaults.host})",
    )
    serve.add_argument(
        "--shards", type=int, default=serve_defaults.shards, metavar="N",
        help="pre-fork N server processes sharing the TCP port via "
        "SO_REUSEPORT, supervised and restarted on crash (requires "
        f"--port; default {serve_defaults.shards})",
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=Path(DEFAULT_CACHE_DIR),
        metavar="DIR",
        help="persistent snapshot cache shared with 'repro build' "
        f"(default {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--no-disk-cache", action="store_true",
        help="disable the persistent cache for expand_file requests",
    )
    serve.add_argument(
        "--max-inflight", type=int,
        default=serve_defaults.max_inflight, metavar="N",
        help="concurrent expansions per shard "
        f"(default {serve_defaults.max_inflight})",
    )
    serve.add_argument(
        "--queue-limit", type=int,
        default=serve_defaults.queue_limit, metavar="N",
        help="admitted requests waiting beyond --max-inflight before "
        f"the server answers 'busy' "
        f"(default {serve_defaults.queue_limit})",
    )
    serve.add_argument(
        "--request-deadline-ms", type=float,
        default=serve_defaults.request_deadline_ms, metavar="MS",
        help="server-side wall-clock budget applied to requests whose "
        "options set no deadline of their own",
    )
    serve.add_argument(
        "--drain-s", type=float, default=serve_defaults.drain_s,
        metavar="S",
        help="seconds SIGTERM waits for in-flight requests "
        f"(default {serve_defaults.drain_s:g})",
    )
    serve.add_argument(
        "--max-frame-bytes", type=int,
        default=serve_defaults.max_frame_bytes, metavar="N",
        help="reject request frames larger than N bytes "
        f"(default {serve_defaults.max_frame_bytes})",
    )
    serve.add_argument(
        "--metrics-port", type=int,
        default=serve_defaults.metrics_port, metavar="N",
        help="serve /metrics, /healthz, /statusz and the POST "
        "/v1/expand HTTP gateway on port N (0 = ephemeral; with "
        "--shards this is the fleet gateway; see "
        "docs/OBSERVABILITY.md)",
    )
    serve.add_argument(
        "--metrics-host", default=serve_defaults.metrics_host,
        metavar="HOST",
        help="bind address for --metrics-port "
        f"(default {serve_defaults.metrics_host})",
    )
    serve.add_argument(
        "--event-log", type=Path, default=None, metavar="PATH",
        help="append a structured JSONL event log (request/response/"
        "span records keyed by request ID) to PATH (each shard "
        "appends .shard-N)",
    )
    _add_fault_flags(serve)

    top = sub.add_parser(
        "top",
        help="live dashboard for a running daemon (polls its stats op)",
    )
    top.add_argument(
        "address", metavar="ADDR",
        help="daemon address: unix:///path/sock, tcp://HOST:PORT, "
        "http://HOST:PORT (gateway), or the bare forms socket path, "
        "HOST:PORT, :PORT",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N polls (default: run until interrupted)",
    )

    macros = sub.add_parser("macros", help="list defined macro keywords")
    macros.add_argument(
        "files", nargs="*", type=Path, help="macro package files"
    )
    _add_package_flag(macros)

    sub.add_parser(
        "figures", help="print the paper's Figure 2 and Figure 3 tables"
    )

    check = sub.add_parser(
        "check",
        help="expand, then lint the output for undeclared identifiers "
        "and macro-introduced captures",
    )
    check.add_argument("files", nargs="+", type=Path)
    _add_package_flag(check)
    check.add_argument(
        "--extern", action="append", default=[], metavar="NAME",
        help="identifier supplied by the runtime (repeatable)",
    )
    return parser


def cmd_expand(args: argparse.Namespace) -> int:
    """``repro expand``: load packages/files, print expanded C."""
    _arm_faults(args)
    if args.server is not None:
        return _cmd_expand_via_server(args)
    return _cmd_expand_local(args)


def _cmd_expand_local(args: argparse.Namespace) -> int:
    """The in-process expansion path (also the ``--fallback local``
    degradation target, which is why it is byte-identical to the
    server path by construction — same options, same preamble)."""
    from repro.engine import MacroProcessor

    options = options_from_args(args)
    mp = MacroProcessor(options=options)
    for name in args.package:
        _load_package(mp, name)
    *packages_files, program = args.files
    for path in packages_files:
        mp.load(path.read_text(), str(path))
    result = mp.expand(program.read_text(), str(program))
    print(result.output, end="")
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    if args.stats:
        print(mp.stats.summary(), file=sys.stderr)
    if args.stats_json:
        print(json.dumps(mp.stats.to_json()), file=sys.stderr)
    if args.profile:
        from repro.trace import profile_table

        print(profile_table(result.spans), file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_expand_via_server(args: argparse.Namespace) -> int:
    """``repro expand --server ADDR``: same flags, same output, but
    the expansion runs on a warm daemon worker.  The request carries
    this invocation's options and preamble explicitly, so the result
    is byte-identical to the in-process path regardless of what the
    daemon was started with.

    With ``--fallback local``, a daemon that stays unreachable after
    the client's retry budget degrades to :func:`_cmd_expand_local`
    instead of failing — same options, same preamble, so the output
    is the same bytes the daemon would have produced."""
    from repro.client import Ms2Client, count_fallback
    from repro.stats import PipelineStats

    options = options_from_args(args)
    *package_files, program = args.files
    try:
        with Ms2Client(args.server) as client:
            result = client.expand(
                program.read_text(),
                str(program),
                options=options,
                packages=list(args.package),
                package_sources=[
                    (str(path), path.read_text())
                    for path in package_files
                ],
            )
    except (Ms2Error, OSError) as exc:
        if getattr(args, "fallback", "fail") != "local":
            raise
        count_fallback()
        print(
            f"repro expand: daemon at {args.server} unavailable "
            f"({exc}); falling back to in-process expansion",
            file=sys.stderr,
            flush=True,
        )
        return _cmd_expand_local(args)
    print(result.output, end="")
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    stats = result.stats if result.stats is not None else PipelineStats()
    if args.stats:
        print(stats.summary(), file=sys.stderr)
    if args.stats_json:
        print(json.dumps(stats.to_json()), file=sys.stderr)
    if args.profile:
        from repro.trace import profile_table

        print(profile_table(result.spans), file=sys.stderr)
    return 0 if result.ok else 1


def serve_config_from_args(args: argparse.Namespace) -> ServeConfig:
    """One :class:`~repro.serveconfig.ServeConfig` from the ``repro
    serve`` flags — the flags and the config share their defaults by
    construction (argparse defaults come from ``ServeConfig()``)."""
    fault_specs = tuple(getattr(args, "inject_fault", []))
    if fault_specs:
        from repro import faults

        try:
            for spec in fault_specs:
                faults.parse_spec(spec)  # validate before any spawn
        except ValueError as exc:
            raise SystemExit(f"--inject-fault: {exc}") from None
    return ServeConfig(
        socket=str(args.socket) if args.socket is not None else None,
        host=args.host,
        port=args.port,
        shards=args.shards,
        packages=tuple(args.package),
        package_sources=tuple(
            (str(path), path.read_text()) for path in args.package_file
        ),
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        max_frame_bytes=args.max_frame_bytes,
        request_deadline_ms=args.request_deadline_ms,
        drain_s=args.drain_s,
        cache_dir=(
            None if args.no_disk_cache else str(args.cache_dir)
        ),
        metrics_port=args.metrics_port,
        metrics_host=args.metrics_host,
        event_log=(
            str(args.event_log) if args.event_log is not None else None
        ),
        fault_specs=fault_specs,
        fault_seed=getattr(args, "fault_seed", None),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the expansion daemon (or, with
    ``--shards N``, the supervised shard fleet) until shut down."""
    # The engine first: without bytecode caches, compiling its large
    # parser modules before asyncio and the daemon are resident keeps
    # the daemon's peak RSS at what an eager ``import repro`` gave.
    import repro.engine  # noqa: F401
    from repro import server as server_mod

    config = serve_config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}") from None
    options = options_from_args(args)

    def announce(srv: "Any") -> None:
        # Duck-typed: an Ms2Server or a ShardSupervisor — both expose
        # .address and .sidecar.
        shards = getattr(getattr(srv, "config", None), "shards", 1)
        fleet = f" ({shards} shards)" if shards > 1 else ""
        print(
            f"repro serve: listening on {srv.address}{fleet}",
            file=sys.stderr,
            flush=True,
        )
        if srv.sidecar is not None:
            print(
                f"repro serve: telemetry on "
                f"http://{srv.sidecar.address}/metrics "
                f"(gateway: POST /v1/expand)",
                file=sys.stderr,
                flush=True,
            )

    server_mod.serve(options, config, ready=announce)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: poll a daemon's stats op and redraw a compact
    dashboard (rates come from deltas between polls)."""
    from repro.top import run_top

    return run_top(
        args.address,
        interval=args.interval,
        iterations=args.iterations,
    )


def cmd_build(args: argparse.Namespace) -> int:
    """``repro build``: parallel batch expansion with the persistent
    cache (see :mod:`repro.driver`)."""
    from repro.driver import BuildSession, write_outputs

    _arm_faults(args)
    options = options_from_args(args)
    cache_config = CacheConfig(
        local_dir=None if args.no_disk_cache else str(args.cache_dir),
        remote=args.remote_cache,
        write_behind=args.write_behind,
        remote_timeout_s=args.remote_timeout_s,
    )
    try:
        cache_config.validate()
    except ValueError as exc:
        raise SystemExit(f"repro build: {exc}") from None
    session = BuildSession(
        options,
        package_names=args.package,
        package_sources=[
            (str(path), path.read_text()) for path in args.package_file
        ],
        jobs=args.jobs,
        cache=cache_config,
        incremental=not args.no_incremental,
        retries=args.retries,
    )
    try:
        report = session.build(args.files)
    finally:
        # Flush any write-behind remote publishes before reporting.
        session.close()
    if args.out_dir is not None:
        write_outputs(report, args.out_dir)
    if args.report == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    for result in report.results:
        for diagnostic in result.diagnostics:
            rendered = diagnostic.get("rendered", "")
            severity = diagnostic.get("severity", "note")
            print(
                f"{result.path}: {severity}: {rendered}",
                file=sys.stderr,
            )
        if result.error:
            print(f"{result.path}: error: {result.error}", file=sys.stderr)
    return 0 if report.ok else 1


def _trace_example(mp: MacroProcessor, path: Path) -> tuple[str, str]:
    """Load an ``examples/*.py`` script's macros into ``mp`` and
    return its traceable program source.

    The protocol: the module's ``TRACE_PROGRAM`` (or, failing that,
    ``PROGRAM``) string is the program to expand; every
    ``repro.packages.*`` module it imported is registered; every
    source string named in its ``TRACE_SOURCES`` list is loaded as a
    macro package first.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(path.stem, path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot import example {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    program = getattr(module, "TRACE_PROGRAM", None) or getattr(
        module, "PROGRAM", None
    )
    if program is None:
        raise SystemExit(
            f"{path} defines neither TRACE_PROGRAM nor PROGRAM; "
            "nothing to trace"
        )
    for value in vars(module).values():
        if (
            getattr(value, "__name__", "").startswith("repro.packages.")
            and hasattr(value, "register")
        ):
            value.register(mp)
    for source in getattr(module, "TRACE_SOURCES", []):
        mp.load(source, f"<{path.stem} macros>")
    return program, str(path)


def _cmd_trace_events(args: argparse.Namespace) -> int:
    """``repro trace --events LOG [--request-id ID]``: render a
    daemon's JSONL event log, optionally filtered down to one
    request's records (request, response and its expansion spans)."""
    matched = 0
    with args.events.open(encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                print(f"(unparseable line skipped: {line[:60]}...)",
                      file=sys.stderr)
                continue
            if (
                args.request_id is not None
                and record.get("request_id") != args.request_id
            ):
                continue
            matched += 1
            event = record.get("event", "?")
            rid = record.get("request_id", "-")
            rest = {
                key: value for key, value in record.items()
                if key not in ("ts", "event", "request_id")
            }
            detail = " ".join(
                f"{key}={value}" for key, value in rest.items()
            )
            print(f"{record.get('ts', 0):.6f} {rid} {event:9} {detail}")
    if args.request_id is not None and matched == 0:
        print(
            f"no records for request_id {args.request_id!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: expand, then print the expansion span tree."""
    if args.events is not None:
        return _cmd_trace_events(args)
    if not args.files:
        raise SystemExit("repro trace: file arguments required "
                         "(or use --events LOG)")
    from repro.engine import MacroProcessor

    jsonl_stream = args.jsonl.open("w") if args.jsonl else None
    options = options_from_args(args).replace(
        trace=True, trace_jsonl=jsonl_stream
    )
    mp = MacroProcessor(options=options)
    try:
        if len(args.files) == 1 and args.files[0].suffix == ".py":
            source, filename = _trace_example(mp, args.files[0])
        else:
            for name in args.package:
                _load_package(mp, name)
            *package_files, program = args.files
            for path in package_files:
                mp.load(path.read_text(), str(path))
            source, filename = program.read_text(), str(program)
        mp.expand(source, filename)
    except Ms2Error:
        # Show the spans recorded up to the failure, then let main()
        # format the error (with its expansion backtrace).
        print(mp.tracer.render_tree())
        raise
    finally:
        mp.tracer.close()
        if jsonl_stream is not None:
            jsonl_stream.close()
    print(mp.tracer.render_tree())
    if args.profile:
        from repro.trace import profile_table

        print(profile_table(mp.tracer.roots))
    return 0


def cmd_macros(args: argparse.Namespace) -> int:
    """``repro macros``: list macro keywords with their signatures."""
    from repro.engine import MacroProcessor

    mp = MacroProcessor()
    for name in args.package:
        _load_package(mp, name)
    for path in args.files:
        mp.load(path.read_text(), str(path))
    for name in mp.table.names():
        defn = mp.table.lookup(name)
        suffix = "[]" if defn.returns_list else ""
        print(f"syntax {defn.ret_spec}{suffix} {name} "
              f"{{| {defn.pattern} |}}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: print the Figure 2 and Figure 3 tables."""
    from repro.figures import figure2_rows, figure3_rows

    print("Figure 2 — parses of [int $y;] by the AST type of y")
    for label, sx in figure2_rows():
        print(f"  {label:20} {sx}")
    print()
    print("Figure 3 — parses of {int x; $ph1 $ph2 return(x);}")
    for a, b, sx in figure3_rows():
        print(f"  {a:5} {b:5} {sx}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: expand and lint (captures + undeclared names)."""
    from repro.analysis import detect_captures, undeclared_identifiers
    from repro.engine import MacroProcessor

    mp = MacroProcessor()
    for name in args.package:
        _load_package(mp, name)
    *package_files, program = args.files
    for path in package_files:
        mp.load(path.read_text(), str(path))
    unit = mp.expand_to_ast(program.read_text(), str(program))

    problems = 0
    for capture in detect_captures(unit):
        print(f"capture: {capture}", file=sys.stderr)
        problems += 1
    report = undeclared_identifiers(unit, externs=set(args.extern))
    for fn_name in sorted(report):
        names = ", ".join(sorted(report[fn_name]))
        print(
            f"undeclared: in {fn_name}(): {names}",
            file=sys.stderr,
        )
        problems += 1
    if problems:
        print(f"{problems} problem(s) found", file=sys.stderr)
        return 1
    print("clean: no captures, no undeclared identifiers")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "top":
            return cmd_top(args)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "macros":
            return cmd_macros(args)
        if args.command == "figures":
            return cmd_figures(args)
        if args.command == "check":
            return cmd_check(args)
    except Ms2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
