"""Pre-forked sharded serving: N expansion daemons, one TCP port.

``repro serve --shards N`` (or :func:`repro.server.serve` with
``ServeConfig(shards=N)``) runs this module's
:class:`ShardSupervisor`: a parent process that

- reserves the listen port (binding an ``SO_REUSEPORT`` placeholder
  socket **without listening**, so ephemeral-port requests resolve to
  one number every shard can share while the placeholder never
  receives connections),
- spawns N shard processes (``python -m repro.shard``), each a full
  :class:`~repro.server.Ms2Server` binding the same port with
  ``SO_REUSEPORT`` — the kernel load-balances raw NDJSON connections
  across them,
- gives every shard a private Unix **control socket** speaking the
  same protocol, the supervisor's channel for stats/telemetry scrapes
  and routed gateway work (unaffected by kernel distribution),
- **supervises**: a shard that dies (crash, OOM, injected ``kill``
  fault) is restarted and the blip recorded in
  ``ms2_shard_restarts_total``; clients with a
  :class:`~repro.client.RetryPolicy` ride through it,
- optionally runs the :class:`FleetGateway` on ``metrics_port``: the
  fleet's HTTP face, aggregating ``/metrics`` and ``/statusz`` across
  shards via :func:`repro.telemetry.merge_snapshots` and routing
  ``POST /v1/expand`` by ``options_hash`` so one configuration's
  traffic lands on the shard keeping its warm workers.

Worker processes are plain ``subprocess`` children, not ``os.fork``:
forking a process that already runs an asyncio loop (threads, epoll
fds) is undefined behaviour, and a fresh interpreter gives each shard
an isolated GIL — the entire point of sharding.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.metrics_http import count_http_request
from repro.options import Ms2Options
from repro.serveconfig import ServeConfig

__all__ = [
    "FleetGateway",
    "ShardSupervisor",
    "fleet_stats_view",
    "run_sharded",
    "shard_for_options_hash",
]

#: Environment variable carrying one shard child's JSON bootstrap.
ENV_CONFIG = "MS2_SHARD_CONFIG"

#: Seconds a freshly-spawned shard gets to answer ``ping``.
SHARD_READY_TIMEOUT_S = 30.0

#: Backoff before restarting a dead shard (doubles per consecutive
#: death, capped).
RESTART_BACKOFF_S = 0.2
RESTART_BACKOFF_MAX_S = 5.0


def shard_for_options_hash(options_hash: str | None, shards: int) -> int:
    """The shard index a configuration's traffic should prefer.

    Stable hash-affinity: requests carrying the same ``options_hash``
    always prefer the same shard, so that shard's warm pool keeps the
    hot workers for that configuration instead of every shard paying
    its own cold build.
    """
    if shards <= 1:
        return 0
    if not options_hash:
        return 0
    try:
        return int(options_hash[:8], 16) % shards
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Fleet stats aggregation
# ---------------------------------------------------------------------------


def fleet_stats_view(
    replies: list[dict[str, Any]],
    *,
    supervisor: "ShardSupervisor | None" = None,
) -> dict[str, Any]:
    """The fleet ``stats`` payload from shard ``telemetry`` replies
    (``{"snapshot", "info"}`` each, in shard order).

    The totals are :func:`repro.server.stats_view` of
    :func:`repro.telemetry.merge_snapshots` over the supervisor's and
    every shard's snapshot — the same merge the fleet ``/metrics``
    serves, so counters sum, peaks and configured sizes take the
    maximum, and latency buckets merge.  A top-level ``"shards"``
    list keeps each shard's ``server`` section and load numbers for
    ``repro top``'s breakdown.
    """
    from repro.server import stats_view
    from repro.telemetry import merge_snapshots

    infos = [reply["info"] for reply in replies]
    server = dict(infos[0]["server"]) if infos else {}
    server.update(pid=os.getpid(), shard=None)
    snapshots = [reply["snapshot"] for reply in replies]
    metrics_address = None
    if supervisor is not None:
        snapshots.insert(0, supervisor.registry.snapshot())
        server.update(
            address=supervisor.address,
            shards=supervisor.config.shards,
            shards_alive=len(supervisor.live_shards()),
            shard_restarts=supervisor.restarts_total,
        )
        if supervisor.gateway is not None:
            metrics_address = supervisor.gateway.address
    armed = [info["faults"] for info in infos if info["faults"]["armed"]]
    payload = stats_view(
        merge_snapshots(snapshots),
        {
            "server": server,
            "faults": armed[0] if armed else {"armed": False, "seed": None},
            "cache_dir": next(
                (info["cache_dir"] for info in infos if info["cache_dir"]),
                None,
            ),
            "metrics_address": metrics_address,
        },
    )
    payload["server"]["in_flight"] = payload["in_flight"]
    payload["shards"] = []
    for reply in replies:
        shard = stats_view(reply["snapshot"], reply["info"])
        payload["shards"].append({
            **shard["server"],
            "in_flight": shard["in_flight"],
            "requests_total": sum(shard["requests"].values()),
            "uptime_s": shard["uptime_s"],
        })
    return payload


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


@dataclass
class _ShardState:
    """One shard slot: the current process plus its history."""

    index: int
    control_socket: Path
    proc: subprocess.Popen | None = None
    restarts: int = 0
    started_at: float = field(default_factory=time.monotonic)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ShardSupervisor:
    """Parent of a shard fleet: spawns, watches, restarts, fronts.

    Mirrors the :class:`~repro.server.Ms2Server` lifecycle shape —
    ``await start()``, ``install_signal_handlers()``,
    ``await serve_until_stopped()`` — so :func:`repro.server.serve`
    and the CLI treat one daemon and a fleet uniformly.  Exposes
    ``.address`` (the shared TCP address) and ``.sidecar`` (the
    :class:`FleetGateway`, when ``metrics_port`` was configured).
    """

    def __init__(
        self, options: Ms2Options | None, config: ServeConfig
    ) -> None:
        if config.shards > 1 and not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "sharded serving needs SO_REUSEPORT, which this "
                "platform does not provide"
            )
        self.options = options if options is not None else Ms2Options()
        self.config = config.validate()
        self.host = config.host
        #: The resolved shared port (ephemeral requests resolve once,
        #: in :meth:`start`, and every shard binds the same number).
        self.port: int | None = config.port
        self.shards: list[_ShardState] = []
        self.restarts_total = 0
        self.gateway: "FleetGateway | None" = None
        self.started = time.monotonic()
        self._placeholder: socket.socket | None = None
        self._control_dir: Path | None = None
        self._tasks: list[asyncio.Task] = []
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._drain_task: asyncio.Task | None = None
        self.registry = self._build_registry()

    # -- registry --------------------------------------------------------

    def _build_registry(self) -> Any:
        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        self._m_restarts = reg.counter(
            "ms2_shard_restarts_total",
            "Shard processes restarted by the supervisor",
            ("shard",),
        )
        self._m_alive = reg.gauge(
            "ms2_shards_alive",
            "Shard processes currently running",
            merge="last",
        )
        self._m_configured = reg.gauge(
            "ms2_shards_configured",
            "Shard processes the fleet is configured for",
            merge="last",
        )
        self._m_uptime = reg.gauge(
            "ms2_supervisor_uptime_seconds",
            "Seconds since the shard supervisor started",
            merge="max",
        )

        def _collect(_reg: Any) -> None:
            self._m_alive.set(len(self.live_shards()))
            self._m_configured.set(self.config.shards)
            self._m_uptime.set(round(time.monotonic() - self.started, 3))
            for state in self.shards:
                self._m_restarts.set_total(
                    state.restarts, shard=str(state.index)
                )

        reg.register_collector(_collect)
        return reg

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Reserve the port, spawn every shard, wait until each
        answers ``ping``, start supervision and the gateway."""
        self._stopped = asyncio.Event()
        self._reserve_port()
        self._control_dir = Path(tempfile.mkdtemp(prefix="ms2-shards-"))
        for index in range(self.config.shards):
            state = _ShardState(
                index=index,
                control_socket=self._control_dir / f"shard-{index}.sock",
            )
            self.shards.append(state)
            self._spawn(state)
        await asyncio.gather(
            *(self._wait_shard_ready(state) for state in self.shards)
        )
        for state in self.shards:
            self._tasks.append(
                asyncio.get_running_loop().create_task(
                    self._supervise(state)
                )
            )
        if self.config.metrics_port is not None:
            self.gateway = FleetGateway(
                self,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            await self.gateway.start()

    def _reserve_port(self) -> None:
        """Resolve an ephemeral port request to one concrete number.

        The placeholder binds with ``SO_REUSEPORT`` but **never
        listens** — a bound, non-listening socket receives no
        connections, so it safely pins the number for the fleet's
        lifetime while the kernel balances real connections across
        the shards' listening sockets.
        """
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
        )
        placeholder.bind((self.host, self.port or 0))
        self.port = placeholder.getsockname()[1]
        self._placeholder = placeholder

    def _child_payload(self, state: _ShardState) -> dict[str, Any]:
        return {
            "options": self.options.to_json(),
            "config": self.config.to_json(),
            "shard_index": state.index,
            "port": self.port,
            "control_socket": str(state.control_socket),
        }

    def _spawn(self, state: _ShardState) -> None:
        import repro

        env = dict(os.environ)
        env[ENV_CONFIG] = json.dumps(self._child_payload(state))
        pkg_root = str(Path(repro.__file__).parents[1])
        existing = env.get("PYTHONPATH", "")
        if pkg_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                pkg_root + (os.pathsep + existing if existing else "")
            )
        with contextlib.suppress(OSError):
            state.control_socket.unlink()
        state.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.shard"], env=env
        )
        state.started_at = time.monotonic()

    def _ping_shard(self, state: _ShardState, timeout: float) -> None:
        from repro.client import Ms2Client

        client = Ms2Client(str(state.control_socket))
        try:
            client.wait_ready(timeout=timeout)
        finally:
            client.close()

    async def _wait_shard_ready(
        self, state: _ShardState, timeout: float = SHARD_READY_TIMEOUT_S
    ) -> None:
        try:
            await asyncio.to_thread(self._ping_shard, state, timeout)
        except TimeoutError:
            code = (
                state.proc.poll() if state.proc is not None else None
            )
            raise RuntimeError(
                f"shard {state.index} did not become ready within "
                f"{timeout:.0f}s"
                + (f" (exited with code {code})" if code is not None else "")
            ) from None

    async def _supervise(self, state: _ShardState) -> None:
        """Restart the shard whenever its process dies (unless the
        fleet is draining)."""
        backoff = RESTART_BACKOFF_S
        while True:
            proc = state.proc
            assert proc is not None
            code = await asyncio.to_thread(proc.wait)
            if self._draining:
                return
            state.restarts += 1
            self.restarts_total += 1
            print(
                f"[repro.shard] shard {state.index} exited with code "
                f"{code}; restarting (restart #{state.restarts})",
                file=sys.stderr,
            )
            # A shard that stayed up a while earns its backoff reset.
            lifetime = time.monotonic() - state.started_at
            await asyncio.sleep(backoff)
            if self._draining:
                return
            self._spawn(state)
            with contextlib.suppress(RuntimeError):
                await self._wait_shard_ready(state)
            if lifetime > 30.0:
                backoff = RESTART_BACKOFF_S
            else:
                backoff = min(backoff * 2, RESTART_BACKOFF_MAX_S)

    # -- introspection ---------------------------------------------------

    @property
    def address(self) -> str:
        """The shared TCP listen address."""
        return f"{self.host}:{self.port}"

    @property
    def sidecar(self) -> "FleetGateway | None":
        """The fleet gateway, in the slot the single-process server
        keeps its telemetry sidecar (CLI announcements duck-type)."""
        return self.gateway

    @property
    def draining(self) -> bool:
        return self._draining

    def live_shards(self) -> list[_ShardState]:
        return [state for state in self.shards if state.alive()]

    # -- fleet-wide protocol calls (over control sockets) ---------------

    def _shard_call(
        self, state: _ShardState, frame: dict[str, Any]
    ) -> dict[str, Any]:
        """One raw protocol frame to one shard, blocking (run it in a
        thread)."""
        from repro.client import Ms2Client

        with Ms2Client(str(state.control_socket), timeout=30.0) as client:
            return client.request(dict(frame))

    async def shard_request(
        self, frame: dict[str, Any], preferred: int | None = None
    ) -> dict[str, Any]:
        """Route one frame to a live shard: the preferred
        (warm-affinity) shard first, any other live shard when it is
        down, an ``unavailable`` error frame (retryable) when none
        answer."""
        candidates = self.live_shards()
        if preferred is not None:
            candidates.sort(
                key=lambda state: 0 if state.index == preferred else 1
            )
        for state in candidates:
            try:
                return await asyncio.to_thread(
                    self._shard_call, state, frame
                )
            except (ConnectionError, OSError):
                continue
        return {
            "id": frame.get("id"),
            "ok": False,
            "error": {
                "code": "unavailable",
                "message": "no shard reachable (fleet restarting?)",
                "retry_after_ms": 200,
            },
        }

    async def _shard_telemetry(self) -> list[dict[str, Any]]:
        """Every reachable shard's ``telemetry`` reply, shard order."""
        results = await asyncio.gather(
            *(
                self.shard_request(
                    {"op": "telemetry"}, preferred=state.index
                )
                for state in self.live_shards()
            ),
            return_exceptions=True,
        )
        return [
            r["result"]
            for r in results
            if isinstance(r, dict)
            and r.get("ok")
            and (r.get("result") or {}).get("snapshot")
        ]

    async def fleet_stats(self) -> dict[str, Any]:
        """The fleet ``stats`` payload (see :func:`fleet_stats_view`)."""
        return fleet_stats_view(
            await self._shard_telemetry(), supervisor=self
        )

    async def fleet_snapshot(self) -> dict[str, Any]:
        """Every shard's registry snapshot merged with the
        supervisor's own (restart counters, fleet gauges)."""
        from repro.telemetry import merge_snapshots

        replies = await self._shard_telemetry()
        return merge_snapshots(
            [self.registry.snapshot()]
            + [reply["snapshot"] for reply in replies]
        )

    def route_for_frame(self, frame: dict[str, Any]) -> int:
        """The warm-affinity shard index for one work frame."""
        options = frame.get("options")
        try:
            if options is not None:
                options_hash = Ms2Options.from_json(
                    options
                ).options_hash()
            else:
                options_hash = self.options.options_hash()
        except Exception:
            return 0
        return shard_for_options_hash(options_hash, self.config.shards)

    # -- shutdown --------------------------------------------------------

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        if self._draining:
            return
        self._draining = True
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain()
        )

    async def _drain(self) -> None:
        # SIGTERM every shard: each drains its own in-flight work
        # (the per-shard drain_s budget), then exits.
        for state in self.shards:
            if state.alive():
                assert state.proc is not None
                with contextlib.suppress(OSError):
                    state.proc.terminate()
        deadline = self.config.drain_s + 5.0

        def _reap(state: _ShardState) -> None:
            if state.proc is None:
                return
            try:
                state.proc.wait(timeout=deadline)
            except subprocess.TimeoutExpired:
                state.proc.kill()
                state.proc.wait()

        await asyncio.gather(
            *(asyncio.to_thread(_reap, state) for state in self.shards)
        )
        for task in self._tasks:
            task.cancel()
        if self.gateway is not None:
            await self.gateway.aclose()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._control_dir is not None:
            shutil.rmtree(self._control_dir, ignore_errors=True)
        assert self._stopped is not None
        self._stopped.set()

    async def serve_until_stopped(self) -> None:
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def aclose(self) -> None:
        """Drain and stop programmatically (tests, embedding)."""
        self.request_shutdown()
        if self._drain_task is not None:
            await self._drain_task


# ---------------------------------------------------------------------------
# The fleet gateway
# ---------------------------------------------------------------------------


class FleetGateway:
    """The HTTP face of a shard fleet, on the ``metrics_port``.

    Same four routes as the single-process
    :class:`~repro.metrics_http.TelemetrySidecar` — ``/metrics``,
    ``/healthz``, ``/statusz``, ``POST /v1/expand`` — but fleet-wide:
    telemetry reads aggregate every shard, and gateway frames route
    to the warm-affinity shard (falling back to any live shard, so a
    restarting shard never surfaces as a client failure).
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self._http: asyncio.AbstractServer | None = None
        self.bound_port: int | None = None

    async def start(self) -> None:
        self._http = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._http.sockets or []
        if sockets:
            self.bound_port = sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
            self._http = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.bound_port or self.port}"

    # ------------------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        from repro.metrics_http import (
            read_http_request,
            write_http_response,
        )

        try:
            parsed = await read_http_request(
                reader, self.supervisor.config.max_frame_bytes
            )
            status, content_type, body, extra = await self._respond(parsed)
            await write_http_response(
                writer, status, content_type, body, extra
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _respond(
        self,
        parsed: tuple[str, str, dict[str, str], bytes] | None,
    ) -> tuple[int, str, bytes, dict[str, str]]:
        plain = "text/plain; charset=utf-8"
        if parsed is None:
            return 400, plain, b"bad request\n", {}
        method, path, headers, body = parsed
        count_http_request(self.supervisor.registry, path)
        if method == "POST":
            if path != "/v1/expand":
                return 405, plain, b"method not allowed\n", {}
            return await self._gateway(headers, body)
        if method != "GET":
            return 405, plain, b"method not allowed\n", {}
        if path == "/metrics":
            return await self._metrics()
        if path == "/healthz":
            return self._healthz()
        if path == "/statusz":
            return await self._statusz()
        return (
            404,
            plain,
            b"not found; try /metrics /healthz /statusz "
            b"or POST /v1/expand\n",
            {},
        )

    async def _metrics(self) -> tuple[int, str, bytes, dict[str, str]]:
        from repro.telemetry import render_snapshot

        merged = await self.supervisor.fleet_snapshot()
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_snapshot(merged).encode("utf-8"),
            {},
        )

    def _healthz(self) -> tuple[int, str, bytes, dict[str, str]]:
        plain = "text/plain; charset=utf-8"
        if self.supervisor.draining:
            return 503, plain, b"draining\n", {}
        if not self.supervisor.live_shards():
            return 503, plain, b"no live shards\n", {}
        return 200, plain, b"ok\n", {}

    async def _statusz(self) -> tuple[int, str, bytes, dict[str, str]]:
        payload = await self.supervisor.fleet_stats()
        return (
            200,
            "application/json; charset=utf-8",
            json.dumps(payload, indent=2).encode("utf-8"),
            {},
        )

    async def _gateway(
        self, headers: dict[str, str], body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        from repro.metrics_http import (
            gateway_parse_body,
            gateway_response,
        )

        parsed = gateway_parse_body(headers, body)
        if parsed is None:
            frame = {
                "id": None,
                "ok": False,
                "error": {
                    "code": "bad_request",
                    "message": "body must be one JSON frame",
                },
            }
            return gateway_response(frame)
        if "too_large" in parsed:
            frame = {
                "id": None,
                "ok": False,
                "error": {
                    "code": "frame_too_large",
                    "message": (
                        f"body of {parsed['too_large']} bytes exceeds "
                        "max_frame_bytes"
                    ),
                },
            }
            return gateway_response(frame)
        frame = parsed["frame"]
        response = await self._dispatch(frame)
        return gateway_response(response)

    async def _dispatch(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Fleet semantics for one protocol frame: read-only fleet
        ops answer here, work routes to a shard."""
        supervisor = self.supervisor
        op = frame.get("op")
        rid = frame.get("id")
        request_id = frame.get("request_id")

        def _ok(result: dict[str, Any]) -> dict[str, Any]:
            out: dict[str, Any] = {"id": rid, "ok": True, "result": result}
            if request_id:
                out["request_id"] = request_id
            return out

        if op == "ping":
            return _ok(
                {
                    "pong": True,
                    "gateway": True,
                    "shards": supervisor.config.shards,
                    "shards_alive": len(supervisor.live_shards()),
                    "pid": os.getpid(),
                }
            )
        if op == "stats":
            return _ok(await supervisor.fleet_stats())
        if op == "telemetry":
            return _ok({"snapshot": await supervisor.fleet_snapshot()})
        if op == "shutdown":
            supervisor.request_shutdown()
            return _ok({"draining": True})
        preferred = supervisor.route_for_frame(frame)
        response = await supervisor.shard_request(
            frame, preferred=preferred
        )
        return response


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_sharded(
    options: Ms2Options | None,
    config: ServeConfig,
    *,
    ready: Any = None,
) -> None:
    """Run a shard fleet until it drains (the ``shards > 1`` path of
    :func:`repro.server.serve`)."""
    supervisor = ShardSupervisor(options, config)

    async def _main() -> None:
        await supervisor.start()
        supervisor.install_signal_handlers()
        if ready is not None:
            ready(supervisor)
        await supervisor.serve_until_stopped()

    asyncio.run(_main())


def shard_child_main() -> int:
    """One shard process: rebuild the configuration from the
    environment and run a plain Ms2Server on the shared port."""
    raw = os.environ.get(ENV_CONFIG)
    if not raw:
        print(
            "repro.shard: MS2_SHARD_CONFIG not set (this module is "
            "an internal entry point of `repro serve --shards N`)",
            file=sys.stderr,
        )
        return 2
    payload = json.loads(raw)
    config = ServeConfig.from_json(payload.get("config"))
    options = Ms2Options.from_json(payload.get("options"))
    index = int(payload.get("shard_index", 0))
    event_log = (
        f"{config.event_log}.shard-{index}" if config.event_log else None
    )

    from repro.server import Ms2Server, _arm_config_faults

    # Each shard arms the fleet's chaos plan itself (it may have been
    # spawned by a supervisor that never went through serve()).
    _arm_config_faults(config)
    server = Ms2Server.from_config(
        options,
        config,
        socket_path=None,
        port=int(payload["port"]),
        reuse_port=True,
        control_socket=payload.get("control_socket"),
        shard_index=index,
        metrics_port=None,  # the fleet gateway owns HTTP
        event_log=event_log,
    )

    async def _main() -> None:
        await server.start()
        server.install_signal_handlers()
        await server.serve_until_stopped()

    asyncio.run(_main())
    return 0


if __name__ == "__main__":
    sys.exit(shard_child_main())
