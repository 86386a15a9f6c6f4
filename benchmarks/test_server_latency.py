"""Warm-daemon latency vs cold-CLI latency.

The point of ``repro serve`` is amortization: a cold ``repro expand``
pays interpreter boot, package imports and preamble loading on every
invocation, while a warm daemon pays them once and answers each
request with one socket round-trip to a pre-built worker.  This
benchmark measures both on the same corpus file:

- **cold CLI** — ``python -m repro expand <file>`` as a subprocess,
  end-to-end wall time (what a Makefile rule pays today);
- **warm server** — the same expansion through
  :class:`~repro.client.Ms2Client` against an in-process daemon,
  per-request wall time after one warm-up request.

The acceptance bar for the daemon is warm >= 5x faster than cold.
The recorded figures (``cli_cold_ms``, the ``serve`` workload) come
from ``perfbench/``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = REPO_ROOT / "examples" / "corpus" / "with_lock.c"

COLD_RUNS = 5
WARM_REQUESTS = 40
SMOKE_COLD_RUNS = 3
SMOKE_WARM_REQUESTS = 10


class _DaemonThread:
    """An in-process daemon on a Unix socket, for measuring request
    latency without subprocess noise on the warm side."""

    def __init__(self, socket_path: Path) -> None:
        self.socket_path = socket_path
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(30), "daemon failed to start"
        return self

    def _run(self) -> None:
        from repro.server import Ms2Server

        async def main() -> None:
            self.server = Ms2Server(socket_path=self.socket_path)
            await self.server.start()
            self.loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_until_stopped()

        asyncio.run(main())

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(30)


def _cold_cli_ms(runs: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "expand", str(WORKLOAD)],
            env=env, cwd=REPO_ROOT, capture_output=True, check=True,
        )
        samples.append((time.perf_counter() - start) * 1000)
    assert proc.stdout, "cold CLI produced no output"
    return samples


def _warm_server_ms(
    tmp_root: Path, requests: int
) -> tuple[list[float], str, dict]:
    from repro.client import Ms2Client

    source = WORKLOAD.read_text()
    samples = []
    with _DaemonThread(tmp_root / "bench.sock") as daemon:
        with Ms2Client(daemon.socket_path) as client:
            # One warm-up: the first request may build its worker.
            output = client.expand(source, str(WORKLOAD)).output
            for _ in range(requests):
                start = time.perf_counter()
                result = client.expand(source, str(WORKLOAD))
                samples.append((time.perf_counter() - start) * 1000)
                assert result.output == output, "warm output drifted"
            stats = client.stats()
    return samples, output, stats


def measure_server(tmp_root: Path, smoke: bool = False) -> dict:
    """Cold-CLI vs warm-server wall times on the corpus workload."""
    cold_runs = SMOKE_COLD_RUNS if smoke else COLD_RUNS
    warm_requests = SMOKE_WARM_REQUESTS if smoke else WARM_REQUESTS

    cold = _cold_cli_ms(cold_runs)
    warm, warm_output, stats = _warm_server_ms(tmp_root, warm_requests)

    # Byte-parity with the cold CLI is part of the bar.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    cli_output = subprocess.run(
        [sys.executable, "-m", "repro", "expand", str(WORKLOAD)],
        env=env, cwd=REPO_ROOT, capture_output=True, check=True,
    ).stdout.decode()
    assert cli_output == warm_output, "server output != CLI output"

    cold_ms = statistics.median(cold)
    warm_ms = statistics.median(warm)
    warm_sorted = sorted(warm)
    return {
        "workload": WORKLOAD.name,
        "cold_runs": cold_runs,
        "warm_requests": warm_requests,
        "cold_cli_ms": round(cold_ms, 2),
        "warm_server_ms": round(warm_ms, 3),
        "warm_p95_ms": round(
            warm_sorted[int(0.95 * (len(warm_sorted) - 1))], 3
        ),
        "speedup": round(cold_ms / warm_ms, 1),
        "warm_hits": stats["workers"]["warm_hits"],
        "server_mean_ms": stats["latency_ms"]["mean"],
    }


# ---------------------------------------------------------------------------
# pytest coverage (kept timing-tolerant; perfbench is the record)
# ---------------------------------------------------------------------------


def test_warm_server_beats_cold_cli(tmp_path: Path) -> None:
    point = measure_server(tmp_path, smoke=True)
    # The full-size acceptance bar is 5x; the smoke assertion stays
    # tolerant of loaded CI hosts.
    assert point["speedup"] > 1.0, point
    assert point["warm_hits"] >= SMOKE_WARM_REQUESTS - 1


def test_warm_requests_hit_prebuilt_workers(tmp_path: Path) -> None:
    samples, _, stats = _warm_server_ms(tmp_path, 5)
    assert len(samples) == 5
    assert stats["workers"]["cold_builds"] <= 1
