"""Remote-cache replay: cold vs local-warm vs remote-warm builds.

The distributed cache's promise is that one machine's cold build is
every other machine's warm build.  This benchmark measures the three
configurations on the driver-scaling corpus (50 generated files, 8
in the smoke-size test) against an in-process authority daemon:

- **cold** — empty local dir, empty authority: every file pays the
  full pipeline and publishes its snapshot to the daemon;
- **local warm** — same local dir again: every file replays from the
  local tier without touching the wire (the ceiling);
- **remote warm** — a *fresh, empty* local dir, same authority: every
  file replays over ``cache_get`` and is promoted locally (the
  acceptance bar is >= 5x over cold at full size).

The recorded build timings come from ``perfbench/``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path

from repro.driver import BuildSession, CacheConfig

from benchmarks.test_driver_scaling import (
    CORPUS_FILES, SMOKE_FILES, driver_corpus,
)


class _AuthorityDaemon:
    """An in-process daemon whose ``cache_dir`` is the fleet cache."""

    def __init__(self, socket_path: Path, cache_dir: Path) -> None:
        self.socket_path = socket_path
        self.cache_dir = cache_dir
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(30), "authority failed to start"
        return self

    def _run(self) -> None:
        from repro.server import Ms2Server

        async def main() -> None:
            self.server = Ms2Server(
                socket_path=self.socket_path, cache_dir=self.cache_dir
            )
            await self.server.start()
            self.loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_until_stopped()

        asyncio.run(main())

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(30)


def _timed_build(
    sources, config: CacheConfig | None
) -> tuple[float, "BuildReport", list[str]]:
    session = BuildSession(
        package_names=("loops", "exceptions"), cache=config
    )
    start = time.perf_counter()
    try:
        report = session.build_sources(sources)
    finally:
        session.close()
    elapsed = time.perf_counter() - start
    assert report.ok
    return elapsed, report, [r.output for r in report.results]


def measure_remote_cache(tmp_root: Path, smoke: bool = False) -> dict:
    """Cold / local-warm / remote-warm wall times on the corpus."""
    count = SMOKE_FILES if smoke else CORPUS_FILES
    sources = driver_corpus(count)

    with _AuthorityDaemon(
        tmp_root / "authority.sock", tmp_root / "authority-cache"
    ) as daemon:
        remote = f"unix://{daemon.socket_path}"

        def config(local: str) -> CacheConfig:
            return CacheConfig(
                local_dir=str(tmp_root / local),
                remote=remote,
                write_behind=0,  # synchronous publish: deterministic
            )

        cold_s, cold_report, cold_outputs = _timed_build(
            sources, config("machine-a")
        )
        assert cold_report.files_expanded == count

        local_s, local_report, local_outputs = _timed_build(
            sources, config("machine-a")
        )
        assert local_report.files_from_cache == count
        assert local_outputs == cold_outputs, "local warm drifted"

        remote_s, remote_report, remote_outputs = _timed_build(
            sources, config("machine-b")  # fresh: wire-only warmth
        )
        assert remote_report.files_from_cache == count
        assert remote_outputs == cold_outputs, "remote warm drifted"
        remote_tier = remote_report.cache["tiers"]["remote"]
        assert remote_tier["hits"] == count, remote_tier

    return {
        "files": count,
        "cold_ms": round(cold_s * 1000, 2),
        "local_warm_ms": round(local_s * 1000, 2),
        "remote_warm_ms": round(remote_s * 1000, 2),
        "local_warm_speedup": round(cold_s / local_s, 2),
        "remote_warm_speedup": round(cold_s / remote_s, 2),
        "remote_load_ms": round(remote_tier["load_ms"], 2),
    }


# ---------------------------------------------------------------------------
# pytest coverage (kept timing-tolerant; perfbench is the record)
# ---------------------------------------------------------------------------


def test_remote_warm_beats_cold(tmp_path: Path) -> None:
    point = measure_remote_cache(tmp_path, smoke=True)
    # The full-size acceptance bar is 5x; the smoke assertion stays
    # tolerant of loaded CI hosts.  Byte-parity and wire-served hit
    # counts are asserted inside measure_remote_cache itself.
    assert point["remote_warm_speedup"] > 1.0, point
    assert point["files"] == SMOKE_FILES
