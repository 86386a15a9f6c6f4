"""Parallel batch compilation with a persistent cross-run cache.

The paper's MS2 processed whole multi-file C programs one translation
unit at a time; this subsystem is the production-scale driver on top
of the same pipeline:

>>> from repro.driver import BuildSession, CacheConfig
>>> from repro import Ms2Options
>>> session = BuildSession(Ms2Options(), package_names=["loops"],
...                        jobs=4, cache=CacheConfig(
...                            local_dir=".ms2-cache",
...                            remote="tcp://build-host:7777"))
>>> report = session.build(["srcdir/"])          # doctest: +SKIP
>>> report.ok, report.files_from_cache           # doctest: +SKIP

- :mod:`repro.driver.scheduler` — the :class:`BuildSession` fan-out
  (process pool, shared macro context, per-file isolation);
- :mod:`repro.driver.cacheconfig` — the frozen :class:`CacheConfig`
  value every cache default derives from;
- :mod:`repro.driver.cachebackend` — the :class:`CacheBackend`
  protocol plus the remote (daemon-served) and tiered (read-through,
  write-behind) backends;
- :mod:`repro.driver.diskcache` — content-hash-keyed snapshot files
  that survive runs, with the in-memory cache's exact corruption
  fallback semantics;
- :mod:`repro.driver.locks` — the advisory file lock protecting
  compound cache operations from concurrent invocations;
- :mod:`repro.driver.report` — per-file results aggregated into one
  :class:`BuildReport` (``repro build --report json``).
"""

from repro._lazy import lazy_exports

# Names load from their home modules on first use: the CLI reads
# ``CacheConfig`` for its flag defaults without loading the scheduler
# (and the process pool, multiprocessing with it).
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.driver.cachebackend": (
        "CacheBackend", "RemoteCacheBackend", "TieredBackend",
    ),
    "repro.driver.cacheconfig": ("CacheConfig", "DEFAULT_CACHE_DIR"),
    "repro.driver.diskcache": ("PersistentCache",),
    "repro.driver.locks": ("FileLock", "LockTimeout"),
    "repro.driver.report": ("BuildReport", "FileResult"),
    "repro.driver.scheduler": (
        "BuildSession", "resolve_inputs", "write_outputs",
    ),
})

__all__ = [
    "BuildReport",
    "BuildSession",
    "CacheBackend",
    "CacheConfig",
    "DEFAULT_CACHE_DIR",
    "FileLock",
    "FileResult",
    "LockTimeout",
    "PersistentCache",
    "RemoteCacheBackend",
    "TieredBackend",
    "resolve_inputs",
    "write_outputs",
]
