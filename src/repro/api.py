"""The stable public API of the MS2 reproduction.

Import from here.  Everything else under :mod:`repro` is an
implementation module whose layout may change between versions;
the names in ``__all__`` below are the compatibility surface —
``tests/integration/test_api_surface.py`` pins that this set never
shrinks and that every entry point keeps its call shape.

Quick tour::

    from repro.api import expand, Ms2Options

    result = expand("int x = quad(1);", options=Ms2Options(trace=True))
    print(result.output)

    # One warm daemon, many cheap expansions:
    from repro.api import serve, ServeConfig, Ms2Client
    # (daemon side)  serve(config=ServeConfig(socket="/tmp/ms2.sock"))
    # (fleet side)   serve(config=ServeConfig(port=7777, shards=4))
    # (client side)
    with Ms2Client("unix:///tmp/ms2.sock") as client:
        result = client.expand("int x = quad(1);")
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import repro.packages as _packages
from repro._lazy import lazy_exports
from repro.diagnostics import Diagnostic
from repro.engine import MacroProcessor
from repro.options import ExpandResult, Ms2Options

__all__ = [
    "Ms2Options",
    "ExpandResult",
    "Diagnostic",
    "MacroProcessor",
    "expand",
    "expand_file",
    "CacheConfig",
    "Ms2Client",
    "RetryPolicy",
    "ServeConfig",
    "parse_server_address",
    "serve",
]


# The client, the daemon (asyncio with it) and the config values load
# on first use: a local ``expand`` caller pays for none of them.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.client": ("Ms2Client", "RetryPolicy", "parse_server_address"),
    "repro.driver.cacheconfig": ("CacheConfig",),
    "repro.serveconfig": ("ServeConfig",),
    "repro.server": ("serve",),
})


def expand(
    source: str,
    filename: str = "<string>",
    *,
    options: Ms2Options | None = None,
    packages: Sequence[str] = (),
    package_sources: Sequence[tuple[str, str]] = (),
) -> ExpandResult:
    """Expand one program in a fresh macro context.

    ``packages`` name standard macro packages
    (:data:`repro.packages.PACKAGE_NAMES`); ``package_sources`` are
    ``(filename, source)`` pairs of macro-package files loaded after
    them — the paper's separate meta-program files.  Each call is
    hermetic: nothing leaks between calls.  For repeated expansion
    against the same preamble, keep a :class:`MacroProcessor` (one
    context, definitions accumulate) or talk to a warm daemon with
    :class:`Ms2Client`.
    """
    mp = MacroProcessor(options=options)
    for name in packages:
        _packages.register_named(mp, name)
    for package_name, package_source in package_sources:
        mp.load(package_source, str(package_name))
    return mp.expand(source, filename)


def expand_file(
    path: Path | str,
    *,
    options: Ms2Options | None = None,
    packages: Sequence[str] = (),
    package_sources: Sequence[tuple[str, str]] = (),
) -> ExpandResult:
    """:func:`expand` for a file on disk (its path becomes the
    ``filename`` carried by diagnostics and ``#line`` output)."""
    path = Path(path)
    return expand(
        path.read_text(),
        str(path),
        options=options,
        packages=packages,
        package_sources=package_sources,
    )
