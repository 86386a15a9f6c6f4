"""PEP 562 lazy exports for package roots and facades.

A module that re-exports names from heavier modules binds::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.engine": ("MacroProcessor",),
    })

and each name is imported from its home module on first access, then
stored in the module's globals, so later lookups never reach
``__getattr__``.  ``from module import *`` and ``dir(module)`` see the
names as if they had been imported eagerly.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], homes: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the module whose globals are
    ``namespace``; ``homes`` maps each home module to the names it
    supplies."""
    module_name = namespace["__name__"]
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        home = home_of.get(name)
        if home is None:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        value = getattr(import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home_of})

    return __getattr__, __dir__
