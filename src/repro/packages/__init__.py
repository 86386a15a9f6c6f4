"""Macro packages: the paper's section 4 examples as a library.

Every package ships its macro definitions as macro-language *source*
(the meta-program is written in C-plus-templates, compiled by MS2
itself — not in Python) plus a ``register(mp)`` helper.

>>> from repro import MacroProcessor
>>> from repro.packages import exceptions, painting
>>> mp = MacroProcessor()
>>> exceptions.register(mp)
>>> painting.register(mp, protected=True)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.packages import (  # noqa: F401
    contracts,
    dispatch,
    dynbind,
    enumio,
    exceptions,
    loops,
    painting,
    portvm,
    semantic,
    statemachine,
    structio,
)

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

ALL_PACKAGES = [exceptions, painting, dynbind, enumio, loops, structio]

#: The names accepted by ``-p/--package`` and by the batch driver's
#: worker processes — the single registry both resolve against.
PACKAGE_REGISTRY = {
    "exceptions": exceptions.register,
    "painting": painting.register,
    "painting-protected": (
        lambda mp: painting.register(mp, protected=True)
    ),
    "dynbind": dynbind.register,
    "enumio": enumio.register,
    "dispatch": dispatch.register,
    "loops": loops.register,
    "contracts": contracts.register,
    "portvm": portvm.register,
    "semantic": semantic.register,
    "statemachine": statemachine.register,
    "structio": structio.register,
}

PACKAGE_NAMES = tuple(PACKAGE_REGISTRY)


def register_named(mp: MacroProcessor, name: str) -> None:
    """Register the standard package called ``name`` into ``mp``;
    raises ``KeyError`` listing the valid names otherwise."""
    try:
        registrar = PACKAGE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown package {name!r} (choose from: "
            f"{', '.join(PACKAGE_NAMES)})"
        ) from None
    registrar(mp)


def load_standard(mp: MacroProcessor) -> None:
    """Load the exception, painting (protected), dynamic-binding,
    enum-IO, loop, and struct-IO packages into ``mp``."""
    exceptions.register(mp)
    painting.register(mp, protected=True)
    dynbind.register(mp)
    enumio.register(mp)
    loops.register(mp)
    structio.register(mp)
