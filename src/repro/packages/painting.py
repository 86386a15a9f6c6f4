"""The ``Painting`` resource-bracketing macro (paper sections 1 and 4).

Two variants are provided:

* :data:`SOURCE` — the simple version from the introduction, which
  brackets its body with ``BeginPaint`` / ``EndPaint``;
* :data:`PROTECTED_SOURCE` — the section 4 version whose template
  invokes the ``unwind_protect`` macro, guaranteeing ``EndPaint`` runs
  even if the body throws.  It requires
  :mod:`repro.packages.exceptions` to be loaded first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax stmt Painting {| $$stmt::body |}
{
  return(`{BeginPaint(hDC, &ps);
           $body;
           EndPaint(hDC, &ps);});
}
"""

PROTECTED_SOURCE = """
syntax stmt Painting {| $$stmt::body |}
{
  return(`{BeginPaint(hDC, &ps);
           unwind_protect
             $body
             {EndPaint(hDC, &ps);}});
}
"""


def register(mp: MacroProcessor, protected: bool = False) -> None:
    """Load the Painting macro into a processor."""
    mp.load(PROTECTED_SOURCE if protected else SOURCE, "<painting>")
