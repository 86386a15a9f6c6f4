"""Routine code from data declarations (paper section 4's
generalization: "Persistence code, RPC code, dialog boxes, etc., can
be automatically created when data is declared").

``serializable point { int x; int y; };`` expands into the plain
struct declaration plus generated ``print_point`` and ``pack_point``
functions — one statement per field, produced by mapping an anonymous
function over the field declarations, with field names recovered via
the predefined ``decl->name`` component accessor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax decl serializable[] {| $$id::name { $$+decl::fields } ; |}
{
  return(list(
    `[struct $name {$fields};],
    `[void $(symbolconc("print_", name))(struct $name *p)
      {printf("%s {", $(pstring(name)));
       $(map((@decl f;
              `{print_field($(pstring(f.name)), p->$(f.name));}),
             fields))
       printf("%s", "}");}],
    `[int $(symbolconc("pack_", name))(struct $name *p, char *buf)
      {int offset;
       offset = 0;
       $(map((@decl f;
              `{offset = offset + pack_value(buf + offset, p->$(f.name));}),
             fields))
       return(offset);}]));
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<structio>")
