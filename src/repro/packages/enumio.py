"""The ``myenum`` reader/writer generator (paper section 4).

``myenum fruit {apple, banana, kiwi};`` expands into the plain
``enum`` declaration *plus* generated ``print_fruit`` and
``read_fruit`` functions — the paper's showcase for decl macros that
return a *list* of declarations, ``map`` over anonymous functions,
``symbolconc`` (computing function names) and ``pstring`` (turning
identifiers into string literals).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax decl myenum[] {| $$id::name { $$+/, id::ids } ; |}
{
  return(list(
    `[enum $name {$ids};],
    `[void $(symbolconc("print_", name))(int arg)
      {switch (arg)
         {$(map((@id id; `{case $id: printf("%s", $(pstring(id)));}),
                ids))}}],
    `[int $(symbolconc("read_", name))(void)
      {char s[100];
       getline(s, 100);
       $(map((@id id; `{if (!strcmp(s, $(pstring(id)))) return($id);}),
             ids))
       return(0);}]));
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<enumio>")
