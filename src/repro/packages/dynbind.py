"""The ``dynamic_bind`` macro (paper section 4).

Defines a new statement type that saves an integer variable, rebinds
it for the dynamic extent of a body, then restores it — the idiom
behind special variables and exception-handler stacks.  Uses
``gensym`` for the save slot so user code cannot capture it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax stmt dynamic_bind
  {| { $$type_spec::type $$id::name = $$exp::init } $$stmt::body |}
{
  @id newname = gensym();
  return(`{$type $newname = $name;
           $name = $init;
           $body;
           $name = $newname;});
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<dynbind>")
