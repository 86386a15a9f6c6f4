"""A state-machine DSL, as a macro package (paper section 4: "a
framework upon which special purpose preprocessors can be built").

.. code-block:: c

    state_machine door {
        state closed { on open_cmd go opening }
        state opening { on opened go open, on obstruction go closed }
        state open { }
    };

expands into an ``enum`` of states and a pure transition function
``int door_step(int state, int event)`` — a compile-time table, no
interpreter at runtime.

The pattern exercises the deep end of the pattern language: a
repetition of tuples whose fields include a *separated repetition of
nested tuples*, and the meta-code maps anonymous functions whose
parameters are the corresponding tuple types.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax decl state_machine[] {|
  $$id::name
  { $$+( state $$id::st { $$*/, ( on $$id::ev go $$id::target )::ts } )::states }
  ;
|}
{
  @id state_ids[];
  state_ids = map((struct {@id st;
                           struct {@id ev; @id target;} ts[];} s;
                   s.st),
                  states);
  return(list(
    `[enum $(symbolconc(name, "_states")) {$state_ids};],
    `[int $(symbolconc(name, "_step"))(int state, int event)
      {switch (state)
         {$(map((struct {@id st;
                         struct {@id ev; @id target;} ts[];} s;
                 `{case $(s.st):
                     {$(map((struct {@id ev; @id target;} t;
                             `{if (event == $(t.ev)) return($(t.target));}),
                            s.ts))
                      break;}}),
                states))}
       return(state);}]));
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<statemachine>")
