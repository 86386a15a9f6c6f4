"""The code-rearrangement (window-procedure) package (paper section 4).

Demonstrates *non-local transformations*: ``window_proc_dispatch``
invocations scattered through a program accumulate (message, handler)
pairs in ``metadcl`` meta-globals; ``emit_window_proc`` later emits a
single dispatch function collecting everything registered for it.
The accumulating macros expand to *nothing* (an empty decl list).

The package starts with the Windows-ish typedefs its templates use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
typedef int HWND;
typedef unsigned int UINT;
typedef unsigned int WPARAM;
typedef long LPARAM;

metadcl @id wproc_names[];
metadcl @id wproc_defaults[];
metadcl @id wproc_owner[];
metadcl @id wproc_messages[];
metadcl @stmt wproc_bodies[];

syntax decl new_window_proc[]
  {| $$id::name default $$id::default_proc_name ; |}
{
  wproc_names = cons(name, wproc_names);
  wproc_defaults = cons(default_proc_name, wproc_defaults);
  return(list());
}

syntax decl window_proc_dispatch[]
  {| ( $$id::proc_name , $$id::message_name ) $$stmt::body |}
{
  wproc_owner = cons(proc_name, wproc_owner);
  wproc_messages = cons(message_name, wproc_messages);
  wproc_bodies = cons(body, wproc_bodies);
  return(list());
}

syntax decl emit_window_proc[] {| $$id::proc_name ; |}
{
  @stmt cases[];
  int i;
  int n;
  int j;
  @id dflt;
  cases = list();
  n = length(wproc_owner);
  for (i = 0; i < n; i++)
  {
    if (same_id(wproc_owner[i], proc_name))
      cases = cons(`{case $(wproc_messages[i]):
                       {$(wproc_bodies[i]); break;}},
                   cases);
  }
  j = 0;
  n = length(wproc_names);
  while (j < n && !same_id(wproc_names[j], proc_name)) j++;
  if (j == n) error("emit_window_proc: unknown window procedure");
  dflt = wproc_defaults[j];
  return(list(
    `[int $proc_name(HWND hWnd, UINT message, WPARAM wParam, LPARAM lParam)
      {switch (message)
         {default: {return($dflt(hWnd, message, wParam, lParam)); break;}
          $cases}}]));
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<dispatch>")
