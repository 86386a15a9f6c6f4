"""A low-overhead portability layer as macros (paper section 4).

"There are two solutions to this problem: implement a common virtual
machine as an interpreter, which incurs a large performance penalty,
or implement a common virtual machine as a series of macros in a
programmable macro language, which ... can be very low overhead."

The package defines a tiny OS-portability VM: the program is written
against ``vm_*`` statements, and a ``metadcl`` flag — set with the
``vm_target`` macro — selects, *at expansion time*, which API the
macros compile to.  No dispatch survives to runtime: each target
yields straight-line calls into the native API.

Targets: ``unix`` (1) and ``windows`` (2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
metadcl int vm_target_kind = 1;

syntax decl vm_target[] {| $$id::name ; |}
{
  if (strcmp(pstring(name), "unix") == 0)
    vm_target_kind = 1;
  else if (strcmp(pstring(name), "windows") == 0)
    vm_target_kind = 2;
  else
    error("vm_target: unknown target", name);
  return(list());
}

syntax stmt vm_open {| ( $$exp::handle , $$exp::path ) |}
{
  if (vm_target_kind == 1)
    return(`{$handle = open($path, 0);});
  return(`{$handle = CreateFile($path, GENERIC_READ);});
}

syntax stmt vm_close {| ( $$exp::handle ) |}
{
  if (vm_target_kind == 1)
    return(`{close($handle);});
  return(`{CloseHandle($handle);});
}

syntax stmt vm_sleep {| ( $$exp::millis ) |}
{
  if (vm_target_kind == 1)
    return(`{usleep(($millis) * 1000);});
  return(`{Sleep($millis);});
}

syntax stmt vm_yield {| ( ) |}
{
  if (vm_target_kind == 1)
    return(`{sched_yield();});
  return(`{SwitchToThread();});
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<portvm>")
