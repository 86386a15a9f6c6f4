"""The exception-handling macro package (paper section 4).

Three new statement types built on ``setjmp``/``longjmp``:

* ``throw <exp>;`` — raise a (non-zero integer) exception value;
* ``catch <tag> <handler-stmt> <body-stmt>`` — run ``body`` with a
  handler established; a throw of ``tag`` terminates the body and runs
  the handler ("termination semantics"); other values keep unwinding;
* ``unwind_protect <body-stmt> <cleanup-stmt>`` — run ``cleanup``
  whether or not ``body`` throws, then continue any unwinding.

The expanded code references the runtime support in
:data:`RUNTIME_SUPPORT` (an ``exception_ptr`` stack pointer and an
``error_handler``), which a program using the package must declare —
in C these would live in a support header.

``throw`` demonstrates conditional meta-programming: it tests
``simple_expression`` to avoid introducing a temporary when the thrown
value is an identifier or literal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

#: Declarations the expanded code links against.
RUNTIME_SUPPORT = """
int *exception_ptr;
"""

SOURCE = """
syntax stmt throw {| $$exp::value |}
{
  if (simple_expression(value))
    return(`{if (exception_ptr == 0)
               error_handler("No handler for thrown value");
             else longjmp(exception_ptr, $value);});
  else
    return(`{{int the_value = $value;
              if (exception_ptr == 0)
                error_handler("No handler for thrown value");
              else longjmp(exception_ptr, the_value);}});
}

syntax stmt catch {| $$exp::tag $$stmt::handler $$stmt::body |}
{
  return(`{{int *old_exception_ptr = exception_ptr;
            int jump_buffer[2];
            int result;
            result = setjmp(jump_buffer);
            if (result == 0)
              {exception_ptr = jump_buffer; $body}
            else {exception_ptr = old_exception_ptr;
                  if (result == $tag)
                    $handler;
                  else throw result;}}});
}

syntax stmt unwind_protect {| $$stmt::body $$stmt::cleanup |}
{
  return(`{{int *old_exception_ptr = exception_ptr;
            int jump_buffer[2];
            int result = setjmp(jump_buffer);
            if (result == 0)
              {exception_ptr = jump_buffer; $body}
            else {exception_ptr = old_exception_ptr;}
            $cleanup;
            if (result != 0) throw result;}});
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<exceptions>")
