"""Design-by-contract statements via syntax macros.

A small package in the spirit of the paper's section 4 ("new control
constructs ... raise the abstract programming level"):

* ``require (cond);`` — precondition check;
* ``ensure (cond);`` — postcondition check;
* ``check_range (e, lo, hi);`` — bounds assertion.

Each expands into an ``if`` that reports *the source text of the
violated condition* — the macro turns the condition AST back into a
string literal with ``ast_to_string``, something no token-based macro
system can do (CPP's ``#cond`` stringizes the unexpanded tokens; MS²
stringizes the parsed, canonical expression).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

#: The reporting hook the expanded code calls.
RUNTIME_SUPPORT = """
void contract_violation(char *kind, char *condition);
"""

SOURCE = """
syntax stmt require {| ( $$exp::cond ) |}
{
  return(`{if (!($cond))
             contract_violation("precondition", $(ast_to_string(cond)));});
}

syntax stmt ensure {| ( $$exp::cond ) |}
{
  return(`{if (!($cond))
             contract_violation("postcondition", $(ast_to_string(cond)));});
}

syntax stmt check_range {| ( $$exp::value , $$exp::lo , $$exp::hi ) |}
{
  if (simple_expression(value))
    return(`{if (($value) < ($lo) || ($value) > ($hi))
               contract_violation("range", $(ast_to_string(value)));});
  else
    return(`{{int the_value = $value;
              if (the_value < ($lo) || the_value > ($hi))
                contract_violation("range", $(ast_to_string(value)));}});
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<contracts>")
