"""Semantic macros (paper section 5, future work — implemented).

Section 5 promises two powers for semantic macros, both demonstrated
here:

* **types without annotations** — ``sdynamic_bind`` is §4's
  ``dynamic_bind`` with the explicit type parameter *removed*: the
  macro asks the static semantic analyzer (``type_of``) for the
  variable's declared type at the invocation site.  Likewise ``sswap``.
* **type-conditional expansion** — ``show`` picks a ``printf`` format
  by *comparing* the variable's type specifier against type templates
  (the general backquote form ```{| type_spec :: int |}``), "a
  form of object oriented dispatch at compile time".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax stmt sdynamic_bind {| { $$id::name = $$exp::init } $$stmt::body |}
{
  @id slot = gensym();
  @type_spec t = type_of(name);
  return(`{{$t $slot = $name;
            $name = $init;
            $body;
            $name = $slot;}});
}

syntax stmt sswap {| ( $$id::a , $$id::b ) |}
{
  @id tmp = gensym();
  @type_spec t = type_of(a);
  return(`{{$t $tmp = $a;
            $a = $b;
            $b = $tmp;}});
}

syntax stmt show {| ( $$id::var ) |}
{
  @type_spec t = type_of(var);
  if (t == `{| type_spec :: int |})
    return(`{printf("%s = %d", $(pstring(var)), $var);});
  if (t == `{| type_spec :: long |})
    return(`{printf("%s = %ld", $(pstring(var)), $var);});
  if (t == `{| type_spec :: float |} || t == `{| type_spec :: double |})
    return(`{printf("%s = %f", $(pstring(var)), $var);});
  if (t == `{| type_spec :: char |})
    return(`{printf("%s = %c", $(pstring(var)), $var);});
  return(`{printf("%s = %p", $(pstring(var)), $var);});
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<semantic>")
