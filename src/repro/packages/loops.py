"""New control constructs (paper section 4, "specialized looping
constructs ... are easily implemented").

* ``forever <stmt>`` — an endless loop;
* ``unless (<exp>) <stmt>`` — inverted ``if``;
* ``for_range i = lo to hi [step s] { stmts }`` — a counted loop whose
  optional ``step`` clause exercises the pattern language's
  ``? token pspec`` form (the paper: "the optional elements are for
  constructing statements such as loops that accept, for example,
  optional step or while clauses");
* ``with_resource (acquire, release) <stmt>`` — the general
  allocate/use/deallocate idiom;
* ``swap (type, a, b)`` — a gensym-based swap statement;
* ``unroll (n) <stmt>`` — compile-time loop unrolling; ``n`` is any C
  integer constant expression, folded with ``eval_const``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine import MacroProcessor

SOURCE = """
syntax stmt forever {| $$stmt::body |}
{
  return(`{while (1) $body;});
}

syntax stmt unless {| ( $$exp::cond ) $$stmt::body |}
{
  return(`{if (!($cond)) $body;});
}

syntax stmt for_range
  {| $$id::var = $$exp::lo to $$exp::hi
     $$? step exp::stride
     { $$*stmt::body } |}
{
  if (present(stride))
    return(`{for ($var = $lo; $var <= $hi; $var = $var + $stride)
               {$body}});
  return(`{for ($var = $lo; $var <= $hi; $var++) {$body}});
}

syntax stmt with_resource {| ( $$exp::acquire , $$exp::release ) $$stmt::body |}
{
  return(`{$acquire;
           $body;
           $release;});
}

syntax stmt swap {| ( $$type_spec::type , $$exp::a , $$exp::b ) |}
{
  @id tmp = gensym();
  return(`{{$type $tmp = $a;
            $a = $b;
            $b = $tmp;}});
}

syntax stmt unroll {| ( $$exp::n ) $$stmt::body |}
{
  int i;
  int count;
  @stmt out[];
  count = eval_const(n);
  if (count < 0) error("unroll: negative repetition count");
  out = list();
  for (i = 0; i < count; i++) out = cons(body, out);
  return(`{{$out}});
}
"""


def register(mp: MacroProcessor) -> None:
    mp.load(SOURCE, "<loops>")
