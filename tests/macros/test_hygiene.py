"""Tests for the hygienic-expansion extension (paper section 5)."""

import pytest

from repro import MacroProcessor, Ms2Options
from repro.cast import decls, nodes
from repro.cast.base import walk


CAPTURING = """
syntax stmt save_restore {| $$id::var $$stmt::body |}
{
  return(`{{int saved = $var;
            $body;
            $var = saved;}});
}
"""


def declared_names(unit) -> list[str]:
    return [
        n.name
        for n in walk(unit)
        if isinstance(n, decls.NameDeclarator)
    ]


class TestUnhygienicBaseline:
    def test_capture_happens_without_hygiene(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=False))
        mp.load(CAPTURING)
        # User body references its own 'saved' — captured!
        unit = mp.expand_to_ast(
            "void f(int saved) { save_restore x {saved = saved + x;} }"
        )
        names = declared_names(unit)
        assert "saved" in names  # template's binder kept its name


class TestHygienicMode:
    def test_template_binder_renamed(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(CAPTURING)
        unit = mp.expand_to_ast(
            "void f(int saved) { save_restore x {saved = saved + x;} }"
        )
        inner = unit.items[0].body.stmts[0]
        binder = inner.decls[0].init_declarators[0].declarator.name
        assert binder != "saved"

    def test_template_references_follow_binder(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(CAPTURING)
        unit = mp.expand_to_ast(
            "void f(int saved) { save_restore x {w();} }"
        )
        inner = unit.items[0].body.stmts[0]
        binder = inner.decls[0].init_declarators[0].declarator.name
        # The restore statement must use the renamed binder.
        restore = inner.stmts[-1]
        assert restore.expr.value.name == binder

    def test_user_code_untouched(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(CAPTURING)
        unit = mp.expand_to_ast(
            "void f(int saved) { save_restore x {saved = saved + 1;} }"
        )
        inner = unit.items[0].body.stmts[0]
        user_body = inner.stmts[0]
        # The user's own 'saved' references are NOT renamed.
        user_idents = [
            n.name for n in walk(user_body)
            if isinstance(n, nodes.Identifier)
        ]
        assert "saved" in user_idents

    def test_placeholder_substituted_var_not_renamed(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(CAPTURING)
        unit = mp.expand_to_ast(
            "void f(int x) { save_restore x {g();} }"
        )
        inner = unit.items[0].body.stmts[0]
        init = inner.decls[0].init_declarators[0].init
        assert init == nodes.Identifier("x")

    def test_nested_expansions_get_distinct_names(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(CAPTURING)
        unit = mp.expand_to_ast(
            "void f(void) { save_restore a { save_restore b {w();} } }"
        )
        names = [n for n in declared_names(unit) if n.startswith("__")]
        assert len(names) == 2
        assert names[0] != names[1]

    def test_gensym_names_not_rerenamed(self):
        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        mp.load(
            "syntax stmt g {| ( ) |}"
            "{ @id t = gensym(); return(`{{int $t = 0; use($t);}}); }"
        )
        unit = mp.expand_to_ast("void f(void) { g(); }")
        inner = unit.items[0].body.stmts[0]
        binder = inner.decls[0].init_declarators[0].declarator.name
        use = inner.stmts[0].expr.args[0].name
        assert binder == use


# A template value spliced into two compounds that each bind ``tmp``.
SPLICED_TWICE = """
syntax stmt twice {| $$exp::e |}
{
  @exp t = `(tmp + $e);
  return(`{{ {int tmp = 1; f($t);} {int tmp = 2; g($t);} }});
}
"""

# A binding compound a hygienic outer macro hands to an inner macro,
# which splices it twice.
PASSED_AND_DUPLICATED = """
syntax stmt dup {| $$stmt::s |} { return(`{{ $s; $s; }}); }
syntax stmt outer {| $$exp::e |}
{ return(`{{ dup { int tmp = $e; f(tmp); } }}); }
"""


@pytest.mark.parametrize(
    "compiled_bodies", [True, False], ids=["compiled", "interpreted"]
)
class TestSplicedValuesRenameApart:
    """Each place a value is spliced is renamed on its own, as if every
    splice were a separate copy."""

    @staticmethod
    def _expand(package: str, program: str, compiled_bodies: bool) -> str:
        mp = MacroProcessor(
            options=Ms2Options(hygienic=True, compiled_bodies=compiled_bodies)
        )
        mp.load(package)
        return mp.expand(program).output

    def test_value_spliced_into_two_binding_compounds(self, compiled_bodies):
        out = self._expand(
            SPLICED_TWICE, "void h(int x) { twice x; }", compiled_bodies
        )
        assert "int __tmp_1 = 1;" in out
        assert "f(__tmp_1 + x);" in out
        assert "int __tmp_2 = 2;" in out
        assert "g(__tmp_2 + x);" in out

    def test_binding_compound_duplicated_by_inner_macro(self, compiled_bodies):
        out = self._expand(
            PASSED_AND_DUPLICATED,
            "void h(int x) { outer x; }",
            compiled_bodies,
        )
        assert "int __tmp_1 = x;" in out
        assert "f(__tmp_1);" in out
        assert "int __tmp_2 = x;" in out
        assert "f(__tmp_2);" in out


@pytest.mark.parametrize(
    "compiled_bodies", [True, False], ids=["compiled", "interpreted"]
)
def test_reference_reads_its_innermost_binder(compiled_bodies):
    """A marked reference takes the rename of the innermost compound
    that binds its name, as the unhygienic program reads it."""
    mp = MacroProcessor(
        options=Ms2Options(hygienic=True, compiled_bodies=compiled_bodies)
    )
    mp.load(
        "syntax stmt sh {| ( ) |} "
        "{ return(`{{ int tmp = 1; { int tmp = 2; f(tmp); } }}); }"
    )
    out = mp.expand("void g(void) { sh(); }").output
    assert "int __tmp_2 = 2;" in out
    assert "f(__tmp_2);" in out
