"""Tests for MacroDefinition and the macro keyword table."""

import pytest

from repro.asttypes.types import ListType, prim
from repro.cast import stmts
from repro.errors import MacroSyntaxError
from repro.macros.definition import MacroDefinition, MacroTable
from repro.macros.pattern import parse_pattern_text


def make_defn(name="m", ret="stmt", returns_list=False) -> MacroDefinition:
    return MacroDefinition(
        name, ret, returns_list,
        parse_pattern_text("( $$exp::e )"),
        stmts.CompoundStmt([], []),
    )


class TestMacroDefinition:
    def test_return_type_scalar(self):
        assert make_defn(ret="stmt").return_type == prim("stmt")

    def test_return_type_list(self):
        defn = make_defn(ret="decl", returns_list=True)
        assert defn.return_type == ListType(prim("decl"))

    def test_repr_shows_signature(self):
        text = repr(make_defn("painter", "stmt"))
        assert "painter" in text
        assert "stmt" in text

    def test_repr_shows_list_suffix(self):
        assert "[]" in repr(make_defn(returns_list=True))

    def test_from_node(self):
        from repro import MacroProcessor

        mp = MacroProcessor()
        mp.load("syntax stmt t {| ( ) |} { return(`{w();}); }")
        defn = mp.table.lookup("t")
        assert defn.name == "t"
        assert defn.ret_spec == "stmt"
        assert not defn.returns_list
        # Compiled dispatch is the default; the interpreted engine is
        # opt-in via Ms2Options(compiled_patterns=False).
        assert defn.compiled_matcher is not None


class TestMacroTable:
    def test_define_and_lookup(self):
        table = MacroTable()
        defn = make_defn("alpha")
        table.define(defn)
        assert table.lookup("alpha") is defn
        assert table.lookup("beta") is None

    def test_contains_and_len(self):
        table = MacroTable()
        table.define(make_defn("a"))
        table.define(make_defn("b"))
        assert "a" in table
        assert "c" not in table
        assert len(table) == 2

    def test_names_sorted(self):
        table = MacroTable()
        for name in ("zebra", "alpha", "mid"):
            table.define(make_defn(name))
        assert table.names() == ["alpha", "mid", "zebra"]

    def test_redefinition_rejected(self):
        table = MacroTable()
        table.define(make_defn("dup"))
        with pytest.raises(MacroSyntaxError):
            table.define(make_defn("dup"))


class TestInvocationRendering:
    def test_unexpanded_invocation_prints_concretely(self):
        from repro import MacroProcessor
        from repro.cast.printer import render_c
        from repro.parser.core import Parser

        mp = MacroProcessor()
        mp.load(
            "syntax stmt bracket {| [ $$exp::e ] |}"
            "{ return(`{f($e);}); }"
        )
        parser = Parser("bracket [x + 1];", host=mp, expand_inline=False)
        node = parser.parse_statement()
        text = render_c(node)
        assert "bracket" in text
        assert "x + 1" in text
