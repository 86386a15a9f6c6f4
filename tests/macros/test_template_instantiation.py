"""Direct tests of template instantiation (macros/template.py)."""

import pytest

from repro.asttypes.types import EXP, ID, STMT, list_of, prim
from repro.cast import ctypes, decls, nodes, stmts
from repro.errors import ExpansionError
from repro.figures import parse_template_fragment
from repro.macros.template import instantiate
from repro.meta.frames import NULL
from tests.macros.test_backquote import parse_backquote


def run(template_src: str, bindings: dict, values: dict):
    """Parse a backquote in meta mode and instantiate it."""
    bq = parse_backquote(template_src, bindings)
    return instantiate(
        bq.template,
        evalfn=lambda expr: values[expr.name],
        mark=77,
    )


class TestScalarSubstitution:
    def test_expression_hole(self):
        result = run("`($x + 1)", {"x": EXP}, {"x": nodes.Identifier("q")})
        assert result == nodes.BinaryOp(
            "+", nodes.Identifier("q"), nodes.IntLit(1)
        )

    def test_statement_hole(self):
        body = stmts.ExprStmt(nodes.Call(nodes.Identifier("w"), []))
        result = run("`{pre(); $s;}", {"s": STMT}, {"s": body})
        assert result.stmts[1] == body

    def test_expression_becomes_statement(self):
        # An exp value standing at a statement position is wrapped.
        value = nodes.Identifier("e")
        bq = parse_backquote("`{{$x;}}", {"x": EXP})
        result = instantiate(bq.template, lambda _: value, mark=1)
        assert isinstance(result.stmts[0], stmts.ExprStmt)

    def test_scalar_values_become_literals(self):
        result = run("`(f($n))", {"n": prim("num")}, {"n": 5})
        assert result.args[0] == nodes.IntLit(5)

    def test_string_values_become_string_literals(self):
        bq = parse_backquote('`(f($s))', {"s": ID})
        result = instantiate(bq.template, lambda _: "text", mark=1)
        assert result.args[0] == nodes.StringLit("text")


class TestListSplicing:
    def test_statement_list(self):
        items = [
            stmts.ExprStmt(nodes.Identifier(n)) for n in ("a", "b", "c")
        ]
        result = run(
            "`{{first(); $body; last();}}",
            {"body": list_of(STMT)},
            {"body": items},
        )
        assert len(result.stmts) == 5

    def test_argument_list(self):
        args = [nodes.Identifier("p"), nodes.Identifier("q")]
        result = run("`(f($args))", {"args": list_of(EXP)}, {"args": args})
        assert result.args == args

    def test_empty_list_vanishes(self):
        result = run(
            "`{{before(); $body; after();}}",
            {"body": list_of(STMT)},
            {"body": []},
        )
        assert len(result.stmts) == 2

    def test_enum_identifier_list_becomes_enumerators(self):
        tree = parse_template_fragment(
            "decl", "enum e {$ids};", {"ids": list_of(ID)}
        )
        result = instantiate(
            tree,
            lambda _: [nodes.Identifier("x"), nodes.Identifier("y")],
            mark=1,
        )
        enums = result.specs.type_spec.enumerators
        assert enums == [ctypes.Enumerator("x"), ctypes.Enumerator("y")]

    def test_init_declarator_ids_spliced(self):
        # The paper's 'enum color $ids;' separator-free splice.
        tree = parse_template_fragment(
            "decl", "enum color $ids;", {"ids": list_of(ID)}
        )
        result = instantiate(
            tree,
            lambda _: [nodes.Identifier("red"), nodes.Identifier("blue")],
            mark=1,
        )
        names = [
            i.declarator.name for i in result.init_declarators
        ]
        assert names == ["red", "blue"]


class TestDeclaratorAdaptation:
    def test_identifier_becomes_name_declarator(self):
        tree = parse_template_fragment(
            "decl", "int $y;", {"y": ID}
        )
        result = instantiate(tree, lambda _: nodes.Identifier("v"), mark=1)
        declarator = result.init_declarators[0].declarator
        assert declarator == decls.NameDeclarator("v")

    def test_declarator_value_used_directly(self):
        pointer = decls.PointerDeclarator(decls.NameDeclarator("p"), [])
        tree = parse_template_fragment(
            "decl", "int $y;", {"y": prim("declarator")}
        )
        result = instantiate(tree, lambda _: pointer, mark=1)
        assert result.init_declarators[0].declarator == pointer

    def test_init_declarator_list(self):
        items = [
            decls.InitDeclarator(decls.NameDeclarator("a"), nodes.IntLit(1)),
            decls.InitDeclarator(decls.NameDeclarator("b"), None),
        ]
        tree = parse_template_fragment(
            "decl", "int $y;", {"y": list_of(prim("init_declarator"))}
        )
        result = instantiate(tree, lambda _: items, mark=1)
        assert result.init_declarators == items


class TestMarksAndAliasing:
    def test_spine_nodes_get_the_mark(self):
        result = run("`(1 + $x)", {"x": EXP}, {"x": nodes.Identifier("u")})
        assert result.mark == 77
        assert result.left.mark == 77

    def test_substituted_values_keep_their_mark(self):
        user = nodes.Identifier("u")  # mark None
        result = run("`(1 + $x)", {"x": EXP}, {"x": user})
        assert result.right.mark is None

    def test_template_reuse_is_safe(self):
        bq = parse_backquote("`(g($x))", {"x": EXP})
        one = instantiate(bq.template, lambda _: nodes.Identifier("a"), mark=1)
        two = instantiate(bq.template, lambda _: nodes.Identifier("b"), mark=2)
        assert one.args[0].name == "a"
        assert two.args[0].name == "b"


class TestErrors:
    def test_null_value_is_expansion_error(self):
        bq = parse_backquote("`(f($x))", {"x": EXP})
        with pytest.raises(ExpansionError) as exc:
            instantiate(bq.template, lambda _: NULL, mark=1)
        assert "NULL" in str(exc.value)

    def test_list_in_scalar_position_rejected(self):
        bq = parse_backquote("`{if ($c) t();}", {"c": EXP})
        with pytest.raises(ExpansionError):
            instantiate(
                bq.template,
                lambda _: [nodes.Identifier("a"), nodes.Identifier("b")],
                mark=1,
            )
