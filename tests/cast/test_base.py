"""Tests for AST node base machinery: traversal, rebuild, clone, marks."""

from pathlib import Path

import pytest

from repro.cast import nodes, stmts
from repro.cast.base import (
    children,
    clone,
    node_fields,
    rebuild,
    set_mark,
    transform,
    walk,
)
from repro.engine import MacroProcessor
from repro.errors import SourceLocation

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "corpus"


def recursive_walk(node):
    """The reference pre-order: one generator frame per tree level."""
    yield node
    for child in children(node):
        yield from recursive_walk(child)


def sample_tree() -> stmts.CompoundStmt:
    # { x = 1; f(y); }
    return stmts.CompoundStmt(
        [],
        [
            stmts.ExprStmt(
                nodes.AssignOp("=", nodes.Identifier("x"), nodes.IntLit(1))
            ),
            stmts.ExprStmt(
                nodes.Call(nodes.Identifier("f"), [nodes.Identifier("y")])
            ),
        ],
    )


class TestEquality:
    def test_structural_equality(self):
        assert sample_tree() == sample_tree()

    def test_location_is_ignored(self):
        a = nodes.Identifier("x", loc=SourceLocation(1, 1, 0))
        b = nodes.Identifier("x", loc=SourceLocation(99, 9, 200))
        assert a == b

    def test_mark_is_ignored(self):
        a = nodes.Identifier("x")
        b = nodes.Identifier("x", mark=7)
        assert a == b

    def test_different_names_unequal(self):
        assert nodes.Identifier("x") != nodes.Identifier("y")

    def test_different_classes_unequal(self):
        assert nodes.Identifier("x") != nodes.IntLit(1)

    def test_nested_difference_detected(self):
        a = sample_tree()
        b = sample_tree()
        b.stmts[0].expr.value = nodes.IntLit(2)
        assert a != b


class TestTraversal:
    def test_children_flattens_lists(self):
        tree = sample_tree()
        kids = list(children(tree))
        assert len(kids) == 2
        assert all(isinstance(k, stmts.ExprStmt) for k in kids)

    def test_walk_visits_every_node(self):
        count = sum(1 for _ in walk(sample_tree()))
        # compound + 2 exprstmts + assign + x + 1 + call + f + y
        assert count == 9

    def test_walk_preorder(self):
        order = [type(n).__name__ for n in walk(sample_tree())]
        assert order[0] == "CompoundStmt"
        assert order[1] == "ExprStmt"

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.iterdir()), ids=lambda p: p.name
    )
    def test_walk_matches_recursive_preorder(self, path):
        unit = MacroProcessor().expand_to_ast(path.read_text(), str(path))
        expected = [id(n) for n in recursive_walk(unit)]
        assert len(expected) > 10
        assert [id(n) for n in walk(unit)] == expected

    def test_node_fields_excludes_loc_and_mark(self):
        names = [f.name for f in node_fields(nodes.Identifier("x"))]
        assert names == ["name"]


class TestRebuild:
    def test_rebuild_identity(self):
        tree = sample_tree()
        rebuilt = rebuild(tree, lambda child: child)
        assert rebuilt == tree
        assert rebuilt is not tree

    def test_rebuild_replaces_nodes(self):
        tree = sample_tree()

        def swap(child):
            if isinstance(child, stmts.ExprStmt):
                return stmts.NullStmt()
            return child

        rebuilt = rebuild(tree, swap)
        assert all(isinstance(s, stmts.NullStmt) for s in rebuilt.stmts)

    def test_rebuild_splices_lists(self):
        tree = sample_tree()

        def duplicate(child):
            return [child, clone(child)]

        rebuilt = rebuild(tree, duplicate)
        assert len(rebuilt.stmts) == 4

    def test_transform_bottom_up(self):
        tree = sample_tree()

        def rename(node):
            if isinstance(node, nodes.Identifier) and node.name == "x":
                return nodes.Identifier("z")
            return node

        result = transform(tree, rename)
        assert result.stmts[0].expr.target.name == "z"
        # Original untouched.
        assert tree.stmts[0].expr.target.name == "x"


class TestClone:
    def test_clone_is_deep(self):
        tree = sample_tree()
        copy = clone(tree)
        assert copy == tree
        copy.stmts[0].expr.target.name = "changed"
        assert tree.stmts[0].expr.target.name == "x"

    def test_clone_preserves_marks(self):
        tree = nodes.Identifier("x", mark=5)
        assert clone(tree).mark == 5

    def test_clone_shares_non_node_values(self):
        inv = nodes.MacroInvocation("m", [], definition=object())
        copy = clone(inv)
        assert copy.definition is inv.definition


class TestMarks:
    def test_set_mark_stamps_subtree(self):
        tree = sample_tree()
        set_mark(tree, 3)
        assert all(n.mark == 3 for n in walk(tree))
