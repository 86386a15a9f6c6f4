"""Base machinery for C AST nodes.

All AST nodes are slotted dataclasses deriving from :class:`Node`.
Structural equality ignores source locations and hygiene marks (both
are declared ``compare=False``), so two fragments parse-equal iff they
denote the same tree — the property the paper's "encapsulation"
guarantee rests on.

The module also provides generic traversal helpers (``children``,
``walk``, ``rebuild``) driven by dataclass field introspection, so
visitors do not need a hand-maintained case per node class.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterator

from repro.errors import SYNTHETIC, SourceLocation


def node(cls):
    """Class decorator: a slotted, structurally-comparable AST node."""
    return dataclass(eq=True, slots=True)(cls)


@dataclass(eq=True, slots=True)
class Node:
    """Common base for every AST node.

    ``loc`` records where the node was parsed from (synthetic for
    macro-generated code).  ``mark`` is the hygiene mark: ``None`` for
    user-written code, or an integer expansion-timestamp for nodes that
    originated in a macro template (see :mod:`repro.macros.hygiene`).
    """

    loc: SourceLocation = field(
        default=SYNTHETIC, compare=False, kw_only=True, repr=False
    )
    mark: int | None = field(
        default=None, compare=False, kw_only=True, repr=False
    )

    #: Short name used in S-expression renderings (Figures 2 and 3).
    sexpr_name: ClassVar[str] = ""


#: Per-class caches for dataclass field introspection.  ``fields()``
#: re-derives its result on every call, and the generic traversals
#: below (``walk`` and the expander's one pass over each expansion)
#: sit on the pipeline's hottest paths, so the metadata is computed
#: once per node class instead.
_INIT_FIELD_NAMES: dict[type, tuple[str, ...]] = {}
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def node_fields(obj: Node) -> tuple[dataclasses.Field, ...]:
    """The substantive (comparable, init) fields of a node."""
    names = child_fields(obj.__class__)
    return tuple(f for f in dataclasses.fields(obj) if f.name in names)


def _init_field_names(obj: Node) -> tuple[str, ...]:
    """Names of every ``init`` field of a node, cached per class."""
    cls = obj.__class__
    cached = _INIT_FIELD_NAMES.get(cls)
    if cached is None:
        cached = _INIT_FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(obj) if f.init
        )
    return cached


def child_fields(cls: type) -> tuple[str, ...]:
    """Names of the substantive (comparable, init) fields of node class
    ``cls``: the fields that can hold child nodes."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            f.name
            for f in dataclasses.fields(cls)
            if f.compare and f.init and f.name not in ("loc", "mark")
        )
    return names


def copy_node(obj: Node) -> Node:
    """A shallow copy: a new node sharing every field value."""
    cls = obj.__class__
    new = cls.__new__(cls)
    for name in _init_field_names(obj):
        setattr(new, name, getattr(obj, name))
    return new


def children(obj: Node) -> Iterator[Node]:
    """Yield every direct child node of ``obj`` (flattening lists)."""
    for name in child_fields(obj.__class__):
        value = getattr(obj, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(obj: Node) -> Iterator[Node]:
    """Pre-order traversal of the subtree rooted at ``obj``, on an
    explicit stack (one generator frame, whatever the depth)."""
    stack = [obj]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(children(node))))


def rebuild(obj: Node, mapper: Callable[[Any], Any]) -> Node:
    """Reconstruct ``obj`` with every child value passed through ``mapper``.

    ``mapper`` receives each field value (node, list element, or plain
    datum) and returns its replacement.  List-valued fields allow the
    mapper to return a list for an element, which is spliced in place.
    """
    kwargs: dict[str, Any] = {}
    for name in _init_field_names(obj):
        value = getattr(obj, name)
        if name in ("loc", "mark"):
            kwargs[name] = value
            continue
        if isinstance(value, Node):
            kwargs[name] = mapper(value)
        elif isinstance(value, list):
            out: list[Any] = []
            for item in value:
                mapped = mapper(item) if isinstance(item, Node) else item
                if isinstance(mapped, list):
                    out.extend(mapped)
                else:
                    out.append(mapped)
            kwargs[name] = out
        else:
            kwargs[name] = value
    return type(obj)(**kwargs)


def transform(obj: Node, fn: Callable[[Node], Any]) -> Any:
    """Bottom-up rewrite: apply ``fn`` to every node, children first.

    ``fn`` may return a replacement node, a list of nodes (spliced when
    the node sits in a list-valued field), or the node unchanged.
    """
    rebuilt = rebuild(obj, lambda child: transform(child, fn))
    return fn(rebuilt)


def clone(obj: Node) -> Node:
    """Structural deep copy of a subtree.

    Unlike :func:`copy.deepcopy`, non-node field values (strings, macro
    definition references, AST types) are shared by reference — only
    the tree structure is duplicated.
    """
    return rebuild(obj, lambda child: clone(child))


def set_mark(obj: Node, mark: int) -> None:
    """Destructively stamp ``mark`` on every node in the subtree."""
    for item in walk(obj):
        item.mark = mark
