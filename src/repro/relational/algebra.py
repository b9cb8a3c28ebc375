"""Logical relational-algebra plan nodes.

A query — target or source — is a tree of :class:`PlanNode`.  Target queries
are trees whose :class:`Scan` leaves name *target* relations and whose column
references use *target* attributes; source queries are the same structures
over source relations (obtained by reformulation).  o-sharing additionally
mixes in :class:`Materialized` leaves that hold already-computed intermediate
source relations.

Every node knows how to

* enumerate its children and rebuild itself with new children (generic tree
  rewriting used by o-sharing and MQO),
* list the column references it uses (used by partitioning and reformulation),
* produce a canonical fingerprint (used to detect identical source queries /
  shared sub-plans).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.relational.expressions import ColumnRef, Expression
from repro.relational.predicates import Predicate
from repro.relational.relation import Relation

_MATERIALIZED_IDS = itertools.count(1)


class PlanNode:
    """Base class of all plan nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        """Child nodes, left to right."""
        raise NotImplementedError

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """A copy of this node with its children replaced."""
        raise NotImplementedError

    def referenced_columns(self) -> list[ColumnRef]:
        """Column references used *by this node itself* (not its subtree)."""
        return []

    def canonical(self) -> str:
        """Canonical fingerprint of the subtree rooted at this node."""
        raise NotImplementedError

    # -- tree utilities -------------------------------------------------- #
    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def subtree_columns(self) -> list[ColumnRef]:
        """All column references in the subtree."""
        refs: list[ColumnRef] = []
        for node in self.walk():
            refs.extend(node.referenced_columns())
        return refs

    def operators(self) -> list["PlanNode"]:
        """All non-leaf operators in the subtree (pre-order)."""
        return [node for node in self.walk() if node.children()]

    def leaves(self) -> list["PlanNode"]:
        """All leaf nodes of the subtree."""
        return [node for node in self.walk() if not node.children()]

    def contains(self, node: "PlanNode") -> bool:
        """True when ``node`` (by identity) occurs in the subtree."""
        return any(candidate is node for candidate in self.walk())

    def replace(self, old: "PlanNode", new: "PlanNode") -> "PlanNode":
        """Return a copy of the subtree with ``old`` (by identity) replaced by ``new``."""
        if self is old:
            return new
        children = self.children()
        if not children:
            return self
        replaced = [child.replace(old, new) for child in children]
        if all(a is b for a, b in zip(replaced, children)):
            return self
        return self.with_children(replaced)

    def transform(self, visit: Callable[["PlanNode"], "PlanNode"]) -> "PlanNode":
        """Bottom-up rewrite: children first, then ``visit`` on the rebuilt node."""
        children = self.children()
        if children:
            rebuilt = self.with_children([child.transform(visit) for child in children])
        else:
            rebuilt = self
        return visit(rebuilt)

    def depth(self) -> int:
        """Height of the subtree (a leaf has depth 1)."""
        children = self.children()
        if not children:
            return 1
        return 1 + max(child.depth() for child in children)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.canonical()


# --------------------------------------------------------------------------- #
# leaves
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scan(PlanNode):
    """Scan of a named base relation, optionally under an alias.

    In a target query the relation name refers to a *target* relation
    (e.g. ``PO``); the alias (default: the relation name) is what column
    references use as qualifier, enabling self-joins (``PO1``, ``PO2``).
    """

    relation: str
    alias: str | None = None

    @property
    def label(self) -> str:
        """The qualifier under which this scan's columns are visible."""
        return self.alias or self.relation

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        if children:
            raise ValueError("Scan has no children")
        return self

    def canonical(self) -> str:
        return f"Scan({self.relation} AS {self.label})"


class Materialized(PlanNode):
    """A leaf holding an already-computed intermediate :class:`Relation`.

    o-sharing replaces executed operators with these nodes; e-MQO uses them to
    share the result of a common sub-plan between several source queries.

    A leaf built from an executed source plan carries a *lineage*: that
    plan's canonical form plus ``versions``, the data-version token of every
    base relation the result depends on (scanned directly or inherited from
    lineage leaves of the plan).  Its canonical form is then
    ``Materialized[<digest of lineage>|orders@7,...]`` — the same in every
    call that computes the same result over the same data, so the plan cache
    and the optimizer memo can recognise it again, and version-exact, so
    neither can serve a fingerprint computed before a write.  A leaf without
    a lineage is distinguished by identity: its canonical form embeds a
    process-unique id.
    """

    def __init__(
        self,
        relation: Relation,
        label: str = "",
        lineage: str | None = None,
        versions: dict[str, int] | None = None,
    ):
        self.relation = relation
        self.label = label or relation.name or "intermediate"
        self.lineage = lineage
        #: base-relation version pins of the lineage (empty without one)
        self.versions = dict(versions or {}) if lineage is not None else {}
        if lineage is None:
            self._canonical = f"Materialized(#{next(_MATERIALIZED_IDS)}:{self.label})"
        else:
            digest = hashlib.blake2b(lineage.encode(), digest_size=16).hexdigest()
            pins = ",".join(f"{name}@{v}" for name, v in sorted(self.versions.items()))
            self._canonical = f"Materialized[{digest}|{pins}]"

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        if children:
            raise ValueError("Materialized has no children")
        return self

    def canonical(self) -> str:
        return self._canonical

    @property
    def is_empty(self) -> bool:
        """True when the held relation has no rows."""
        return self.relation.is_empty

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Materialized({self.label!r}, rows={len(self.relation)})"


# --------------------------------------------------------------------------- #
# unary operators
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Select(PlanNode):
    """Selection σ_predicate(child)."""

    child: PlanNode
    predicate: Predicate

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Select(child, self.predicate)

    def referenced_columns(self) -> list[ColumnRef]:
        return self.predicate.referenced_columns()

    def canonical(self) -> str:
        return f"Select[{self.predicate.canonical()}]({self.child.canonical()})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Projection π_columns(child).

    ``distinct`` controls duplicate elimination; the paper's probabilistic
    answer aggregation removes duplicates at the answer level, so projections
    default to bag semantics.
    """

    child: PlanNode
    columns: tuple[ColumnRef, ...]
    distinct: bool = False

    def __init__(self, child: PlanNode, columns: Sequence[ColumnRef], distinct: bool = False):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "distinct", distinct)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Project(child, self.columns, self.distinct)

    def referenced_columns(self) -> list[ColumnRef]:
        return list(self.columns)

    def canonical(self) -> str:
        cols = ", ".join(ref.display for ref in self.columns)
        kind = "ProjectDistinct" if self.distinct else "Project"
        return f"{kind}[{cols}]({self.child.canonical()})"


AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Aggregate operator (COUNT/SUM/AVG/MIN/MAX), optionally grouped.

    ``argument`` may be ``None`` only for COUNT (count of rows).
    """

    child: PlanNode
    function: str
    argument: Expression | None = None
    group_by: tuple[ColumnRef, ...] = ()

    def __init__(
        self,
        child: PlanNode,
        function: str,
        argument: Expression | None = None,
        group_by: Sequence[ColumnRef] = (),
    ):
        function = function.upper()
        if function not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unsupported aggregate function {function!r}")
        if argument is None and function != "COUNT":
            raise ValueError(f"aggregate {function} requires an argument expression")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "argument", argument)
        object.__setattr__(self, "group_by", tuple(group_by))

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Aggregate(child, self.function, self.argument, self.group_by)

    def referenced_columns(self) -> list[ColumnRef]:
        refs: list[ColumnRef] = []
        if self.argument is not None:
            refs.extend(self.argument.referenced_columns())
        refs.extend(self.group_by)
        return refs

    def canonical(self) -> str:
        argument = str(self.argument) if self.argument is not None else "*"
        group = ", ".join(ref.display for ref in self.group_by)
        suffix = f" GROUP BY {group}" if group else ""
        return f"Aggregate[{self.function}({argument}){suffix}]({self.child.canonical()})"


# --------------------------------------------------------------------------- #
# binary operators
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Product(PlanNode):
    """Cartesian product left × right."""

    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return Product(left, right)

    def canonical(self) -> str:
        return f"Product({self.left.canonical()}, {self.right.canonical()})"


@dataclass(frozen=True)
class Union(PlanNode):
    """Set union left ∪ right (an extension beyond the paper's SPJ+aggregate set).

    Both inputs must have the same arity; the output adopts the left input's
    column labels.  ``distinct`` selects set semantics (the default, SQL's
    UNION) versus bag semantics (UNION ALL).
    """

    left: PlanNode
    right: PlanNode
    distinct: bool = True

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return Union(left, right, self.distinct)

    def canonical(self) -> str:
        kind = "Union" if self.distinct else "UnionAll"
        return f"{kind}({self.left.canonical()}, {self.right.canonical()})"


@dataclass(frozen=True)
class Join(PlanNode):
    """Theta join left ⋈_predicate right (executed as a hash join when possible)."""

    left: PlanNode
    right: PlanNode
    predicate: Predicate

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return Join(left, right, self.predicate)

    def referenced_columns(self) -> list[ColumnRef]:
        return self.predicate.referenced_columns()

    def canonical(self) -> str:
        return (
            f"Join[{self.predicate.canonical()}]"
            f"({self.left.canonical()}, {self.right.canonical()})"
        )


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def plan_scans(plan: PlanNode) -> list[Scan]:
    """All :class:`Scan` leaves in the plan."""
    return [node for node in plan.walk() if isinstance(node, Scan)]


def lineage_key(plan: PlanNode) -> str | None:
    """The lineage a result of ``plan`` would carry, or ``None``.

    ``None`` when some :class:`Materialized` leaf of the plan has no lineage
    of its own: its canonical form is identity-based, so no later call could
    ever produce the same key.
    """
    for node in plan.walk():
        if isinstance(node, Materialized) and node.lineage is None:
            return None
    return plan.canonical()


def plan_operator_count(plan: PlanNode) -> int:
    """Number of operator (non-leaf) nodes in the plan."""
    return len(plan.operators())


def plan_target_attributes(plan: PlanNode) -> list[ColumnRef]:
    """Distinct column references used anywhere in the plan, in first-use order."""
    seen: set[tuple[str | None, str]] = set()
    ordered: list[ColumnRef] = []
    for ref in plan.subtree_columns():
        key = (ref.qualifier, ref.name)
        if key not in seen:
            seen.add(key)
            ordered.append(ref)
    return ordered
