"""Lineage-keyed intermediates: canonical forms, dependencies, step caching.

An executed e-unit step's result carries the lineage of the source plan
that produced it plus the version pins of the base relations it depends on
(:class:`~repro.relational.algebra.Materialized`).  Pinned here:

* the canonical form is version-exact, so neither the plan cache nor the
  optimizer memo can serve a fingerprint computed before a write;
* lineage leaves hand their dependencies down to every plan built on them;
* :meth:`~repro.relational.executor.Executor.execute_step` serves repeated
  steps from the cache, refuses steps larger than every base relation they
  read, and no cache entry keeps an input intermediate alive.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.relational.algebra import (
    Join,
    Materialized,
    Product,
    Project,
    Scan,
    Select,
    lineage_key,
)
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.expressions import col
from repro.relational.optimizer import Optimizer
from repro.relational.plancache import PlanCache, dependency_versions, plan_dependencies
from repro.relational.predicates import ColumnEquals, Equals
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import DataType

_I = DataType.INTEGER
_S = DataType.STRING


@pytest.fixture()
def database():
    schema = DatabaseSchema(
        "S",
        [
            RelationSchema.build("emp", [("id", _I), ("dept", _I)]),
            RelationSchema.build("dept", [("id", _I), ("dname", _S)]),
        ],
    )
    db = Database(schema)
    db.set_relation(
        "emp",
        Relation.from_schema(schema.relation("emp"), [(1, 10), (2, 20), (3, 10)]),
    )
    db.set_relation(
        "dept", Relation.from_schema(schema.relation("dept"), [(10, "db"), (20, "os")])
    )
    return db


def _rows():
    return Relation(["emp.id"], [(1,), (2,)])


def _emp_in(dept: int):
    return Project(Select(Scan("emp"), Equals(col("emp.dept"), dept)), [col("emp.id")])


# --------------------------------------------------------------------------- #
# canonical forms
# --------------------------------------------------------------------------- #
class TestCanonicalForm:
    def test_same_lineage_and_pins_share_a_canonical_form(self):
        one = Materialized(_rows(), "u1", lineage="L", versions={"emp": 3})
        two = Materialized(_rows(), "u7", lineage="L", versions={"emp": 3})
        assert one.canonical() == two.canonical()  # labels do not matter

    def test_version_pins_are_part_of_the_canonical_form(self):
        before = Materialized(_rows(), lineage="L", versions={"emp": 3})
        after = Materialized(_rows(), lineage="L", versions={"emp": 4})
        assert before.canonical() != after.canonical()
        assert "emp@3" in before.canonical()

    def test_different_lineages_differ(self):
        one = Materialized(_rows(), lineage="L1", versions={"emp": 3})
        two = Materialized(_rows(), lineage="L2", versions={"emp": 3})
        assert one.canonical() != two.canonical()

    def test_nested_lineage_is_hashed_not_inlined(self):
        lineage = "Select[x](" * 200
        leaf = Materialized(_rows(), lineage=lineage, versions={"emp": 1})
        assert len(leaf.canonical()) < 80

    def test_leaves_without_lineage_are_identity_keyed(self):
        one, two = Materialized(_rows()), Materialized(_rows())
        assert one.canonical() != two.canonical()
        assert one.versions == {}
        plan = Select(one, Equals(col("emp.id"), 1))
        assert lineage_key(plan) is None

    def test_lineage_key_is_the_plans_canonical_form(self):
        leaf = Materialized(_rows(), lineage="L", versions={"emp": 1})
        plan = Select(leaf, Equals(col("emp.id"), 1))
        assert lineage_key(plan) == plan.canonical()
        assert lineage_key(_emp_in(10)) == _emp_in(10).canonical()


# --------------------------------------------------------------------------- #
# dependencies
# --------------------------------------------------------------------------- #
class TestDependencies:
    def test_lineage_leaves_pass_their_dependencies_down(self):
        leaf = Materialized(_rows(), lineage="L", versions={"emp": 3})
        plan = Join(leaf, Scan("dept"), ColumnEquals(col("emp.id"), col("dept.id")))
        assert plan_dependencies(plan) == {"emp", "dept"}

    def test_pins_win_over_live_versions_and_older_pins_win(self, database):
        live = database.relation("dept").version
        leaf = Materialized(_rows(), lineage="L", versions={"emp": 3})
        plan = Join(leaf, Scan("dept"), ColumnEquals(col("emp.id"), col("dept.id")))
        assert dependency_versions(plan, database) == {"emp": 3, "dept": live}
        assert dependency_versions(plan, database, {"emp": 9})["emp"] == 3

    def test_write_to_an_inherited_dependency_drops_the_entry(self, database):
        cache = PlanCache()
        cache.attach(database)
        pins = {"emp": database.relation("emp").version}
        leaf = Materialized(_rows(), lineage="L", versions=pins)
        plan = Select(leaf, Equals(col("emp.id"), 1))
        cache.put(plan.canonical(), plan, _rows(), database)
        database.append_rows("emp", [(4, 20)])
        assert plan.canonical() not in cache

    def test_plans_over_intermediates_are_stored_without_the_plan(self, database):
        cache = PlanCache()
        leaf = Materialized(_rows(), lineage="L", versions={"emp": 1})
        over_leaf = cache.put("a", Select(leaf, Equals(col("emp.id"), 1)), _rows())
        over_scan = cache.put("b", _emp_in(10), _rows())
        assert over_leaf.node is None  # could never be append-patched
        assert over_scan.node is not None  # kept for append patching


# --------------------------------------------------------------------------- #
# execute_step
# --------------------------------------------------------------------------- #
class TestExecuteStep:
    def test_repeat_is_served_from_the_cache(self, database):
        cache = PlanCache()
        cache.attach(database)
        executor = Executor(database)
        first = executor.execute_step(_emp_in(10), cache, label="u1")
        ops = executor.stats.source_operators
        second = executor.execute_step(_emp_in(10), cache, label="u2")
        assert executor.stats.source_operators == ops  # nothing executed
        assert executor.stats.plan_cache_hits == 1
        assert executor.stats.operators_saved == ops
        assert second.relation is first.relation
        assert second.canonical() == first.canonical()
        assert second.label == "u2"

    def test_step_over_a_step_is_keyed_on_lineage(self, database):
        cache = PlanCache()
        cache.attach(database)
        executor = Executor(database)
        for _ in range(2):
            leaf = executor.execute_step(_emp_in(10), cache)
            executor.execute_step(Select(leaf, Equals(col("emp.id"), 3)), cache)
        assert executor.stats.plan_cache_hits == 2
        assert len(cache) == 2

    def test_pins_follow_the_data_across_a_write(self, database):
        cache = PlanCache()
        cache.attach(database)
        executor = Executor(database)
        before = executor.execute_step(_emp_in(10), cache)
        database.update_rows("emp", [0], [(1, 20)])
        after = executor.execute_step(_emp_in(10), cache)
        assert after.canonical() != before.canonical()
        assert after.versions["emp"] == database.relation("emp").version
        assert sorted(after.relation.rows) == [(3,)]

    def test_oversize_step_is_not_admitted(self, database):
        cache = PlanCache()
        cache.attach(database)
        executor = Executor(database)
        product = Product(Scan("emp"), Scan("dept"))  # 6 rows > 3 (emp)
        result = executor.execute_step(product, cache)
        assert len(result.relation) == 6
        assert product.canonical() not in cache
        assert result.lineage == product.canonical()  # still keyed
        selected = Select(result, ColumnEquals(col("emp.dept"), col("dept.id")))
        executor.execute_step(selected, cache)
        assert selected.canonical() in cache  # the smaller step is cached

    def test_cache_entry_never_keeps_an_input_alive(self, database):
        cache = PlanCache()
        cache.attach(database)
        executor = Executor(database, optimizer=Optimizer(database))
        product = executor.execute_step(Product(Scan("emp"), Scan("dept")), cache)
        selected = Select(product, ColumnEquals(col("emp.dept"), col("dept.id")))
        executor.execute_step(selected, cache)
        entry = cache.get(selected.canonical())
        assert len(cache) == 1 and entry.node is None
        del selected
        alive = weakref.ref(product)
        del product
        gc.collect()
        assert alive() is None  # neither the entry nor the memo holds the leaf

    def test_leaf_without_lineage_runs_uncached(self, database):
        cache = PlanCache()
        executor = Executor(database)
        leaf = Materialized(Relation(["emp.id"], [(1,), (2,)]))
        result = executor.execute_step(Select(leaf, Equals(col("emp.id"), 1)), cache)
        assert result.lineage is None
        assert cache.stats.lookups == 0 and len(cache) == 0


def test_optimizer_memo_cannot_serve_pre_write_rows(database):
    """A memo hit on a plan over a lineage leaf needs the same version pins."""
    optimizer = Optimizer(database)
    executor = Executor(database, optimizer=optimizer)

    def run():
        leaf = executor.execute_step(_emp_in(10))
        # Not a single-operator plan, so the optimizer memoizes it.
        plan = Join(leaf, Scan("dept"), ColumnEquals(col("emp.id"), col("dept.id")))
        return leaf, executor.execute(plan)

    leaf, _ = run()
    hits = executor.stats.optimizer_memo_hits
    again, _ = run()
    assert again.canonical() == leaf.canonical()
    assert executor.stats.optimizer_memo_hits > hits  # same data: the memo serves
    # Only emp changes: the memo's own freshness check (dept's version) passes,
    # so only the leaf's version pins keep it from reusing the old leaf.
    database.append_rows("emp", [(10, 10)])
    fresh, joined = run()
    assert fresh.canonical() != leaf.canonical()
    assert sorted(fresh.relation.rows) == [(1,), (3,), (10,)]
    assert joined.rows == [(10, 10, "db")]
