"""The default path's warm repeat: o-sharing steps served from the plan cache.

Every e-unit step result is keyed on its lineage, so a session that runs a
query again finds the reformulated source operators it already executed in
its plan cache.  Pinned here on the Table III queries:

* a warm repeat never executes more source operators than the cold run, and
  the queries without an over-size intermediate execute none at all;
* warm answers are byte-identical to the cold ones;
* over-size steps (cross products) are recomputed rather than cached, and
  nothing the session keeps holds them alive after the query;
* anytime and o-sharing report the same counters when they start from the
  same cache state (ARCHITECTURE invariant 11 with a warm cache).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import ExecutionPolicy, Session
from repro.relational.executor import Executor
from repro.workloads.queries import PAPER_QUERIES

#: Queries whose every step result fits under the admission rule.
FULLY_CACHED = ("Q1", "Q2", "Q5", "Q6", "Q10")

_COUNTERS = (
    "source_operators",
    "reformulations",
    "partitions_created",
    "rows_scanned",
    "rows_output",
    "plan_cache_hits",
    "plan_cache_misses",
    "operators_saved",
    "eunits_created",
    "eunits_pruned",
    "mappings_evaluated",
)


def _session(scenario, **policy):
    return Session(
        scenario.database,
        scenario.mappings,
        links=scenario.links,
        policy=ExecutionPolicy(**policy),
    )


def _answers(result):
    return dict(result.answers.items()), result.answers.empty_probability


@pytest.mark.parametrize("query_id", sorted(PAPER_QUERIES, key=lambda q: int(q[1:])))
def test_warm_repeat_never_costs_more_than_cold(scenarios, query_id):
    spec = PAPER_QUERIES[query_id]
    scenario = scenarios[spec.target]
    query = spec.build(scenario.target_schema)
    with _session(scenario) as session:
        cold = session.query(query)
        warm = session.query(query)
    assert _answers(warm) == _answers(cold)
    assert warm.stats.source_operators <= cold.stats.source_operators
    assert warm.stats.plan_cache_hits > 0
    if query_id in FULLY_CACHED:
        assert warm.stats.source_operators == 0
        assert warm.stats.operators_saved >= cold.stats.source_operators


def test_repeat_is_visible_in_session_counters(excel_scenario):
    query = PAPER_QUERIES["Q1"].build(excel_scenario.target_schema)
    with _session(excel_scenario) as session:
        session.query(query)
        session.query(query)
        stats = session.stats
    assert stats.totals.plan_cache_hits > 0
    assert stats.totals.operators_saved > 0
    assert stats.plan_cache["hits"] == stats.totals.plan_cache_hits
    assert stats.plan_cache["entries"] > 0


def test_refused_products_die_after_the_query(excel_scenario, monkeypatch):
    refused = []
    execute_step = Executor.execute_step

    def spy(self, plan, cache=None, label=""):
        leaf = execute_step(self, plan, cache, label)
        if cache is not None and leaf.lineage not in cache:
            refused.append(weakref.ref(leaf))
        return leaf

    monkeypatch.setattr(Executor, "execute_step", spy)
    query = PAPER_QUERIES["Q3"].build(excel_scenario.target_schema)
    with _session(excel_scenario) as session:
        session.query(query)
        gc.collect()
        assert refused  # Q3 is product-bound: some step was over-size
        assert all(ref() is None for ref in refused)


@pytest.mark.parametrize("query_id", ["Q2", "Q3", "Q5"])
def test_anytime_matches_osharing_from_the_same_cache_state(excel_scenario, query_id):
    warmup = PAPER_QUERIES["Q1"].build(excel_scenario.target_schema)
    query = PAPER_QUERIES[query_id].build(excel_scenario.target_schema)
    results = {}
    for method in ("o-sharing", "anytime"):
        with _session(excel_scenario, method=method) as session:
            session.query(warmup)
            cold = session.query(query)
            warm = session.query(query)
        results[method] = (cold, warm)
    for exact, anytime in zip(results["o-sharing"], results["anytime"]):
        assert _answers(anytime) == _answers(exact)
        for name in _COUNTERS:
            assert getattr(anytime.stats, name) == getattr(exact.stats, name), name
