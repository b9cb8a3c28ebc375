"""Session reuse: one warm session vs N cold one-shot calls.

The serving scenario the session-first API exists for: the same 20-query
workload (5 distinct Table III queries, repeated as real traffic repeats
them) arrives again and again.  Cold one-shot calls pay the full price every
time — reformulation, clustering, planning, execution.  A warm
:class:`repro.Session` keeps the plan cache, statistics catalog and
optimizer memo between workloads, so the repeat pass is answered from shared
materializations.

CI gates (operator counts are deterministic; wall-clock is reported but not
gated — this may run on a 1-core container):

* the warm session's repeat pass reports plan-cache hits;
* across both passes the warm session executes **strictly fewer** source
  operators than the same two workloads served cold;
* answers are byte-identical, pass for pass.

Emits ``BENCH_session_reuse.json`` at the repo root with operator counts and
wall-clock per series.

A second test measures the default path (o-sharing, one ``session.query``
per call) on the benchmark scenario: each Table III query Q1-Q10 run twice
in one session.  Gates: a warm repeat never executes more source operators
than the cold run, answers are byte-identical, and the queries whose every
e-unit step fits the cache's admission rule (Q1, Q2, Q5, Q6, Q10) execute
no source operator at all when warm.  Emits ``BENCH_warm_repeat.json``.
"""

from __future__ import annotations

from repro import ExecutionPolicy, Session
from repro.bench.reporting import format_table
from repro.core import evaluate_many
from repro.obs import write_bench_artifact
from repro.workloads.queries import PAPER_QUERIES

#: Table III queries whose every e-unit step is admitted to the plan cache;
#: the others repeat an over-size step (a cross product) on every call.
FULLY_CACHED = ("Q1", "Q2", "Q5", "Q6", "Q10")

#: Each Excel query of Table III, repeated as serving traffic would repeat it.
WORKLOAD_QUERY_IDS = ["Q1", "Q2", "Q3", "Q4", "Q5"] * 4


def _build_workload(scenario):
    return [
        PAPER_QUERIES[qid].build(scenario.target_schema) for qid in WORKLOAD_QUERY_IDS
    ]


def _run_cold(queries, scenario, passes):
    """The one-shot regime: every workload rebuilds all cross-query state."""
    return [
        evaluate_many(
            queries, scenario.mappings, scenario.database, links=scenario.links
        )
        for _ in range(passes)
    ]


def _run_warm(queries, scenario, passes):
    """The session regime: one plan cache / optimizer memo across passes."""
    with Session(
        scenario.database,
        scenario.mappings,
        links=scenario.links,
        policy=ExecutionPolicy(method="batch"),
    ) as session:
        batches = [session.query_many(queries) for _ in range(passes)]
        snapshot = session.stats.snapshot()
    return batches, snapshot


def test_session_reuse(benchmark, small_excel_bench, report_writer):
    scenario = small_excel_bench
    queries = _build_workload(scenario)
    assert len(queries) == 20
    passes = 2

    cold = benchmark.pedantic(
        _run_cold, args=(queries, scenario, passes), rounds=1, iterations=1
    )
    warm, session_snapshot = _run_warm(queries, scenario, passes)

    rows = []
    for number, (cold_batch, warm_batch) in enumerate(zip(cold, warm), start=1):
        rows.append(
            [
                f"pass {number}",
                round(cold_batch.total_seconds, 4),
                cold_batch.source_operators,
                round(warm_batch.total_seconds, 4),
                warm_batch.source_operators,
                warm_batch.stats.plan_cache_hits,
            ]
        )
    cold_ops = sum(batch.source_operators for batch in cold)
    warm_ops = sum(batch.source_operators for batch in warm)
    cold_seconds = sum(batch.total_seconds for batch in cold)
    warm_seconds = sum(batch.total_seconds for batch in warm)
    rows.append(
        [
            "total",
            round(cold_seconds, 4),
            cold_ops,
            round(warm_seconds, 4),
            warm_ops,
            sum(batch.stats.plan_cache_hits for batch in warm),
        ]
    )

    text = (
        f"== Session reuse ({len(queries)}-query workload x {passes} passes) ==\n\n"
        + format_table(
            [
                "pass",
                "cold [s]",
                "cold ops",
                "warm [s]",
                "warm ops",
                "warm cache hits",
            ],
            rows,
        )
        + "\n\nsession: "
        + ", ".join(
            f"{key}={value}"
            for key, value in session_snapshot.items()
            if key not in ("plan_cache", "seconds")
        )
        + "\n(wall-clock reported, not gated: operator counts are the "
        "deterministic metric on 1-core CI)\n"
    )
    report_writer("session_reuse", text)

    payload = {
        "workload": {"queries": len(queries), "passes": passes},
        "series": {
            "cold": {
                "passes": [
                    {
                        "seconds": batch.total_seconds,
                        "source_operators": batch.source_operators,
                    }
                    for batch in cold
                ],
                "total_source_operators": cold_ops,
                "total_seconds": cold_seconds,
            },
            "warm": {
                "passes": [
                    {
                        "seconds": batch.total_seconds,
                        "source_operators": batch.source_operators,
                        "plan_cache_hits": batch.stats.plan_cache_hits,
                    }
                    for batch in warm
                ],
                "total_source_operators": warm_ops,
                "total_seconds": warm_seconds,
            },
        },
        "session": session_snapshot,
        "gates": {
            "warm_repeat_pass_hits_cache": warm[-1].stats.plan_cache_hits > 0,
            "warm_ops_strictly_fewer_than_cold": warm_ops < cold_ops,
        },
    }
    write_bench_artifact("session_reuse", payload)

    # Answers are byte-identical in every pass.
    for cold_batch, warm_batch in zip(cold, warm):
        for one, two in zip(cold_batch.results, warm_batch.results):
            assert dict(one.answers.items()) == dict(two.answers.items())
            assert one.answers.empty_probability == two.answers.empty_probability
    # The warm repeat pass is served from the session plan cache...
    assert warm[-1].stats.plan_cache_hits > 0
    assert warm[-1].source_operators < warm[0].source_operators
    # ...and the warm session executes strictly fewer source operators than
    # the same workloads served cold (the cold passes each pay full price).
    assert warm_ops < cold_ops


def test_default_path_warm_repeat(bench_scenarios, report_writer):
    rows, series = [], {}
    for query_id in sorted(PAPER_QUERIES, key=lambda name: int(name[1:])):
        spec = PAPER_QUERIES[query_id]
        scenario = bench_scenarios[spec.target]
        query = spec.build(scenario.target_schema)
        with Session(scenario.database, scenario.mappings, links=scenario.links) as session:
            cold = session.query(query)
            warm = session.query(query)
        assert dict(warm.answers.items()) == dict(cold.answers.items()), query_id
        assert warm.answers.empty_probability == cold.answers.empty_probability
        series[query_id] = {
            "target": spec.target,
            "cold_source_operators": cold.source_operators,
            "warm_source_operators": warm.source_operators,
            "warm_plan_cache_hits": warm.stats.plan_cache_hits,
            "warm_operators_saved": warm.stats.operators_saved,
            "cold_seconds": cold.elapsed_seconds,
            "warm_seconds": warm.elapsed_seconds,
        }
        rows.append(
            [
                query_id,
                spec.target,
                cold.source_operators,
                warm.source_operators,
                warm.stats.plan_cache_hits,
                round(cold.elapsed_seconds, 4),
                round(warm.elapsed_seconds, 4),
            ]
        )

    gates = {
        "warm_never_costs_more": all(
            point["warm_source_operators"] <= point["cold_source_operators"]
            for point in series.values()
        ),
        "fully_cached_warm_repeats_execute_nothing": all(
            series[query_id]["warm_source_operators"] == 0 for query_id in FULLY_CACHED
        ),
    }
    report_writer(
        "warm_repeat",
        "== Default-path warm repeat (o-sharing, one session per query) ==\n\n"
        + format_table(
            ["query", "target", "cold ops", "warm ops", "warm hits", "cold [s]", "warm [s]"],
            rows,
        )
        + "\n(wall-clock reported, not gated)\n",
    )
    write_bench_artifact(
        "warm_repeat",
        {"method": "o-sharing", "fully_cached": FULLY_CACHED, "series": series, "gates": gates},
    )
    assert all(gates.values()), gates
