"""Determinism and shape of the benchmark's workload generators.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.  Nothing here
builds a scenario or starts a session, so the file runs in about a second.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import gen, run, tracing
from repro.datagen.target_schemas import target_schema
from repro.workloads import paper_query

CARDINALITIES = {"orders": 36, "lineitem": 144}


def _serve_hot_shape(seed: int):
    plan = gen.serve_hot(seed, 10)
    return plan.catalogs, plan.arrivals


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen.paper_unique(seed, 120),
        _serve_hot_shape,
        lambda seed: gen.rw_mixed(seed, 150, CARDINALITIES),
    ],
    ids=["paper-unique", "serve-hot", "rw-mixed"],
)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_paper_unique_has_fixed_template_counts_whatever_the_seed():
    expected = gen._exact_counts(gen.PAPER_UNIQUE_SHARES, 120)
    for seed in (1, 2, 3):
        sequence = gen.paper_unique(seed, 120)
        counts = {t: sum(1 for r in sequence if r.template == t) for t in expected}
        assert counts == expected
        assert gen.properties(sequence)["distinct_share"] > 0.6


def test_serve_hot_tenants_get_fixed_counts_and_the_ladder_is_fixed():
    plan = gen.serve_hot(5, 10)

    def counts(arrivals):
        return [
            [sum(1 for a in arrivals if a.tenant == t and a.rung == r) for t in gen.SERVE_HOT_TENANTS]
            for r in range(len(plan.rungs))
        ]

    assert counts(plan.arrivals) == counts(gen.serve_hot(6, 10).arrivals)
    assert all(max(rung) - min(rung) <= 1 for rung in counts(plan.arrivals)[1:])
    warmup, *measured = plan.rungs
    assert warmup.warmup and not any(rung.warmup for rung in measured)
    assert sorted((a.tenant, a.entry) for a in plan.arrivals if a.rung == 0) == sorted(
        (tenant, entry) for tenant, catalog in plan.catalogs.items() for entry in catalog
    )
    rates = [rung.rate for rung in measured]
    assert rates[1::2] == list(gen.LADDER_RATES)
    assert set(rates[::2]) == {gen.REFERENCE_RATE}
    assert sum(rung.seconds for rung in measured) == pytest.approx(10)
    for arrival in plan.arrivals:
        assert arrival.entry in plan.catalogs[arrival.tenant]
    hot = {(a.tenant, a.entry) for a in plan.arrivals}
    assert len(hot) <= sum(len(c) for c in plan.catalogs.values()) < gen.CACHE_SIZE


def test_rw_mixed_deletes_exactly_what_it_appended():
    operations = gen.rw_mixed(7, 150, CARDINALITIES)
    writes = [op for op in operations if isinstance(op, gen.Write)]
    assert len(writes) == round(gen.RW_WRITE_SHARE * 150)
    size = dict(CARDINALITIES)
    for write in writes:
        if write.kind == "append":
            assert size[write.relation] == CARDINALITIES[write.relation]
            assert all(p < size[write.relation] for p in write.positions)
            size[write.relation] += len(write.positions)
        elif write.kind == "delete":
            start = CARDINALITIES[write.relation]
            assert write.positions == tuple(range(start, size[write.relation]))
            size[write.relation] = start
        else:
            assert write.positions[0] < CARDINALITIES[write.relation]
            assert write.value in gen.RW_UPDATE_COLUMNS[write.relation][write.column]


@pytest.mark.parametrize("template", sorted(gen.PAPER_UNIQUE_SHARES))
def test_table_iii_constants_rebuild_the_paper_query(template):
    schema = target_schema(gen._target(template))
    rebuilt = gen.instantiate(gen.paper_request(template), schema)
    assert rebuilt.plan.canonical() == paper_query(template, schema).plan.canonical()


def test_drawn_constants_come_from_the_pools():
    import random

    rng = random.Random(0)
    for template in gen.PAPER_UNIQUE_SHARES:
        requests = gen.draw_requests(rng, template, 6)
        slots = gen.constant_slots(template)
        for index, (_, attribute, paper) in enumerate(slots):
            values = [request.constants[index] for request in requests]
            assert all(value in gen.POOLS[attribute] for value in values)
            assert values.count(paper) >= 3  # the Table III half, plus lucky draws


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["paper-unique", "serve-hot", "rw-mixed"]


def test_layer_wrappers_resolve_install_and_restore():
    import repro.core.evaluators.osharing as osharing

    original = osharing.reformulate_operator
    tracer = tracing.LayerTracer()
    with tracer:
        assert osharing.reformulate_operator is not original
    assert osharing.reformulate_operator is original
    assert set(tracing.LAYERS) >= {"session", "exec", "serve.parse", "write"}


def test_self_time_excludes_child_spans():
    tracer = tracing.LayerTracer(wrapped=())
    outer = tracer._wrap(lambda: inner(), "session")
    inner = tracer._wrap(lambda: sum(range(20000)), "exec")
    outer()
    layers = tracer.summary()
    spans = {layer: (end - start, own) for _, layer, start, end, own, _ in tracer.spans}
    assert spans["session"][1] == pytest.approx(spans["session"][0] - spans["exec"][0])
    assert layers["exec"]["calls"] == 1 and layers["session"]["calls"] == 1
    assert tracer.root_seconds() == pytest.approx(spans["session"][0])


def test_least_each_takes_each_positions_least_successful_sample():
    from perfbench.workloads import least_each

    passes = [[3.0, None, 5.0], [2.0, None, 7.0], [4.0, None, None]]
    assert least_each(passes) == [2.0, None, 5.0]
