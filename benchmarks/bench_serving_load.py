"""Serving front end under concurrent multi-tenant load.

Two phases over a live :class:`~repro.serving.server.ReproServer` speaking
real TCP on localhost:

* **warm** — 3 paper-example tenants, 3 pipelining clients each (9
  concurrent connections), every client cycling its tenant's query script
  for several rounds.  Headline: per-tenant plan-cache hit rate under
  concurrency, plus throughput and client-observed p50/p99 latency.
* **storm** — one tenant with ``queue_limit=2`` receives a 64-request
  burst: admission control must shed the overflow with structured
  ``overloaded`` refusals (Retry-After hints included) while the server
  stays healthy.

CI gates (wall-clock is reported, never gated — this may run on 1-core CI):

* every warm-phase response frame is **byte-identical** to a serial replay
  of that tenant's requests in ``seq`` order on an isolated session (the
  pinned serving invariant);
* every warm tenant's plan-cache hit rate clears a floor — concurrency must
  not silently trade the warm-cache win away;
* the storm sheds at least one request, every refusal is structured, and
  the server still answers ``healthz`` afterwards.

Emits ``BENCH_serving_load.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
from time import perf_counter

from repro.bench.reporting import format_table
from repro.datagen.paper_example import build_paper_example
from repro.obs import write_bench_artifact
from repro.policy import ExecutionPolicy
from repro.serving import ReproServer, ServingClient, TenantQuota, TenantSpec
from repro.serving.tenants import serial_replay

#: Per-tenant request scripts (catalog names), cycled by every client.
SCRIPTS = {
    "excel": ["q0", "q1", "q0", "q_phone"],
    "noris": ["q1", "q2", "q1"],
    "sales": ["q2", "q0", "q2", "q2", "q_phone"],
}

CLIENTS_PER_TENANT = 3
ROUNDS = 4

#: The default policy: o-sharing serves repeated e-unit steps from the
#: per-tenant plan cache — the warm-serving regime.
POLICY = ExecutionPolicy()

#: CI floor for the headline metric.  Scripts repeat 4 distinct queries over
#: 12 rounds per tenant (3 clients × 4), so a healthy shared plan cache sits
#: far above this; dipping below means concurrency went cold.
HIT_RATE_FLOOR = 0.2


def _spec(name: str, quota: TenantQuota | None = None) -> TenantSpec:
    example = build_paper_example()
    return TenantSpec(
        name=name,
        database=example.database,
        mappings=example.mappings,
        links=example.links,
        policy=POLICY,
        catalog={
            "q0": example.q0(),
            "q1": example.q1(),
            "q2": example.q2(),
            "q_phone": example.q_phone_by_addr(),
        },
        quota=quota if quota is not None else TenantQuota(queue_limit=64),
    )


async def _warm_client(server, tenant: str, script, rounds: int):
    """One client: sequential request/response, per-request latency taped."""
    client = await ServingClient.connect(*server.address)
    transcript = []
    try:
        for _ in range(rounds):
            for query in script:
                request = {"op": "query", "tenant": tenant, "query": query}
                started = perf_counter()
                response = await client.query(tenant, query)
                latency = perf_counter() - started
                assert response["ok"], f"warm request failed: {response}"
                frame = client.frames[response["id"]]
                transcript.append((request, response, frame, latency))
        return transcript
    finally:
        await client.close()


async def _warm_phase():
    specs = [_spec(name) for name in SCRIPTS]
    async with ReproServer(specs) as server:
        started = perf_counter()
        transcripts = await asyncio.gather(
            *(
                _warm_client(server, tenant, script, ROUNDS)
                for tenant, script in SCRIPTS.items()
                for _ in range(CLIENTS_PER_TENANT)
            )
        )
        elapsed = perf_counter() - started
        tenant_stats = {
            name: tenant.session.stats
            for name, tenant in server.tenants.items()
        }
    return transcripts, elapsed, tenant_stats


async def _storm_phase():
    async with ReproServer(
        [_spec("stormy", quota=TenantQuota(queue_limit=2))]
    ) as server:
        client = await ServingClient.connect(*server.address)
        try:
            futures = [
                await client.send("query", tenant="stormy", query="q0")
                for _ in range(64)
            ]
            responses = [await future for future in futures]
            health = await client.healthz()
        finally:
            await client.close()
        shed = [r for r in responses if not r["ok"]]
        served = [r for r in responses if r["ok"]]
        for refusal in shed:
            assert refusal["error"]["code"] == "overloaded", refusal
            assert refusal["error"]["retry_after_seconds"] > 0
        assert health["result"]["status"] == "ok"
        return len(served), len(shed)


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def test_serving_load(report_writer):
    transcripts, elapsed, tenant_stats = asyncio.run(_warm_phase())

    # ---- byte-identity gate: live frames == isolated serial replay ------ #
    by_tenant: dict[str, list] = {}
    latencies: list[float] = []
    for transcript in transcripts:
        for request, response, frame, latency in transcript:
            by_tenant.setdefault(response["tenant"], []).append(
                (request, response, frame)
            )
            latencies.append(latency)
    for name, triples in by_tenant.items():
        triples.sort(key=lambda triple: triple[1]["seq"])
        seqs = [response["seq"] for _, response, _ in triples]
        assert seqs == list(range(1, len(seqs) + 1)), f"{name}: seq gap"
        requests = [
            {**request, "id": response["id"]} for request, response, _ in triples
        ]
        live = [frame for _, _, frame in triples]
        assert live == serial_replay(_spec(name), requests), (
            f"tenant {name} diverged from its serial replay"
        )

    # ---- warm-cache gate: hit rate floor per tenant --------------------- #
    hit_rates = {}
    for name, stats in tenant_stats.items():
        cache = stats.plan_cache
        hit_rates[name] = cache["hit_rate"]
        assert cache["hits"] > 0, f"tenant {name} never hit its plan cache"
        assert cache["hit_rate"] >= HIT_RATE_FLOOR, (
            f"tenant {name} hit rate {cache['hit_rate']:.3f} "
            f"below floor {HIT_RATE_FLOOR}"
        )

    # ---- storm phase: structured shedding, healthy server --------------- #
    storm_served, storm_shed = asyncio.run(_storm_phase())
    assert storm_shed > 0, "queue_limit=2 under a 64-burst must shed load"

    # ---- report + artifact ---------------------------------------------- #
    total_requests = len(latencies)
    throughput = total_requests / elapsed if elapsed else 0.0
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)

    rows = [
        [
            name,
            len(by_tenant[name]),
            tenant_stats[name].plan_cache["hits"],
            round(hit_rates[name], 3),
        ]
        for name in sorted(by_tenant)
    ]
    text = (
        f"== Serving load ({len(SCRIPTS)} tenants x "
        f"{CLIENTS_PER_TENANT} clients x {ROUNDS} rounds) ==\n\n"
        + format_table(["tenant", "requests", "cache hits", "hit rate"], rows)
        + f"\n\ntotal: {total_requests} requests in {elapsed:.3f}s "
        f"({throughput:.0f} req/s), p50 {p50 * 1000:.2f} ms, "
        f"p99 {p99 * 1000:.2f} ms\n"
        f"storm: {storm_served} served, {storm_shed} shed "
        "(structured overloaded refusals)\n"
        "(wall-clock reported, not gated: byte-identity and cache-hit "
        "floors are the deterministic gates)\n"
    )
    report_writer("serving_load", text)

    write_bench_artifact(
        "serving_load",
        {
            "workload": {
                "tenants": len(SCRIPTS),
                "clients_per_tenant": CLIENTS_PER_TENANT,
                "rounds": ROUNDS,
                "requests": total_requests,
            },
            "headline": {
                "cache_hit_rate_by_tenant": hit_rates,
                "hit_rate_floor": HIT_RATE_FLOOR,
            },
            "latency": {
                "throughput_rps": throughput,
                "wall_seconds": elapsed,
                "p50_seconds": p50,
                "p99_seconds": p99,
            },
            "byte_identity": {
                "replayed_tenants": sorted(by_tenant),
                "identical": True,  # asserted above; failure aborts the run
            },
            "load_shedding": {"served": storm_served, "shed": storm_shed},
        },
    )
