"""The three benchmark workloads, driven only through the public entry points.

Each workload builds its scenarios and starts the program (a
:class:`~repro.session.Session` or a :class:`~repro.serving.server.ReproServer`)
— together the ``setup_s`` sample — then runs its request sequence in
passes, each on freshly started sessions or servers, and finally, outside
every timed region, checks the answers against its correctness oracle.

* ``paper-unique`` — closed loop, one client, ``Session.query`` on the
  default policy over Q1-Q10 of all three targets; oracle: the same
  sequence under ``method="e-basic"`` must give equal answers (the same
  tuples, probabilities within the float tolerance of summing in another
  order: ARCHITECTURE invariant 1 — across evaluators the last digits of
  ``empty_probability`` legitimately differ, so bytes are not compared).
* ``serve-hot`` — open loop over TCP against an in-process ``ReproServer``
  with three tenants on two connections, along a fixed rate schedule;
  oracle: each tenant's frames must equal
  :func:`repro.serving.tenants.serial_replay` byte for byte.
* ``rw-mixed`` — closed loop, one client, a ``Session`` on Excel with a
  repeated hot read set and 20% ``Database`` writes; oracle: at every
  checkpoint read, a cold session on a fresh database that replayed the
  same writes must give byte-identical answers.

A shared host's speed can drift by tens of percent within seconds, so every
timing figure is the least-disturbed one a run saw.  Each pass replays the
same sequence (or schedule), so a request's samples lie seconds apart; a
request's latency is the least of its samples over the passes, and the
open-loop throughput is the best pass's.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench import gen
from repro.relational.stats import ExecutionStats

#: Passes per ``--trace 0`` run; each covers a third of the measured time.
PASSES = 3

# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def build_scenarios(targets) -> dict:
    from repro import build_scenario

    return {target: build_scenario(target=target, **gen.SCENARIO) for target in targets}


def answer_bytes(answers) -> bytes:
    """Canonical bytes of a probabilistic answer (the wire's rank-ordered form)."""
    from repro.serving.protocol import answer_payload

    return json.dumps(answer_payload(answers), sort_keys=True, separators=(",", ":")).encode()


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supported(count: int, fraction: float) -> bool:
    """True when at least ten samples lie beyond the ``fraction`` percentile."""
    return count * (1.0 - fraction) >= 10


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """What one measured pass (or several, combined) produced."""

    #: read latencies in ms, aligned with the read sequence (``None``: failed);
    #: open loop: the reference-rate reads, measured from their due time
    latencies_ms: list = field(default_factory=list)
    #: write latencies in ms, aligned with the write sequence
    write_latencies_ms: list = field(default_factory=list)
    #: operations completed and the time they took (the qps ratio)
    completed: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: counters summed over the completed reads
    reads: int = 0
    source_operators: int = 0
    rows_scanned: int = 0
    answer_tuples: int = 0
    #: open loop: how late the generator sent each request, ms
    lags: list = field(default_factory=list)
    #: summed ExecutionStats of the reads (serve-hot: of the tenant sessions)
    totals: ExecutionStats = field(default_factory=ExecutionStats)
    extra: dict[str, Any] = field(default_factory=dict)
    #: whatever the oracle needs, filled during the pass, checked after it
    evidence: Any = None

    def record(self, result) -> None:
        stats = result.stats
        self.reads += 1
        self.answer_tuples += len(result.answers.tuples)
        self.source_operators += stats.source_operators
        self.rows_scanned += stats.rows_scanned
        self.totals.merge(stats)


def least_each(rows):
    """Per position, the least of the passes' samples that succeeded.

    A slow stretch of the host inflates a sample; it never deflates one, so
    the least sample is the one closest to the program's own cost.
    """
    merged = []
    for samples in zip(*rows):
        good = [sample for sample in samples if sample is not None]
        merged.append(min(good) if good else None)
    return merged


def combine_closed(passes: list[Pass]) -> Pass:
    """Closed loop: per-request least latencies; counters and evidence of the last pass."""
    combined = passes[-1]
    combined.latencies_ms = least_each([p.latencies_ms for p in passes])
    combined.write_latencies_ms = least_each([p.write_latencies_ms for p in passes])
    done = [x for x in combined.latencies_ms + combined.write_latencies_ms if x is not None]
    combined.completed = len(done)
    combined.wall_s = sum(done) / 1000.0
    combined.attempted = sum(p.attempted for p in passes)
    combined.failed = sum(p.failed for p in passes)
    return combined


def figures(run: Pass) -> dict[str, float]:
    """The end-to-end figures of a (combined) run."""
    reads = [x for x in run.latencies_ms if x is not None]
    result = {
        "qps": run.completed / run.wall_s,
        "p50_ms": statistics.median(reads),
        "source_ops_per_query": run.source_operators / max(1, run.reads),
        "rows_scanned_per_query": run.rows_scanned / max(1, run.reads),
        "peak_rss_mb": peak_rss_mb(),
    }
    for name, fraction in (("p90_ms", 0.90), ("p99_ms", 0.99)):
        if supported(len(reads), fraction):
            result[name] = percentile(reads, fraction)
    writes = [x for x in run.write_latencies_ms if x is not None]
    if writes:
        result["write_p50_ms"] = statistics.median(writes)
    if "max_rate_rps" in run.extra:
        result["max_rate_rps"] = run.extra["max_rate_rps"]
    return result


# --------------------------------------------------------------------------- #
# paper-unique
# --------------------------------------------------------------------------- #


class PaperUnique:
    name = "paper-unique"
    targets = ("Excel", "Noris", "Paragon")

    def __init__(self, seed: int, pass_seconds: float):
        length = int(round(gen.PAPER_UNIQUE_PER_SECOND * pass_seconds))
        self.requests = gen.paper_unique(seed, length)

    def start(self, scenarios):
        from repro import connect

        return {target: connect(scenario) for target, scenario in scenarios.items()}

    def fresh(self, scenarios):
        """Scenarios for the next pass: the reads leave them untouched."""
        return scenarios

    def prepare(self, scenarios):
        return [
            gen.instantiate(request, scenarios[gen._target(request.template)].target_schema)
            for request in self.requests
        ]

    def measure(self, sessions, queries) -> Pass:
        run = Pass()
        results = []
        for request, query in zip(self.requests, queries):
            session = sessions[gen._target(request.template)]
            run.attempted += 1
            began = perf_counter()
            try:
                result = session.query(query)
            except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
                run.failed += 1
                run.latencies_ms.append(None)
                results.append(None)
                continue
            run.latencies_ms.append((perf_counter() - began) * 1000.0)
            run.record(result)
            results.append(result)
        run.evidence = results
        run.extra = {
            "plan_cache": {
                target: dict(session.stats.plan_cache) for target, session in sessions.items()
            }
        }
        return run

    combine = staticmethod(combine_closed)

    def stop(self, sessions) -> None:
        for session in sessions.values():
            session.close()

    def check(self, scenarios, queries, run: Pass) -> int:
        """Replay under e-basic; every answer must be equal (invariant 1)."""
        from repro import connect

        sessions = {
            target: connect(scenario, method="e-basic") for target, scenario in scenarios.items()
        }
        wrong = 0
        try:
            for request, query, result in zip(self.requests, queries, run.evidence):
                if result is None:
                    continue
                reference = sessions[gen._target(request.template)].query(query)
                if not reference.answers.equals(result.answers):
                    wrong += 1
        finally:
            for session in sessions.values():
                session.close()
        return wrong

    def properties(self, scenarios) -> dict[str, Any]:
        shape = gen.properties(self.requests)
        shape["hot_set"] = len(set(self.requests))
        shape["cache_size"] = gen.CACHE_SIZE
        shape["write_share"] = 0.0
        shape["cardinalities"] = {
            target: scenario.database.cardinalities() for target, scenario in scenarios.items()
        }
        return shape


# --------------------------------------------------------------------------- #
# rw-mixed
# --------------------------------------------------------------------------- #


def apply_write(database, write: gen.Write):
    """Materialise a generated write's rows from ``database``; return the call."""
    relation = database.relation(write.relation)
    if write.kind == "append":
        rows = [relation.rows[position] for position in write.positions]
        return lambda: database.append_rows(write.relation, rows)
    if write.kind == "delete":
        return lambda: database.delete_rows(write.relation, list(write.positions))
    column = relation.column_index(write.column)
    rows = []
    for position in write.positions:
        row = list(relation.rows[position])
        row[column] = write.value
        rows.append(tuple(row))
    return lambda: database.update_rows(write.relation, list(write.positions), rows)


class RwMixed:
    name = "rw-mixed"
    targets = ("Excel",)
    #: every ``CHECKPOINT``-th read is checked against a cold session
    CHECKPOINT = 4

    def __init__(self, seed: int, pass_seconds: float):
        self.seed = seed
        self.length = int(round(gen.RW_PER_SECOND * pass_seconds))
        self.operations: list = []

    def start(self, scenarios):
        from repro import connect

        database = scenarios["Excel"].database
        if not self.operations:
            self.start_cardinalities = database.cardinalities()
            self.operations = gen.rw_mixed(self.seed, self.length, self.start_cardinalities)
        return connect(scenarios["Excel"])

    def fresh(self, scenarios):
        """A fresh database for the next pass: the last pass wrote to this one."""
        return build_scenarios(self.targets)

    def prepare(self, scenarios):
        schema = scenarios["Excel"].target_schema
        return {
            request: gen.instantiate(request, schema)
            for request in self.operations
            if isinstance(request, gen.Request)
        }

    def measure(self, session, queries) -> Pass:
        run = Pass()
        database = session.database
        checkpoints = []
        for index, operation in enumerate(self.operations):
            run.attempted += 1
            if isinstance(operation, gen.Write):
                call = apply_write(database, operation)
                began = perf_counter()
                try:
                    call()
                except Exception:  # noqa: BLE001
                    run.failed += 1
                    run.write_latencies_ms.append(None)
                    continue
                run.write_latencies_ms.append((perf_counter() - began) * 1000.0)
                continue
            began = perf_counter()
            try:
                result = session.query(queries[operation])
            except Exception:  # noqa: BLE001
                run.failed += 1
                run.latencies_ms.append(None)
                continue
            run.latencies_ms.append((perf_counter() - began) * 1000.0)
            run.record(result)
            if run.reads % self.CHECKPOINT == 0:
                checkpoints.append((index, result))
        run.evidence = checkpoints
        stats = session.stats
        run.extra = {
            "plan_cache": {"Excel": dict(stats.plan_cache)},
            "stats_refreshed_incrementally": stats.stats_refreshed_incrementally,
            "end_cardinalities": {
                name: database.cardinalities()[name] for name in gen.RW_UPDATE_COLUMNS
            },
        }
        return run

    combine = staticmethod(combine_closed)

    def stop(self, session) -> None:
        session.close()

    def check(self, scenarios, queries, run: Pass) -> int:
        """Cold sessions over a fresh database that replays the same writes."""
        from repro import Session

        fresh = build_scenarios(self.targets)["Excel"]
        database = fresh.database
        wrong = 0
        done = 0
        for index, result in run.evidence:
            for operation in self.operations[done : index + 1]:
                if isinstance(operation, gen.Write):
                    apply_write(database, operation)()
            done = index + 1
            with Session(database, fresh.mappings, links=fresh.links) as cold:
                reference = cold.query(queries[self.operations[index]])
            if answer_bytes(reference.answers) != answer_bytes(result.answers):
                wrong += 1
        return wrong

    def properties(self, scenarios) -> dict[str, Any]:
        reads = [op for op in self.operations if isinstance(op, gen.Request)]
        shape = gen.properties(reads)
        shape["hot_set"] = len(set(reads))
        shape["cache_size"] = gen.CACHE_SIZE
        shape["write_share"] = round(1 - len(reads) / len(self.operations), 4)
        shape["writes"] = {
            kind: sum(1 for op in self.operations if isinstance(op, gen.Write) and op.kind == kind)
            for kind in ("append", "delete", "update")
        }
        shape["start_cardinalities"] = {
            name: self.start_cardinalities[name] for name in gen.RW_UPDATE_COLUMNS
        }
        return shape


# --------------------------------------------------------------------------- #
# serve-hot
# --------------------------------------------------------------------------- #

#: The p99 latency a rung must meet, fixed once from measurement.
P99_LIMIT_MS = 100.0

#: Ladder rungs at or above this rate exceed the server's capacity at this
#: commit (250-300 req/s on a 2-core host) by half or more, so their
#: completions over their busy time are the server's throughput, not the
#: offered rate.
SATURATED_RATE = 500.0

#: Per-tenant admission queue bound: above every backlog the schedule
#: builds, so admission control never sheds and every request is answered.
QUEUE_LIMIT = 1024

#: Tenant → connection index: each tenant rides exactly one connection.
CONNECTIONS = {"excel": 0, "noris": 1, "paragon": 1}

#: The load generator gets the checkout's ``src`` and root on its path.
_IMPORT_PATHS = [str(Path(__file__).resolve().parent.parent / "src"),
                 str(Path(__file__).resolve().parent.parent)]

#: A pass's schedule is a third of ``--seconds``; the generator gets this long.
LOADGEN_TIMEOUT_S = 120


class ServeHot:
    name = "serve-hot"
    targets = ("Excel", "Noris", "Paragon")

    def __init__(self, seed: int, pass_seconds: float):
        self.plan = gen.serve_hot(seed, pass_seconds)

    def specs(self, scenarios):
        from repro.serving import TenantQuota, TenantSpec

        specs = []
        for tenant, (target, _) in gen.SERVE_HOT_TENANTS.items():
            scenario = scenarios[target]
            catalog = {
                entry: gen.instantiate(request, scenario.target_schema)
                for entry, request in self.plan.catalogs[tenant].items()
            }
            specs.append(
                TenantSpec.from_scenario(
                    tenant, scenario, catalog=catalog, quota=TenantQuota(queue_limit=QUEUE_LIMIT)
                )
            )
        return specs

    def start(self, scenarios):
        from repro.serving import ReproServer

        self._specs = self.specs(scenarios)
        loop = asyncio.new_event_loop()
        server = ReproServer(self._specs)
        loop.run_until_complete(server.start())
        return loop, server

    def fresh(self, scenarios):
        """Scenarios for the next pass: the reads leave them untouched."""
        return scenarios

    def prepare(self, scenarios):
        return None

    def measure(self, state, _queries) -> Pass:
        loop, server = state
        return loop.run_until_complete(self._drive(server))

    async def _drive(self, server) -> Pass:
        """Run the schedule from a separate load-generator process."""
        host, port = server.address
        plan = {
            "host": host,
            "port": port,
            "connections": CONNECTIONS,
            "rungs": [rung.seconds for rung in self.plan.rungs],
            "arrivals": [[a.rung, a.due, a.tenant, a.entry] for a in self.plan.arrivals],
        }
        process = await asyncio.create_subprocess_exec(
            sys.executable, str(Path(__file__).with_name("loadgen.py")),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(_IMPORT_PATHS)},
        )
        try:
            out, err = await asyncio.wait_for(
                process.communicate(json.dumps(plan).encode()), timeout=LOADGEN_TIMEOUT_S
            )
        finally:
            if process.returncode is None:
                process.kill()
                await process.wait()
        if process.returncode != 0:
            raise RuntimeError(f"load generator failed: {err.decode()[-2000:]}")
        return self._tally(json.loads(out), server)

    def _tally(self, report: dict, server) -> Pass:
        """Per-request samples and per-rung verdicts from the generator's report."""
        run = Pass()
        transcript = []
        rungs = []
        samples = iter(report["samples"])
        for index, rung in enumerate(self.plan.rungs):
            latencies = []
            shed = errors = 0
            arrivals = [a for a in self.plan.arrivals if a.rung == index]
            for arrival in arrivals:
                latency, lag, frame = next(samples)
                response = json.loads(frame)
                run.attempted += 1
                if "seq" in response:
                    # Every response a tenant executed, refusal or not, is
                    # part of that tenant's serial replay.
                    transcript.append((arrival.tenant, arrival.entry, response, frame.encode()))
                if rung.warmup and response.get("ok"):
                    continue
                run.lags.append(lag)
                reference = rung.rate == gen.REFERENCE_RATE
                if not response.get("ok"):
                    run.failed += 1
                    if response.get("error", {}).get("code") == "overloaded":
                        shed += 1
                    else:
                        errors += 1
                    if reference:
                        run.latencies_ms.append(None)  # keeps the passes aligned
                    continue
                latencies.append(latency)
                if reference:
                    run.latencies_ms.append(latency)
                run.reads += 1
                result = response["result"]
                run.source_operators += result["counters"]["source_operators"]
                run.rows_scanned += result["counters"]["rows_scanned"]
                run.answer_tuples += len(result["answers"]["tuples"])
            if rung.warmup:
                continue
            drain_ms = report["drain_ms"][index]
            rung_p99 = percentile(latencies, 0.99) if latencies else float("inf")
            rungs.append(
                {
                    "rate": rung.rate,
                    "requests": len(arrivals),
                    "p50_ms": statistics.median(latencies) if latencies else None,
                    "p99_ms": rung_p99,
                    "drain_ms": drain_ms,
                    "shed": shed,
                    "errors": errors,
                    "meets": rung_p99 <= P99_LIMIT_MS
                    and shed == 0
                    and errors == 0
                    and drain_ms <= P99_LIMIT_MS,
                    "completed": len(latencies),
                    "busy_s": rung.seconds + max(0.0, drain_ms / 1000.0),
                }
            )
        # Throughput is the server's only where the offered rate exceeds it.
        saturated = [rung for rung in rungs if rung["rate"] >= SATURATED_RATE]
        run.completed = sum(rung["completed"] for rung in saturated)
        run.wall_s = sum(rung["busy_s"] for rung in saturated)
        run.evidence = transcript
        meets: dict[float, bool] = {}
        for rung in rungs:
            meets[rung["rate"]] = meets.get(rung["rate"], True) and rung["meets"]
        max_rate = 0.0
        for rate in sorted(meets):
            if not meets[rate]:
                break
            max_rate = rate
        for tenant in server.tenants:
            run.totals.merge(tenant.session.stats.totals)
        run.extra = {
            "max_rate_rps": max_rate,
            "ladder": rungs,
            "gen_lag_p99_ms": percentile(run.lags, 0.99),
            "shed": sum(server.shed_counts.values()),
            "plan_cache": {
                name: dict(tenant.session.stats.plan_cache)
                for name, tenant in server.tenants.items()
            },
        }
        return run

    @staticmethod
    def combine(passes: list[Pass]) -> Pass:
        """Open loop: per-arrival least latencies, the best pass's throughput.

        Every pass replays the same schedule, so the reference-rate arrivals
        line up across passes.  The maximal rate is the median pass's.
        """
        combined = passes[-1]
        best = max(passes, key=lambda p: p.completed / p.wall_s)
        combined.latencies_ms = least_each([p.latencies_ms for p in passes])
        combined.completed, combined.wall_s = best.completed, best.wall_s
        for name in ("attempted", "failed", "reads",
                     "source_operators", "rows_scanned", "answer_tuples"):
            setattr(combined, name, sum(getattr(p, name) for p in passes))
        combined.extra = {
            **combined.extra,
            "max_rate_rps": statistics.median(p.extra["max_rate_rps"] for p in passes),
            "gen_lag_p99_ms": percentile([x for p in passes for x in p.lags], 0.99),
            "shed": sum(p.extra["shed"] for p in passes),
            "ladder": [p.extra["ladder"] for p in passes],
            "pass_qps": [p.completed / p.wall_s for p in passes],
        }
        return combined

    def stop(self, state) -> None:
        loop, server = state
        try:
            loop.run_until_complete(server.close())
        finally:
            loop.close()

    def check(self, scenarios, _queries, run: Pass) -> int:
        """Each tenant's live frames against an isolated serial replay."""
        from repro.serving import PROTOCOL_VERSION
        from repro.serving.tenants import serial_replay

        by_tenant: dict[str, list] = {}
        for tenant, entry, response, frame in run.evidence:
            by_tenant.setdefault(tenant, []).append((response["seq"], response["id"], entry, frame))
        wrong = 0
        for spec in self._specs:
            served = sorted(by_tenant.get(spec.name, []))
            requests = [
                {"op": "query", "id": request_id, "v": PROTOCOL_VERSION,
                 "tenant": spec.name, "query": entry}
                for _, request_id, entry, _ in served
            ]
            replayed = serial_replay(spec, requests)
            wrong += sum(1 for served_one, ref in zip(served, replayed) if served_one[3] != ref)
        return wrong

    def properties(self, scenarios) -> dict[str, Any]:
        requested = [self.plan.catalogs[a.tenant][a.entry] for a in self.plan.arrivals]
        shape = gen.properties(requested)
        shape["hot_set"] = len({(a.tenant, a.entry) for a in self.plan.arrivals})
        shape["catalog_entries"] = sum(len(c) for c in self.plan.catalogs.values())
        shape["cache_size"] = gen.CACHE_SIZE
        shape["write_share"] = 0.0
        shape["reference_rate_rps"] = gen.REFERENCE_RATE
        shape["ladder_rates_rps"] = list(gen.LADDER_RATES)
        shape["p99_limit_ms"] = P99_LIMIT_MS
        shape["tenant_requests"] = {
            tenant: sum(1 for a in self.plan.arrivals if a.tenant == tenant)
            for tenant in gen.SERVE_HOT_TENANTS
        }
        shape["cardinalities"] = {
            target: scenario.database.cardinalities() for target, scenario in scenarios.items()
        }
        return shape


WORKLOADS = {cls.name: cls for cls in (PaperUnique, ServeHot, RwMixed)}
