"""Run one benchmark workload, or all of them, and print every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-unique --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 12

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same pass once untraced and once with every layer's
public functions wrapped (:mod:`perfbench.tracing`) and reports the
per-layer metrics.  Every run checks its answers against the workload's
correctness oracle after the measured pass.  Human-readable lines go first;
the next-to-last line is the full result (environment block, workload
properties, every figure measured); the last line is the summary object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics every ``--trace 0`` run reports: name → unit.
END_TO_END = {
    "setup_s": "s",
    "qps": "req/s",
    "source_ops_per_query": "ops",
    "rows_scanned_per_query": "rows",
    "peak_rss_mb": "MB",
}

#: End-to-end figures printed and kept in the full result, not summarised:
#: the read percentiles swing with the host's speed by more than the largest
#: bound allows, and the rest apply to one workload only, need more samples
#: than every run has, or read 0.
UNGATED = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "write_p50_ms": "ms",
    "max_rate_rps": "req/s",
    "error_rate": "ratio",
}

_OPS = ("Scan", "Select", "Project", "Product", "Join", "Union", "Aggregate")
_SHARES = (
    "session", "partition", "reform", "optimize", "exec", "cache", "answer", "eval",
    "serve.parse", "serve.encode", "serve.tenant", "write",
)

#: Per-layer metrics every ``--trace 1`` run reports: name → unit.
PER_LAYER = {
    "setup.datagen_s": "s",
    "setup.matching_s": "s",
    "session.query_s": "s",
    "partition.calls": "count",
    "partition.s": "s",
    "reform.calls": "count",
    "reform.s": "s",
    "optimize.calls": "count",
    "optimize.s": "s",
    "optimize.memo_hit_rate": "ratio",
    "exec.calls": "count",
    "exec.s": "s",
    **{f"exec.ops.{op}": "count" for op in _OPS},
    "exec.rows_scanned": "rows",
    "exec.rows_output": "rows",
    "exec.yield": "ratio",
    "cache.lookups": "count",
    "cache.hit_rate": "ratio",
    "cache.operators_saved": "count",
    "cache.evictions": "count",
    "cache.entries": "count",
    "cache.s": "s",
    "answer.s": "s",
    "answer.tuples": "count",
    "eval.self_s": "s",
    "eval.eunits_created": "count",
    "eval.eunits_pruned": "count",
    "serve.parse_s": "s",
    "serve.encode_s": "s",
    "serve.bytes_out": "bytes",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.shed": "count",
    "serve.tenant_s": "s",
    "write.calls": "count",
    "write.s": "s",
    "cache.entries_patched": "count",
    "cache.entries_invalidated": "count",
    "stats.incremental_refreshes": "count",
    "gen.lag_p99_ms": "ms",
    "trace.overhead": "ratio",
    "trace.attributed_share": "ratio",
    **{f"share.{layer}": "ratio" for layer in _SHARES},
}

#: Setups per run: one in this process plus fresh processes, one before each
#: later pass and the rest after the last; median reported.
SETUP_SAMPLES = 4


def _import_program():
    """Put the checkout's ``src`` on the path and import the program."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as err:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {err}")


def environment() -> dict:
    import numpy

    from perfbench import gen

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "scenario": dict(gen.SCENARIO),
        "cache_size": gen.CACHE_SIZE,
    }


def _commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():  # never report an enclosing repository's commit
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #


def _setup(workload, tracer=None):
    from perfbench.workloads import build_scenarios

    if tracer is not None:
        tracer.install()
    try:
        started = perf_counter()
        scenarios = build_scenarios(workload.targets)
        state = workload.start(scenarios)
        seconds = perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return scenarios, state, seconds


def _workload(args):
    from perfbench.workloads import PASSES, WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.seconds / PASSES)


def _setup_probe(args) -> None:
    """Set the workload up once in this fresh process and report the time."""
    workload = _workload(args)
    _, state, seconds = _setup(workload)
    workload.stop(state)
    print(json.dumps({"setup_s": seconds}))


def _probe_setup(args) -> float:
    """One set-up time, measured in a fresh process."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def _mean(values) -> float:
    return statistics.fmean(value for value in values if value is not None)


def run_workload(args) -> dict:
    """Set up, measure in passes, check the answers; return the full result.

    ``--trace 0`` runs ``PASSES`` untraced passes and combines them; the
    fresh-process set-up samples run between the passes, so the passes
    span more of the host's speed swings.  ``--trace 1`` runs one untraced
    and one traced pass of the same length and reports the traced one, so
    ``trace.overhead`` compares like with like.
    """
    from perfbench.tracing import LayerTracer
    from perfbench.workloads import PASSES, figures

    workload = _workload(args)
    setup_tracer = LayerTracer() if args.trace else None
    tracer = LayerTracer() if args.trace else None
    scenarios, state, setup_seconds = _setup(workload, setup_tracer)
    setups = [setup_seconds]
    phases = {"setup": setup_seconds, "passes": 0.0, "setup_probes": 0.0}
    count = 2 if args.trace else PASSES
    passes = []
    for index in range(count):
        if index:
            if not args.trace:
                began = perf_counter()
                setups.append(_probe_setup(args))
                phases["setup_probes"] += perf_counter() - began
            scenarios = workload.fresh(scenarios)
            state = workload.start(scenarios)
        queries = workload.prepare(scenarios)
        gc.collect()  # the last pass's garbage is not this pass's cost
        began = perf_counter()
        try:
            if tracer is not None and index == count - 1:
                with tracer:
                    passes.append(workload.measure(state, queries))
            else:
                passes.append(workload.measure(state, queries))
        finally:
            workload.stop(state)
            state = None
        phases["passes"] += perf_counter() - began
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    run = passes[-1] if args.trace else workload.combine(passes)
    # Before the oracle runs: peak RSS is a high-water mark.
    measured = None if args.trace else figures(run)
    checked = perf_counter()
    wrong = workload.check(scenarios, queries, run)
    phases["oracle"] = perf_counter() - checked
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": count,
        "attempted": attempted,
        "failed": failed + wrong,
        "wrong_answers": wrong,
        "correct": wrong == 0 and failed == 0,
        "error_rate": (failed + wrong) / attempted,
        "environment": environment(),
        "properties": workload.properties(scenarios),
        "detail": run.extra,
        "phase_s": phases,
    }
    if args.trace:
        overhead = _mean(passes[-1].latencies_ms) / _mean(passes[0].latencies_ms)
        result["metrics"] = per_layer(run, tracer, setup_tracer, overhead)
        result["layer_seconds"] = tracer.summary()
        spans = ROOT / ".perfbench" / f"{workload.name}.spans.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        return result
    began = perf_counter()
    setups += [_probe_setup(args) for _ in range(SETUP_SAMPLES - len(setups))]
    phases["setup_probes"] += perf_counter() - began
    measured["setup_s"] = statistics.median(setups)
    measured["error_rate"] = result["error_rate"]
    result["setup_samples_s"] = setups
    result["figures"] = measured
    result["metrics"] = {name: measured[name] for name in END_TO_END if name in measured}
    return result


def per_layer(run, tracer, setup_tracer, overhead: float) -> dict:
    from perfbench.workloads import percentile

    layers = tracer.summary()
    setup_layers = setup_tracer.summary()
    totals = run.totals
    extra = run.extra
    roots = tracer.root_seconds() or 1.0
    cache: dict = {}
    for session_cache in extra.get("plan_cache", {}).values():
        for key, value in session_cache.items():
            if key != "hit_rate":
                cache[key] = cache.get(key, 0) + value
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    waits = [wait * 1000.0 for wait in tracer.queue_waits]
    scanned, output = totals.rows_scanned, totals.rows_output
    optimized = totals.plans_optimized
    metrics = {
        "setup.datagen_s": setup_layers["setup.datagen"]["self_s"],
        "setup.matching_s": setup_layers["setup.matching"]["self_s"],
        "session.query_s": layers["session"]["total_s"],
        "partition.calls": layers["partition"]["calls"],
        "partition.s": layers["partition"]["self_s"],
        "reform.calls": layers["reform"]["calls"],
        "reform.s": layers["reform"]["self_s"],
        "optimize.calls": layers["optimize"]["calls"],
        "optimize.s": layers["optimize"]["self_s"],
        "optimize.memo_hit_rate": totals.optimizer_memo_hits / optimized if optimized else 0.0,
        "exec.calls": layers["exec"]["calls"],
        "exec.s": layers["exec"]["self_s"],
        **{f"exec.ops.{op}": totals.operators.get(op, 0) for op in _OPS},
        "exec.rows_scanned": scanned,
        "exec.rows_output": output,
        "exec.yield": output / scanned if scanned else 0.0,
        "cache.lookups": lookups,
        "cache.hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        "cache.operators_saved": cache.get("operators_saved", 0),
        "cache.evictions": cache.get("evictions", 0),
        "cache.entries": cache.get("entries", 0),
        "cache.s": layers["cache"]["self_s"],
        "answer.s": layers["answer"]["self_s"],
        "answer.tuples": run.answer_tuples,
        "eval.self_s": layers["eval"]["self_s"],
        "eval.eunits_created": totals.eunits_created,
        "eval.eunits_pruned": totals.eunits_pruned,
        "serve.parse_s": layers["serve.parse"]["self_s"],
        "serve.encode_s": layers["serve.encode"]["self_s"],
        "serve.bytes_out": tracer.bytes_out,
        "serve.queue_wait_p50_ms": percentile(waits, 0.5) if waits else 0.0,
        "serve.queue_wait_p99_ms": percentile(waits, 0.99) if waits else 0.0,
        "serve.shed": extra.get("shed", 0),
        "serve.tenant_s": layers["serve.tenant"]["self_s"],
        "write.calls": layers["write"]["calls"],
        "write.s": layers["write"]["total_s"],
        "cache.entries_patched": cache.get("patches", 0),
        "cache.entries_invalidated": cache.get("invalidations", 0),
        "stats.incremental_refreshes": extra.get("stats_refreshed_incrementally", 0),
        "gen.lag_p99_ms": extra.get("gen_lag_p99_ms", 0.0),
        "trace.overhead": overhead,
        "trace.attributed_share": 1.0 - layers["session"]["self_s"] / roots,
    }
    for layer in _SHARES:
        metrics[f"share.{layer}"] = layers[layer]["self_s"] / roots
    return metrics


# --------------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------------- #


def _print_result(result: dict, trace: int) -> None:
    units = PER_LAYER if trace else {**END_TO_END, **UNGATED}
    figures = result["metrics"] if trace else result["figures"]
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(
        f"{result['workload']} seed={result['seed']}: {verdict}, "
        f"{result['attempted']} attempted, {result['failed']} failed"
    )
    for name, unit in units.items():
        if name in figures:
            print(f"  {name:<28} {figures[name]:>14.6g} {unit}")
    print(json.dumps(result, default=str))
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        if completed.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(completed.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper-unique", "serve-hot", "rw-mixed"))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not args.all and args.workload is None:
        parser.error("name a --workload or pass --all")
    _import_program()
    if args.all:
        return _run_all(args)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    result = run_workload(args)
    _print_result(result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
