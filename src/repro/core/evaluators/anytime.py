"""The anytime evaluator: budgeted o-sharing with sound probability intervals.

``method="anytime"`` explores the same u-trace as o-sharing (Algorithm 2) —
same partitioning, same operator-selection strategy, same reformulations,
same executions — but schedules partition groups through the priority
frontier of :mod:`repro.anytime.progress` (highest probability mass first)
instead of depth-first recursion, and checkpoints a
:class:`~repro.anytime.budget.Budget` between operator executions.

Two properties follow:

* **No budget ⇒ byte-identical to o-sharing.**  Exploration order cannot
  change what each e-unit computes (strategy choice and partitioning depend
  only on the unit and query; engine results are order-independent), and the
  contribution log's replay keys reproduce o-sharing's exact accumulation
  order — so a drained frontier yields the exact evaluator's answer float
  for float, with identical operator/reformulation/partition counters.
* **Any budget ⇒ sound, tightening intervals.**  Mass moves only from the
  frontier to the contribution log, so every tuple's ``[lb, lb + U]``
  interval contains its exact probability and both bounds improve
  monotonically across :meth:`~repro.anytime.progress.AnytimeResult.resume`
  steps — which continue from the saved frontier without repeating work
  (the session-incremental refinement the ROADMAP asks for).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.evaluators.base import PHASE_AGGREGATION, PHASE_ANYTIME, PHASE_REWRITING
from repro.core.evaluators.osharing import UTraceEvaluator
from repro.core.eunit import EUnit, UTrace
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy
from repro.core.partition_tree import partition, represent
from repro.core.reformulation import extract_answers
from repro.core.target_query import TargetQuery
from repro.matching.mappings import MappingSet
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE, Executor
from repro.relational.stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.anytime.budget import Budget, BudgetMeter
    from repro.anytime.progress import (
        AnytimeContinuation,
        AnytimeResult,
        FrontierTask,
        ProgressState,
    )

# repro.anytime.progress subclasses EvaluationResult (this package), so the
# evaluator imports repro.anytime lazily inside its methods — a module-level
# import would close the cycle during whichever package is imported first.


class AnytimeEvaluator(UTraceEvaluator):
    """Priority-frontier o-sharing with budgets and interval answers."""

    name = "anytime"

    def __init__(
        self,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        budget: Budget | dict | None = None,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        from repro.anytime.budget import Budget

        super().__init__(
            links, strategy, seed,
            engine=engine, optimize=optimize, parallel=parallel, shared=shared,
        )
        self.budget = Budget() if budget is None else Budget.from_spec(budget)

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> AnytimeResult:
        from repro.anytime.progress import (
            AnytimeContinuation,
            AnytimeResult,
            ProgressState,
        )

        stats = ExecutionStats()
        executor = self._executor(database, stats)

        # Same initialisation as o-sharing (Algorithm 2, steps 1-3).
        with stats.phase(PHASE_REWRITING):
            partitions = partition(query.partition_keys, mappings)
            stats.count_partitions(len(partitions))
            representatives = represent(partitions)
        root = EUnit(plan=query.plan, mappings=representatives)
        trace = UTrace(root)

        state = ProgressState()
        meter = self.budget.meter()
        # Classifying/expanding the root executes no operator, so it always
        # happens — even under a zero budget the frontier is populated and
        # the unexplored mass is the whole query.
        self._schedule_unit(root, (), query, executor, state, stats, trace)
        self._drive(query, executor, state, stats, trace, meter)

        continuation = AnytimeContinuation(self, query, database, state, trace)
        continuation.representative_mappings = len(representatives)
        answers, intervals, unexplored, exhausted, converged, details = self._finalize(
            query, stats, continuation, self.budget
        )
        continuation.totals.merge(stats)
        return AnytimeResult(
            evaluator=self.name,
            query=query,
            answers=answers,
            stats=stats,
            details=details,
            intervals=intervals,
            unexplored_mass=unexplored,
            exhausted=exhausted,
            converged=converged,
            continuation=continuation,
        )

    def resume(self, continuation: AnytimeContinuation, budget: Budget) -> AnytimeResult:
        """One more drive over the saved frontier (no work is repeated).

        ``stats`` on the returned result is *cumulative* across the initial
        evaluation and every resume, so a resume-to-completion reports
        exactly the operator totals the exact evaluator would have.
        """
        from repro.anytime.progress import AnytimeResult

        step_stats = ExecutionStats()
        executor = self._executor(continuation.database, step_stats)
        meter = budget.meter()
        self._drive(
            continuation.query, executor, continuation.state, step_stats,
            continuation.trace, meter,
        )
        answers, intervals, unexplored, exhausted, converged, details = self._finalize(
            continuation.query, step_stats, continuation, budget
        )
        continuation.totals.merge(step_stats)
        cumulative = ExecutionStats()
        cumulative.merge(continuation.totals)
        result = AnytimeResult(
            evaluator=self.name,
            query=continuation.query,
            answers=answers,
            stats=cumulative,
            details=details,
            intervals=intervals,
            unexplored_mass=unexplored,
            exhausted=exhausted,
            converged=converged,
            continuation=continuation,
        )
        if continuation.observer is not None:
            continuation.observer(step_stats, result)
        return result

    # ------------------------------------------------------------------ #
    # the drive loop: budget checkpoints between operator executions
    # ------------------------------------------------------------------ #
    def _drive(
        self,
        query: TargetQuery,
        executor: Executor,
        state: ProgressState,
        stats: ExecutionStats,
        trace: UTrace,
        meter: BudgetMeter,
    ) -> None:
        while True:
            task = state.peek()
            if task is None:
                return
            if meter.expired():
                return
            # Conservative deterministic checkpoint: stop before the next
            # highest-mass group if charging it could break a limit.  Lower
            # priority groups are not considered instead — the schedule must
            # stay strictly decreasing-mass to be replayable.
            if meter.would_exceed(mappings=len(task.group), eunits=1):
                return
            state.pop()
            self._process(task, query, executor, state, stats, trace, meter)

    def _process(
        self,
        task: FrontierTask,
        query: TargetQuery,
        executor: Executor,
        state: ProgressState,
        stats: ExecutionStats,
        trace: UTrace,
        meter: BudgetMeter,
    ) -> None:
        """Run one partition group (o-sharing's expand body)."""
        child = self._step(task.unit, query, task.choice, task.group, executor, stats)
        if child is None:
            with stats.phase(PHASE_AGGREGATION):
                state.contribute_empty(
                    task.empty_key,
                    sum(mapping.probability for mapping in task.group),
                )
            return
        meter.charge(mappings=len(task.group), eunits=1)
        trace.created(child)
        self._schedule_unit(child, task.child_key, query, executor, state, stats, trace)

    def _schedule_unit(
        self,
        unit: EUnit,
        key: tuple,
        query: TargetQuery,
        executor: Executor,
        state: ProgressState,
        stats: ExecutionStats,
        trace: UTrace,
    ) -> None:
        """Settle a unit (Cases 1-2 of ``run_qt``) or expand it onto the frontier."""
        # Case 1: fully evaluated — contribute its tuples (or empty mass).
        if unit.is_fully_evaluated:
            with stats.phase(PHASE_AGGREGATION):
                tuples = extract_answers(query, unit.mappings[0], unit.result.relation)
                if tuples:
                    state.contribute_tuples(key, tuples, unit.probability)
                    trace.answered(unit)
                else:
                    state.contribute_empty(key, unit.probability)
                    trace.pruned(unit)
            return

        # Case 2: an intermediate relation is empty — empty for every mapping.
        if unit.has_empty_intermediate():
            with stats.phase(PHASE_AGGREGATION):
                state.contribute_empty(key, unit.probability)
            trace.pruned(unit)
            return

        # Case 3: choose the next operator and schedule one frontier task per
        # mapping partition.  Choosing and partitioning execute no operator,
        # so this is budget-free — the budget gates the executions.
        with stats.phase(PHASE_REWRITING):
            choice = self._choose(unit, query)
            stats.count_partitions(choice.partition_count)
        unit.next_op = choice.candidate
        for index, group in enumerate(choice.partitions):
            state.push(key, index, unit, choice, group)

    # ------------------------------------------------------------------ #
    # finalization: replay + intervals (the phase:anytime bookkeeping)
    # ------------------------------------------------------------------ #
    def _finalize(
        self,
        query: TargetQuery,
        step_stats: ExecutionStats,
        continuation: AnytimeContinuation,
        budget: Budget,
    ):
        from repro.anytime.progress import ranking_converged

        state, trace = continuation.state, continuation.trace
        with step_stats.phase(PHASE_ANYTIME):
            answers = state.replay()
            unexplored = state.unexplored_mass()
            intervals = state.intervals(answers, unexplored)
            exhausted = state.exhausted
            converged = ranking_converged(intervals, unexplored, exhausted)
            # u-trace counters land in ExecutionStats as *deltas* so resumed
            # drives never double-count into session lifetime totals.
            snapshot = trace.snapshot()
            recorded = state.trace_recorded
            step_stats.count_eunits(
                created=snapshot["units_created"] - recorded.get("units_created", 0),
                pruned=snapshot["units_pruned_empty"]
                - recorded.get("units_pruned_empty", 0),
                mappings=snapshot["mappings_evaluated"]
                - recorded.get("mappings_evaluated", 0),
            )
            state.trace_recorded = snapshot
        details = {
            "strategy": self.strategy.name,
            "representative_mappings": continuation.representative_mappings,
            "budget": budget.describe(),
            "pending_tasks": state.pending_tasks,
            "engine": self.engine,
            "optimize": self.optimize,
            **snapshot,
        }
        return answers, intervals, unexplored, exhausted, converged, details
