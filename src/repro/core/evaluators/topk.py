"""The probabilistic top-k evaluator (Section VII, Algorithm 4 of the paper).

A probabilistic top-k query returns the ``k`` answer tuples with the highest
probabilities among those with non-zero probability.  Rather than computing
every answer's exact probability with o-sharing and sorting, the top-k
algorithm expands the u-trace only partially: every answer tuple carries a
lower bound (``lb`` — probability mass already confirmed) and an upper bound
(``ub`` — the most it could still reach), and two global bounds are kept:

* ``LB`` — the lower bound of the tuple currently ranked ``k``-th, and
* ``UB`` — the maximum probability any tuple *not yet seen* could attain.

As soon as every tuple ranked below ``k`` has ``ub <= LB`` and ``UB <= LB``,
the remaining e-units cannot change the top-k answer set and the traversal
stops (the paper's Table II walk-through).

Partitions are visited in decreasing order of probability mass, which makes
the bounds tighten as fast as possible; the paper leaves the visiting order
unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.answer import ProbabilisticAnswer, _sort_key
from repro.core.evaluators.base import PHASE_AGGREGATION, PHASE_REWRITING, EvaluationResult
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


@dataclass
class BoundedTuple:
    """One candidate answer tuple with its probability bounds."""

    values: tuple
    lb: float
    ub: float


class TopKEvaluator(UTraceEvaluator):
    """Bound-pruned top-k evaluation over the u-trace (Algorithm 4)."""

    name = "top-k"

    def __init__(
        self,
        k: int,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        super().__init__(
            links, strategy, seed,
            engine=engine, optimize=optimize, parallel=parallel, shared=shared,
        )
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        stats = ExecutionStats()
        executor = self._executor(database, stats)

        with stats.phase(PHASE_REWRITING):
            partitions = partition(query.partition_keys, mappings)
            stats.count_partitions(len(partitions))
            representatives = represent(partitions)
        root = EUnit(plan=query.plan, mappings=representatives)
        trace = UTrace(root)

        state = _TopKState(k=self.k, ub=sum(m.probability for m in representatives))
        stopped_early = self._run_qt_topk(root, query, executor, stats, trace, state)

        answers = ProbabilisticAnswer()
        for entry in state.top_k():
            answers.add(entry.values, entry.lb)

        stats.count_eunits(
            created=trace.units_created,
            pruned=trace.units_pruned_empty,
            mappings=trace.mappings_evaluated,
        )
        return self._result(
            query,
            answers,
            stats,
            strategy=self.strategy.name,
            k=self.k,
            stopped_early=stopped_early,
            candidate_tuples=len(state.entries),
            representative_mappings=len(representatives),
            **trace.snapshot(),
        )

    # ------------------------------------------------------------------ #
    def _run_qt_topk(
        self,
        unit: EUnit,
        query: TargetQuery,
        executor: Executor,
        stats: ExecutionStats,
        trace: UTrace,
        state: "_TopKState",
    ) -> bool:
        """The recursive ``run_qt_topk`` routine; True means the top-k set is final."""
        # Case 1: the plan is a single relation.
        if unit.is_fully_evaluated:
            with stats.phase(PHASE_AGGREGATION):
                tuples = extract_answers(query, unit.mappings[0], unit.result.relation)
                done = state.decide(unit.probability, tuples)
            trace.answered(unit)
            return done

        # Case 2: an intermediate relation is empty — no tuple from this unit.
        if unit.has_empty_intermediate():
            with stats.phase(PHASE_AGGREGATION):
                done = state.decide(unit.probability, [])
            trace.pruned(unit)
            return done

        # Case 3: execute the next operator partition by partition, recursing
        # into each child; stop as soon as the top-k set is final.
        with stats.phase(PHASE_REWRITING):
            choice = self._choose(unit, query)
            stats.count_partitions(choice.partition_count)
        unit.next_op = choice.candidate

        groups = sorted(
            choice.partitions,
            key=lambda group: -sum(mapping.probability for mapping in group),
        )
        for group in groups:
            child = self._step(unit, query, choice, group, executor, stats)
            if child is None:
                probability = sum(mapping.probability for mapping in group)
                with stats.phase(PHASE_AGGREGATION):
                    if state.decide(probability, []):
                        return True
                continue
            trace.created(child)
            if self._run_qt_topk(child, query, executor, stats, trace, state):
                return True
        return False


class _TopKState:
    """The heap, LB and UB bookkeeping of Algorithm 4."""

    def __init__(self, k: int, ub: float):
        self.k = k
        self.LB = 0.0
        self.UB = ub
        self.entries: dict[tuple, BoundedTuple] = {}

    # -- the decide_result routine --------------------------------------- #
    def decide(self, probability: float, tuples: list[tuple]) -> bool:
        """Fold one e-unit's result into the bounds; True when top-k is final."""
        for values in tuples:
            entry = self.entries.get(values)
            if entry is not None:
                entry.lb += probability
            elif self.UB > self.LB:
                self.entries[values] = BoundedTuple(values=values, lb=probability, ub=self.UB)
        self.UB -= probability
        ranked = self.ranked()
        if len(ranked) >= self.k:
            self.LB = ranked[self.k - 1].lb
        else:
            self.LB = 0.0
        return self._finished(ranked)

    def _finished(self, ranked: list[BoundedTuple]) -> bool:
        if self.UB > self.LB + 1e-12:
            return False
        if len(ranked) < self.k:
            # Fewer than k candidates seen so far; only finished when no more
            # probability mass remains to discover new tuples.
            return self.UB <= 1e-12
        beyond_k = ranked[self.k :]
        # A candidate's probability can only grow by mass not yet processed,
        # so its effective upper bound is min(recorded ub, lb + UB).  Using it
        # stops the traversal earlier than the recorded (static) ub alone.
        return all(
            min(entry.ub, entry.lb + self.UB) <= self.LB + 1e-12 for entry in beyond_k
        )

    # ------------------------------------------------------------------ #
    def ranked(self) -> list[BoundedTuple]:
        """Candidate tuples ordered by decreasing lower bound.

        Equal-probability ties break on the canonical tuple sort key (the
        same ``_sort_key`` :meth:`ProbabilisticAnswer.ranked` uses), not on
        ``str(values)`` — ``("b",)`` and ``(2,)`` stringify ambiguously, and
        the anytime ranked prefix must be replay-stable under serial_replay.
        """
        return sorted(
            self.entries.values(), key=lambda entry: (-entry.lb, _sort_key(entry.values))
        )

    def top_k(self) -> list[BoundedTuple]:
        """The current top-k candidates (non-zero lower bound only)."""
        return [entry for entry in self.ranked() if entry.lb > 0][: self.k]
