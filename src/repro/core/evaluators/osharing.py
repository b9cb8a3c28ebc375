"""The *o-sharing* evaluator (Sections V-VI, Algorithm 2 of the paper).

o-sharing interleaves query rewriting and operator execution.  The state of a
partially executed query is an *e-unit* (plan + mapping set); executing the
e-unit's next operator once per mapping *partition* — rather than once per
mapping — lets groups of mappings share the result of a source operator even
when their full source queries differ.  The tree of e-units explored this way
is the *u-trace*.

The operator to execute next is chosen by a pluggable selection strategy
(Random / SNF / SEF, Section VI-A); the chosen operator is reformulated with
the rules of Section VI-B and executed, and its result replaces it in the
plan of the child e-units.

What happens to one e-unit — choose, reformulate, execute, splice — is the
same in top-k (Algorithm 4) and anytime, which differ from o-sharing only in
the order they visit e-units and in what they do with the answers;
:class:`UTraceEvaluator` holds it for all three.  Execution goes through
:meth:`~repro.relational.executor.Executor.execute_step`, which keys every
step result on its lineage: with a session's plan cache, a step whose source
plan already ran over the same data — in this call or an earlier one — is
served from the cache instead of being optimized and executed again.
"""

from __future__ import annotations

from repro.core.answer import ProbabilisticAnswer
from repro.core.evaluators.base import (
    PHASE_AGGREGATION,
    PHASE_EVALUATION,
    PHASE_REWRITING,
    EvaluationResult,
    Evaluator,
)
from repro.core.eunit import CandidateOperator, EUnit, UTrace, apply_execution, candidate_operators
from repro.core.links import SchemaLinks
from repro.core.operator_selection import SelectionStrategy, make_strategy, partition_for
from repro.core.partition_tree import partition, represent
from repro.core.reformulation import (
    UnmatchedAttributeError,
    build_scan_plan,
    extract_answers,
    reformulate_operator,
)
from repro.core.target_query import TargetQuery
from repro.matching.mappings import Mapping, MappingSet
from repro.relational.algebra import Scan
from repro.relational.database import Database
from repro.relational.executor import DEFAULT_ENGINE, Executor
from repro.relational.stats import ExecutionStats


class UTraceEvaluator(Evaluator):
    """Base of the evaluators that explore the u-trace one e-unit at a time."""

    def __init__(
        self,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        super().__init__(
            links, engine=engine, optimize=optimize, parallel=parallel, shared=shared
        )
        self.strategy = make_strategy(strategy, seed) if isinstance(strategy, str) else strategy

    def _choose(self, unit: EUnit, query: TargetQuery):
        """The next operator of ``unit`` and its mapping partitions."""
        candidates = candidate_operators(unit.plan, query)
        if candidates:
            return self.strategy.choose(unit, candidates, query)
        # Degenerate plan: a bare target scan with no operators left.  Treat
        # the scan itself as the "operator" so that evaluation can finish.
        if isinstance(unit.plan, Scan):
            return partition_for(query, CandidateOperator(operator=unit.plan), unit.mappings)
        raise RuntimeError(f"no executable operator found in plan {unit.plan.canonical()!r}")

    def _reformulate(self, query: TargetQuery, mapping: Mapping, choice):
        operator = choice.candidate.operator
        if isinstance(operator, Scan):
            return build_scan_plan(query, mapping, operator.label, self.links)
        return reformulate_operator(
            query,
            mapping,
            operator,
            self.links,
            pushdown_leaf=choice.candidate.pushdown_leaf,
        )

    def _step(
        self,
        unit: EUnit,
        query: TargetQuery,
        choice,
        group: list[Mapping],
        executor: Executor,
        stats: ExecutionStats,
    ) -> EUnit | None:
        """Run ``choice`` for one mapping partition; the child e-unit.

        ``None`` when the partition's representative leaves an attribute of
        the operator unmatched: the answer is empty for every mapping of the
        group, and nothing is executed.
        """
        with stats.phase(PHASE_REWRITING):
            try:
                source_plan = self._reformulate(query, group[0], choice)
            except UnmatchedAttributeError:
                source_plan = None
            stats.count_reformulation()
        if source_plan is None:
            return None
        with stats.phase(PHASE_EVALUATION):
            result = executor.execute_step(
                source_plan,
                self._shared_cache(executor.database),
                label=f"u{unit.unit_id}",
            )
        operator = choice.candidate.operator
        if isinstance(operator, Scan):
            plan = unit.plan.replace(operator, result)
        else:
            plan = apply_execution(unit.plan, choice.candidate, result)
        return unit.spawn(plan, group)


class OSharingEvaluator(UTraceEvaluator):
    """Operator-level sharing over the u-trace (the paper's ``o-sharing``)."""

    name = "o-sharing"

    def __init__(
        self,
        links: SchemaLinks | None = None,
        strategy: str | SelectionStrategy = "sef",
        seed: int = 0,
        prune_empty: bool = True,
        engine: str = DEFAULT_ENGINE,
        optimize: bool = True,
        parallel=None,
        shared=None,
    ):
        super().__init__(
            links, strategy, seed,
            engine=engine, optimize=optimize, parallel=parallel, shared=shared,
        )
        #: the empty-intermediate shortcut (Case 2 of ``run_qt``); disabling it
        #: is only useful for the ablation benchmark.
        self.prune_empty = prune_empty

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        query: TargetQuery,
        mappings: MappingSet,
        database: Database,
    ) -> EvaluationResult:
        stats = ExecutionStats()
        executor = self._executor(database, stats)
        answers = ProbabilisticAnswer()

        # Steps 1-3 of Algorithm 2: partition, represent, initialise the u-trace.
        with stats.phase(PHASE_REWRITING):
            partitions = partition(query.partition_keys, mappings)
            stats.count_partitions(len(partitions))
            representatives = represent(partitions)
        root = EUnit(plan=query.plan, mappings=representatives)
        trace = UTrace(root)

        # Step 4: recursive evaluation of the u-trace.
        self._run_qt(root, query, executor, answers, stats, trace)

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
            representative_mappings=len(representatives),
            **trace.snapshot(),
        )

    # ------------------------------------------------------------------ #
    def _run_qt(
        self,
        unit: EUnit,
        query: TargetQuery,
        executor: Executor,
        answers: ProbabilisticAnswer,
        stats: ExecutionStats,
        trace: UTrace,
    ) -> None:
        """The recursive ``run_qt`` routine of Algorithm 2."""
        # Case 1: the plan is a single relation — emit its tuples as answers.
        if unit.is_fully_evaluated:
            with stats.phase(PHASE_AGGREGATION):
                self._emit(unit, query, answers, trace)
            return

        # Case 2: an intermediate relation is empty — the answer is empty for
        # every mapping of the unit.
        if self.prune_empty and unit.has_empty_intermediate():
            with stats.phase(PHASE_AGGREGATION):
                answers.add_empty(unit.probability)
            trace.pruned(unit)
            return

        # Case 3: pick the next operator, execute it once per mapping
        # partition and recurse into the child e-units.
        for child in self._expand(unit, query, executor, answers, stats, trace):
            self._run_qt(child, query, executor, answers, stats, trace)

    def _expand(
        self,
        unit: EUnit,
        query: TargetQuery,
        executor: Executor,
        answers: ProbabilisticAnswer,
        stats: ExecutionStats,
        trace: UTrace,
    ) -> list[EUnit]:
        """Execute the chosen next operator and build the child e-units."""
        children: list[EUnit] = []
        with stats.phase(PHASE_REWRITING):
            choice = self._choose(unit, query)
            stats.count_partitions(choice.partition_count)
        unit.next_op = choice.candidate

        for group in choice.partitions:
            child = self._step(unit, query, choice, group, executor, stats)
            if child is None:
                with stats.phase(PHASE_AGGREGATION):
                    answers.add_empty(sum(mapping.probability for mapping in group))
                continue
            trace.created(child)
            children.append(child)
        return children

    # ------------------------------------------------------------------ #
    def _emit(
        self,
        unit: EUnit,
        query: TargetQuery,
        answers: ProbabilisticAnswer,
        trace: UTrace,
    ) -> None:
        """Case 1: turn a fully evaluated e-unit into probabilistic answers."""
        relation = unit.result.relation
        tuples = extract_answers(query, unit.mappings[0], relation)
        if tuples:
            answers.add_tuples(tuples, unit.probability)
            trace.answered(unit)
        else:
            answers.add_empty(unit.probability)
            trace.pruned(unit)
