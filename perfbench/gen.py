"""Deterministic workload generators for the three benchmark workloads.

Every generator is a pure function of its seed (and, for ``rw-mixed``, of
the starting relation cardinalities): the same arguments give the same
request sequence and the same catalogs, a different seed a different one.
Nothing here touches a database or a session — the runners in
:mod:`perfbench.workloads` turn the generated requests into target queries,
catalogs and rows and hand only those to the program.

A request is a Table III template (Q1-Q10) plus one constant per selection
slot of that template.  Across a template's requests, each slot keeps its
Table III constant in exactly half and otherwise draws from the data
generator's value pools (:mod:`repro.datagen.names`), so selections stay
satisfiable while few requests repeat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.datagen import names
from repro.relational.algebra import PlanNode, Select
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import Comparison
from repro.workloads.queries import PAPER_QUERIES

#: The scenario every workload runs on (``benchmarks/conftest.py``'s setting).
SCENARIO = {"h": 60, "scale": 0.03, "seed": 7}

#: The session plan cache size every workload runs with (the policy default).
CACHE_SIZE = 4096

_ITEMS = tuple(names.item_number(value) for value in range(50))

#: Value pool of every attribute a Table III selection constant compares to.
POOLS: dict[str, tuple[Any, ...]] = {
    "telephone": tuple(names.PHONE_NUMBERS),
    "shipToPhone": tuple(names.PHONE_NUMBERS),
    "invoiceTo": tuple(names.PERSON_NAMES),
    "billTo": tuple(names.PERSON_NAMES),
    "deliverTo": tuple(names.PERSON_NAMES),
    "company": tuple(names.COMPANY_NAMES),
    "deliverToStreet": tuple(names.STREET_NAMES),
    "shipToAddress": tuple(names.STREET_NAMES),
    "billToAddress": tuple(names.STREET_NAMES),
    "priority": tuple(range(1, 6)),
    "quantity": tuple(range(1, 11)),
    "itemNum": _ITEMS,
    "orderNum": _ITEMS,
}

# --------------------------------------------------------------------------- #
# requests: a template plus its constants
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Request:
    """One read: a Table III template with one constant per selection slot."""

    template: str
    constants: tuple[Any, ...]

    @property
    def name(self) -> str:
        """A stable, human-readable identity (also the query's name)."""
        return f"{self.template}[{','.join(map(str, self.constants))}]"


def _constant_test(node: PlanNode) -> Comparison | None:
    predicate = getattr(node, "predicate", None)
    if (
        isinstance(node, Select)
        and isinstance(predicate, Comparison)
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, Literal)
    ):
        return predicate
    return None


def constant_slots(template: str) -> list[tuple[str | None, str, Any]]:
    """``(alias, attribute, Table III constant)`` per slot, in plan pre-order."""
    slots = []
    for node in PAPER_QUERIES[template].builder().walk():
        predicate = _constant_test(node)
        if predicate is not None:
            slots.append((predicate.left.qualifier, predicate.left.name, predicate.right.value))
    return slots


def _substitute(node: PlanNode, values: Iterator[Any]) -> PlanNode:
    predicate = _constant_test(node)
    if predicate is not None:
        replaced = Comparison(predicate.left, predicate.op, Literal(next(values)))
        return Select(_substitute(node.child, values), replaced)
    children = node.children()
    if not children:
        return node
    return node.with_children([_substitute(child, values) for child in children])


def instantiate(request: Request, schema):
    """The request as a :class:`~repro.core.target_query.TargetQuery`."""
    from repro.core.target_query import TargetQuery

    spec = PAPER_QUERIES[request.template]
    plan = _substitute(spec.builder(), iter(request.constants))
    return TargetQuery(plan, schema, name=request.name)


def draw_requests(rng: random.Random, template: str, count: int) -> list[Request]:
    """``count`` requests; each slot keeps its Table III constant in exactly half.

    Stratifying the Table III half (instead of a coin per request) keeps the
    workload's cost profile the same from seed to seed while the drawn
    constants still differ.
    """
    columns = []
    for _, attribute, paper in constant_slots(template):
        keep = [True] * (count // 2) + [False] * (count - count // 2)
        rng.shuffle(keep)
        columns.append([paper if kept else rng.choice(POOLS[attribute]) for kept in keep])
    return [Request(template, tuple(column[i] for column in columns)) for i in range(count)]


def paper_request(template: str) -> Request:
    """The Table III request itself."""
    return Request(template, tuple(slot[2] for slot in constant_slots(template)))


def _exact_counts(shares: Mapping[str, float], total: int) -> dict[str, int]:
    """Largest-remainder split of ``total`` by ``shares`` (deterministic)."""
    raw = {key: share * total for key, share in shares.items()}
    counts = {key: int(value) for key, value in raw.items()}
    left = total - sum(counts.values())
    by_remainder = sorted(raw, key=lambda key: (counts[key] - raw[key], key))
    for key in by_remainder[:left]:
        counts[key] += 1
    return counts


def interleave(rng: random.Random, groups: Mapping[str, Sequence[Any]]) -> list[Any]:
    """Merge the groups so each one is spread evenly over the sequence.

    Item ``k`` of a group of ``n`` lands near position ``(k + u) / n`` of the
    sequence (``u`` a seeded offset per group), so a slow stretch of the
    machine never lands on every heavy request of a run at once.
    """
    keyed = []
    for group in groups.values():
        offset = rng.random()
        for index, item in enumerate(group):
            keyed.append(((index + offset) / len(group), rng.random(), item))
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def _target(template: str) -> str:
    return PAPER_QUERIES[template].target


# --------------------------------------------------------------------------- #
# paper-unique: all ten templates, fixed shares, few repeats
# --------------------------------------------------------------------------- #

#: Template shares of ``paper-unique``.  Sorted by latency, Q6, Q1, Q8 and
#: Q2 (about 1-4 ms) fill the lowest 28%; Q5 (about 5 ms) the band from 28%
#: to 74% that holds p50; Q9 (about 7 ms) the next 6%; Q10 (a PO x Item
#: product under a COUNT, about 12 ms) the band from 80% to 94% that holds
#: p90; Q7 (20-70 ms), Q3 (0.2-0.4 s unless a selection empties it) and Q4
#: (about 1.4 s) are the slowest 6%, few in count but most of the run's
#: time.  Both percentiles thus sit inside one template's band, away from
#: its edges, and on templates whose latency barely depends on the drawn
#: constants (Q9's, by contrast, has two modes whose mix moves with the
#: seed).
PAPER_UNIQUE_SHARES = {
    "Q1": 0.07,
    "Q2": 0.07,
    "Q3": 0.033,
    "Q4": 0.017,
    "Q5": 0.46,
    "Q6": 0.07,
    "Q7": 0.01,
    "Q8": 0.07,
    "Q9": 0.06,
    "Q10": 0.14,
}

#: Requests per measured second of ``paper-unique`` (a nominal rate; the
#: sequence length never depends on the machine's speed).
PAPER_UNIQUE_PER_SECOND = 30


def paper_unique(seed: int, length: int) -> list[Request]:
    """``length`` requests over Q1-Q10 at the fixed shares, interleaved."""
    rng = random.Random(f"paper-unique/{seed}")
    groups = {
        template: draw_requests(rng, template, count)
        for template, count in _exact_counts(PAPER_UNIQUE_SHARES, length).items()
        if count
    }
    return interleave(rng, groups)


# --------------------------------------------------------------------------- #
# serve-hot: three tenants, cheap templates, Zipf-skewed popularity
# --------------------------------------------------------------------------- #

#: Tenant name → (target schema, the cheap templates in its catalog).
SERVE_HOT_TENANTS = {
    "excel": ("Excel", ("Q1", "Q2", "Q5")),
    "noris": ("Noris", ("Q6",)),
    "paragon": ("Paragon", ("Q8", "Q9", "Q10")),
}

#: Constant variants per catalog template, besides the Table III request.
SERVE_HOT_VARIANTS = 6

#: Zipf exponent of request popularity within one tenant's catalog.
ZIPF_EXPONENT = 2.0


@dataclass(frozen=True)
class Rung:
    """One step of the open-loop schedule.

    The warm-up rung sends every catalog entry once, so no measured request
    pays a tenant's first-touch costs; it is replayed by the oracle but not
    measured.
    """

    rate: float
    seconds: float
    warmup: bool = False


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``due`` seconds after its rung starts."""

    rung: int
    due: float
    tenant: str
    entry: str


@dataclass(frozen=True)
class ServeHotPlan:
    catalogs: dict[str, dict[str, Request]]
    rungs: tuple[Rung, ...]
    arrivals: tuple[Arrival, ...]


#: Offered rates, req/s: the reference rate, then the ladder above it.
REFERENCE_RATE = 50.0
LADDER_RATES = (75.0, 110.0, 160.0, 230.0, 340.0, 500.0, 750.0, 1100.0)

#: Share of the measured time spent at the reference rate.
REFERENCE_SHARE = 0.55

#: Offered rate of the unmeasured warm-up rung, req/s.
WARMUP_RATE = 200.0


def serve_hot_rungs(seconds: float) -> tuple[Rung, ...]:
    """The fixed schedule: the reference rate alternating with the ladder.

    A reference segment precedes every ladder rung, so the reference-rate
    latencies are sampled across the whole run rather than in one stretch.
    """
    reference = REFERENCE_SHARE * seconds / len(LADDER_RATES)
    step = (1.0 - REFERENCE_SHARE) * seconds / len(LADDER_RATES)
    rungs = []
    for rate in LADDER_RATES:
        rungs += [Rung(REFERENCE_RATE, reference), Rung(rate, step)]
    return tuple(rungs)


def serve_hot(seed: int, seconds: float) -> ServeHotPlan:
    """Tenant catalogs plus an evenly spaced arrival schedule per rung.

    Arrivals go to the tenants round-robin, so each tenant's count is fixed.
    Within a tenant, popularity is Zipf over a fixed rank order — the
    Table III entries first, then the variants in order — and
    each rung's requests are split over the entries in exact Zipf
    proportion, then interleaved.  The seed picks the variants' constants
    and the order; the popularity of each rank is the same for every seed.
    """
    rng = random.Random(f"serve-hot/{seed}")
    catalogs: dict[str, dict[str, Request]] = {}
    shares: dict[str, dict[str, float]] = {}
    for tenant, (_, templates) in SERVE_HOT_TENANTS.items():
        catalog = {template: paper_request(template) for template in templates}
        variants = {t: draw_requests(rng, t, SERVE_HOT_VARIANTS) for t in templates}
        for variant in range(SERVE_HOT_VARIANTS):
            for template in templates:
                catalog[f"{template}.v{variant + 1}"] = variants[template][variant]
        catalogs[tenant] = catalog
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(catalog))]
        shares[tenant] = {entry: w / sum(weights) for entry, w in zip(catalog, weights)}
    tenants = list(SERVE_HOT_TENANTS)
    # The warm-up takes the tenants in turn, as the measured rungs do.
    warmup = [
        (tenant, entry)
        for column in range(max(len(c) for c in catalogs.values()))
        for tenant in tenants
        for entry in list(catalogs[tenant])[column : column + 1]
    ]
    arrivals = [
        Arrival(0, position / WARMUP_RATE, tenant, entry)
        for position, (tenant, entry) in enumerate(warmup)
    ]
    rungs = (Rung(WARMUP_RATE, len(warmup) / WARMUP_RATE, warmup=True),)
    rungs += serve_hot_rungs(seconds)
    for index, rung in enumerate(rungs):
        if rung.warmup:
            continue
        total = int(round(rung.rate * rung.seconds))
        entries = {}
        for position, tenant in enumerate(tenants):
            count = len(range(position, total, len(tenants)))
            counts = _exact_counts(shares[tenant], count)
            entries[tenant] = interleave(
                rng, {entry: [entry] * n for entry, n in counts.items() if n}
            )
        for position in range(total):
            tenant = tenants[position % len(tenants)]
            entry = entries[tenant][position // len(tenants)]
            arrivals.append(Arrival(index, position / rung.rate, tenant, entry))
    return ServeHotPlan(catalogs, rungs, tuple(arrivals))


# --------------------------------------------------------------------------- #
# rw-mixed: a repeated hot read set on Excel plus 20% writes
# --------------------------------------------------------------------------- #

#: Read shares of ``rw-mixed``'s hot set, the four Table III requests.  Q3
#: (about 0.3 s) is the slowest 15% of the reads, so p90 sits inside its
#: band.  Q5 (about 6 ms) spans 30%-85% of the reads, so p50 sits inside its
#: band.  Q2 is kept small because its first read after a write costs about
#: three times its next one, which would blur the band under p50.
RW_READ_SHARES = {"Q1": 0.25, "Q2": 0.05, "Q3": 0.15, "Q5": 0.55}

#: Share of operations that are writes.
RW_WRITE_SHARE = 0.2

#: Operations per measured second of ``rw-mixed`` (nominal, as above).
RW_PER_SECOND = 35

#: Columns an update rewrites, with the pool its new value comes from.
RW_UPDATE_COLUMNS = {
    "orders": {
        "orders.o_priority": POOLS["priority"],
        "orders.o_invoiceto": POOLS["invoiceTo"],
    },
    "lineitem": {
        "lineitem.l_quantity": POOLS["quantity"],
        "lineitem.l_itemnum": _ITEMS,
        "lineitem.l_shipphone": POOLS["telephone"],
    },
}


@dataclass(frozen=True)
class Write:
    """One write.

    ``append`` copies the rows at ``positions`` to the end of ``relation``;
    ``delete`` removes the rows at ``positions`` (always the rows the last
    append added, so cardinalities return to where they started);
    ``update`` sets ``column`` to ``value`` in the rows at ``positions``.
    """

    kind: str
    relation: str
    positions: tuple[int, ...]
    column: str | None = None
    value: Any = None


def rw_mixed(seed: int, length: int, cardinalities: Mapping[str, int]) -> list:
    """``length`` operations: reads (a :class:`Request`) and writes (:class:`Write`).

    Reads repeat the Table III requests of Q1, Q2, Q3 and Q5 at fixed
    shares.  Every append to a relation is followed, at that relation's next
    append-or-delete, by a delete of the appended rows; updates rewrite one
    column of one original row in place.  Reads and writes are interleaved
    evenly; the seed picks the order and every write.
    """
    rng = random.Random(f"rw-mixed/{seed}")
    writes = int(round(RW_WRITE_SHARE * length))
    groups: dict[str, list] = {
        template: [paper_request(template)] * count
        for template, count in _exact_counts(RW_READ_SHARES, length - writes).items()
    }
    groups["write"] = ["write"] * writes
    pending: dict[str, int] = {relation: 0 for relation in RW_UPDATE_COLUMNS}
    operations: list = []
    for operation in interleave(rng, groups):
        if operation != "write":
            operations.append(operation)
            continue
        relation = rng.choice(sorted(RW_UPDATE_COLUMNS))
        size = cardinalities[relation]
        if rng.random() < 0.5:
            column = rng.choice(sorted(RW_UPDATE_COLUMNS[relation]))
            value = rng.choice(RW_UPDATE_COLUMNS[relation][column])
            operations.append(
                Write("update", relation, (rng.randrange(size),), column, value)
            )
        elif pending[relation]:
            count = pending[relation]
            operations.append(
                Write("delete", relation, tuple(range(size, size + count)))
            )
            pending[relation] = 0
        else:
            count = rng.randint(1, 3)
            operations.append(
                Write("append", relation, tuple(rng.randrange(size) for _ in range(count)))
            )
            pending[relation] = count
    return operations


def properties(requests: Sequence[Request]) -> dict[str, Any]:
    """Measured shape of a read sequence: distinct share and template shares."""
    total = len(requests)
    shares: dict[str, float] = {}
    for request in requests:
        shares[request.template] = shares.get(request.template, 0) + 1
    return {
        "reads": total,
        "distinct_share": round(len(set(requests)) / total, 4) if total else 0.0,
        "template_shares": {
            template: round(count / total, 4) for template, count in sorted(shares.items())
        },
    }
