"""The traced-run harness: per-layer spans recorded from the benchmark side.

The program's own tracer is not used.  Instead :class:`LayerTracer` replaces
the public functions of each layer *at the names their callers look up* —
``repro.core.evaluators.osharing.reformulate_operator``, not
``repro.core.reformulation.reformulate_operator``, because the evaluator
bound the function at import time — with thin wrappers that record one span
per call.  Class methods are wrapped on the class, so every caller sees them.

Spans are kept in memory (``(request, layer, start, end, self, parent)``
tuples), appended under a lock because ``ReproServer`` runs tenants on a
thread pool; each thread keeps its own span stack, so a span's parent is the
innermost open span of the same thread.  A layer's self time is its span's
duration minus the time its child spans cover.  Spans of one request share
the identifier of their root span.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

#: Layer of each wrapped function: (module or class path, attribute, layer).
#: Module paths name the module whose global the caller reads.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("repro.datagen.scenario", "generate_source_instance", "setup.datagen"),
    ("repro.datagen.scenario:CompositeMatcher", "match", "setup.matching"),
    ("repro.datagen.scenario", "generate_possible_mappings", "setup.matching"),
    ("repro.session:Session", "query", "session"),
    ("repro.core.evaluators.osharing", "partition", "partition"),
    ("repro.core.evaluators.osharing", "represent", "partition"),
    ("repro.core.evaluators.osharing", "partition_for", "partition"),
    ("repro.core.operator_selection", "partition_for", "partition"),
    ("repro.core.operator_selection:SEFStrategy", "choose", "partition"),
    ("repro.core.operator_selection:SNFStrategy", "choose", "partition"),
    ("repro.core.operator_selection:RandomStrategy", "choose", "partition"),
    ("repro.core.evaluators.osharing", "reformulate_operator", "reform"),
    ("repro.core.evaluators.osharing", "build_scan_plan", "reform"),
    ("repro.relational.optimizer.core:Optimizer", "optimize", "optimize"),
    ("repro.relational.executor:Executor", "execute", "exec"),
    ("repro.relational.plancache:PlanCache", "get", "cache"),
    ("repro.relational.plancache:PlanCache", "put", "cache"),
    ("repro.relational.plancache:PlanCache", "apply_write", "cache"),
    ("repro.core.evaluators.osharing", "extract_answers", "answer"),
    ("repro.core.answer:ProbabilisticAnswer", "add_tuples", "answer"),
    ("repro.core.answer:ProbabilisticAnswer", "add_empty", "answer"),
    ("repro.core.answer:ProbabilisticAnswer", "ranked", "answer"),
    ("repro.core.evaluators.osharing:OSharingEvaluator", "evaluate", "eval"),
    ("repro.serving.server", "parse_request", "serve.parse"),
    ("repro.serving.server", "encode_response", "serve.encode"),
    ("repro.serving.tenants", "result_payload", "serve.encode"),
    ("repro.serving.tenants:Tenant", "execute", "serve.tenant"),
    ("repro.relational.database:Database", "append_rows", "write"),
    ("repro.relational.database:Database", "update_rows", "write"),
    ("repro.relational.database:Database", "delete_rows", "write"),
)

#: Every layer, in report order.  ``session`` is the root of in-process
#: requests; its self time is the part no layer below accounts for.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self, wrapped: Iterable[tuple[str, str, str]] = WRAPPED):
        self._wrapped = tuple(wrapped)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []
        self._requests = 0
        #: ``(request, layer, start, end, self_seconds, parent_layer)``
        self.spans: list[tuple[int, str, float, float, float, str | None]] = []
        #: bytes the protocol layer encoded
        self.bytes_out = 0
        #: request dict id → (dict, parse end); consumed when a tenant starts it
        self._parsed: dict[int, tuple[dict, float]] = {}
        #: seconds each parsed request waited before its tenant ran it
        self.queue_waits: list[float] = []

    # ------------------------------------------------------------------ #
    def install(self) -> "LayerTracer":
        for path, attribute, layer in self._wrapped:
            owner = _resolve(path)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, layer: str) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                request = stack[-1][3]
                parent = stack[-1][0]
            else:
                with tracer._lock:
                    tracer._requests += 1
                    request = tracer._requests
                parent = None
            frame = [layer, perf_counter(), 0.0, request]
            if layer == "serve.tenant":
                tracer._dequeued(args[1] if len(args) > 1 else kwargs.get("request"), frame[1])
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                span = (request, layer, frame[1], end, duration - frame[2], parent)
                with tracer._lock:
                    tracer.spans.append(span)
            if layer == "serve.parse" and isinstance(result, dict):
                with tracer._lock:
                    tracer._parsed[id(result)] = (result, end)
            elif layer == "serve.encode" and isinstance(result, bytes):
                with tracer._lock:
                    tracer.bytes_out += len(result)
            return result

        return wrapper

    def _dequeued(self, request, started: float) -> None:
        with self._lock:
            parsed = self._parsed.pop(id(request), None)
            if parsed is not None and parsed[0] is request:
                self.queue_waits.append(started - parsed[1])

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` (entries from another layer), ``self_s``, ``total_s``.

        ``total_s`` sums the durations of the layer's outermost spans only,
        so a layer that calls itself is not counted twice.
        """
        layers = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for layer in LAYERS}
        with self._lock:
            spans = list(self.spans)
        for _, layer, start, end, self_seconds, parent in spans:
            entry = layers[layer]
            entry["self_s"] += self_seconds
            if parent != layer:
                entry["calls"] += 1
                entry["total_s"] += end - start
        return layers

    def root_seconds(self) -> float:
        """Summed duration of root spans: the time requests spent in the program."""
        with self._lock:
            return sum(end - start for _, _, start, end, _, parent in self.spans if parent is None)

    def write(self, path) -> None:
        """Write the spans kept in memory, one JSON array per line.

        Each line is ``[request, layer, start, end, self_seconds, parent]``.
        """
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for request, layer, start, end, self_seconds, parent in spans:
                line = [request, layer, round(start, 6), round(end, 6), round(self_seconds, 6), parent]
                handle.write(json.dumps(line) + "\n")
