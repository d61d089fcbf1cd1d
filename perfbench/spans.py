"""Benchmark-side tracing: spans around calls into each layer's public API.

The program is not changed.  :func:`instrument` replaces public
functions and methods of the layers with wrappers that record a span
per call (name, layer, start, end, parent, request id); spans stay in
memory and :meth:`SpanLog.write_chrome_trace` writes them out when the
run ends.  Parents follow a ``contextvars`` stack, so they are correct
per thread and per asyncio task; a span opened on another thread (the
service's event-loop and solver threads) starts its own tree there.

Per-layer time is *self* time: a span's duration minus the durations
of its child spans.  :func:`attribute` assigns every span to the
operation it belongs to and splits each operation's time into layer
self times plus an ``unattributed`` remainder that sums back to the
operation's duration.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose self time the accounting reports, in print order.
LAYERS: Tuple[str, ...] = (
    "core",
    "core.waiting",
    "analysis_engine",
    "sdf.mcm",
    "simulation",
    "service.protocol",
    "service.hashring",
    "service.cache",
    "service.pool",
)


# A span is a plain tuple: tuples of atomic values are untracked by the
# garbage collector, so a run holding 100k spans does not make every
# collection walk them.
SPAN_ID, NAME, LAYER, START, END, PARENT, THREAD, REQUEST, ROWS = range(9)
Span = Tuple[int, str, str, float, float, Optional[int], int, Optional[str], int]


def duration(span: Span) -> float:
    return span[END] - span[START]


_parent: "contextvars.ContextVar[Optional[Tuple[int, Optional[str]]]]" = (
    contextvars.ContextVar("perfbench_parent", default=None)
)


class SpanLog:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)

    def wrap(
        self,
        function: Callable,
        name: str,
        layer: str,
        rows: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """A synchronous wrapper recording one span per call."""
        log = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not log.enabled:
                return function(*args, **kwargs)
            parent = _parent.get()
            span_id = next(ids)
            request = parent[1] if parent is not None else None
            token = _parent.set((span_id, request))
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                _parent.reset(token)
                spans.append(
                    (
                        span_id,
                        name,
                        layer,
                        start,
                        end,
                        parent[0] if parent is not None else None,
                        threading.get_ident(),
                        request,
                        rows(args) if rows is not None else 0,
                    )
                )

        traced.__perfbench_original__ = function  # type: ignore[attr-defined]
        return traced

    def op(self, request: Optional[str] = None) -> "_OpSpan":
        """Context manager marking one benchmark operation (a root span)."""
        return _OpSpan(self, request)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome-trace / Perfetto ``trace_event`` JSON of every span."""
        origin = min((s[START] for s in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span[THREAD], len(threads) + 1)
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[LAYER],
                    "ph": "X",
                    "ts": (span[START] - origin) * 1e6,
                    "dur": duration(span) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "id": span[SPAN_ID],
                        "parent": span[PARENT],
                        "request": span[REQUEST],
                    },
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


class _OpSpan:
    def __init__(self, log: SpanLog, request: Optional[str]) -> None:
        self.log = log
        self.request = request

    def __enter__(self) -> "_OpSpan":
        self.span_id = next(self.log._ids)
        self.token = _parent.set((self.span_id, self.request))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _parent.reset(self.token)
        self.log.spans.append(
            (
                self.span_id,
                "op",
                "op",
                self.start,
                end,
                None,
                threading.get_ident(),
                self.request,
                0,
            )
        )


def _patch(owner: object, attribute: str, wrapper_of: Callable) -> None:
    original = getattr(owner, attribute)
    if hasattr(original, "__perfbench_original__"):
        return
    setattr(owner, attribute, wrapper_of(original))


def instrument(log: SpanLog) -> None:
    """Wrap the public entry points of every measured layer.

    Classes are patched in place, so calls through existing instances
    are traced too.  Protocol helpers are module functions imported by
    name into the server, router and client modules; each of those
    names is patched where it is looked up.
    """
    from repro import make_waiting_model
    from repro.analysis_engine.engine import AnalysisEngine
    from repro.core import estimator as estimator_module
    from repro.sdf.mcm import IncrementalMCRSolver
    from repro.service import client, hashring, protocol, router, server
    from repro.service.cache import ResultCache
    from repro.service.pool import EnginePool
    from repro.simulation.engine import Simulator

    estimator_class = estimator_module.ProbabilisticEstimator
    for method in ("estimate", "estimate_many"):
        _patch(
            estimator_class,
            method,
            lambda f, m=method: log.wrap(f, f"core.{m}", "core"),
        )
    for method in ("period", "period_for", "critical_cycle"):
        _patch(
            AnalysisEngine,
            method,
            lambda f, m=method: log.wrap(
                f, f"analysis_engine.{m}", "analysis_engine"
            ),
        )
    _patch(
        AnalysisEngine,
        "__init__",
        lambda f: log.wrap(f, "analysis_engine.build", "analysis_engine.build"),
    )
    _patch(
        IncrementalMCRSolver,
        "solve",
        lambda f: log.wrap(f, "sdf.mcm.solve", "sdf.mcm", rows=lambda a: 1),
    )
    _patch(
        IncrementalMCRSolver,
        "solve_many",
        lambda f: log.wrap(
            f, "sdf.mcm.solve_many", "sdf.mcm", rows=lambda a: len(a[1])
        ),
    )
    for method in ("__init__", "run"):
        _patch(
            Simulator,
            method,
            lambda f, m=method: log.wrap(f, f"simulation.{m}", "simulation"),
        )
    protocol_names = (
        "encode_message",
        "decode_message",
        "parse_estimate",
        "parse_estimate_batch",
        "parse_cache_entries",
    )
    for module in (protocol, server, router, client):
        for name in protocol_names:
            if hasattr(module, name):
                _patch(
                    module,
                    name,
                    lambda f, n=name: log.wrap(
                        f, f"service.protocol.{n}", "service.protocol"
                    ),
                )
    for method in ("node_for", "nodes_for"):
        _patch(
            hashring.HashRing,
            method,
            lambda f, m=method: log.wrap(
                f, f"service.hashring.{m}", "service.hashring"
            ),
        )
    for method in ("get", "put", "import_entries"):
        _patch(
            ResultCache,
            method,
            lambda f, m=method: log.wrap(
                f, f"service.cache.{m}", "service.cache"
            ),
        )
    _patch(
        EnginePool,
        "estimator",
        lambda f: log.wrap(f, "service.pool.estimator", "service.pool"),
    )
    # Waiting models are plugins, one class per model: patch the class
    # behind each method of the paper's Table 1.
    for name in ("second_order", "fourth_order", "composability", "worst_case"):
        model_class = type(make_waiting_model(name))
        for method in ("waiting_time", "waiting_times_batch"):
            if hasattr(model_class, method):
                _patch(
                    model_class,
                    method,
                    lambda f, m=method: log.wrap(
                        f, f"core.waiting.{m}", "core.waiting"
                    ),
                )


@dataclass
class Attribution:
    """Per-op time split of the traced operations."""

    ops: int
    op_ms: float
    layer_ms: Dict[str, float]
    unattributed_ms: float
    rows: Dict[str, int]
    calls: Dict[str, int]

    def per_op(self, layer: str) -> float:
        return self.layer_ms.get(layer, 0.0) / self.ops if self.ops else 0.0


def attribute(log: SpanLog, ops_from: float = -float("inf")) -> Attribution:
    """Split the time of the operations started after ``ops_from``.

    A span belongs to an operation when its root ancestor is the op
    span, or, for a root span on another thread, when it starts inside
    the op's interval (the served workload keeps one request in flight
    while it is traced, so at most one op interval contains it).  Layer
    self times plus the remainder add up to the ops' total duration.
    """
    spans = [s for s in log.spans if s[LAYER] != "analysis_engine.build"]
    by_id = {s[SPAN_ID]: s for s in spans}
    ops = sorted(
        (s for s in spans if s[LAYER] == "op" and s[START] >= ops_from),
        key=lambda s: s[START],
    )
    op_ids = {s[SPAN_ID] for s in ops}
    starts = [s[START] for s in ops]
    child_s: Dict[int, float] = {}
    for span in spans:
        if span[PARENT] is not None:
            child_s[span[PARENT]] = child_s.get(span[PARENT], 0.0) + duration(span)

    def root_of(span: Span) -> Span:
        while span[PARENT] is not None and span[PARENT] in by_id:
            span = by_id[span[PARENT]]
        return span

    def op_containing(moment: float) -> Optional[Span]:
        index = bisect.bisect_right(starts, moment) - 1
        if index >= 0 and moment <= ops[index][END]:
            return ops[index]
        return None

    layer_ms: Dict[str, float] = {}
    rows: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    covered = {op[SPAN_ID]: child_s.get(op[SPAN_ID], 0.0) for op in ops}
    for span in spans:
        if span[LAYER] == "op":
            continue
        root = root_of(span)
        if root[SPAN_ID] not in op_ids:
            if root[LAYER] == "op":
                continue
            owner = op_containing(root[START])
            if owner is None:
                continue
            if span is root:
                covered[owner[SPAN_ID]] += duration(span)
        self_ms = (duration(span) - child_s.get(span[SPAN_ID], 0.0)) * 1e3
        layer_ms[span[LAYER]] = layer_ms.get(span[LAYER], 0.0) + self_ms
        rows[span[LAYER]] = rows.get(span[LAYER], 0) + span[ROWS]
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
    op_ms = sum(duration(op) for op in ops) * 1e3
    unattributed = sum(duration(op) - covered[op[SPAN_ID]] for op in ops) * 1e3
    return Attribution(
        ops=len(ops),
        op_ms=op_ms,
        layer_ms=layer_ms,
        unattributed_ms=unattributed,
        rows=rows,
        calls=calls,
    )


def build_ms(log: SpanLog, windows: List[Tuple[float, float]]) -> float:
    """Milliseconds spent constructing analysis engines inside ``windows``.

    Only engines whose construction starts inside one of the given
    ``(start, end)`` intervals count, so engines the benchmark builds
    for its own output checks and calibration stay out.
    """
    return sum(
        duration(s)
        for s in log.spans
        if s[LAYER] == "analysis_engine.build"
        and any(start <= s[START] <= end for start, end in windows)
    ) * 1e3
