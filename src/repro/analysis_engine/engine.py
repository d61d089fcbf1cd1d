"""Per-graph incremental period analysis.

:class:`AnalysisEngine` is the stateful core of the library's hot path.
The probabilistic estimator needs the period of the *same* SDF graph
over and over with nothing but the actor execution times changed (once
per application, per fixed-point iteration, per use-case of a sweep).
The cold path repeats all the structural work every time: copy the
graph, recompute the repetition vector, expand to HSDF, decompose into
SCCs, check for deadlock, and cold-start Howard's algorithm.  None of
that depends on the weights.

The engine computes structure exactly once per graph:

* the HSDF expansion and its dense vertex indexing,
* the generic :class:`~repro.sdf.mcm.RatioEdge` problem built from it,
  held inside an :class:`~repro.sdf.mcm.IncrementalMCRSolver` that also
  caches the SCC decomposition and deadlock check, and
* the last converged Howard policy, which warm-starts every subsequent
  solve.

:meth:`AnalysisEngine.period` is then a *weight-only* update — map the
response-time vector onto per-edge weights and re-run (warm-started)
policy iteration.  On top of that sits a memo cache keyed on the
response-time vector itself: across the use-cases of a sweep the same
per-application contention state recurs (e.g. whenever the set of
co-mapped contenders coincides), and a recurring vector is answered
without solving at all.

A memo key is the per-actor time vector packed as native IEEE-754
doubles, ``8 * width`` bytes (``None`` keys the isolation period).
Equal floats give equal bytes, so ``82`` and ``82.0`` share an entry.
An entry (key, value and dict slot) costs about ``8 * width + 100``
bytes: ~170 B for 9 actors, where a tuple of boxed floats cost ~390
(tracemalloc, Python 3.11).

Results match the cold path to well within 1e-9 relative: the engine
feeds the identical edge problem to the identical solver, so the only
possible divergence is Howard terminating on a different tied-optimal
cycle (ratios within the solver's 1e-10 epsilon) after a warm start.
The parity suite (``tests/test_analysis_engine.py``) asserts the bound
for every waiting model and both analysis methods; in practice the
floats come out equal.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.backend import BATCH_MIN_ROWS, ArrayBackend, get_backend
from repro.exceptions import AnalysisError, GraphError
from repro.sdf.analysis import AnalysisMethod, CriticalCycle
from repro.sdf.graph import SDFGraph
from repro.sdf.hsdf import HSDFGraph, to_hsdf
from repro.sdf.mcm import (
    CycleRatioResult,
    IncrementalMCRSolver,
    hsdf_ratio_edges,
)
from repro.sdf.statespace import self_timed_period
from repro.telemetry import get_registry, get_tracer


@dataclass
class EngineStats:
    """Observability counters for benchmarks and tests.

    ``solves`` counts actual MCR/state-space evaluations; ``cache_hits``
    counts period queries answered from the response-time-vector memo
    without solving.
    """

    solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def queries(self) -> int:
        return self.cache_hits + self.cache_misses


class AnalysisEngine:
    """Incremental period analysis for one SDF graph.

    Parameters
    ----------
    graph:
        Consistent, live SDF graph (one application).
    method:
        :class:`~repro.sdf.analysis.AnalysisMethod`; the MCR engine is
        incremental, the state-space engine only benefits from the memo
        cache (its structure cannot be pre-factored).
    mcr_algorithm:
        ``"howard"`` (warm-startable, default), ``"lawler"`` or
        ``"brute"``.
    max_cache_entries:
        Bound on each response-time memo (scalar and batch); once
        reached, new vectors are still solved but no longer memoized
        (sweeps repeat early vectors far more often than late ones).
        Both memos key a vector by its packed doubles (see the module
        docstring), about ``8 * width + 100`` bytes per entry.
    """

    def __init__(
        self,
        graph: SDFGraph,
        method: AnalysisMethod = AnalysisMethod.MCR,
        mcr_algorithm: str = "howard",
        max_cache_entries: int = 65536,
    ) -> None:
        self.graph = graph
        self.method = method
        self.mcr_algorithm = mcr_algorithm
        self.stats = EngineStats()
        self._max_cache_entries = max_cache_entries
        # Telemetry instruments are bound once here; per-solve cost is a
        # single attribute lookup plus a no-op call when disabled.
        registry = get_registry()
        self._tracer = get_tracer()
        self._metric_solves = registry.counter(
            "repro_engine_solves_total",
            "MCR/state-space period solves across all analysis engines",
        )
        self._metric_cache_hits = registry.counter(
            "repro_engine_cache_hits_total",
            "Period queries answered from the response-time memo",
        )
        self._metric_cache_misses = registry.counter(
            "repro_engine_cache_misses_total",
            "Period queries that required a solve",
        )
        self._metric_batch_fallbacks = registry.counter(
            "repro_engine_batch_fallbacks_total",
            "Batched MCR rows whose candidate cycle failed certification",
        )
        self._actor_names: Tuple[str, ...] = graph.actor_names
        self._base_vector: Tuple[float, ...] = tuple(
            map(graph.execution_times().get, self._actor_names)
        )
        width = len(self._actor_names)
        self._pack = struct.Struct(f"={width}d").pack
        self._key_dtype = f"V{8 * width}"
        self._cache: Dict[Optional[bytes], float] = {}
        # Batch-certified periods live in their own memo (near-ties,
        # see :meth:`period_for`).
        self._batch_cache: Dict[bytes, float] = {}

        if method is AnalysisMethod.MCR:
            with self._tracer.span(
                "engine.build", graph=graph.name, method=method.value
            ) as span:
                hsdf = to_hsdf(graph)
                vertex_count, edges = hsdf_ratio_edges(hsdf)
                span.set(vertices=vertex_count, edges=len(edges))
                self._hsdf: Optional[HSDFGraph] = hsdf
                self._vertex_keys: Tuple[Tuple[str, int], ...] = tuple(
                    v.key for v in hsdf.vertices
                )
                # Each edge's weight is the execution time of its *source
                # vertex's actor*; remember the actor's position in the
                # time vector per edge so a response vector maps to
                # edge weights by integer indexing, no per-solve dict.
                actor_position = {
                    name: i for i, name in enumerate(self._actor_names)
                }
                self._edge_actor_indices: Tuple[int, ...] = tuple(
                    actor_position[e.source[0]] for e in hsdf.edges
                )
                self._solver: Optional[IncrementalMCRSolver] = (
                    IncrementalMCRSolver(
                        vertex_count, edges, method=mcr_algorithm
                    )
                )
        elif method is AnalysisMethod.STATE_SPACE:
            self._hsdf = None
            self._vertex_keys = ()
            self._edge_actor_indices = ()
            self._solver = None
        else:
            raise AnalysisError(f"unknown analysis method {method!r}")

    # ------------------------------------------------------------------
    @property
    def hsdf(self) -> HSDFGraph:
        """The cached HSDF expansion (MCR engines only)."""
        if self._hsdf is None:
            raise AnalysisError(
                "HSDF expansion is only available for the MCR engine"
            )
        return self._hsdf

    @property
    def last_policy(self) -> Optional[Tuple[int, ...]]:
        """Last converged Howard policy (``None`` before the first solve
        or for non-MCR engines)."""
        return self._solver.policy if self._solver is not None else None

    @property
    def isolation_period(self) -> float:
        """Period with the graph's own execution times (Definition 3)."""
        return self.period()

    # ------------------------------------------------------------------
    def _vector(
        self, response_times: Optional[Mapping[str, float]]
    ) -> Optional[Tuple[float, ...]]:
        """The full per-actor time vector (``None`` for isolation).

        Actors missing from the mapping keep their base time (matching
        ``period_with_response_times``); unknown extra keys are ignored,
        so semantically equal inputs share one memo key.
        """
        if not response_times:
            return None
        return tuple(
            map(response_times.get, self._actor_names, self._base_vector)
        )

    def period(
        self, response_times: Optional[Mapping[str, float]] = None
    ) -> float:
        """Period of the graph under ``response_times`` (weight update).

        Without arguments this is the isolation period; with a mapping it
        is ``period_with_response_times`` — actors absent from the
        mapping keep their original execution time.  Identical
        response-time vectors are answered from the memo cache.
        """
        return self._period(self._vector(response_times))

    def _period(self, vector: Optional[Tuple[float, ...]]) -> float:
        """:meth:`period` of a full time vector (scalar memo only)."""
        try:
            key = None if vector is None else self._pack(*vector)
        except struct.error:
            self._validate(vector)  # names the first non-numeric time
            raise
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            self._metric_cache_hits.inc()
            return cached
        self.stats.cache_misses += 1
        self._metric_cache_misses.inc()
        self._validate(vector)
        if self.method is AnalysisMethod.MCR:
            value = self._solve(vector).ratio
        else:
            graph = self.graph
            if vector is not None:
                graph = graph.with_execution_times(
                    dict(zip(self._actor_names, vector))
                )
            self.stats.solves += 1
            self._metric_solves.inc()
            value = self_timed_period(graph)
        if len(self._cache) < self._max_cache_entries:
            self._cache[key] = value
        return value

    def period_for(
        self,
        time_vectors,
        backend: "Optional[str | ArrayBackend]" = None,
    ) -> list:
        """Periods for a whole batch of per-actor time vectors.

        Array-in/array-out flavour of :meth:`period`: ``time_vectors``
        is a sequence (or 2-D array) of full per-actor execution-time
        vectors in ``graph.actor_names`` order, and the result is the
        list of their periods, in row order, as plain floats.

        Rows already in a response-time memo are answered without
        solving.  A batch of at least
        :data:`~repro.backend.BATCH_MIN_ROWS` rows on a warm-startable
        MCR solver runs batched when NumPy is importable: the remaining
        rows go through
        :meth:`~repro.sdf.mcm.IncrementalMCRSolver.solve_many` —
        candidate cycles certified in batch, scalar warm solves only
        for the stragglers.  Anything else (fewer rows,
        ``backend="python"``, which forces the scalar reference loop,
        ``lawler``/``brute``, the state-space method) runs the rows
        one by one through the scalar memo, as :meth:`period` does.

        Both paths key a row by its packed doubles (the module
        docstring), so ``82`` and ``82.0`` share one entry.  The batched
        branch reads the keys off a ``V{8*width}`` view of the input and
        works in C-level passes: scalar memo first, batch memo second
        (a vector in both answers with its scalar value), first-seen
        dedup of the misses, one solve per distinct miss in that order,
        one bulk memo write.  Every time must be positive and finite;
        the first bad miss raises :class:`~repro.exceptions.GraphError`
        before anything is solved or memoized.

        A batched period is the canonical ratio of the row's critical
        cycle (see :mod:`repro.sdf.mcm`), the same bits the scalar
        :meth:`period` solve returns, whatever the batch.  Batch results
        are still memoized separately from scalar ones: where two
        cycles' ratios lie within the solver tolerances (~1e-12
        relative) certification may report the other one, and the
        scalar path — shared with the byte-deterministic
        admission/runtime layer — must never serve such a value.
        Batched queries *read* the scalar memo but only ever *write*
        their own.
        """
        resolved = get_backend(backend)
        width = len(self._actor_names)
        if (
            resolved.vectorized
            and len(time_vectors) >= BATCH_MIN_ROWS
            and self.method is AnalysisMethod.MCR
            and self.mcr_algorithm == "howard"
        ):
            xp = resolved.xp  # type: ignore[union-attr]
            try:
                matrix = xp.ascontiguousarray(time_vectors, dtype=float)
            except ValueError:  # ragged input: report lengths below
                matrix = None
            if matrix is not None and matrix.shape[1:] == (width,):
                return self._period_batch(matrix, xp)
        rows = [tuple(map(float, row)) for row in time_vectors]
        for row in rows:
            if len(row) != width:
                raise AnalysisError(
                    f"expected {width} times per vector, got {len(row)}"
                )
        # Small batches and non-warm-startable configurations run the
        # plain scalar path, scalar memo only — the batch memo is never
        # consulted, so a scalar run stays byte-pure even on an engine
        # previously used by a batched sweep.
        return [self._period(row) for row in rows]

    def _period_batch(self, matrix, xp) -> list:
        """Batched :meth:`period_for` of a C-contiguous float64 matrix."""
        keys = matrix.view(self._key_dtype).ravel().tolist()
        batch_cache = self._batch_cache
        periods = list(map(self._cache.get, keys, map(batch_cache.get, keys)))
        # Sweeps routinely repeat vectors (same contender set in several
        # use-cases) and one solve serves every repeat.
        misses = dict.fromkeys(compress(keys, map(is_, periods, repeat(None))))
        if misses:
            times = xp.frombuffer(b"".join(misses), dtype=float)
            times = times.reshape(len(misses), matrix.shape[1])
            if not bool(xp.all((times > 0) & (times < xp.inf))):
                for row in times.tolist():
                    self._validate(row)
            weights = times[:, list(self._edge_actor_indices)]
            assert self._solver is not None
            fallbacks_before = self._solver.batch_fallbacks
            with self._tracer.span(
                "engine.solve_batch",
                graph=self.graph.name,
                rows=len(keys),
                misses=len(misses),
            ) as span:
                ratios = self._solver.solve_many(weights, xp)
                span.set(
                    fallbacks=self._solver.batch_fallbacks
                    - fallbacks_before
                )
            self._metric_batch_fallbacks.inc(
                self._solver.batch_fallbacks - fallbacks_before
            )
            self.stats.solves += len(misses)
            self._metric_solves.inc(len(misses))
            self.stats.cache_misses += len(misses)
            self._metric_cache_misses.inc(len(misses))
            room = self._max_cache_entries - len(batch_cache)
            batch_cache.update(zip(misses, ratios[: max(room, 0)]))
            periods = list(map(dict(zip(misses, ratios)).get, keys, periods))
        hit_rows = len(keys) - len(misses)
        self.stats.cache_hits += hit_rows
        self._metric_cache_hits.inc(hit_rows)
        return periods

    def throughput(
        self, response_times: Optional[Mapping[str, float]] = None
    ) -> float:
        """``1 / period`` (Definition 3)."""
        return 1.0 / self.period(response_times)

    def critical_cycle(
        self, response_times: Optional[Mapping[str, float]] = None
    ) -> CriticalCycle:
        """Which firings bound the period (MCR engines only)."""
        if self.method is not AnalysisMethod.MCR:
            raise AnalysisError(
                "critical_cycle requires the MCR analysis method"
            )
        vector = self._vector(response_times)
        self._validate(vector)
        result = self._solve(vector)
        firings = tuple(self._vertex_keys[i] for i in result.cycle)
        return CriticalCycle(ratio=result.ratio, firings=firings)

    def _validate(self, vector: Optional[Tuple[float, ...]]) -> None:
        """Same contract the cold path enforced through
        ``Actor.__post_init__`` when it rebuilt the graph; the MCR
        solver itself would silently accept non-positive, NaN or
        infinite weights (and the memo would keep the answer).  A time
        that is not a number at all raises the same error type."""
        if vector is None:
            return
        for name, value in zip(self._actor_names, vector):
            try:
                if value <= 0:
                    raise GraphError(
                        f"actor {name!r}: execution time must be "
                        f"positive, got {value!r}"
                    )
                if not value < math.inf:
                    raise GraphError(
                        f"actor {name!r}: execution time must be "
                        f"finite, got {value!r}"
                    )
            except TypeError:
                raise GraphError(
                    f"actor {name!r}: execution time must be a "
                    f"number, got {value!r}"
                ) from None

    def _solve(
        self, vector: Optional[Tuple[float, ...]]
    ) -> CycleRatioResult:
        """Run the (warm-started) MCR solver for one time vector."""
        assert self._solver is not None
        self.stats.solves += 1
        self._metric_solves.inc()
        if vector is None:
            return self._solver.solve()
        weights = [vector[i] for i in self._edge_actor_indices]
        return self._solver.solve(weights)

    # ------------------------------------------------------------------
    def cache_clear(self) -> None:
        """Drop the response-time memos (keeps structure and policy)."""
        self._cache.clear()
        self._batch_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisEngine({self.graph.name!r}, "
            f"method={self.method.value!r}, "
            f"solves={self.stats.solves}, hits={self.stats.cache_hits})"
        )


def build_engines(
    graphs: Sequence[SDFGraph],
    method: AnalysisMethod = AnalysisMethod.MCR,
    mcr_algorithm: str = "howard",
) -> Dict[str, AnalysisEngine]:
    """One engine per application, keyed by graph name.

    The estimator accepts this mapping via its ``engines`` parameter so
    several estimators (e.g. one per waiting model in a sweep) share a
    single set of expansions, solvers and memo caches.
    """
    return {
        graph.name: AnalysisEngine(
            graph, method=method, mcr_algorithm=mcr_algorithm
        )
        for graph in graphs
    }
