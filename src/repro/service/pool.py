"""Warm estimator pools: one set of analysis engines per gallery.

The expensive part of answering an estimation query is structural —
building the gallery's graphs, expanding them to HSDF, factoring the
MCR problems — and none of it depends on the query.  :class:`EnginePool`
keeps that work alive between requests: per gallery recipe it holds the
built suite and, per analysis method, one shared
:func:`~repro.analysis_engine.build_engines` set; estimators (one per
waiting model) attach to those engines, so every query the server
answers is a warm, weight-only solve exactly like the sweep paths of
PR 1–3.

Galleries are evicted least-recently-used once ``max_galleries`` is
reached — a long-lived server asked about many one-off galleries must
not hoard every expansion forever.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis_engine import AnalysisEngine, build_engines
from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ServiceError
from repro.runtime.service import GallerySpec
from repro.sdf.analysis import AnalysisMethod
from repro.service.protocol import Query
from repro.telemetry import MetricsRegistry, get_registry


@dataclass
class PoolStats:
    """Observability counters for the server's ``stats`` op."""

    gallery_builds: int = 0
    gallery_evictions: int = 0
    estimator_builds: int = 0


@dataclass
class _GalleryEntry:
    """Everything warm about one gallery."""

    spec: GallerySpec
    graphs: list
    mapping: object
    engines: Dict[AnalysisMethod, Dict[str, AnalysisEngine]] = field(
        default_factory=dict
    )
    estimators: Dict[Tuple[str, str], ProbabilisticEstimator] = field(
        default_factory=dict
    )


class EnginePool:
    """LRU-bounded map of gallery recipes to warm estimators.

    Parameters
    ----------
    max_galleries:
        How many galleries stay warm at once; the least recently used
        entry (suite, engines and estimators together) is dropped when
        a new recipe would exceed the bound.
    """

    def __init__(
        self,
        max_galleries: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_galleries < 1:
            raise ServiceError(f"max_galleries must be >= 1, got {max_galleries}")
        self.max_galleries = max_galleries
        self.stats = PoolStats()
        self._galleries: "OrderedDict[str, _GalleryEntry]" = OrderedDict()
        registry = registry if registry is not None else get_registry()
        self._metric_builds = registry.counter(
            "repro_pool_gallery_builds_total",
            "Gallery suites built (cold structural work) by the engine pool",
        )
        self._metric_evictions = registry.counter(
            "repro_pool_gallery_evictions_total",
            "Warm galleries dropped by the pool's LRU bound",
        )
        self._metric_estimators = registry.counter(
            "repro_pool_estimator_builds_total",
            "Estimators attached to warm engine sets",
        )

    def __len__(self) -> int:
        return len(self._galleries)

    # ------------------------------------------------------------------
    def _entry(self, spec: GallerySpec) -> _GalleryEntry:
        label = spec.label()
        entry = self._galleries.get(label)
        if entry is None:
            suite = spec.build()
            entry = _GalleryEntry(
                spec=spec,
                graphs=list(suite.graphs),
                mapping=suite.mapping,
            )
            self.stats.gallery_builds += 1
            self._metric_builds.inc()
            self._galleries[label] = entry
            while len(self._galleries) > self.max_galleries:
                self._galleries.popitem(last=False)
                self.stats.gallery_evictions += 1
                self._metric_evictions.inc()
        self._galleries.move_to_end(label)
        return entry

    def estimator(
        self, spec: GallerySpec, model: str, method: AnalysisMethod
    ) -> ProbabilisticEstimator:
        """The warm estimator answering ``(gallery, model, method)``.

        Estimators of different waiting models share one engine set per
        (gallery, method): the HSDF expansions and memo caches are per
        graph, not per model, so a mixed-model query stream still pays
        the structural cost once.
        """
        entry = self._entry(spec)
        estimator = entry.estimators.get((model, method.value))
        if estimator is None:
            engines = entry.engines.get(method)
            if engines is None:
                engines = build_engines(entry.graphs, method=method)
                entry.engines[method] = engines
            estimator = ProbabilisticEstimator(
                entry.graphs,
                mapping=entry.mapping,
                waiting_model=model,
                analysis_method=method,
                engines=engines,
            )
            self.stats.estimator_builds += 1
            self._metric_estimators.inc()
            entry.estimators[(model, method.value)] = estimator
        return estimator

    def solve(
        self, queries: Sequence[Query], iterations: int
    ) -> List[Dict[str, object]]:
        """One batched solve of a ``(gallery, model, method)`` group;
        returns one answer payload per query, in query order.

        The queries share gallery, model and method by construction, so
        one warm estimator's ``estimate_many`` answers them all — the
        micro-batching payoff.
        """
        first = queries[0]
        estimator = self.estimator(first.gallery, first.model, first.method)
        results = estimator.estimate_many(
            [query.use_case for query in queries], iterations=iterations
        )
        return [
            {
                "gallery": first.gallery.label(),
                "use_case": list(query.use_case.applications),
                "model": first.model,
                "method": first.method.value,
                "periods": dict(result.periods),
                "isolation": dict(result.isolation_periods),
            }
            for query, result in zip(queries, results)
        ]

    def snapshot(self) -> Dict[str, object]:
        """Pool state for the ``stats`` response (JSON-serializable)."""
        engine_solves = 0
        engine_hits = 0
        for entry in self._galleries.values():
            for engines in entry.engines.values():
                for engine in engines.values():
                    engine_solves += engine.stats.solves
                    engine_hits += engine.stats.cache_hits
        return {
            "galleries": list(self._galleries),
            "gallery_builds": self.stats.gallery_builds,
            "gallery_evictions": self.stats.gallery_evictions,
            "estimator_builds": self.stats.estimator_builds,
            "engine_solves": engine_solves,
            "engine_cache_hits": engine_hits,
        }
