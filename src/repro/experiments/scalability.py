"""The scalability claim (abstract and Section 5 of the paper).

"The approach scales very well with increasing number of applications"
— the analysis needs only *limited information from the other
applications* (their co-mapped actors' P and mu), so its per-use-case
cost grows polynomially in the number of co-mapped actors while
simulation cost grows with the amount of work simulated, and exhaustive
verification grows as 2^N in the number of applications.

:func:`run_scalability` measures, for growing application counts,

* the wall-clock of one maximum-contention estimate (per technique),
* the wall-clock of one maximum-contention reference simulation, and
* the number of use-cases an exhaustive sweep would have to cover,

giving the quantitative backing for the paper's "2^20 use-cases are
impossible to verify by simulation; the estimate handles each in
milliseconds" argument.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis_engine import build_engines
from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ExperimentError
from repro.experiments.reporting import render_table
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.mapping import index_mapping
from repro.platform.usecase import UseCase, all_use_cases
from repro.simulation.engine import SimulationConfig, Simulator


@dataclass(frozen=True)
class ScalabilityPoint:
    """Measured costs at one application count."""

    applications: int
    use_case_count: int
    estimation_ms: Dict[str, float]
    simulation_ms: float


@dataclass(frozen=True)
class ScalabilityResult:
    """One point per application count."""

    points: Tuple[ScalabilityPoint, ...]
    methods: Tuple[str, ...]

    def render(self) -> str:
        rows: List[List[object]] = []
        for point in self.points:
            row: List[object] = [
                point.applications,
                f"2^{point.applications}",
            ]
            for method in self.methods:
                row.append(f"{point.estimation_ms[method]:.1f}")
            row.append(f"{point.simulation_ms:.0f}")
            rows.append(row)
        headers = [
            "apps",
            "use-cases",
            *[f"{m} ms" for m in self.methods],
            "simulation ms",
        ]
        return render_table(
            headers,
            rows,
            title=(
                "Scalability - cost of ONE maximum-contention analysis "
                "vs. ONE reference simulation, by application count"
            ),
        )


def run_scalability(
    application_counts: Sequence[int] = (2, 5, 10, 15, 20),
    methods: Sequence[str] = ("second_order", "composability"),
    simulation_iterations: int = 40,
    repeats: int = 3,
    seed: int = 2007,
) -> ScalabilityResult:
    """Measure analysis and simulation cost as applications are added.

    All suites share one master seed, so the N-application suite is a
    prefix-extension of the (N-1)-application one.  ``repeats`` runs of
    each estimate are averaged (they are sub-millisecond at small N).
    """
    largest = max(application_counts)
    suite = paper_benchmark_suite(
        seed=seed, application_count=largest
    )
    points: List[ScalabilityPoint] = []
    for count in application_counts:
        graphs = list(suite.graphs[:count])
        use_case = UseCase(tuple(g.name for g in graphs))

        estimation_ms: Dict[str, float] = {}
        for method in methods:
            estimator = ProbabilisticEstimator(
                graphs, mapping=suite.mapping, waiting_model=method
            )
            started = _time.perf_counter()
            for _ in range(repeats):
                # Drop the response-time memo between repeats: repeated
                # estimates of one use-case would otherwise be answered
                # from cache, and this point measures the cost of a
                # *fresh* use-case (structure stays warm, as in a sweep).
                for engine in estimator.engines.values():
                    engine.cache_clear()
                estimator.estimate(use_case)
            estimation_ms[method] = (
                (_time.perf_counter() - started) / repeats * 1e3
            )

        started = _time.perf_counter()
        Simulator(
            graphs,
            mapping=suite.mapping,
            config=SimulationConfig(
                target_iterations=simulation_iterations
            ),
        ).run()
        simulation_ms = (_time.perf_counter() - started) * 1e3

        points.append(
            ScalabilityPoint(
                applications=count,
                use_case_count=2**count,
                estimation_ms=estimation_ms,
                simulation_ms=simulation_ms,
            )
        )
    return ScalabilityResult(
        points=tuple(points), methods=tuple(methods)
    )


# ----------------------------------------------------------------------
# Incremental-engine speedup on a full use-case sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpeedupResult:
    """Cold vs. incremental cost of estimating a full use-case sweep.

    ``cold_seconds`` re-expands to HSDF and cold-starts Howard for every
    period query (the original stateless implementation, obtained with
    ``incremental=False``); ``warm_seconds`` uses one shared set of
    per-application :class:`~repro.analysis_engine.AnalysisEngine` for
    all ``methods`` — both timings include estimator construction so
    structural setup is charged to the warm path.
    ``max_relative_difference`` certifies the two paths agreed.
    """

    applications: int
    use_case_count: int
    methods: Tuple[str, ...]
    cold_seconds: float
    warm_seconds: float
    max_relative_difference: float

    @property
    def speedup(self) -> float:
        return self.cold_seconds / self.warm_seconds

    @property
    def estimate_count(self) -> int:
        """Total estimates per path: every use-case under every method."""
        return self.use_case_count * len(self.methods)

    def render(self) -> str:
        rows = [
            [
                self.applications,
                self.use_case_count,
                "+".join(self.methods),
                f"{self.cold_seconds * 1e3:.1f}",
                f"{self.warm_seconds * 1e3:.1f}",
                f"{self.speedup:.2f}x",
                f"{self.max_relative_difference:.1e}",
            ]
        ]
        return render_table(
            [
                "apps",
                "use-cases",
                "methods",
                "cold ms",
                "engine ms",
                "speedup",
                "max rel diff",
            ],
            rows,
            title=(
                "Incremental engine - full use-case sweep, cold "
                "re-expansion vs. cached HSDF + warm-started Howard"
            ),
        )


def run_sweep_speedup(
    application_count: int = 8,
    methods: Sequence[str] = ("second_order",),
    seed: int = 2007,
    graphs: Optional[Sequence] = None,
    mapping=None,
) -> SweepSpeedupResult:
    """Estimate every use-case twice — cold path, then engine path.

    The exhaustive ``2^N - 1`` sweep is the workload of the paper's
    headline claim; this measures what the incremental engine buys on it
    and certifies (via ``max_relative_difference``) that caching changed
    nothing but the wall-clock.  Pass explicit ``graphs`` to measure a
    custom application set (default: the paper suite prefix; ``mapping``
    defaults to the index mapping of those graphs).  The warm path
    shares one engine set across all ``methods`` — fine here because
    only the *total* sweep cost is reported (the experiment runner, by
    contrast, keeps per-method engines so its per-method timing table
    stays fair).
    """
    if graphs is None:
        if mapping is not None:
            raise ExperimentError(
                "run_sweep_speedup got a mapping without graphs; pass "
                "the application set the mapping belongs to"
            )
        suite = paper_benchmark_suite(
            seed=seed, application_count=application_count
        )
        graphs = list(suite.graphs)
        mapping = suite.mapping
    else:
        graphs = list(graphs)
        if mapping is None:
            mapping = index_mapping(graphs)
    use_cases = all_use_cases(tuple(g.name for g in graphs))

    def sweep(incremental: bool):
        engines = build_engines(graphs) if incremental else None
        results = {}
        for method in methods:
            estimator = ProbabilisticEstimator(
                graphs,
                mapping=mapping,
                waiting_model=method,
                engines=engines,
                incremental=incremental,
            )
            # Both timed sides read every row's periods: a batched
            # result row is built only when it is read.
            results[method] = [
                result.periods
                for result in estimator.estimate_many(use_cases)
            ]
        return results

    started = _time.perf_counter()
    cold_results = sweep(incremental=False)
    cold_seconds = _time.perf_counter() - started

    started = _time.perf_counter()
    warm_results = sweep(incremental=True)
    warm_seconds = _time.perf_counter() - started

    max_rel = 0.0
    for method in methods:
        for cold_periods, warm_periods in zip(
            cold_results[method], warm_results[method]
        ):
            for name, cold_period in cold_periods.items():
                difference = abs(
                    cold_period - warm_periods[name]
                ) / abs(cold_period)
                max_rel = max(max_rel, difference)

    return SweepSpeedupResult(
        applications=len(graphs),
        use_case_count=len(use_cases),
        methods=tuple(methods),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        max_relative_difference=max_rel,
    )
