"""The use-case sweep: the engine room of every evaluation artefact.

For each selected use-case the runner (a) simulates the use-case with the
discrete-event engine (the paper's POOSL reference numbers) and
(b) estimates every application's period with each analysis technique.
Table 1, Figure 6 and the timing comparison are all different summaries
of one :class:`SweepResult`.

The paper sweeps all 2^10 = 1024 use-cases with 500 000-cycle
simulations; exhaustive mode (``samples_per_size=None``) reproduces that,
while the default samples a deterministic subset per use-case size so the
benches complete in CI time.

Estimation runs through the batched
:meth:`~repro.core.estimator.ProbabilisticEstimator.estimate_many` API
on :mod:`repro.analysis_engine` engines (one set per waiting model so
the per-method timing comparison stays fair): the HSDF expansions and
solver structures are built once per method per sweep, and every
per-use-case estimate is a warm-started, weight-only solve.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis_engine import build_engines
from repro.core.estimator import EstimationResult, ProbabilisticEstimator
from repro.exceptions import ExperimentError
from repro.experiments.setup import BenchmarkSuite
from repro.platform.usecase import (
    DEFAULT_SWEEP_SEED,
    UseCase,
    sampled_use_cases_by_size,
)
from repro.simulation.engine import SimulationConfig, Simulator


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of a use-case sweep.

    Attributes
    ----------
    methods:
        Waiting-model specifications (see
        :func:`repro.core.waiting.make_waiting_model`) to evaluate; the
        default is the paper's four techniques.
    target_iterations:
        Simulated iterations per application per use-case (the paper's
        500 000 cycles correspond to hundreds of iterations; 60 keeps the
        default sweep fast while the measured periods are stable to a few
        percent).
    samples_per_size:
        Use-cases sampled per cardinality (``None`` = exhaustive 2^N).
    seed:
        Seed for use-case sampling.
    fixed_point_iterations:
        Fig.-4 passes per estimate (1 = the paper's algorithm).
    arbitration:
        Simulator arbitration policy.
    warmup_fraction:
        Fraction of simulated iterations discarded before measuring.
    """

    methods: Tuple[str, ...] = (
        "worst_case",
        "composability",
        "fourth_order",
        "second_order",
    )
    target_iterations: int = 60
    samples_per_size: Optional[int] = 12
    seed: int = DEFAULT_SWEEP_SEED
    fixed_point_iterations: int = 1
    arbitration: str = "fcfs"
    warmup_fraction: float = 0.25


@dataclass(frozen=True)
class UseCaseRecord:
    """Everything measured for one use-case.

    ``simulated`` / ``simulated_worst`` map application name to the mean
    / worst observed period; ``estimates`` maps method name to the
    per-application period estimates; ``*_seconds`` carry wall-clock
    costs for the timing comparison.
    """

    use_case: UseCase
    simulated: Dict[str, float]
    simulated_worst: Dict[str, float]
    estimates: Dict[str, Dict[str, float]]
    isolation: Dict[str, float]
    simulation_seconds: float
    estimation_seconds: Dict[str, float]


@dataclass
class SweepResult:
    """All records of one sweep plus the configuration that made them."""

    records: List[UseCaseRecord]
    methods: Tuple[str, ...]
    config: SweepConfig

    def records_of_size(self, size: int) -> List[UseCaseRecord]:
        return [r for r in self.records if r.use_case.size == size]

    @property
    def use_case_count(self) -> int:
        return len(self.records)

    def total_simulation_seconds(self) -> float:
        return sum(r.simulation_seconds for r in self.records)

    def total_estimation_seconds(self, method: str) -> float:
        return sum(r.estimation_seconds[method] for r in self.records)


def select_use_cases(
    application_names: Sequence[str],
    samples_per_size: Optional[int],
    seed: int,
) -> List[UseCase]:
    """The use-cases of a sweep: exhaustive or per-size samples."""
    return sampled_use_cases_by_size(
        application_names, samples_per_size=samples_per_size, seed=seed
    )


def run_sweep(
    suite: BenchmarkSuite,
    config: Optional[SweepConfig] = None,
    use_cases: Optional[Sequence[UseCase]] = None,
) -> SweepResult:
    """Simulate and estimate every selected use-case.

    Parameters
    ----------
    suite:
        The benchmark suite (applications + platform + mapping).
    config:
        Sweep parameters (default :class:`SweepConfig`).
    use_cases:
        Explicit use-case list; overrides the sampling configuration.
    """
    cfg = config if config is not None else SweepConfig()
    if not cfg.methods:
        raise ExperimentError("sweep needs at least one estimation method")
    names = suite.application_names
    selected = (
        list(use_cases)
        if use_cases is not None
        else select_use_cases(names, cfg.samples_per_size, cfg.seed)
    )

    # One engine set per waiting model: engines could be shared across
    # methods, but the timing table compares per-method estimation cost,
    # and a shared response-time memo would bill every overlap to
    # whichever method ran first.  Per-method engines keep the
    # comparison fair while each method stays incremental across its
    # own use-cases.
    estimators = {
        method: ProbabilisticEstimator(
            list(suite.graphs),
            mapping=suite.mapping,
            waiting_model=method,
            engines=build_engines(list(suite.graphs)),
        )
        for method in cfg.methods
    }
    isolation = suite.isolation_periods()

    # Batched estimation first (the cheap part), simulation per record
    # afterwards; each EstimationResult carries its own wall-clock.
    estimates_by_method: Dict[str, Sequence[EstimationResult]] = {
        method: estimator.estimate_many(
            selected, iterations=cfg.fixed_point_iterations
        )
        for method, estimator in estimators.items()
    }

    records: List[UseCaseRecord] = []
    for index, use_case in enumerate(selected):
        active = use_case.select(list(suite.graphs))
        sim_started = _time.perf_counter()
        result = Simulator(
            active,
            mapping=suite.mapping,
            config=SimulationConfig(
                arbitration=cfg.arbitration,
                target_iterations=cfg.target_iterations,
                warmup_fraction=cfg.warmup_fraction,
            ),
        ).run()
        sim_seconds = _time.perf_counter() - sim_started

        estimates: Dict[str, Dict[str, float]] = {}
        estimation_seconds: Dict[str, float] = {}
        for method in cfg.methods:
            estimate = estimates_by_method[method][index]
            estimation_seconds[method] = estimate.analysis_seconds
            estimates[method] = dict(estimate.periods)

        records.append(
            UseCaseRecord(
                use_case=use_case,
                simulated={
                    name: result.period_of(name) for name in use_case
                },
                simulated_worst={
                    name: result.worst_period_of(name) for name in use_case
                },
                estimates=estimates,
                isolation={name: isolation[name] for name in use_case},
                simulation_seconds=sim_seconds,
                estimation_seconds=estimation_seconds,
            )
        )
    return SweepResult(records=records, methods=cfg.methods, config=cfg)
