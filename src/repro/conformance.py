"""Cross-layer conformance: every registered model vs. the simulator.

Every waiting model in :data:`repro.core.registry.WAITING_MODELS`
declares what it *means* — ``"mean"`` (targets the expected period,
within a declared tolerance) or ``"conservative"`` (a sound upper
bound) — and which DES arbitration policy realizes its platform
assumptions.  This module turns those declarations into a systematic
gate: seeded scenario batches are generated from the existing gallery
and workload generators, each scenario is estimated analytically *and*
simulated under the model's matching arbiter, and the declared
semantics are asserted on the resulting periods::

    conservative:  estimated >= simulated            (every scenario)
    mean:          |estimated - simulated| <= tol * simulated

A model registered without a matching arbiter (TDMA — its time-sliced
preemption is outside the non-preemptive engine) or one that cannot be
built without an argument (the generic ``order:M`` spelling) is
reported as *skipped* with the reason; everything else is checked with
zero per-model code, so a third-party registration is covered the
moment it exists.  ``repro conformance`` exposes the harness on the
command line and ``tests/test_conformance.py`` runs a reduced batch as
a parametrized pytest suite.

Scenario generation
-------------------
Scenarios reuse the reproduction's existing generators end to end:

* *galleries* — :func:`~repro.experiments.setup.paper_benchmark_suite`
  at derived seeds, so graph structure varies across scenarios;
* *use-cases* — resident-set snapshots of a seeded
  :class:`~repro.generation.workload.WorkloadGenerator` event stream
  (the concurrent application sets a live device actually visits),
  rather than a uniform draw over the power set;
* *parameters* — per-application priorities and round-robin weights
  from the same seeded stream.

Snapshots whose densest processor carries more blocking-probability
mass than ``utilization_cap`` are skipped: the paper's probabilistic
framework models contention between applications that are individually
feasible, and a saturated node (where a static-priority policy simply
starves the lowest priority) is outside every estimator's declared
operating regime.  The cap is part of the scenario recipe, so the
batch is reproducible from ``(application_count, count, seed)`` alone.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import random

from repro.analysis_engine import build_engines
from repro.core.blocking import build_profiles
from repro.core.estimator import ProbabilisticEstimator
from repro.core.registry import (
    ARBITERS,
    WAITING_MODELS,
    WaitingModelInfo,
)
from repro.exceptions import ExperimentError
from repro.experiments.setup import (
    DEFAULT_SEED,
    BenchmarkSuite,
    paper_benchmark_suite,
)
from repro.generation.workload import WorkloadConfig, WorkloadGenerator
from repro.platform.usecase import UseCase
from repro.runtime.events import EventKind
from repro.simulation.engine import SimulationConfig, Simulator
from repro.simulation.metrics import EngineStats
from repro.telemetry import get_registry

#: Master seed of the default conformance batch.
DEFAULT_CONFORMANCE_SEED = 20_077

#: Skip snapshots whose densest node exceeds this blocking-probability
#: mass (see the module docstring).
DEFAULT_UTILIZATION_CAP = 0.85

#: Guard-band of the conservative (one-sided) check: float slack only.
CONSERVATIVE_SLACK = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One seeded conformance scenario.

    ``priorities`` and ``weights`` are per application; priorities are
    applied to every actor of the application through
    :meth:`~repro.platform.mapping.Mapping.with_priorities`, weights
    feed both the weighted-round-robin waiting model and the matching
    DES arbiter.
    """

    index: int
    gallery_seed: int
    application_count: int
    use_case: Tuple[str, ...]
    priorities: Mapping[str, int]
    weights: Mapping[str, int]

    def label(self) -> str:
        prios = ",".join(
            f"{a}={self.priorities[a]}" for a in self.use_case
        )
        return (
            f"#{self.index} seed={self.gallery_seed} "
            f"uc={'+'.join(self.use_case)} prio[{prios}]"
        )


@dataclass(frozen=True)
class Violation:
    """One (scenario, application) check that missed its contract."""

    scenario: Scenario
    application: str
    estimated: float
    simulated: float

    @property
    def ratio(self) -> float:
        return self.estimated / self.simulated


@dataclass
class ModelReport:
    """Conformance outcome of one registered model."""

    model: str
    semantics: str
    arbiter: Optional[str]
    tolerance: Optional[float]
    status: str  # "passed" | "failed" | "skipped"
    reason: str = ""
    scenarios: int = 0
    checks: int = 0
    ratio_low: float = float("inf")
    ratio_high: float = float("-inf")
    violations: List[Violation] = field(default_factory=list)

    def record(
        self, scenario: Scenario, application: str,
        estimated: float, simulated: float,
    ) -> None:
        ratio = estimated / simulated
        self.checks += 1
        self.ratio_low = min(self.ratio_low, ratio)
        self.ratio_high = max(self.ratio_high, ratio)
        if self.semantics == "conservative":
            ok = estimated >= simulated * (1.0 - CONSERVATIVE_SLACK)
        else:
            assert self.tolerance is not None
            ok = abs(estimated - simulated) <= self.tolerance * simulated
        if not ok:
            self.violations.append(
                Violation(scenario, application, estimated, simulated)
            )


@dataclass
class ConformanceReport:
    """Everything one conformance run produced."""

    application_count: int
    scenario_count: int
    seed: int
    utilization_cap: float
    target_iterations: int
    reports: List[ModelReport]
    elapsed_seconds: float
    simulations_run: int
    #: Accumulated engine profile of the batch (``--profile``): every
    #: simulation's :class:`~repro.simulation.metrics.EngineStats`
    #: summed; None when not collected or no simulation ran.
    engine_profile: Optional[EngineStats] = None

    @property
    def passed(self) -> bool:
        return all(r.status != "failed" for r in self.reports)

    def report_for(self, model: str) -> ModelReport:
        for report in self.reports:
            if report.model == model:
                return report
        raise ExperimentError(
            f"no conformance report for model {model!r}"
        )

    def render(self) -> str:
        from repro.experiments.reporting import render_table

        rows = []
        for r in self.reports:
            if r.status == "skipped":
                contract = "-"
                observed = r.reason
            else:
                contract = (
                    "upper-bounds sim"
                    if r.semantics == "conservative"
                    else f"within {r.tolerance:g} of sim"
                )
                observed = (
                    f"ratio [{r.ratio_low:.3f}, {r.ratio_high:.3f}] "
                    f"over {r.scenarios} scenarios"
                )
                if r.violations:
                    observed += f", {len(r.violations)} VIOLATIONS"
            rows.append(
                [
                    r.model,
                    r.semantics,
                    r.arbiter or "-",
                    contract,
                    observed,
                    r.status.upper(),
                ]
            )
        title = (
            f"Conformance: {self.application_count}-app galleries, "
            f"{self.scenario_count} scenarios/model, seed {self.seed} "
            f"({self.simulations_run} simulations, "
            f"{self.elapsed_seconds:.1f}s)"
        )
        return render_table(
            ["model", "semantics", "arbiter", "contract", "observed",
             "status"],
            rows,
            title=title,
        )

    def render_profile(self) -> str:
        """Engine-profile table of the batch (``repro conformance
        --profile``): dispatched / stale / preemption counts and
        per-phase wall time."""
        from repro.experiments.reporting import render_table

        stats = self.engine_profile
        if stats is None:
            return "no engine profile collected"
        phases = " ".join(
            f"{phase}={stats.phase_seconds[phase] * 1e3:.1f}ms"
            for phase in sorted(stats.phase_seconds)
        )
        return render_table(
            ["events", "stale", "preemptions", "phases"],
            [
                [
                    str(stats.events_dispatched),
                    str(stats.stale_events),
                    str(stats.preemptions),
                    phases,
                ]
            ],
            title=(
                f"Engine profile: {self.simulations_run} simulations"
            ),
        )


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
def generate_scenarios(
    application_count: int = 4,
    count: int = 50,
    seed: int = DEFAULT_CONFORMANCE_SEED,
    utilization_cap: float = DEFAULT_UTILIZATION_CAP,
    gallery_seeds: Optional[Sequence[int]] = None,
    suites: Optional[Dict[int, BenchmarkSuite]] = None,
) -> List[Scenario]:
    """Deterministic scenario batch (see the module docstring).

    ``suites`` is an optional shared ``gallery_seed -> BenchmarkSuite``
    cache; pass the same dict to :func:`run_conformance` to avoid
    regenerating galleries.
    """
    if count < 1:
        raise ExperimentError(f"count must be >= 1, got {count}")
    if application_count < 2:
        raise ExperimentError(
            "conformance needs >= 2 applications for contention, got "
            f"{application_count}"
        )
    if gallery_seeds is None:
        gallery_seeds = tuple(DEFAULT_SEED + k for k in range(6))
    if suites is None:
        suites = {}
    rng = random.Random(seed)
    utilization: Dict[Tuple[int, str], Dict[str, float]] = {}
    scenarios: List[Scenario] = []
    seen: set = set()
    stream = 0
    while len(scenarios) < count:
        stream += 1
        if stream > 50 * count:
            raise ExperimentError(
                f"scenario generation stalled after {stream} workload "
                f"streams ({len(scenarios)}/{count} scenarios); the "
                f"utilization cap {utilization_cap} may be too tight "
                "for this gallery"
            )
        gallery_seed = gallery_seeds[stream % len(gallery_seeds)]
        suite = suites.get(gallery_seed)
        if suite is None:
            suite = paper_benchmark_suite(
                seed=gallery_seed,
                application_count=application_count,
            )
            suites[gallery_seed] = suite
        names = list(suite.application_names)
        trace = WorkloadGenerator(
            names,
            config=WorkloadConfig(
                mean_interarrival=80.0, mean_holding=320.0
            ),
        ).generate(seed=seed * 1_000 + stream, events=60)
        resident: set = set()
        snapshots: List[Tuple[str, ...]] = []
        for event in trace.events:
            if event.kind is EventKind.START:
                resident.add(event.application)
            elif event.kind is EventKind.STOP:
                resident.discard(event.application)
            if len(resident) >= 2:
                snapshot = tuple(
                    n for n in names if n in resident
                )
                if not snapshots or snapshots[-1] != snapshot:
                    snapshots.append(snapshot)
        for snapshot in snapshots:
            if len(scenarios) >= count:
                break
            if not _feasible(
                suite, snapshot, utilization_cap, utilization,
                gallery_seed,
            ):
                continue
            priorities = {a: rng.randint(0, 2) for a in snapshot}
            weights = {a: rng.randint(1, 3) for a in snapshot}
            key = (
                gallery_seed,
                snapshot,
                tuple(sorted(priorities.items())),
                tuple(sorted(weights.items())),
            )
            if key in seen:
                continue
            seen.add(key)
            scenarios.append(
                Scenario(
                    index=len(scenarios),
                    gallery_seed=gallery_seed,
                    application_count=application_count,
                    use_case=snapshot,
                    priorities=priorities,
                    weights=weights,
                )
            )
    return scenarios


def _feasible(
    suite: BenchmarkSuite,
    snapshot: Tuple[str, ...],
    cap: float,
    utilization: Dict[Tuple[int, str], Dict[str, float]],
    gallery_seed: int,
) -> bool:
    """Densest-node blocking-probability mass of ``snapshot`` <= cap."""
    per_node: Dict[str, float] = {}
    for app in snapshot:
        cached = utilization.get((gallery_seed, app))
        if cached is None:
            cached = {}
            profiles = build_profiles([suite.graph(app)])
            for (_, actor), profile in profiles.items():
                proc = suite.mapping.processor_of(app, actor)
                cached[proc] = (
                    cached.get(proc, 0.0) + profile.probability
                )
            utilization[(gallery_seed, app)] = cached
        for proc, mass in cached.items():
            per_node[proc] = per_node.get(proc, 0.0) + mass
    return max(per_node.values()) <= cap


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def conformance_skip_reason(
    info: WaitingModelInfo,
) -> Optional[str]:
    """Why a registered model cannot be auto-checked (None = checkable)."""
    if info.requires_argument:
        return (
            "parameterized spelling; covered through its concrete "
            "registrations"
        )
    if info.arbiter is None:
        return "no matching DES arbiter (needs preemptive time slicing)"
    return None


def checkable_model_names() -> Tuple[str, ...]:
    """Registered models the harness can exercise end to end."""
    return tuple(
        info.name
        for info in WAITING_MODELS.infos()
        if conformance_skip_reason(info) is None
    )


def _model_for_scenario(info: WaitingModelInfo, scenario: Scenario):
    """Instantiate ``info`` for one scenario.

    Models that declare a ``weights`` parameter are exercised under the
    scenario's seeded per-application weights; everything else is built
    with its defaults (priorities travel on the mapping, not the
    model).
    """
    if "weights" in info.parameters and info.takes_argument:
        argument = ",".join(
            f"{app}={weight}"
            for app, weight in sorted(scenario.weights.items())
        )
        return info.factory(argument), {
            "weights": dict(scenario.weights)
        }
    return (
        (info.factory(None) if info.takes_argument else info.factory()),
        {},
    )


def _engine_profile_snapshot() -> EngineStats:
    """Engine totals currently held by the metrics registry.

    :meth:`Simulator.run` folds every run's :class:`EngineStats` into
    the always-on ``repro_sim_*`` counters; this reads them back into
    the same dataclass the profile table renders from.
    """
    registry = get_registry()
    phase_seconds: Dict[str, float] = {}
    for phase in registry.label_values("repro_sim_phase_seconds_total", "phase"):
        seconds = registry.value("repro_sim_phase_seconds_total", phase=phase)
        if seconds:
            phase_seconds[phase] = seconds

    def _count(name: str) -> int:
        return int(registry.value(name) or 0)

    return EngineStats(
        events_dispatched=_count("repro_sim_events_dispatched_total"),
        stale_events=_count("repro_sim_stale_events_total"),
        preemptions=_count("repro_sim_preemptions_total"),
        phase_seconds=phase_seconds,
    )


def _engine_profile_delta(
    before: EngineStats, after: EngineStats
) -> Optional[EngineStats]:
    """Engine work accumulated between two registry snapshots.

    The registry counts every simulation in the process, so a suite
    scopes its profile by differencing snapshots taken around its own
    runs.  None when the engine did no work in the window.
    """
    stats = EngineStats(
        events_dispatched=after.events_dispatched - before.events_dispatched,
        stale_events=after.stale_events - before.stale_events,
        preemptions=after.preemptions - before.preemptions,
    )
    for phase, seconds in after.phase_seconds.items():
        grown = seconds - before.phase_seconds.get(phase, 0.0)
        if grown > 0.0:
            stats.phase_seconds[phase] = grown
    if (
        stats.events_dispatched
        or stats.stale_events
        or stats.preemptions
        or stats.phase_seconds
    ):
        return stats
    return None


def run_conformance(
    application_count: int = 4,
    scenarios_per_model: int = 50,
    seed: int = DEFAULT_CONFORMANCE_SEED,
    models: Optional[Sequence[str]] = None,
    target_iterations: int = 60,
    utilization_cap: float = DEFAULT_UTILIZATION_CAP,
    progress: Optional[Callable[[str], None]] = None,
    simulations: Optional[Dict[object, Dict[str, float]]] = None,
    collect_stats: bool = False,
) -> ConformanceReport:
    """Check every registered model's declared semantics against DES.

    One scenario batch is shared by all models; simulations are cached
    per ``(scenario, arbiter, parameters)``, so the FCFS reference runs
    once per scenario no matter how many mean models consume it.
    ``simulations`` is an optional shared cross-call cache (like
    ``generate_scenarios``'s ``suites``).  With ``collect_stats`` the
    ``repro_sim_*`` counters of the shared metrics registry are
    snapshotted around the suite and their delta becomes
    ``report.engine_profile`` — the profile table is a view over the
    same telemetry every other consumer scrapes.
    """
    started = _time.perf_counter()
    selected = (
        tuple(models) if models is not None else WAITING_MODELS.names()
    )
    infos = [WAITING_MODELS.get(name) for name in selected]
    for info in infos:
        if info.arbiter is not None:
            ARBITERS.get(info.arbiter)  # fail fast on bad metadata
    suites: Dict[int, BenchmarkSuite] = {}
    scenarios = generate_scenarios(
        application_count=application_count,
        count=scenarios_per_model,
        seed=seed,
        utilization_cap=utilization_cap,
        suites=suites,
    )
    if simulations is None:
        simulations = {}
    profile_baseline = _engine_profile_snapshot() if collect_stats else None
    simulations_run = 0
    estimators: Dict[object, ProbabilisticEstimator] = {}
    # Structural analysis (HSDF expansion, Howard warm starts, period
    # memo) is shared across every estimator of one gallery.
    engines_by_seed: Dict[int, Dict[str, object]] = {}
    reports: List[ModelReport] = []
    for info in infos:
        skip = conformance_skip_reason(info)
        report = ModelReport(
            model=info.name,
            semantics=info.semantics,
            arbiter=info.arbiter,
            tolerance=info.tolerance,
            status="skipped" if skip else "passed",
            reason=skip or "",
        )
        reports.append(report)
        if skip:
            continue
        if progress is not None:
            progress(f"checking {info.name} ({info.semantics})")
        arbiter_info = ARBITERS.get(info.arbiter)
        for scenario in scenarios:
            model, arbitration_params = _model_for_scenario(
                info, scenario
            )
            suite = suites[scenario.gallery_seed]
            mapping = suite.mapping.with_priorities(
                dict(scenario.priorities)
            )
            graphs = [suite.graph(name) for name in scenario.use_case]
            # Scenario priorities/weights key the simulation only when
            # the arbiter consumes them (declared in its parameter
            # schema) — priority-blind policies (fcfs, round_robin)
            # produce byte-identical runs for every draw, so all mean
            # models of one (gallery, use-case) share one reference.
            sim_key = (
                scenario.gallery_seed,
                scenario.use_case,
                info.arbiter,
                (
                    tuple(sorted(scenario.priorities.items()))
                    if "priorities" in arbiter_info.parameters
                    else None
                ),
                (
                    tuple(sorted(arbitration_params.get(
                        "weights", {}).items()))
                    if "weights" in arbiter_info.parameters
                    else None
                ),
            )
            simulated = simulations.get(sim_key)
            if simulated is None:
                simulator = Simulator(
                    graphs,
                    mapping=mapping,
                    config=SimulationConfig(
                        target_iterations=target_iterations,
                        arbitration=info.arbiter,
                        arbitration_params=(
                            arbitration_params or None
                        ),
                    ),
                )
                result = simulator.run()
                simulations_run += 1
                simulated = {
                    name: result.period_of(name)
                    for name in scenario.use_case
                }
                simulations[sim_key] = simulated
            # Same conditioning as sim_key: priorities matter to a
            # model only when its matching arbiter consumes them (the
            # analytic side reads them from the same mapping), weights
            # only when declared in the model's parameter schema —
            # blind models reuse one estimator per gallery.
            est_key = (
                scenario.gallery_seed,
                info.name,
                (
                    tuple(sorted(scenario.priorities.items()))
                    if "priorities" in arbiter_info.parameters
                    else None
                ),
                (
                    tuple(sorted(scenario.weights.items()))
                    if "weights" in info.parameters
                    else None
                ),
            )
            estimator = estimators.get(est_key)
            if estimator is None:
                engines = engines_by_seed.get(scenario.gallery_seed)
                if engines is None:
                    engines = build_engines(list(suite.graphs))
                    engines_by_seed[scenario.gallery_seed] = engines
                estimator = ProbabilisticEstimator(
                    list(suite.graphs),
                    mapping=mapping,
                    waiting_model=model,
                    engines=engines,
                )
                estimators[est_key] = estimator
            estimate = estimator.estimate(
                UseCase(scenario.use_case)
            )
            for name in scenario.use_case:
                report.record(
                    scenario,
                    name,
                    estimate.periods[name],
                    simulated[name],
                )
            report.scenarios += 1
        if report.violations:
            report.status = "failed"
            worst = max(
                report.violations,
                key=lambda v: abs(1.0 - v.ratio),
            )
            report.reason = (
                f"worst violation {worst.scenario.label()} "
                f"{worst.application}: estimated {worst.estimated:.1f} "
                f"vs simulated {worst.simulated:.1f} "
                f"(ratio {worst.ratio:.3f})"
            )
    return ConformanceReport(
        application_count=application_count,
        scenario_count=len(scenarios),
        seed=seed,
        utilization_cap=utilization_cap,
        target_iterations=target_iterations,
        reports=reports,
        elapsed_seconds=_time.perf_counter() - started,
        simulations_run=simulations_run,
        engine_profile=(
            _engine_profile_delta(profile_baseline, _engine_profile_snapshot())
            if profile_baseline is not None
            else None
        ),
    )
