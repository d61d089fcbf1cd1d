"""Measurement of application performance during simulation.

The paper's reference numbers are per-application *periods* (average time
per graph iteration, Definition 3) measured from long simulations, plus
the worst iteration observed ("Simulated Worst Case" in Figure 5).  An
iteration of application ``A`` completes when every actor ``a`` has
completed ``q(a)`` further firings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import AnalysisError


class IterationTracker:
    """Counts completed iterations of one application online.

    Firing completions stream in; the tracker maintains
    ``min_a floor(fires(a) / q(a))`` incrementally and records the
    completion time whenever the minimum advances.
    """

    def __init__(self, quotas: Dict[str, int]) -> None:
        if not quotas:
            raise AnalysisError("iteration tracker needs at least one actor")
        self._quotas = dict(quotas)
        self._fires: Dict[str, int] = {name: 0 for name in quotas}
        self.completion_times: List[float] = []

    def record_firing(self, actor: str, time: float) -> None:
        """Register a completed firing of ``actor`` at ``time``."""
        self._fires[actor] += 1
        completed = self.iterations_completed
        if completed > len(self.completion_times):
            # The minimum can only advance by one per firing of the
            # binding actor, but guard against quota-1 multi-advances.
            while len(self.completion_times) < completed:
                self.completion_times.append(time)

    @property
    def iterations_completed(self) -> int:
        return min(
            self._fires[name] // quota
            for name, quota in self._quotas.items()
        )


@dataclass
class ApplicationMetrics:
    """Steady-state performance of one application in one simulation.

    Attributes
    ----------
    application:
        Application name.
    iterations:
        Iterations completed over the whole run.
    average_period:
        Mean time per iteration over the measurement window (after
        ``warmup_iterations`` are discarded).
    worst_period:
        Longest single iteration in the measurement window — the
        "Simulated Worst Case" series of the paper's Figure 5.
    best_period:
        Shortest single iteration in the window (used by tests as a
        sanity lower bound).
    warmup_iterations:
        Iterations excluded from the window.
    """

    application: str
    iterations: int
    average_period: float
    worst_period: float
    best_period: float
    warmup_iterations: int

    @property
    def average_throughput(self) -> float:
        """Iterations per time unit (inverse period)."""
        return 1.0 / self.average_period


def metrics_from_completions(
    application: str,
    completion_times: List[float],
    warmup_fraction: float = 0.25,
    min_measured: int = 4,
) -> ApplicationMetrics:
    """Summarize iteration completion times into steady-state metrics.

    The first ``warmup_fraction`` of iterations (at least one, to drop the
    time-zero transient) is excluded; at least ``min_measured``
    measured iterations are required for a meaningful average.
    """
    total = len(completion_times)
    if total < min_measured + 1:
        raise AnalysisError(
            f"application {application!r} completed only {total} "
            f"iterations; need at least {min_measured + 1} to measure a "
            "period (raise the horizon or iteration target)"
        )
    warmup = max(1, int(total * warmup_fraction))
    if total - warmup < min_measured:
        warmup = total - min_measured
    window = completion_times[warmup - 1:]
    # window[0] is the *end* of the last warmup iteration: it anchors the
    # measurement without contributing its own duration.
    gaps = [b - a for a, b in zip(window, window[1:])]
    pattern = _steady_pattern(gaps)
    if pattern is not None:
        # Deterministic self-timed execution is eventually periodic; when
        # the tail of the gap sequence repeats with cycle length L, the
        # exact steady-state period is the mean over one cycle.  This
        # removes the O(1/window) bias of endpoint averaging when the
        # window holds a non-integer number of cycles.
        average = sum(pattern) / len(pattern)
    else:
        average = (window[-1] - window[0]) / len(gaps)
    return ApplicationMetrics(
        application=application,
        iterations=total,
        average_period=average,
        worst_period=max(gaps),
        best_period=min(gaps),
        warmup_iterations=warmup,
    )


def _steady_pattern(
    gaps: List[float], tolerance: float = 1e-9
) -> Optional[List[float]]:
    """The repeating tail cycle of ``gaps``, or None.

    Looks for the smallest cycle length ``L`` whose last three
    repetitions match element-wise (two when the window only holds two).
    Matching three repetitions makes an accidental match in noisy
    (contended) gap sequences very unlikely.
    """
    n = len(gaps)
    for length in range(1, n // 2 + 1):
        repetitions = min(3, n // length)
        if repetitions < 2:
            break
        candidate = gaps[n - length:]
        matched = True
        for repetition in range(1, repetitions):
            offset = n - (repetition + 1) * length
            for i in range(length):
                if abs(gaps[offset + i] - candidate[i]) > tolerance * max(
                    1.0, abs(candidate[i])
                ):
                    matched = False
                    break
            if not matched:
                break
        if matched:
            return candidate
    return None


@dataclass
class EngineStats:
    """Lightweight profile of one engine run (``Simulator.stats()``).

    Counts are exact; ``phase_seconds`` holds wall time per phase
    (``setup``: flattening + arbitration tables, ``step``: priming and
    the event loop, ``collect``: metrics/result assembly).  Cheap enough
    to be always on — no cProfile needed to profile the engine.
    """

    events_dispatched: int
    stale_events: int
    preemptions: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "EngineStats") -> None:
        """Accumulate ``other`` into this record (for suite totals)."""
        self.events_dispatched += other.events_dispatched
        self.stale_events += other.stale_events
        self.preemptions += other.preemptions
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds
            )

    def format_table(self) -> str:
        lines = [
            f"{'events dispatched':>18}  {self.events_dispatched}",
            f"{'stale events':>18}  {self.stale_events}",
            f"{'preemptions':>18}  {self.preemptions}",
        ]
        total = sum(self.phase_seconds.values())
        for phase in sorted(self.phase_seconds):
            seconds = self.phase_seconds[phase]
            share = (100.0 * seconds / total) if total > 0 else 0.0
            lines.append(
                f"{'phase ' + phase:>18}  {seconds * 1e3:10.3f} ms"
                f"  ({share:5.1f}%)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class WaitingStatistics:
    """Observed queueing delay of one actor over a simulation run.

    The empirical counterpart of the paper's estimated ``t_wait``: the
    time between an actor's request (tokens available) and its grant.
    """

    mean: float
    maximum: float
    samples: int


@dataclass
class SimulationResult:
    """Outcome of one multi-application simulation run.

    ``processor_utilization`` maps processor name to the fraction of the
    run it spent executing firings — the empirical counterpart of the
    summed blocking probabilities on the node.  ``waiting`` maps
    ``(application, actor)`` to observed queueing-delay statistics — the
    empirical counterpart of the estimated waiting times.
    """

    metrics: Dict[str, ApplicationMetrics]
    end_time: float
    events_processed: int
    trace: Optional[List] = None
    processor_utilization: Dict[str, float] = field(default_factory=dict)
    waiting: Dict[Tuple[str, str], "WaitingStatistics"] = field(
        default_factory=dict
    )

    def period_of(self, application: str) -> float:
        try:
            return self.metrics[application].average_period
        except KeyError:
            raise AnalysisError(
                f"no metrics recorded for application {application!r}"
            ) from None

    def throughput_of(self, application: str) -> float:
        return 1.0 / self.period_of(application)

    def worst_period_of(self, application: str) -> float:
        try:
            return self.metrics[application].worst_period
        except KeyError:
            raise AnalysisError(
                f"no metrics recorded for application {application!r}"
            ) from None
