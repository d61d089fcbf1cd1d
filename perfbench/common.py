"""State one benchmark run shares between its workload and the report."""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from statistics import median

from figures import peak_rss_mb, period_error_pct, relative_error, tail
from hostref import HostRef
from spans import SpanLog

#: Relative band within which two periods count as the same answer.
#: It is the repository's current backend-parity band.
PARITY_BAND = 1e-9

#: The four estimation methods of the paper's Table 1.
TABLE1_MODELS: Tuple[str, ...] = (
    "second_order",
    "fourth_order",
    "composability",
    "worst_case",
)


@dataclass
class Op:
    raw_s: float
    ref_before: int
    units: int


@dataclass
class Run:
    """Everything one workload process measures.

    Timings are stored raw together with the reference samples that
    bracket them; normalised values are derived at report time.
    """

    workload: str
    seed: int
    seconds: float
    log: Optional[SpanLog]
    host: HostRef = field(default_factory=lambda: HostRef(interval=0.2))
    #: Per set-up repetition: (raw seconds, normalising scale).
    setups: List[Tuple[float, float]] = field(default_factory=list)
    #: Per set-up repetition: its (start, end) on the ``perf_counter`` clock.
    setup_windows: List[Tuple[float, float]] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Run-length dependent inputs of per-layer figures (not exact).
    extra: Dict[str, float] = field(default_factory=dict)
    error_pairs: List[Tuple[float, float]] = field(default_factory=list)
    #: Set by workloads whose throughput/latency are not per-op figures.
    throughput: Optional[Tuple[float, float]] = None
    latencies: Optional[Tuple[List[float], List[float]]] = None
    #: Time windows the latency tail is taken over (see ``figures.tail``).
    tail_windows: int = 1
    #: Peak resident memory when the deterministic part of the run ended.
    rss_mb: Optional[float] = None
    #: A fixed operation on fresh state, timed traced and untraced.
    overhead_op: Optional[Callable[[], None]] = None
    overhead_pct: Optional[float] = None

    # -- set-up -------------------------------------------------------
    def time_setup(
        self,
        build: Callable[..., object],
        repeats: int = 3,
        discard: Optional[Callable[[object], None]] = None,
        prepare: Optional[Callable[[], object]] = None,
    ):
        """Run ``build`` ``repeats`` times, timing each; keep the last.

        Each repetition starts from scratch and is bracketed by
        reference samples; ``setup_s`` reports the median.  ``discard``
        tears a repetition down, untimed, before the next one starts.
        ``prepare``, when given, runs untimed before each repetition and
        its result is passed to ``build``.
        """
        result = None
        for _ in range(repeats):
            if result is not None and discard is not None:
                discard(result)
            result = None  # drop the previous repetition before the next
            arguments = () if prepare is None else (prepare(),)
            before = self.host.sample()
            started = time.perf_counter()
            result = build(*arguments)
            ended = time.perf_counter()
            after = self.host.sample()
            scale = self.host.scale_between(before, after)
            self.setups.append((ended - started, scale))
            self.setup_windows.append((started, ended))
        return result

    # -- operations ---------------------------------------------------
    def deadline(self) -> float:
        return time.perf_counter() + self.seconds

    @contextlib.contextmanager
    def op(self, units: int, request: Optional[str] = None) -> Iterator[None]:
        """Time one operation; the reference kernel runs before it.

        An operation that raises is not recorded.
        """
        before = self.host.maybe_sample()
        span = self.log.op(request) if self.log is not None else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            yield
            elapsed = time.perf_counter() - started
        self.ops.append(Op(elapsed, before, units))

    def mark_rss(self) -> None:
        """Record peak memory at a point every run reaches with the same
        work done (time-bounded phases after it vary in length)."""
        self.rss_mb = peak_rss_mb()

    def close_ops(self) -> None:
        """Final reference sample bracketing the last operation."""
        self.host.sample()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_periods(
        self, label: str, served: Dict[str, float], reference: Dict[str, float]
    ) -> bool:
        """Same applications, periods within :data:`PARITY_BAND`."""
        if set(served) != set(reference):
            self.problems.append(f"{label}: applications differ")
            return False
        for app, value in reference.items():
            if relative_error(float(served[app]), value) > PARITY_BAND:
                self.problems.append(
                    f"{label}: {app} period {served[app]!r} vs {value!r}"
                )
                return False
        return True

    # -- derived figures ------------------------------------------------
    def op_scales(self) -> List[float]:
        return [self.host.scale_between(op.ref_before) for op in self.ops]

    def setup_s(self) -> Tuple[float, float]:
        """(normalised, raw) median set-up seconds."""
        return (
            median([raw * scale for raw, scale in self.setups]),
            median([raw for raw, _ in self.setups]),
        )

    def throughput_per_s(self) -> Tuple[float, float]:
        """(normalised, raw) units per second over all ops."""
        if self.throughput is not None:
            return self.throughput
        units = sum(op.units for op in self.ops)
        raw = sum(op.raw_s for op in self.ops)
        norm = sum(op.raw_s * s for op, s in zip(self.ops, self.op_scales()))
        return units / norm, units / raw

    def latency_samples_ms(self) -> Tuple[List[float], List[float]]:
        """(normalised, raw) per-op latencies in milliseconds."""
        if self.latencies is not None:
            return self.latencies
        raw = [op.raw_s * 1e3 for op in self.ops]
        return [r * s for r, s in zip(raw, self.op_scales())], raw

    def latency_figures(self) -> Dict[str, float]:
        norm, raw = self.latency_samples_ms()
        norm_tail, percentile = tail(norm, self.tail_windows)
        raw_tail, _ = tail(raw, self.tail_windows)
        return {
            "p50": median(norm),
            "p50_raw": median(raw),
            "tail": norm_tail,
            "tail_raw": raw_tail,
            "tail_percentile": percentile,
            "samples": len(norm),
            "windows": self.tail_windows,
        }

    def period_error_pct(self) -> float:
        return period_error_pct(self.error_pairs)


def engine_totals(engine_sets) -> Tuple[int, int, int]:
    """(solves, memo hits, memo misses) summed over engine dictionaries."""
    solves = hits = misses = 0
    for engines in engine_sets:
        for engine in engines.values():
            solves += engine.stats.solves
            hits += engine.stats.cache_hits
            misses += engine.stats.cache_misses
    return solves, hits, misses


def simulate_periods(graphs, mapping, use_case) -> Dict[str, float]:
    """Default FCFS discrete-event simulation of one use-case."""
    from repro import SimulationConfig, Simulator

    simulator = Simulator(use_case.select(list(graphs)), mapping, SimulationConfig())
    result = simulator.run()
    return {app: result.period_of(app) for app in use_case}


def stratified_use_cases(
    rng: random.Random, names: Tuple[str, ...], sizes: range
) -> List[Tuple[str, ...]]:
    """One random use-case of each size, in a random size order.

    Period error grows with the number of active applications, so a
    sample with a fixed size mix keeps the mean error comparable
    between seeds.
    """
    order = list(sizes)
    rng.shuffle(order)
    return [tuple(sorted(rng.sample(names, size))) for size in order]
