"""Discrete-event engine: concurrent SDF applications on shared processors.

Semantics (matching the paper's system model, Section 3):

* Every actor of every active application is bound to one processor of
  the platform (the :class:`~repro.platform.mapping.Mapping`).
* An actor *requests* its processor as soon as (a) the tokens for one
  firing are present on all its input channels and (b) it is not already
  executing or queued — software tasks issue one request at a time.
* Processors are **non-preemptive** under the paper's policies: once
  granted, the actor holds the processor for its whole execution time.
  Arbiters registered as *preemptive* (``priority_preemptive``) extend
  the model: a strictly higher-priority request suspends the running
  actor, which resumes later with its remaining execution time (tokens
  are not re-consumed; the suspended actor re-enters the queue).
* The processor's arbiter (FCFS by default) picks among queued requests
  whenever the processor becomes free.
* Tokens are consumed when execution *starts* and produced when it
  *completes*.

The engine is deterministic: equal-time events are processed in insertion
order and queue ties break on actor id, so repeated runs give identical
traces.  Execution times may be randomized through a
:class:`TimeModel` (the paper's stochastic extension); the RNG is seeded.

Stepping loop
-------------
:meth:`Simulator.run` always steps on the flat structure-of-arrays core
(:mod:`repro.simulation.fastcore`), whatever the array backend and
whichever registered arbiter is configured: a ``(time, seq)`` event
calendar with per-field payload lists, inlined builtin arbitration, a
generic hook for third-party arbiters, and batched same-timestamp
retirement.  :meth:`Simulator._run_reference` is the plain loop it
re-implements (pluggable arbiter objects, heap of event tuples).  No
option selects it: it is the oracle the differential test suite and
the simulation benchmark compare the core against, bit-for-bit.

Every run records an :class:`~repro.simulation.metrics.EngineStats`
profile, retrievable through :meth:`Simulator.stats`.
"""

from __future__ import annotations

import heapq
import math
import random
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

from repro.exceptions import AnalysisError, DeadlockError, MappingError
from repro.platform.mapping import Mapping, index_mapping
from repro.sdf.graph import SDFGraph
from repro.sdf.liveness import assert_live
from repro.sdf.repetition import repetition_vector
from repro.simulation.arbiter import ArbiterContext, make_arbiter
from repro.wcrt.weighted_round_robin import validate_weights
from repro.simulation.fastcore import duration_error, run_fast
from repro.simulation.metrics import (
    EngineStats,
    IterationTracker,
    SimulationResult,
    WaitingStatistics,
    metrics_from_completions,
)
from repro.simulation.trace import TraceEntry
from repro.telemetry import get_registry

def record_engine_stats(stats: EngineStats) -> None:
    """Fold one run's :class:`EngineStats` into the global registry.

    Counters are created ``always=True``: the engine profile (``repro
    conformance --profile``) is read off these shared counters, and —
    like ``EngineStats`` itself — they are cheap enough to stay on
    regardless of ``REPRO_TELEMETRY``.
    """
    registry = get_registry()
    registry.counter(
        "repro_sim_runs_total", "Simulation runs", always=True
    ).inc()
    registry.counter(
        "repro_sim_events_dispatched_total",
        "DES events dispatched",
        always=True,
    ).inc(stats.events_dispatched)
    registry.counter(
        "repro_sim_stale_events_total",
        "Stale (superseded) DES events",
        always=True,
    ).inc(stats.stale_events)
    registry.counter(
        "repro_sim_preemptions_total", "Preemptions performed", always=True
    ).inc(stats.preemptions)
    for phase, seconds in stats.phase_seconds.items():
        registry.counter(
            "repro_sim_phase_seconds_total",
            "Wall-clock seconds per engine phase",
            always=True,
            phase=phase,
        ).inc(seconds)


class TimeModel:
    """Execution-time model: returns the duration of each firing.

    The default implementation returns the actor's fixed execution time;
    subclasses (see :mod:`repro.core.distributions`) may draw from a
    distribution, enabling the paper's "varying execution times"
    extension.
    """

    def sample(
        self, application: str, actor: str, nominal: float, rng: random.Random
    ) -> float:
        return nominal


@dataclass
class SimulationConfig:
    """Tunable parameters of a simulation run.

    Attributes
    ----------
    arbitration:
        Processor arbitration policy — any name registered in
        :data:`repro.core.registry.ARBITERS`: ``"fcfs"`` (paper),
        ``"round_robin"``, ``"weighted_round_robin"``, ``"priority"``
        or ``"priority_preemptive"``.
    arbitration_params:
        Policy parameters; currently ``{"weights": {application:
        slices}}`` for the weighted round-robin policy (priorities ride
        on the mapping instead, next to the bindings they annotate).
    target_iterations:
        Stop once every application completed this many iterations
        (``None``: run until ``horizon``).
    horizon:
        Optional time limit (positive); events beyond it are not
        processed.
    warmup_fraction:
        Fraction of iterations discarded before measuring periods, in
        ``[0, 1)``.
    record_trace:
        Keep a Gantt trace of all firings (memory-heavy; for examples
        and invariants tests).
    seed:
        Seed for the execution-time RNG (only relevant with a stochastic
        :class:`TimeModel`).
    time_model:
        Execution-time model; default is the deterministic one.
    max_events:
        Hard bound on processed events (at least 1), a guard against
        misconfiguration.
    """

    arbitration: str = "fcfs"
    arbitration_params: Optional[TMapping[str, object]] = None
    target_iterations: Optional[int] = 100
    horizon: Optional[float] = None
    warmup_fraction: float = 0.25
    record_trace: bool = False
    seed: int = 0
    time_model: Optional[TimeModel] = None
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.target_iterations is None and self.horizon is None:
            raise AnalysisError(
                "simulation needs a target_iterations or a horizon"
            )
        if self.target_iterations is not None and self.target_iterations < 5:
            raise AnalysisError(
                "target_iterations must be at least 5 to measure a period"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise AnalysisError(
                "warmup_fraction must be in [0, 1), got "
                f"{self.warmup_fraction!r}"
            )
        if self.horizon is not None and not self.horizon > 0:
            raise AnalysisError(
                f"horizon must be positive, got {self.horizon!r}"
            )
        if self.max_events < 1:
            raise AnalysisError(
                f"max_events must be at least 1, got {self.max_events!r}"
            )


class Simulator:
    """One configured simulation of a use-case.

    Parameters
    ----------
    graphs:
        The active applications (each consistent and live).
    mapping:
        Actor bindings; defaults to the paper's index mapping.
    config:
        See :class:`SimulationConfig`.
    """

    def __init__(
        self,
        graphs: Sequence[SDFGraph],
        mapping: Optional[Mapping] = None,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        if not graphs:
            raise AnalysisError("simulation needs at least one application")
        names = [g.name for g in graphs]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate application names: {names!r}")
        self.graphs = list(graphs)
        self.mapping = mapping if mapping is not None else index_mapping(graphs)
        self.config = config if config is not None else SimulationConfig()
        self._last_stats: Optional[EngineStats] = None
        for graph in self.graphs:
            assert_live(graph)
        self.mapping.validate_against(self.graphs)
        self._build()

    # ------------------------------------------------------------------
    def stats(self) -> Optional[EngineStats]:
        """Profile of the most recent :meth:`run` (None before any)."""
        return self._last_stats

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Flatten (application, actor) pairs into integer ids."""
        self._app_of: List[str] = []
        self._name_of: List[str] = []
        self._tau: List[float] = []
        self._proc_of: List[int] = []
        self._priority_of: List[float] = []
        self._id_of: Dict[Tuple[str, str], int] = {}

        processor_names = self.mapping.platform.processor_names
        proc_index = {name: i for i, name in enumerate(processor_names)}

        for graph in self.graphs:
            for actor in graph.actors:
                actor_id = len(self._app_of)
                self._id_of[(graph.name, actor.name)] = actor_id
                self._app_of.append(graph.name)
                self._name_of.append(actor.name)
                self._tau.append(actor.execution_time)
                self._priority_of.append(
                    self.mapping.priority_of(graph.name, actor.name)
                )
                processor = self.mapping.processor_of(graph.name, actor.name)
                self._proc_of.append(proc_index[processor])
        self._processor_names = processor_names

        # Channels, flattened across applications.
        self._chan_src: List[int] = []
        self._chan_dst: List[int] = []
        self._chan_prod: List[int] = []
        self._chan_cons: List[int] = []
        self._chan_tokens: List[int] = []
        self._in_channels: List[List[int]] = [[] for _ in self._app_of]
        self._out_channels: List[List[int]] = [[] for _ in self._app_of]
        for graph in self.graphs:
            for channel in graph.channels:
                cid = len(self._chan_src)
                src = self._id_of[(graph.name, channel.source)]
                dst = self._id_of[(graph.name, channel.target)]
                self._chan_src.append(src)
                self._chan_dst.append(dst)
                self._chan_prod.append(channel.production_rate)
                self._chan_cons.append(channel.consumption_rate)
                self._chan_tokens.append(channel.initial_tokens)
                self._out_channels[src].append(cid)
                self._in_channels[dst].append(cid)

        # Per-processor membership (deterministic order = id order).
        members: List[List[int]] = [[] for _ in processor_names]
        for actor_id, proc in enumerate(self._proc_of):
            members[proc].append(actor_id)
        self._members = members

        self._trackers: Dict[str, IterationTracker] = {
            graph.name: IterationTracker(repetition_vector(graph))
            for graph in self.graphs
        }

    # ------------------------------------------------------------------
    def _arbiter_context(self) -> ArbiterContext:
        """Per-actor scheduling metadata for the arbiters.

        Priorities come from the mapping; weights from
        ``config.arbitration_params["weights"]`` (per application,
        resolved to every actor of the application).
        """
        params = dict(self.config.arbitration_params or {})
        raw_weights = params.pop("weights", None)
        if params:
            raise MappingError(
                f"unknown arbitration_params keys {sorted(params)!r}; "
                "supported: 'weights'"
            )
        weights: Dict[int, int] = {}
        if raw_weights is not None:
            # Weights for a policy that does not consume them would be
            # silently ignored — the misconfiguration must fail loudly
            # (the policy's parameter schema says what it reads).
            from repro.core.registry import ARBITERS

            policy = ARBITERS.get(self.config.arbitration)
            if "weights" not in policy.parameters:
                raise MappingError(
                    f"arbitration policy {policy.name!r} does not "
                    "consume arbitration_params['weights']; use "
                    "'weighted_round_robin' or drop the weights"
                )
            if not isinstance(raw_weights, dict):
                raise MappingError(
                    "arbitration_params['weights'] must map "
                    "application names to integer slice counts"
                )
            known = {g.name for g in self.graphs}
            unknown = sorted(set(raw_weights) - known)
            if unknown:
                raise MappingError(
                    f"arbitration weights name unknown applications "
                    f"{unknown!r}"
                )
            validate_weights(raw_weights, error=MappingError)
            for actor_id, app in enumerate(self._app_of):
                if app in raw_weights:
                    weights[actor_id] = raw_weights[app]
        priorities = {
            actor_id: priority
            for actor_id, priority in enumerate(self._priority_of)
            if priority != 0.0
        }
        return ArbiterContext(priorities=priorities, weights=weights)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation and return measured metrics.

        Steps on :func:`~repro.simulation.fastcore.run_fast`.  Every run
        folds its :class:`EngineStats` into the global metrics registry
        (always on) — the conformance ``--profile`` table and the
        telemetry exposition read those shared counters.
        """
        result = run_fast(self)
        record_engine_stats(self._last_stats)
        return result

    # ------------------------------------------------------------------
    def _run_reference(self) -> SimulationResult:
        """The reference stepping loop: the oracle :meth:`run` is
        tested against bit-for-bit.  Only tests and benchmarks call it.
        """
        t_setup = _time.perf_counter()
        config = self.config
        rng = random.Random(config.seed)
        time_model = config.time_model or TimeModel()

        tokens = list(self._chan_tokens)
        executing = [False] * len(self._app_of)
        queued = [False] * len(self._app_of)
        busy = [False] * len(self._members)
        context = self._arbiter_context()
        arbiters = [
            make_arbiter(config.arbitration, member_list, context)
            for member_list in self._members
        ]

        # Heap entries carry a per-actor generation counter: preempting
        # an actor invalidates its scheduled completion (the stale event
        # is skipped on pop).  Non-preemptive runs never bump a
        # generation, so their event stream is untouched.
        heap: List[Tuple[float, int, int, int]] = []
        sequence = 0
        busy_time = [0.0] * len(self._members)
        request_time = [0.0] * len(self._app_of)
        waiting_total = [0.0] * len(self._app_of)
        waiting_max = [0.0] * len(self._app_of)
        waiting_count = [0] * len(self._app_of)
        running: List[Optional[int]] = [None] * len(self._members)
        generation = [0] * len(self._app_of)
        remaining: List[Optional[float]] = [None] * len(self._app_of)
        scheduled_end = [0.0] * len(self._app_of)
        trace_slot = [-1] * len(self._app_of)
        trace: Optional[List[TraceEntry]] = (
            [] if config.record_trace else None
        )
        iterations_done: Dict[str, bool] = {
            g.name: False for g in self.graphs
        }
        target = config.target_iterations

        def ready(actor_id: int) -> bool:
            if executing[actor_id] or queued[actor_id]:
                return False
            in_list = self._in_channels[actor_id]
            for cid in in_list:
                if tokens[cid] < self._chan_cons[cid]:
                    return False
            return True

        def try_enqueue(actor_id: int, now: float, touched: set) -> None:
            if ready(actor_id):
                queued[actor_id] = True
                request_time[actor_id] = now
                proc = self._proc_of[actor_id]
                arbiters[proc].enqueue(actor_id, now)
                touched.add(proc)
                maybe_preempt(proc, now)

        def start_next(proc: int, now: float) -> None:
            nonlocal sequence
            if busy[proc]:
                return
            actor_id = arbiters[proc].pick()
            if actor_id is None:
                return
            queued[actor_id] = False
            executing[actor_id] = True
            busy[proc] = True
            running[proc] = actor_id
            waited = now - request_time[actor_id]
            waiting_total[actor_id] += waited
            if waited > waiting_max[actor_id]:
                waiting_max[actor_id] = waited
            resumed_for = remaining[actor_id]
            if resumed_for is not None:
                # Resuming a preempted firing: tokens were consumed at
                # the original start; only the leftover work runs.
                remaining[actor_id] = None
                duration = resumed_for
            else:
                waiting_count[actor_id] += 1
                for cid in self._in_channels[actor_id]:
                    tokens[cid] -= self._chan_cons[cid]
                duration = time_model.sample(
                    self._app_of[actor_id],
                    self._name_of[actor_id],
                    self._tau[actor_id],
                    rng,
                )
                if not 0.0 < duration < math.inf:
                    raise duration_error(
                        duration,
                        self._app_of[actor_id],
                        self._name_of[actor_id],
                    )
            sequence += 1
            busy_time[proc] += duration
            scheduled_end[actor_id] = now + duration
            heapq.heappush(
                heap,
                (now + duration, sequence, actor_id, generation[actor_id]),
            )
            if trace is not None:
                trace_slot[actor_id] = len(trace)
                trace.append(
                    TraceEntry(
                        processor=self._processor_names[proc],
                        application=self._app_of[actor_id],
                        actor=self._name_of[actor_id],
                        start=now,
                        end=now + duration,
                    )
                )

        def maybe_preempt(proc: int, now: float) -> None:
            """Suspend the running actor when the arbiter demands it.

            Only preemptive arbiters ever do; the victim's completion
            event is invalidated through its generation counter and the
            leftover work is re-queued (no token re-consumption).
            """
            nonlocal preemptions
            arbiter = arbiters[proc]
            if not arbiter.preemptive or not busy[proc]:
                return
            victim = running[proc]
            if victim is None or not arbiter.preempts(victim):
                return
            leftover = scheduled_end[victim] - now
            if leftover <= 0:
                # Completion is due at this very instant; let it finish.
                return
            preemptions += 1
            generation[victim] += 1
            remaining[victim] = leftover
            busy_time[proc] -= leftover
            executing[victim] = False
            queued[victim] = True
            request_time[victim] = now
            arbiter.enqueue(victim, now)
            busy[proc] = False
            running[proc] = None
            if trace is not None:
                slot = trace_slot[victim]
                opened = trace[slot]
                trace[slot] = TraceEntry(
                    processor=opened.processor,
                    application=opened.application,
                    actor=opened.actor,
                    start=opened.start,
                    end=now,
                )
            start_next(proc, now)

        preemptions = 0
        stale = 0
        t_step = _time.perf_counter()
        # Prime the system at time zero.
        touched: set = set()
        for actor_id in range(len(self._app_of)):
            try_enqueue(actor_id, 0.0, touched)
        for proc in touched:
            start_next(proc, 0.0)

        events = 0
        end_time = 0.0
        while heap:
            now, _, actor_id, event_generation = heapq.heappop(heap)
            if config.horizon is not None and now > config.horizon:
                break
            events += 1
            if events > config.max_events:
                raise AnalysisError(
                    f"simulation exceeded {config.max_events} events; "
                    "lower target_iterations or set a horizon"
                )
            if event_generation != generation[actor_id]:
                # Stale completion of a firing that was preempted.
                stale += 1
                continue
            end_time = now
            # Complete the firing.
            executing[actor_id] = False
            proc = self._proc_of[actor_id]
            busy[proc] = False
            running[proc] = None
            app = self._app_of[actor_id]
            tracker = self._trackers[app]
            tracker.record_firing(self._name_of[actor_id], now)
            if (
                target is not None
                and not iterations_done[app]
                and tracker.iterations_completed >= target
            ):
                iterations_done[app] = True
                if all(iterations_done.values()):
                    break

            touched = set()
            for cid in self._out_channels[actor_id]:
                tokens[cid] += self._chan_prod[cid]
                try_enqueue(self._chan_dst[cid], now, touched)
            try_enqueue(actor_id, now, touched)
            touched.add(proc)
            for touched_proc in touched:
                start_next(touched_proc, now)
        else:
            if target is not None and not all(iterations_done.values()):
                stuck = [a for a, done in iterations_done.items() if not done]
                raise DeadlockError(
                    f"simulation ran out of events before applications "
                    f"{stuck!r} reached {target} iterations"
                )

        t_collect = _time.perf_counter()
        metrics = {
            graph.name: metrics_from_completions(
                graph.name,
                self._trackers[graph.name].completion_times,
                warmup_fraction=config.warmup_fraction,
            )
            for graph in self.graphs
        }
        utilization = {}
        if end_time > 0:
            for proc, name in enumerate(self._processor_names):
                # Busy time of firings still in flight past end_time is
                # clipped so utilization never exceeds 1.
                utilization[name] = min(
                    1.0, busy_time[proc] / end_time
                )
        else:  # pragma: no cover - zero-length run
            utilization = {name: 0.0 for name in self._processor_names}
        waiting = {}
        for actor_id in range(len(self._app_of)):
            if waiting_count[actor_id] == 0:
                continue
            key = (self._app_of[actor_id], self._name_of[actor_id])
            waiting[key] = WaitingStatistics(
                mean=waiting_total[actor_id] / waiting_count[actor_id],
                maximum=waiting_max[actor_id],
                samples=waiting_count[actor_id],
            )
        self._last_stats = EngineStats(
            events_dispatched=events,
            stale_events=stale,
            preemptions=preemptions,
            phase_seconds={
                "setup": t_step - t_setup,
                "step": t_collect - t_step,
                "collect": _time.perf_counter() - t_collect,
            },
        )
        return SimulationResult(
            metrics=metrics,
            end_time=end_time,
            events_processed=events,
            trace=trace,
            processor_utilization=utilization,
            waiting=waiting,
        )


def simulate(
    graphs: Sequence[SDFGraph],
    mapping: Optional[Mapping] = None,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(graphs, mapping, config).run()
