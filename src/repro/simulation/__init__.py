"""Discrete-event simulation of concurrent SDF applications on shared
non-preemptive processors.

This package plays the role POOSL (reference [18]) plays in the paper: it
produces the *reference* performance numbers the probabilistic estimates
are judged against.  The engine executes every active application
self-timed; actors whose input tokens are available request their
processor and an :class:`~repro.simulation.arbiter.Arbiter` (FCFS by
default, matching the paper's contention model) decides who runs next.
One stepping loop (:mod:`repro.simulation.fastcore`) runs every backend
and every registered arbiter.
"""

from repro.simulation.arbiter import (
    Arbiter,
    ArbiterContext,
    FCFSArbiter,
    PreemptivePriorityArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)
from repro.simulation.engine import SimulationConfig, Simulator, simulate
from repro.simulation.metrics import (
    ApplicationMetrics,
    EngineStats,
    SimulationResult,
)
from repro.simulation.trace import TraceEntry, format_gantt

__all__ = [
    "ApplicationMetrics",
    "EngineStats",
    "Arbiter",
    "ArbiterContext",
    "FCFSArbiter",
    "PreemptivePriorityArbiter",
    "PriorityArbiter",
    "RoundRobinArbiter",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "TraceEntry",
    "WeightedRoundRobinArbiter",
    "format_gantt",
    "make_arbiter",
    "simulate",
]
