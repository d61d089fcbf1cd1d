"""Differential testing of the DES stepping loop against its oracle.

:meth:`Simulator.run` steps on the SoA core (``fastcore``), a
*re-implementation* of the plain reference loop
(``Simulator._run_reference``), and the contract is byte-identity —
not a tolerance band: same traces, same metrics, same waiting
statistics, same utilization, same event counts, and the same errors on
the same inputs.  Hypothesis drives seeded paper-style galleries
through every builtin arbitration policy (with seeded priorities and
weights), through stochastic execution times, and through the core's
generic arbiter hook (builtin arbiter classes registered under new
names, a LIFO policy and a preemptive third-party policy); pinned tests
cover the error paths (starvation inside a horizon, deadlock before the
target, unusable sampled execution times) and the tracker state the
core must leave behind even when a run aborts.  Nothing here depends on
the array backend: the suite runs identically on every backend axis.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.distributions import DistributionTimeModel, UniformTime
from repro.core.registry import ARBITERS, ArbiterInfo
from repro.exceptions import AnalysisError, DeadlockError
from repro.experiments.setup import paper_benchmark_suite
from repro.simulation.arbiter import Arbiter
from repro.simulation.engine import SimulationConfig, Simulator, TimeModel

POLICIES = (
    "fcfs",
    "round_robin",
    "weighted_round_robin",
    "priority",
    "priority_preemptive",
)


def _assert_identical(reference, fast):
    """Byte-identity of two SimulationResults (``==``, not approx)."""
    assert fast.end_time == reference.end_time
    assert fast.events_processed == reference.events_processed
    assert fast.metrics == reference.metrics
    assert fast.processor_utilization == reference.processor_utilization
    assert fast.waiting == reference.waiting
    assert fast.trace == reference.trace


def _outcome(graphs, mapping, config, reference):
    """``(result, error, stats)`` of one loop on a fresh Simulator."""
    simulator = Simulator(graphs, mapping=mapping, config=config)
    loop = simulator._run_reference if reference else simulator.run
    try:
        return loop(), None, simulator.stats()
    except (AnalysisError, DeadlockError) as error:
        return None, (type(error), str(error)), None


def _assert_loops_agree(graphs, mapping, config):
    reference, ref_error, ref_stats = _outcome(graphs, mapping, config, True)
    fast, fast_error, fast_stats = _outcome(graphs, mapping, config, False)
    assert fast_error == ref_error
    if reference is not None:
        _assert_identical(reference, fast)
        assert fast_stats.events_dispatched == ref_stats.events_dispatched
        assert fast_stats.stale_events == ref_stats.stale_events
        assert fast_stats.preemptions == ref_stats.preemptions


def _scenario(gallery_seed, subset_mask, policy, draw_seed):
    """One runnable scenario from drawn integers.

    The gallery generator guarantees consistent live graphs, so every
    drawn scenario simulates; priorities and weights come from a
    seeded stream like the conformance batch's.
    """
    suite = paper_benchmark_suite(seed=gallery_seed, application_count=4)
    names = list(suite.application_names)
    chosen = [n for i, n in enumerate(names) if subset_mask & (1 << i)]
    if len(chosen) < 2:
        chosen = names[:2]
    rng = random.Random(draw_seed)
    mapping = suite.mapping.with_priorities(
        {name: rng.randint(0, 2) for name in chosen}
    )
    params = None
    if policy.endswith("weighted_round_robin"):
        params = {
            "weights": {name: rng.randint(1, 3) for name in chosen}
        }
    graphs = [suite.graph(name) for name in chosen]
    return graphs, mapping, params


def _uniform_times(graphs):
    return DistributionTimeModel(
        {
            (graph.name, actor.name): UniformTime(
                0.7 * actor.execution_time, 1.3 * actor.execution_time
            )
            for graph in graphs
            for actor in graph.actors
        }
    )


#: Event cap for the drawn scenarios.  Some seeded priority
#: assignments starve an application for good, and both loops would
#: otherwise run to the 50M-event default (minutes) before failing
#: alike.  The largest run that completed among 9,000 draws made like
#: the ones below took 463,375 events.  A sweep of every priority
#: assignment at ``target=45`` found rarer slow runs that complete
#: later (up to 4.38M events); those now compare errors instead.
DIFFERENTIAL_MAX_EVENTS = 2_000_000


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    gallery_seed=st.integers(0, 40),
    subset_mask=st.integers(1, 15),
    policy=st.sampled_from(POLICIES),
    record_trace=st.booleans(),
    target=st.sampled_from((20, 45)),
    draw_seed=st.integers(0, 1_000),
)
# Application A starves under these priorities: both loops must stop
# at the cap with the same error.
@example(
    gallery_seed=31,
    subset_mask=7,
    policy="priority_preemptive",
    draw_seed=332,
    target=20,
    record_trace=False,
)
def test_run_is_byte_identical_to_the_reference_loop(
    gallery_seed, subset_mask, policy, record_trace, target, draw_seed
):
    graphs, mapping, params = _scenario(
        gallery_seed, subset_mask, policy, draw_seed
    )
    config = SimulationConfig(
        target_iterations=target,
        arbitration=policy,
        arbitration_params=params,
        record_trace=record_trace,
        max_events=DIFFERENTIAL_MAX_EVENTS,
    )
    _assert_loops_agree(graphs, mapping, config)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    gallery_seed=st.integers(0, 20),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 100),
)
def test_stochastic_time_models_stay_identical(
    gallery_seed, policy, seed
):
    """Both loops must draw the same execution-time samples in the
    same order — the RNG stream is part of the contract."""
    graphs, mapping, params = _scenario(gallery_seed, 3, policy, seed)
    config = SimulationConfig(
        target_iterations=25,
        arbitration=policy,
        arbitration_params=params,
        seed=seed,
        time_model=_uniform_times(graphs),
    )
    _assert_loops_agree(graphs, mapping, config)


# ----------------------------------------------------------------------
# Generic arbiter hook: policies outside the core's builtin codes
# ----------------------------------------------------------------------
class LIFOArbiter(Arbiter):
    """Third-party policy: the most recent request runs next."""

    def __init__(self, members, context=None):
        super().__init__(members)
        self._stack = []

    def enqueue(self, actor_id, time):
        self._stack.append(actor_id)

    def pick(self):
        return self._stack.pop() if self._stack else None

    def pending(self):
        return len(self._stack)


class LowestIdPreemptiveArbiter(LIFOArbiter):
    """Third-party preemptive policy: the lowest actor id runs, and a
    lower-id request suspends the running actor."""

    preemptive = True

    def pick(self):
        if not self._stack:
            return None
        best = min(self._stack)
        self._stack.remove(best)
        return best

    def preempts(self, running):
        return bool(self._stack) and min(self._stack) < running


THIRD_PARTY = {
    "lifo_test": ArbiterInfo(
        name="lifo_test",
        factory=LIFOArbiter,
        summary="test: last come first served",
    ),
    "lowest_id_preemptive_test": ArbiterInfo(
        name="lowest_id_preemptive_test",
        factory=LowestIdPreemptiveArbiter,
        summary="test: preemptive lowest actor id first",
        preemptive=True,
    ),
}


@contextlib.contextmanager
def _generic_policies():
    """Every builtin arbiter class re-registered under a new name (so
    the core cannot recognise it and must take the generic hook), plus
    the third-party policies above."""
    infos = [
        dataclasses.replace(
            ARBITERS.get(policy), name=f"generic_{policy}", aliases=()
        )
        for policy in POLICIES
    ]
    infos.extend(THIRD_PARTY.values())
    with contextlib.ExitStack() as stack:
        for info in infos:
            stack.enter_context(ARBITERS.temporary(info))
        yield


GENERIC_POLICIES = tuple(f"generic_{p}" for p in POLICIES) + tuple(
    THIRD_PARTY
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    gallery_seed=st.integers(0, 40),
    subset_mask=st.integers(1, 15),
    policy=st.sampled_from(GENERIC_POLICIES),
    record_trace=st.booleans(),
    stochastic=st.booleans(),
    draw_seed=st.integers(0, 1_000),
)
def test_generic_arbiter_hook_is_byte_identical(
    gallery_seed, subset_mask, policy, record_trace, stochastic, draw_seed
):
    graphs, mapping, params = _scenario(
        gallery_seed, subset_mask, policy, draw_seed
    )
    # A horizon bounds the runs a starving policy would otherwise
    # stretch out; both loops must then fail identically.
    config = SimulationConfig(
        target_iterations=30,
        horizon=60_000.0,
        arbitration=policy,
        arbitration_params=params,
        record_trace=record_trace,
        seed=draw_seed,
        time_model=_uniform_times(graphs) if stochastic else None,
    )
    with _generic_policies():
        _assert_loops_agree(graphs, mapping, config)


def test_generic_hook_reproduces_the_builtin_policies():
    """A builtin arbiter class under a new name takes the generic hook,
    yet simulates exactly like the inlined builtin code."""
    suite = paper_benchmark_suite(seed=5, application_count=3)
    mapping = suite.mapping.with_priorities(
        {name: index for index, name in enumerate(suite.application_names)}
    )
    with _generic_policies():
        for policy in POLICIES:
            results = [
                Simulator(
                    list(suite.graphs),
                    mapping=mapping,
                    config=SimulationConfig(
                        target_iterations=30,
                        arbitration=name,
                        record_trace=True,
                    ),
                ).run()
                for name in (policy, f"generic_{policy}")
            ]
            _assert_identical(*results)


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
class _ConstantTime(TimeModel):
    def __init__(self, value):
        self.value = value

    def sample(self, application, actor, nominal, rng):
        return self.value


@pytest.mark.parametrize(
    "duration, kind",
    [
        (float("nan"), "non-finite"),
        (float("inf"), "non-finite"),
        (0.0, "non-positive"),
        (-1.0, "non-positive"),
    ],
)
def test_unusable_sampled_times_raise_identically(duration, kind):
    suite = paper_benchmark_suite(seed=3, application_count=2)
    config = SimulationConfig(
        target_iterations=20, time_model=_ConstantTime(duration)
    )
    errors = []
    for reference in (True, False):
        result, error, _ = _outcome(
            list(suite.graphs), suite.mapping, config, reference
        )
        assert result is None
        errors.append(error)
    assert errors[0] == errors[1]
    kind_of_error, message = errors[0]
    assert kind_of_error is AnalysisError
    assert message.startswith(
        f"time model produced a {kind} execution time ({duration}) for "
    )


class TestErrorAndTrackerParity:
    """Aborted runs must leave the same observable state behind."""

    def _starving_setup(self):
        from repro.platform.mapping import modulo_mapping
        from repro.platform.platform import Platform

        from repro.generation.random_sdf import (
            GeneratorConfig,
            random_sdf_graph,
        )

        graphs = [
            random_sdf_graph(
                name,
                seed=seed,
                config=GeneratorConfig(actor_count_range=(3, 3)),
            )
            for name, seed in (("X", 1), ("Y", 2), ("Z", 3))
        ]
        mapping = modulo_mapping(
            graphs, Platform.homogeneous(1)
        ).with_priorities({"X": 2, "Y": 2, "Z": 0})
        return graphs, mapping

    def test_horizon_starvation_raises_identically(self):
        graphs, mapping = self._starving_setup()
        config = SimulationConfig(
            target_iterations=None,
            horizon=2_000.0,
            arbitration="priority",
        )
        outcomes, trackers = {}, {}
        for reference in (True, False):
            simulator = Simulator(graphs, mapping=mapping, config=config)
            loop = simulator._run_reference if reference else simulator.run
            try:
                loop()
                outcomes[reference] = None
            except (AnalysisError, DeadlockError) as error:
                outcomes[reference] = (type(error), str(error))
            # The per-application trackers are part of the observable
            # surface even after an abort (starvation diagnostics read
            # them), so the fast loop must leave the same state.
            trackers[reference] = {
                app: list(tracker.completion_times)
                for app, tracker in simulator._trackers.items()
            }
        assert outcomes[True] == outcomes[False]
        assert trackers[True] == trackers[False]

    def test_max_events_abort_leaves_identical_trackers(self):
        suite = paper_benchmark_suite(seed=3, application_count=2)
        config = SimulationConfig(target_iterations=1000, max_events=400)
        errors, trackers = {}, {}
        for reference in (True, False):
            simulator = Simulator(
                list(suite.graphs), mapping=suite.mapping, config=config
            )
            loop = simulator._run_reference if reference else simulator.run
            with pytest.raises(AnalysisError) as error:
                loop()
            errors[reference] = str(error.value)
            trackers[reference] = {
                app: (dict(tracker._fires), list(tracker.completion_times))
                for app, tracker in simulator._trackers.items()
            }
        assert errors[True] == errors[False]
        assert "exceeded 400 events" in errors[True]
        # The abort comes after some iterations completed, so all-zero
        # trackers cannot pass for the reference's.
        assert all(times for _, times in trackers[True].values())
        assert trackers[True] == trackers[False]

    def test_deadlock_before_target_raises_identically(self):
        graphs, mapping = self._starving_setup()
        config = SimulationConfig(
            target_iterations=50,
            horizon=2_000.0,
            arbitration="priority",
        )
        errors = {}
        for reference in (True, False):
            result, errors[reference], _ = _outcome(
                graphs, mapping, config, reference
            )
            assert result is None
        assert errors[True] == errors[False]


def test_engine_stats_profile_every_run():
    suite = paper_benchmark_suite(seed=3, application_count=2)
    simulator = Simulator(
        list(suite.graphs),
        mapping=suite.mapping,
        config=SimulationConfig(target_iterations=20),
    )
    assert simulator.stats() is None
    simulator.run()
    stats = simulator.stats()
    assert stats is not None
    assert stats.events_dispatched > 0
    assert set(stats.phase_seconds) == {"setup", "step", "collect"}
