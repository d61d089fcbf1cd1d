"""Discrete-event engine tests: semantics, metrics, invariants."""

from __future__ import annotations

import pytest

from repro.exceptions import AnalysisError, DeadlockError
from repro.platform.mapping import Mapping, index_mapping
from repro.platform.platform import Platform
from repro.sdf.analysis import period
from repro.sdf.builder import GraphBuilder
from repro.simulation.engine import SimulationConfig, Simulator, simulate
from repro.simulation.metrics import metrics_from_completions
from repro.simulation.trace import assert_mutual_exclusion, format_gantt


class TestSingleApplication:
    def test_isolated_app_measures_analytical_period(self, app_a):
        result = simulate(
            [app_a], config=SimulationConfig(target_iterations=30)
        )
        assert result.period_of("A") == pytest.approx(period(app_a))

    def test_random_graphs_match_analysis(self):
        from repro.generation.random_sdf import random_sdf_graph

        for seed in (1, 5, 9):
            graph = random_sdf_graph("G", seed=seed)
            result = simulate(
                [graph], config=SimulationConfig(target_iterations=40)
            )
            assert result.period_of("G") == pytest.approx(
                period(graph), rel=1e-9
            )

    def test_worst_equals_average_in_steady_isolation(self, app_a):
        result = simulate(
            [app_a], config=SimulationConfig(target_iterations=30)
        )
        metrics = result.metrics["A"]
        assert metrics.worst_period == pytest.approx(
            metrics.average_period
        )


class TestTwoApplications:
    def test_paper_pair_achieves_300_in_practice(self, two_apps):
        # Section 3.1: "the period that these application graphs would
        # achieve in practice is only 300 time units".
        result = simulate(
            list(two_apps),
            config=SimulationConfig(target_iterations=100),
        )
        assert result.period_of("A") == pytest.approx(300.0)
        assert result.period_of("B") == pytest.approx(300.0)

    def test_dedicated_processors_remove_interference(self, two_apps):
        graphs = list(two_apps)
        platform = Platform.homogeneous(6)
        bindings = {
            "A": {"a0": "proc0", "a1": "proc1", "a2": "proc2"},
            "B": {"b0": "proc3", "b1": "proc4", "b2": "proc5"},
        }
        result = simulate(
            graphs,
            mapping=Mapping(platform, bindings),
            config=SimulationConfig(target_iterations=30),
        )
        assert result.period_of("A") == pytest.approx(300.0)
        assert result.period_of("B") == pytest.approx(300.0)

    def test_contention_never_beats_isolation(self, two_apps):
        result = simulate(
            list(two_apps),
            config=SimulationConfig(target_iterations=60),
        )
        for name in ("A", "B"):
            assert result.period_of(name) >= 300.0 - 1e-9


class TestDeterminism:
    def test_repeated_runs_identical(self, two_apps):
        def run():
            return simulate(
                list(two_apps),
                config=SimulationConfig(
                    target_iterations=50, record_trace=True
                ),
            )

        first, second = run(), run()
        assert first.period_of("A") == second.period_of("A")
        assert first.trace == second.trace

    def test_application_order_changes_nothing_measurable(self, two_apps):
        a, b = two_apps
        config = SimulationConfig(target_iterations=60)
        mapping = index_mapping([a, b])
        forward = simulate([a, b], mapping=mapping, config=config)
        backward = simulate([b, a], mapping=mapping, config=config)
        assert forward.period_of("A") == pytest.approx(
            backward.period_of("A"), rel=5e-2
        )


class TestInvariants:
    def test_mutual_exclusion_on_processors(self, two_apps):
        result = simulate(
            list(two_apps),
            config=SimulationConfig(
                target_iterations=40, record_trace=True
            ),
        )
        assert_mutual_exclusion(result.trace)

    def test_trace_durations_match_execution_times(self, two_apps):
        graphs = {g.name: g for g in two_apps}
        result = simulate(
            list(two_apps),
            config=SimulationConfig(
                target_iterations=20, record_trace=True
            ),
        )
        for entry in result.trace:
            expected = graphs[entry.application].execution_time(entry.actor)
            assert entry.end - entry.start == pytest.approx(expected)

    def test_firing_counts_respect_repetition_ratio(self, two_apps):
        from repro.sdf.repetition import repetition_vector

        result = simulate(
            list(two_apps),
            config=SimulationConfig(
                target_iterations=30, record_trace=True
            ),
        )
        fires = {}
        for entry in result.trace:
            key = (entry.application, entry.actor)
            fires[key] = fires.get(key, 0) + 1
        q = repetition_vector(two_apps[0])
        # a1 fires twice per a0 firing (+/- one in-flight iteration).
        assert abs(fires[("A", "a1")] - 2 * fires[("A", "a0")]) <= 2


class TestArbitrationPolicies:
    @pytest.mark.parametrize(
        "policy", ["fcfs", "round_robin", "priority"]
    )
    def test_all_policies_complete(self, two_apps, policy):
        result = simulate(
            list(two_apps),
            config=SimulationConfig(
                target_iterations=30, arbitration=policy
            ),
        )
        assert result.period_of("A") > 0
        assert result.period_of("B") > 0


class TestStopConditions:
    def test_horizon_stop(self, app_a):
        result = simulate(
            [app_a],
            config=SimulationConfig(
                target_iterations=None, horizon=300.0 * 50
            ),
        )
        assert result.metrics["A"].iterations >= 40

    def test_config_requires_some_stop(self):
        with pytest.raises(AnalysisError):
            SimulationConfig(target_iterations=None, horizon=None)

    def test_too_few_iterations_rejected(self):
        with pytest.raises(AnalysisError):
            SimulationConfig(target_iterations=2)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("warmup_fraction", 1.5, "warmup_fraction must be in"),
            ("warmup_fraction", 1.0, "warmup_fraction must be in"),
            ("warmup_fraction", -0.5, "warmup_fraction must be in"),
            ("warmup_fraction", float("nan"), "warmup_fraction must be in"),
            ("horizon", -1.0, "horizon must be positive"),
            ("horizon", 0.0, "horizon must be positive"),
            ("max_events", 0, "max_events must be at least 1"),
        ],
    )
    def test_out_of_range_fields_rejected(self, field, value, message):
        with pytest.raises(AnalysisError, match=message):
            SimulationConfig(**{field: value})

    def test_range_edges_accepted(self):
        config = SimulationConfig(
            warmup_fraction=0.0, horizon=1e-9, max_events=1
        )
        assert config.warmup_fraction == 0.0

    def test_horizon_too_short_raises(self, app_a):
        with pytest.raises(AnalysisError):
            simulate(
                [app_a],
                config=SimulationConfig(
                    target_iterations=None, horizon=500.0
                ),
            )


class TestValidation:
    def test_duplicate_app_names_rejected(self, app_a):
        with pytest.raises(AnalysisError):
            Simulator([app_a, app_a.renamed("A")])

    def test_needs_at_least_one_app(self):
        with pytest.raises(AnalysisError):
            Simulator([])

    def test_dead_graph_rejected_up_front(self):
        dead = (
            GraphBuilder("dead")
            .actor("a", 1)
            .actor("b", 1)
            .channel("a", "b")
            .channel("b", "a")
            .build()
        )
        with pytest.raises(DeadlockError):
            Simulator([dead])


class TestMetricsHelpers:
    def test_average_and_worst(self):
        completions = [10.0, 20.0, 35.0, 45.0, 60.0, 70.0, 80.0, 90.0]
        metrics = metrics_from_completions(
            "X", completions, warmup_fraction=0.25
        )
        assert metrics.application == "X"
        assert metrics.worst_period >= metrics.average_period
        assert metrics.best_period <= metrics.average_period

    def test_too_few_iterations_raises(self):
        with pytest.raises(AnalysisError):
            metrics_from_completions("X", [1.0, 2.0])

    def test_throughput_inverse(self):
        completions = [float(10 * i) for i in range(1, 12)]
        metrics = metrics_from_completions("X", completions)
        assert metrics.average_throughput == pytest.approx(
            1.0 / metrics.average_period
        )


class TestGantt:
    def test_format_contains_processors(self, two_apps):
        result = simulate(
            list(two_apps),
            config=SimulationConfig(
                target_iterations=5, record_trace=True
            ),
        )
        text = format_gantt(result.trace, time_limit=600)
        assert "proc0" in text
        assert "proc1" in text

    def test_empty_trace(self):
        assert format_gantt([]) == "(empty trace)"


class TestPreemptiveExecution:
    """Engine semantics under the preemptive-priority arbiter."""

    @staticmethod
    def _ring(name: str, taus, prefix="t"):
        builder = GraphBuilder(name)
        names = [f"{prefix}{i}" for i in range(len(taus))]
        for actor, tau in zip(names, taus):
            builder.actor(actor, tau)
        for i, actor in enumerate(names):
            nxt = names[(i + 1) % len(names)]
            builder.channel(
                actor, nxt,
                initial_tokens=1 if i == len(names) - 1 else 0,
            )
        return builder.build()

    def _shared_node_setup(self):
        """H's first actor and L's only actor share processor proc0.

        H = h0(10) -> h1(40) ring: h0 wants proc0 for 10 out of every
        ~50 units.  L = l0(100) self-ring hogging proc0 otherwise.
        """
        high = self._ring("H", [10, 40], prefix="h")
        low = self._ring("L", [100], prefix="l")
        platform = Platform.homogeneous(2)
        mapping = Mapping(
            platform,
            {
                "H": {"h0": "proc0", "h1": "proc1"},
                "L": {"l0": "proc0"},
            },
            priorities={"H": 1, "L": 0},
        )
        return [high, low], mapping

    def test_highest_priority_actor_never_waits(self):
        graphs, mapping = self._shared_node_setup()
        result = Simulator(
            graphs,
            mapping=mapping,
            config=SimulationConfig(
                target_iterations=50,
                arbitration="priority_preemptive",
            ),
        ).run()
        h0 = result.waiting[("H", "h0")]
        assert h0.maximum == pytest.approx(0.0, abs=1e-9)
        # Under FCFS the same actor waits behind l0's firings.
        fcfs = Simulator(
            graphs,
            mapping=mapping,
            config=SimulationConfig(target_iterations=50),
        ).run()
        assert fcfs.waiting[("H", "h0")].maximum > 1.0

    def test_preempted_work_is_conserved(self):
        """Every L iteration still executes exactly tau time units,
        split across resume segments."""
        graphs, mapping = self._shared_node_setup()
        result = Simulator(
            graphs,
            mapping=mapping,
            config=SimulationConfig(
                target_iterations=30,
                arbitration="priority_preemptive",
                record_trace=True,
            ),
        ).run()
        assert_mutual_exclusion(result.trace)
        segments = [
            entry for entry in result.trace
            if entry.application == "L"
        ]
        firings = result.waiting[("L", "l0")].samples
        # Preemption splits firings into more segments than grants.
        assert len(segments) > firings
        executed = sum(e.end - e.start for e in segments)
        completed = result.metrics["L"].iterations
        # All *completed* iterations executed 100 units each; at most
        # one firing is still in flight at the end of the run.
        assert executed >= 100.0 * completed - 1e-6
        assert executed <= 100.0 * (completed + 1) + 1e-6

    def test_flat_priorities_reproduce_fcfs_exactly(self, two_apps):
        mapping = index_mapping(list(two_apps))
        fcfs = Simulator(
            list(two_apps),
            mapping=mapping,
            config=SimulationConfig(
                target_iterations=40, record_trace=True
            ),
        ).run()
        flat = Simulator(
            list(two_apps),
            mapping=mapping,
            config=SimulationConfig(
                target_iterations=40,
                arbitration="priority_preemptive",
                record_trace=True,
            ),
        ).run()
        assert flat.trace == fcfs.trace
        for name in ("A", "B"):
            assert flat.period_of(name) == fcfs.period_of(name)

    def test_preemptive_run_is_deterministic(self):
        graphs, mapping = self._shared_node_setup()
        config = SimulationConfig(
            target_iterations=25,
            arbitration="priority_preemptive",
            record_trace=True,
        )
        first = Simulator(graphs, mapping=mapping, config=config).run()
        second = Simulator(graphs, mapping=mapping, config=config).run()
        assert first.trace == second.trace
        assert first.events_processed == second.events_processed


class TestArbitrationParams:
    def test_weighted_round_robin_params_reach_the_arbiter(self, two_apps):
        result = simulate(
            list(two_apps),
            config=SimulationConfig(
                target_iterations=20,
                arbitration="weighted_round_robin",
                arbitration_params={"weights": {"A": 2}},
            ),
        )
        assert result.metrics["A"].iterations >= 20

    def test_unknown_param_key_rejected(self, two_apps):
        with pytest.raises(Exception) as excinfo:
            simulate(
                list(two_apps),
                config=SimulationConfig(
                    target_iterations=20,
                    arbitration="weighted_round_robin",
                    arbitration_params={"wieghts": {"A": 2}},
                ),
            )
        assert "arbitration_params" in str(excinfo.value)

    def test_unknown_weight_application_rejected(self, two_apps):
        with pytest.raises(Exception) as excinfo:
            simulate(
                list(two_apps),
                config=SimulationConfig(
                    target_iterations=20,
                    arbitration="weighted_round_robin",
                    arbitration_params={"weights": {"Z": 2}},
                ),
            )
        assert "unknown applications" in str(excinfo.value)

    def test_bad_weight_value_rejected(self, two_apps):
        with pytest.raises(Exception) as excinfo:
            simulate(
                list(two_apps),
                config=SimulationConfig(
                    target_iterations=20,
                    arbitration="weighted_round_robin",
                    arbitration_params={"weights": {"A": 0}},
                ),
            )
        assert "integer >= 1" in str(excinfo.value)


class TestWeightBlindPolicies:
    def test_weights_for_a_weight_blind_policy_are_rejected(
        self, two_apps
    ):
        """Weights that the chosen arbiter would silently ignore must
        fail loudly instead of producing unweighted results."""
        for policy in ("fcfs", "round_robin", "priority_preemptive"):
            with pytest.raises(Exception) as excinfo:
                simulate(
                    list(two_apps),
                    config=SimulationConfig(
                        target_iterations=20,
                        arbitration=policy,
                        arbitration_params={"weights": {"A": 3}},
                    ),
                )
            assert "does not consume" in str(excinfo.value), policy
