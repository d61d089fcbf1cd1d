"""Resource manager: quality ladders, QoS policies, cold-path parity.

The headline acceptance test replays a seeded 10 000-event trace
through the :class:`~repro.runtime.manager.ResourceManager` end-to-end
and re-estimates every admit/reject decision's resident set from
scratch (fresh profiles, fresh composition, cold period analysis),
asserting <= 1e-9 relative parity on the predicted periods.
"""

from __future__ import annotations

import pytest

from repro.admission.controller import estimate_resident_periods
from repro.exceptions import ResourceManagerError
from repro.generation.gallery import paper_two_apps
from repro.generation.random_sdf import GeneratorConfig
from repro.generation.workload import WorkloadConfig, WorkloadGenerator
from repro.experiments.setup import paper_benchmark_suite
from repro.runtime.events import EventKind, ScenarioEvent, Trace
from repro.runtime.log import (
    DecisionRecord,
    log_from_json,
    log_to_json,
)
from repro.runtime.manager import (
    AppSpec,
    ResourceManager,
    gallery_from_graphs,
    make_qos_policy,
)
from repro.runtime.quality import QualityLadder, QualityLevel
from repro.runtime.validation import validate_log
from repro.sdf.analysis import period as analytical_period

TWO_LEVELS = (QualityLevel("high", 1.0), QualityLevel("low", 0.5))


def tiny_suite(applications=4):
    """Paper-style suite with 3-4 actor graphs (fast cold analyses)."""
    return paper_benchmark_suite(
        seed=77,
        application_count=applications,
        config=GeneratorConfig(actor_count_range=(3, 4)),
    )


class TestQualityLadder:
    def test_variant_scales_times_keeps_structure(self):
        a, _ = paper_two_apps()
        ladder = QualityLadder(a, levels=TWO_LEVELS)
        low = ladder.graph_at("low")
        assert low.actor_names == a.actor_names
        for actor in a.actors:
            assert low.execution_time(actor.name) == pytest.approx(
                actor.execution_time * 0.5
            )
        assert ladder.graph_at("high") is a
        # Halving every time halves the period.
        assert analytical_period(low) == pytest.approx(
            analytical_period(a) / 2
        )

    def test_navigation(self):
        a, _ = paper_two_apps()
        ladder = QualityLadder(a, levels=TWO_LEVELS)
        assert ladder.best == "high"
        assert ladder.worst == "low"
        assert ladder.below("high") == "low"
        assert ladder.below("low") is None
        with pytest.raises(ResourceManagerError):
            ladder.level("ultra")

    def test_rejects_non_decreasing_scales(self):
        a, _ = paper_two_apps()
        with pytest.raises(ResourceManagerError):
            QualityLadder(
                a,
                levels=(
                    QualityLevel("high", 0.5),
                    QualityLevel("low", 0.9),
                ),
            )


class TestBasicLifecycle:
    def test_start_stop_adjust(self):
        suite = tiny_suite(3)
        specs = gallery_from_graphs(list(suite.graphs), slack=5.0)
        manager = ResourceManager(specs, mapping=suite.mapping)

        record = manager.handle_event(
            ScenarioEvent(0.0, EventKind.START, "A")
        )
        assert record.outcome == "admitted"
        assert manager.residents == (("A", "high"),)
        assert record.predicted_periods["A"] > 0

        record = manager.handle_event(
            ScenarioEvent(1.0, EventKind.ADJUST, "A", quality="low")
        )
        assert record.outcome == "admitted"
        assert manager.quality_of("A") == "low"

        record = manager.handle_event(
            ScenarioEvent(2.0, EventKind.STOP, "A")
        )
        assert record.outcome == "stopped"
        assert manager.residents == ()

    def test_duplicate_start_and_foreign_stop_are_ignored(self):
        suite = tiny_suite(2)
        specs = gallery_from_graphs(list(suite.graphs), slack=5.0)
        manager = ResourceManager(specs, mapping=suite.mapping)
        manager.handle_event(ScenarioEvent(0.0, EventKind.START, "A"))
        again = manager.handle_event(
            ScenarioEvent(1.0, EventKind.START, "A")
        )
        assert again.outcome == "ignored"
        foreign = manager.handle_event(
            ScenarioEvent(2.0, EventKind.STOP, "B")
        )
        assert foreign.outcome == "ignored"

    def test_unknown_application_raises(self):
        suite = tiny_suite(2)
        specs = gallery_from_graphs(list(suite.graphs), slack=5.0)
        manager = ResourceManager(specs, mapping=suite.mapping)
        with pytest.raises(ResourceManagerError):
            manager.handle_event(
                ScenarioEvent(0.0, EventKind.START, "Z")
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ResourceManagerError):
            make_qos_policy("appease")


class TestEvictionPolicy:
    def build(self, priorities, slack=1.02):
        suite = tiny_suite(3)
        specs = gallery_from_graphs(
            list(suite.graphs), slack=slack, priorities=priorities
        )
        return (
            ResourceManager(
                specs, mapping=suite.mapping, policy="evict"
            ),
            specs,
        )

    def test_low_priority_resident_is_evicted(self):
        # Requirements so tight that two residents never coexist.
        manager, _ = self.build({"A": 1, "B": 2, "C": 3})
        assert (
            manager.handle_event(
                ScenarioEvent(0.0, EventKind.START, "A")
            ).outcome
            == "admitted"
        )
        record = manager.handle_event(
            ScenarioEvent(1.0, EventKind.START, "B")
        )
        assert record.outcome == "admitted"
        assert record.evicted == ("A",)
        assert manager.residents == (("B", "high"),)

    def test_higher_priority_resident_survives(self):
        manager, _ = self.build({"A": 9, "B": 2, "C": 3})
        manager.handle_event(ScenarioEvent(0.0, EventKind.START, "A"))
        record = manager.handle_event(
            ScenarioEvent(1.0, EventKind.START, "B")
        )
        assert record.outcome == "rejected"
        assert record.evicted == ()
        assert manager.residents == (("A", "high"),)


class TestDowngradePolicy:
    def specs_with_requirements(self, req_a, req_b, levels=TWO_LEVELS):
        a, b = paper_two_apps()
        return [
            AppSpec(QualityLadder(a, levels), required_period=req_a),
            AppSpec(QualityLadder(b, levels), required_period=req_b),
        ]

    def enumerate_feasible(self, manager, floor_assignment):
        """All level assignments at/below the floors that satisfy
        every requirement — the reference the policy must match."""
        import itertools

        apps = list(floor_assignment)
        ladders = {app: manager.spec_of(app).ladder for app in apps}
        options = [
            ladders[app].level_names[
                ladders[app].index_of(floor_assignment[app]):
            ]
            for app in apps
        ]
        feasible = []
        for combo in itertools.product(*options):
            assignment = dict(zip(apps, combo))
            if manager.assignment_is_feasible(assignment):
                feasible.append(assignment)
        return feasible

    def test_downgrade_admits_whenever_feasible(self):
        # Both at 'high' violate A's requirement (the paper's worked
        # example inflates both periods to ~359), but degraded
        # assignments exist.
        specs = self.specs_with_requirements(330.0, 1000.0)
        manager = ResourceManager(specs, policy="downgrade")
        manager.handle_event(ScenarioEvent(0.0, EventKind.START, "A"))

        feasible = self.enumerate_feasible(
            manager, {"A": "high", "B": "high"}
        )
        assert feasible, "test setup: some degraded assignment must fit"
        assert not manager.assignment_is_feasible(
            {"A": "high", "B": "high"}
        )

        record = manager.handle_event(
            ScenarioEvent(1.0, EventKind.START, "B")
        )
        assert record.outcome == "admitted"
        final = dict(manager.residents)
        assert final in feasible
        # Every constrained app stays within its requirement.
        periods = manager.controller.estimated_periods()
        for app in final:
            requirement = manager.spec_of(app).required_period
            assert periods[app] <= requirement * (1 + 1e-9)

    def test_rejects_when_no_assignment_is_feasible(self):
        # Single-level ladders: nothing to degrade, nothing fits.
        one_level = (QualityLevel("high", 1.0),)
        specs = self.specs_with_requirements(
            301.0, 301.0, levels=one_level
        )
        manager = ResourceManager(specs, policy="downgrade")
        manager.handle_event(ScenarioEvent(0.0, EventKind.START, "A"))
        assert not self.enumerate_feasible(
            manager, {"A": "high", "B": "high"}
        )
        record = manager.handle_event(
            ScenarioEvent(1.0, EventKind.START, "B")
        )
        assert record.outcome == "rejected"
        assert manager.residents == (("A", "high"),)

    def test_greedy_matches_exhaustive_on_chain_case(self):
        specs = self.specs_with_requirements(330.0, 1000.0)
        for policy in ("downgrade", "downgrade-greedy"):
            manager = ResourceManager(specs, policy=policy)
            manager.handle_event(
                ScenarioEvent(0.0, EventKind.START, "A")
            )
            record = manager.handle_event(
                ScenarioEvent(1.0, EventKind.START, "B")
            )
            assert record.outcome == "admitted", policy


@pytest.fixture(scope="module")
def replayed_10k():
    """The acceptance scenario: 10k events through a 4-app gallery."""
    suite = tiny_suite(4)
    specs = gallery_from_graphs(list(suite.graphs), slack=1.3)
    generator = WorkloadGenerator(
        [spec.name for spec in specs],
        quality_levels={
            spec.name: spec.ladder.level_names for spec in specs
        },
        config=WorkloadConfig(
            mean_interarrival=40.0, mean_holding=300.0
        ),
    )
    trace = generator.generate(seed=20_070_611, events=10_000)
    manager = ResourceManager(
        specs, mapping=suite.mapping, policy="reject"
    )
    log = manager.replay(trace)
    return suite, specs, trace, manager, log


class TestTenThousandEventParity:
    def test_replay_covers_the_whole_trace(self, replayed_10k):
        _, _, trace, _, log = replayed_10k
        assert len(log) == len(trace) == 10_000
        counts = log.counts_by_outcome()
        assert counts["admitted"] > 1000
        assert counts["rejected"] > 100
        assert counts["stopped"] > 500

    def test_every_decision_matches_cold_reestimate(self, replayed_10k):
        suite, specs, trace, manager, log = replayed_10k
        by_name = {spec.name: spec for spec in specs}
        checked = 0
        for record in log.records:
            if record.outcome not in ("admitted", "rejected"):
                continue
            graphs = {
                app: by_name[app].ladder.graph_at(quality)
                for app, quality in record.residents
            }
            if record.outcome == "rejected":
                event = record.event
                quality = (
                    event.quality
                    if event.quality is not None
                    else by_name[event.application].ladder.best
                )
                graphs[event.application] = by_name[
                    event.application
                ].ladder.graph_at(quality)
            # Cold path: fresh profiles, fresh composition, stateless
            # period analysis — no engines, no warm starts.
            cold = estimate_resident_periods(
                suite.mapping, graphs, engines=None
            )
            assert set(cold) == set(record.predicted_periods)
            for app, period in cold.items():
                recorded = record.predicted_periods[app]
                assert recorded == pytest.approx(period, rel=1e-9), (
                    record.index,
                    app,
                )
            checked += 1
        assert checked > 2000

    def test_rejections_were_justified(self, replayed_10k):
        *_, log = replayed_10k
        for record in log.records:
            if record.outcome != "rejected":
                continue
            assert any(
                record.predicted_periods[app]
                > requirement * (1 - 1e-9)
                for app, requirement in record.required_periods.items()
            )

    def test_admitted_states_meet_requirements(self, replayed_10k):
        *_, log = replayed_10k
        for record in log.records:
            if record.outcome != "admitted":
                continue
            for app, requirement in record.required_periods.items():
                assert (
                    record.predicted_periods[app]
                    <= requirement * (1 + 1e-9)
                )

    def test_log_round_trips_through_json(self, replayed_10k):
        *_, log = replayed_10k
        clone = log_from_json(log_to_json(log))
        assert len(clone) == len(log)
        assert clone.records[0] == log.records[0]
        assert clone.records[-1] == log.records[-1]
        assert clone.counts_by_outcome() == log.counts_by_outcome()
        assert log_to_json(clone) == log_to_json(log)


class TestSimulationValidation:
    def test_predictions_track_discrete_event_simulation(self):
        suite = paper_benchmark_suite(application_count=3)
        specs = gallery_from_graphs(list(suite.graphs), slack=2.0)
        generator = WorkloadGenerator(
            [spec.name for spec in specs],
            config=WorkloadConfig(mean_interarrival=60.0),
        )
        trace = generator.generate(seed=5, events=150)
        manager = ResourceManager(specs, mapping=suite.mapping)
        log = manager.replay(trace)
        points = validate_log(
            specs, suite.mapping, log, max_points=2,
            target_iterations=40,
        )
        assert points, "replay must produce multi-resident snapshots"
        for point in points:
            for app, ratio in point.ratios.items():
                # Figure-5 regime: the probabilistic estimate stays
                # within a small factor of the simulated mean.
                assert 0.5 < ratio < 2.0, (point.record_index, app)


class TestRuntimeLogStatistics:
    def test_counts_and_ratio(self):
        suite = tiny_suite(2)
        specs = gallery_from_graphs(list(suite.graphs), slack=5.0)
        manager = ResourceManager(specs, mapping=suite.mapping)
        trace = Trace(
            events=(
                ScenarioEvent(0.0, EventKind.START, "A"),
                ScenarioEvent(1.0, EventKind.START, "B"),
                ScenarioEvent(2.0, EventKind.STOP, "A"),
                ScenarioEvent(3.0, EventKind.STOP, "Q" * 0 + "B"),
            )
        )
        log = manager.replay(trace)
        assert log.admission_ratio == 1.0
        assert log.request_count == 2
        assert log.counts_by_outcome()["stopped"] == 2
        assert log.elapsed_seconds > 0
        assert log.decisions_per_second > 0
        assert set(log.mean_utilization()) == set(
            suite.platform.processor_names
        )

    def test_bad_outcome_rejected(self):
        with pytest.raises(ResourceManagerError):
            DecisionRecord(
                index=0,
                event=ScenarioEvent(0.0, EventKind.START, "A"),
                outcome="vanished",
                quality=None,
                reason="",
                predicted_periods={},
                required_periods={},
                residents=(),
            )
