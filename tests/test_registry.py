"""The arbitration-model registry: metadata, dispatch, extensibility."""

from __future__ import annotations

import pytest

from repro.core.registry import (
    ARBITERS,
    WAITING_MODELS,
    ArbiterInfo,
    WaitingModelInfo,
    create_waiting_model,
    parse_model_spec,
    render_model_table,
)
from repro.core.waiting import make_waiting_model, supports_batch
from repro.exceptions import AnalysisError, MappingError
from repro.simulation.arbiter import Arbiter, make_arbiter


class EchoModel:
    """Scalar-only stand-in third-party model."""

    name = "echo"
    complexity = "O(1)"

    def waiting_time(self, own, others):
        return float(len(others))


def echo_info(name="echo_model", **overrides):
    fields = dict(
        name=name,
        factory=EchoModel,
        summary="test model",
        semantics="mean",
        tolerance=0.5,
        supports_batch=False,
        arbiter="fcfs",
    )
    fields.update(overrides)
    return WaitingModelInfo(**fields)


class TestCatalogue:
    def test_builtin_models_are_registered(self):
        names = WAITING_MODELS.names()
        for expected in (
            "exact",
            "second_order",
            "fourth_order",
            "order",
            "composability",
            "composability_incremental",
            "priority_preemptive",
            "worst_case",
            "weighted_round_robin",
            "tdma",
        ):
            assert expected in names

    def test_builtin_arbiters_are_registered(self):
        names = ARBITERS.names()
        for expected in (
            "fcfs",
            "round_robin",
            "weighted_round_robin",
            "priority",
            "priority_preemptive",
        ):
            assert expected in names

    def test_every_declared_arbiter_exists(self):
        """Model metadata never points at an unregistered policy."""
        for info in WAITING_MODELS.infos():
            if info.arbiter is not None:
                assert info.arbiter in ARBITERS, info.name

    def test_declared_batch_support_matches_reality(self):
        for info in WAITING_MODELS.infos():
            if info.requires_argument:
                continue
            model = create_waiting_model(info.name)
            assert supports_batch(model) == info.supports_batch, (
                info.name
            )

    def test_alias_resolves(self):
        assert WAITING_MODELS.get("wrr").name == "weighted_round_robin"
        model = make_waiting_model("wrr")
        assert model.name == "weighted-rr"

    def test_render_model_table_lists_everything(self):
        table = render_model_table()
        for info in WAITING_MODELS.infos():
            assert info.name in table
        assert "conservative" in table and "mean" in table


class TestUnknownNames:
    def test_unknown_waiting_model_lists_registered_names(self):
        with pytest.raises(AnalysisError) as excinfo:
            make_waiting_model("oracle")
        message = str(excinfo.value)
        assert "unknown waiting model 'oracle'" in message
        for name in WAITING_MODELS.names():
            assert name in message

    def test_unknown_arbiter_lists_registered_names(self):
        with pytest.raises(MappingError) as excinfo:
            make_arbiter("random", [1])
        message = str(excinfo.value)
        assert "unknown arbitration policy 'random'" in message
        for name in ARBITERS.names():
            assert name in message


class TestSpecParsing:
    def test_name_is_case_normalized_argument_is_not(self):
        assert parse_model_spec(" EXACT ") == ("exact", None)
        assert parse_model_spec("WRR:A=2") == ("wrr", "A=2")

    def test_argument_rejected_for_plain_models(self):
        with pytest.raises(AnalysisError):
            make_waiting_model("exact:3")

    def test_required_argument_enforced(self):
        with pytest.raises(AnalysisError) as excinfo:
            make_waiting_model("order")
        assert "requires an argument" in str(excinfo.value)

    def test_weights_argument_preserves_case(self):
        model = make_waiting_model("weighted_round_robin:A=2,b=3")
        assert model.weights == {"A": 2, "b": 3}


class TestMetadataValidation:
    def test_mean_without_tolerance_rejected(self):
        with pytest.raises(AnalysisError):
            echo_info(tolerance=None)

    def test_conservative_with_tolerance_rejected(self):
        with pytest.raises(AnalysisError):
            echo_info(semantics="conservative", tolerance=0.5)

    def test_bad_semantics_rejected(self):
        with pytest.raises(AnalysisError):
            echo_info(semantics="hopeful")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError):
            WAITING_MODELS.register(echo_info(name="exact"))


class TestThirdPartyRegistration:
    def test_temporary_registration_end_to_end(self, small_suite):
        """A registered model reaches the estimator, the sweep
        service's validation, the service protocol and the CLI table
        with zero core changes — and vanishes afterwards."""
        from repro.core.estimator import ProbabilisticEstimator
        from repro.runtime.service import GallerySpec, SweepService
        from repro.service.protocol import parse_estimate

        info = echo_info()
        with WAITING_MODELS.temporary(info):
            assert "echo_model" in WAITING_MODELS.names()
            model = make_waiting_model("echo_model")
            assert isinstance(model, EchoModel)

            estimator = ProbabilisticEstimator(
                list(small_suite.graphs),
                mapping=small_suite.mapping,
                waiting_model="echo_model",
            )
            result = estimator.estimate()
            assert result.model_name == "echo"

            outcome = SweepService().sweep(
                GallerySpec(application_count=3),
                model="echo_model",
                samples_per_size=1,
            )
            assert outcome.use_case_count > 0

            query = parse_estimate(
                {
                    "gallery": {"kind": "paper", "applications": 3},
                    "use_case": ["A", "B"],
                    "model": "echo_model",
                }
            )
            assert query.model == "echo_model"
            assert "echo_model" in render_model_table()
        assert "echo_model" not in WAITING_MODELS.names()

    def test_sweep_service_rejects_unknown_model_before_workers(self):
        from repro.runtime.service import GallerySpec, SweepService

        with pytest.raises(AnalysisError) as excinfo:
            SweepService().sweep(
                GallerySpec(application_count=3), model="oracle"
            )
        assert "registered waiting models" in str(excinfo.value)

    def test_protocol_rejects_unknown_model(self):
        from repro.exceptions import ServiceError
        from repro.service.protocol import parse_estimate

        with pytest.raises(ServiceError) as excinfo:
            parse_estimate(
                {
                    "gallery": {"kind": "paper", "applications": 3},
                    "use_case": ["A"],
                    "model": "oracle",
                }
            )
        message = str(excinfo.value)
        assert "bad waiting model" in message
        assert "registered waiting models" in message

    def test_temporary_arbiter_registration(self):
        class NullArbiter(Arbiter):
            def __init__(self, members, context=None):
                super().__init__(members)
                self._queue = list()

            def enqueue(self, actor_id, time):
                self._queue.append(actor_id)

            def pick(self):
                return self._queue.pop(0) if self._queue else None

            def pending(self):
                return len(self._queue)

        info = ArbiterInfo(
            name="null_policy",
            factory=NullArbiter,
            summary="test arbiter",
        )
        with ARBITERS.temporary(info):
            arbiter = make_arbiter("null_policy", [1, 2])
            arbiter.enqueue(2, 0.0)
            assert arbiter.pick() == 2
        with pytest.raises(MappingError):
            make_arbiter("null_policy", [1])


class TestCaseInsensitivity:
    def test_mixed_case_registration_is_reachable_from_specs(self):
        """The README's 'writing your own model' flow must work even
        with a mixed-case registry name (spec parsing case-folds)."""
        info = echo_info(name="MyModel")
        with WAITING_MODELS.temporary(info):
            assert "MyModel" in WAITING_MODELS.names()
            assert isinstance(make_waiting_model("MyModel"), EchoModel)
            assert isinstance(make_waiting_model("mymodel"), EchoModel)
            assert "mymodel" in WAITING_MODELS
        assert "MyModel" not in WAITING_MODELS

    def test_case_colliding_duplicate_rejected(self):
        with pytest.raises(AnalysisError):
            WAITING_MODELS.register(echo_info(name="EXACT"))


class TestDeepSpecValidation:
    def test_sweep_service_rejects_bad_argument_eagerly(self):
        from repro.runtime.service import GallerySpec, SweepService

        for spec in ("exact:5", "order", "order:x", "wrr:A=0"):
            with pytest.raises(AnalysisError):
                SweepService().sweep(
                    GallerySpec(application_count=3), model=spec
                )

    def test_protocol_rejects_bad_argument(self):
        from repro.exceptions import ServiceError
        from repro.service.protocol import parse_estimate

        for spec in ("exact:5", "order:x", "wrr:A=0"):
            with pytest.raises(ServiceError) as excinfo:
                parse_estimate(
                    {
                        "gallery": {
                            "kind": "paper",
                            "applications": 3,
                        },
                        "use_case": ["A"],
                        "model": spec,
                    }
                )
            assert "bad waiting model" in str(excinfo.value), spec


class TestWeightApplicationCheck:
    def test_estimator_rejects_weights_for_unknown_applications(
        self, small_suite
    ):
        """wrr:a=2 on an A/B/C/D gallery must fail loudly, not fall
        back to the unweighted bound (the argument is case-sensitive
        while the model name is not)."""
        from repro.core.estimator import ProbabilisticEstimator

        for spec in ("wrr:a=2", "wrr:Zed=5"):
            with pytest.raises(AnalysisError) as excinfo:
                ProbabilisticEstimator(
                    list(small_suite.graphs),
                    mapping=small_suite.mapping,
                    waiting_model=spec,
                )
            assert "unknown applications" in str(excinfo.value), spec

    def test_known_application_weights_accepted(self, small_suite):
        from repro.core.estimator import ProbabilisticEstimator

        estimator = ProbabilisticEstimator(
            list(small_suite.graphs),
            mapping=small_suite.mapping,
            waiting_model="wrr:A=2",
        )
        assert estimator.estimate().model_name == "weighted-rr"


class TestReplaceOverAlias:
    def test_replacing_an_alias_name_makes_it_reachable(self):
        """register(replace=True) under a name that was another
        entry's alias must win lookups, and restore cleanly."""
        builtin_wrr = WAITING_MODELS.get("weighted_round_robin")
        info = echo_info(name="wrr")
        with WAITING_MODELS.temporary(info, replace=True):
            assert WAITING_MODELS.get("wrr").name == "wrr"
            assert isinstance(make_waiting_model("wrr"), EchoModel)
            # The canonical spelling still reaches the builtin.
            assert (
                WAITING_MODELS.get("weighted_round_robin").name
                == "weighted_round_robin"
            )
        # Alias restored to the builtin afterwards.
        assert WAITING_MODELS.get("wrr") is builtin_wrr
