"""Worst-case baseline tests (references [6] and [3])."""

from __future__ import annotations

import pytest

from repro.core.blocking import build_profiles
from repro.exceptions import AnalysisError
from repro.wcrt.round_robin import (
    WorstCaseRRWaitingModel,
    worst_case_response_time,
)
from repro.wcrt.tdma import TDMAWaitingModel, tdma_response_time
from tests.test_core_exact import profile


class TestRoundRobinWCRT:
    def test_response_time_formula(self):
        assert worst_case_response_time(100, [50, 30]) == 180

    def test_no_contention(self):
        assert worst_case_response_time(100, []) == 100

    def test_model_ignores_probabilities(self):
        model = WorstCaseRRWaitingModel()
        own = profile(100, 0.3, "own")
        rarely = [profile(50, 0.001, "rare")]
        often = [profile(50, 0.999, "busy")]
        # Worst case does not care how often the other actor runs.
        assert model.waiting_time(own, rarely) == model.waiting_time(
            own, often
        )

    def test_grows_linearly_with_residents(self):
        model = WorstCaseRRWaitingModel()
        own = profile(10, 0.1, "own")
        others = [profile(20, 0.1, f"o{i}") for i in range(8)]
        waits = [
            model.waiting_time(own, others[:k]) for k in range(1, 9)
        ]
        diffs = [b - a for a, b in zip(waits, waits[1:])]
        assert all(d == pytest.approx(20.0) for d in diffs)

    def test_wait_is_a_left_fold(self):
        """The wait adds the contenders' taus one by one from 0.0.

        Builtin ``sum()`` compensates from Python 3.12 on: for ten 0.1s
        it gives 1.0 there, the left fold 0.9999999999999999 on every
        version, and the batched kernel folds left too.
        """
        own = profile(10, 0.1, "own")
        others = [profile(0.1, 0.1, f"o{i}") for i in range(10)]
        expected = 0.0
        for other in others:
            expected = expected + other.tau
        assert expected == 0.9999999999999999
        assert WorstCaseRRWaitingModel().waiting_time(own, others) == expected

    def test_dominates_exact_estimate(self, two_apps):
        from repro.core.exact import ExactWaitingModel

        profiles = build_profiles(list(two_apps))
        own = profiles[("B", "b0")]
        others = [profiles[("A", "a0")]]
        wc = WorstCaseRRWaitingModel().waiting_time(own, others)
        exact = ExactWaitingModel().waiting_time(own, others)
        assert wc > exact
        # b0 waits at most the whole of a0: tau(a0) = 100.
        assert wc == pytest.approx(100.0)


class TestTDMA:
    def test_single_resident_is_execution_time(self):
        assert tdma_response_time(100, 1, 10) == 100

    def test_two_residents_equal_slices(self):
        # tau=100, slice=100, wheel=200: one foreign slice of 100.
        assert tdma_response_time(100, 2, 100) == 200

    def test_small_slices_hurt(self):
        # tau=100 in slices of 10 with 3 residents: 10 rotations, each
        # paying 20 foreign time units.
        assert tdma_response_time(100, 3, 10) == 100 + 10 * 20

    def test_validation(self):
        with pytest.raises(AnalysisError):
            tdma_response_time(10, 0, 5)
        with pytest.raises(AnalysisError):
            tdma_response_time(10, 2, 0)

    def test_model_waiting(self):
        model = TDMAWaitingModel()
        own = profile(100, 0.3, "own")
        others = [profile(50, 0.2, "o1"), profile(60, 0.1, "o2")]
        # Default slice = own tau -> one full rotation of 2 foreign
        # slices of 100 each.
        assert model.waiting_time(own, others) == pytest.approx(200.0)

    def test_model_no_contention(self):
        model = TDMAWaitingModel()
        assert model.waiting_time(profile(100, 0.3, "own"), []) == 0.0

    def test_tdma_more_pessimistic_than_round_robin_for_small_slices(self):
        own = profile(100, 0.3, "own")
        others = [profile(50, 0.2, "o1")]
        tdma = TDMAWaitingModel(slice_length=10).waiting_time(own, others)
        rr = WorstCaseRRWaitingModel().waiting_time(own, others)
        assert tdma > rr


class TestFactoryIntegration:
    def test_waiting_model_factory(self):
        from repro.core.waiting import make_waiting_model

        assert isinstance(
            make_waiting_model("worst_case"), WorstCaseRRWaitingModel
        )
        assert isinstance(make_waiting_model("tdma"), TDMAWaitingModel)

    def test_factory_rejects_unknown(self):
        from repro.core.waiting import make_waiting_model

        with pytest.raises(AnalysisError):
            make_waiting_model("oracle")
        with pytest.raises(AnalysisError):
            make_waiting_model("order:x")

    def test_factory_order_spec(self):
        from repro.core.waiting import make_waiting_model

        model = make_waiting_model("order:5")
        assert model.order == 5
