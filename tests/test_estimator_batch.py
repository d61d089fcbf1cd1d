"""The columnar result batch of the batched ``estimate_many``.

A batch of at least ``BATCH_MIN_ROWS`` use-cases returns a read-only
sequence over the batch's period and wait matrices whose first read
builds every result.  These tests pin that it behaves as the list of its
rows wherever a caller can tell (indexing, slices, iteration, ``==``,
pickle and copy), that every row equals the scalar loop's answer for
every registered waiting model, and that a batch nobody reads keeps
almost nothing alive.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle

import pytest

from repro.backend import numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import all_use_cases

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

#: One spec per registered waiting model.
MODELS = (
    "exact",
    "second_order",
    "fourth_order",
    "order:3",
    "composability",
    "composability_incremental",
    "worst_case",
    "tdma",
    "priority_preemptive",
    "weighted_round_robin:A=2,C=3",
)


def _fields(result) -> tuple:
    """Everything of a result but its (timing) ``analysis_seconds``."""
    return (
        result.use_case,
        result.model_name,
        result.periods,
        list(result.periods),
        result.isolation_periods,
        list(result.isolation_periods),
        dict(result.waiting_times),
        list(result.waiting_times),
        dict(result.response_times),
        result.iterations_used,
    )


@pytest.fixture(scope="module")
def suite():
    return paper_benchmark_suite(seed=7, application_count=5)


@pytest.fixture(scope="module")
def estimator(suite):
    return ProbabilisticEstimator(list(suite.graphs), mapping=suite.mapping)


@pytest.fixture(scope="module")
def use_cases(suite):
    return all_use_cases(suite.application_names)


class TestBatchContract:
    def test_is_a_lazy_sequence(self, estimator, use_cases):
        batch = estimator.estimate_many(use_cases)
        assert not isinstance(batch, list)
        assert len(batch) == len(use_cases) == 31
        assert bool(batch)

    def test_indexing_keeps_the_rows(self, estimator, use_cases):
        batch = estimator.estimate_many(use_cases)
        row = batch[5]
        assert row is batch[5]
        assert row.use_case == use_cases[5]
        assert batch[-1] is batch[len(batch) - 1]
        assert batch[-len(batch)] is batch[0]
        assert batch[-1].use_case == use_cases[-1]

    @pytest.mark.parametrize("index", (31, -32, 10**9))
    def test_index_out_of_range(self, estimator, use_cases, index):
        batch = estimator.estimate_many(use_cases)
        with pytest.raises(IndexError):
            batch[index]

    def test_slices_are_lists_of_the_rows(self, estimator, use_cases):
        batch = estimator.estimate_many(use_cases)
        rows = list(batch)
        for piece in (
            slice(None),
            slice(3, 9),
            slice(-4, None),
            slice(None, None, -3),
            slice(40, 50),
        ):
            sliced = batch[piece]
            assert isinstance(sliced, list)
            assert sliced == rows[piece]
            assert all(a is b for a, b in zip(sliced, rows[piece]))

    def test_iteration_keeps_order_and_rows_read_before(
        self, estimator, use_cases
    ):
        batch = estimator.estimate_many(use_cases)
        early = (batch[7], batch[-2])
        rows = list(batch)
        assert [row.use_case for row in rows] == list(use_cases)
        assert rows[7] is early[0] and rows[-2] is early[1]
        assert list(batch) == rows
        assert all(a is b for a, b in zip(batch, rows))
        assert list(reversed(batch)) == rows[::-1]
        assert batch.index(rows[4]) == 4 and rows[4] in batch

    @pytest.mark.parametrize(
        "first_read",
        (
            lambda batch: batch[-1],
            lambda batch: batch[2:4],
            lambda batch: len(list(batch)),
            repr,
        ),
    )
    def test_any_first_read_gives_the_same_rows(
        self, estimator, use_cases, first_read
    ):
        batch = estimator.estimate_many(use_cases)
        first_read(batch)
        reference = list(estimator.estimate_many(use_cases))
        assert [_fields(row) for row in batch] == [
            _fields(row) for row in reference
        ]

    def test_equals_the_list_of_its_rows(self, estimator, use_cases):
        batch = estimator.estimate_many(use_cases)
        rows = list(batch)
        assert batch == rows and rows == batch
        assert not batch != rows
        assert batch != rows[:-1]
        assert batch != tuple(rows)
        assert batch != "rows"
        # Another batch of the same use-cases has the same answers but
        # times itself: equal once its timing is the first batch's.
        other = estimator.estimate_many(use_cases)
        seconds = rows[0].analysis_seconds
        assert batch == [
            dataclasses.replace(row, analysis_seconds=seconds) for row in other
        ]
        with pytest.raises(TypeError):
            hash(batch)

    def test_pickle_and_copy_behave_as_the_list(self, estimator, use_cases):
        batch = estimator.estimate_many(use_cases)
        rows = list(batch)
        for clone in (
            pickle.loads(pickle.dumps(batch)),
            copy.deepcopy(batch),
            copy.copy(batch),
        ):
            assert type(clone) is list
            assert clone == rows == batch
            assert [_fields(row) for row in clone] == [
                _fields(row) for row in rows
            ]
        assert all(a is b for a, b in zip(copy.copy(batch), rows))

    def test_unread_batch_pickles_every_row(self, estimator, use_cases):
        clone = pickle.loads(
            pickle.dumps(estimator.estimate_many(use_cases))
        )
        reference = estimator.estimate_many(use_cases)
        assert [_fields(row) for row in clone] == [
            _fields(row) for row in reference
        ]

    def test_small_batches_stay_lists(self, estimator, use_cases):
        assert type(estimator.estimate_many(use_cases[:3])) is list
        assert type(estimator.estimate_many([])) is list


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("iterations", (1, 3))
def test_every_row_equals_the_scalar_loop(model, iterations):
    suite = paper_benchmark_suite(seed=7, application_count=7)
    use_cases = all_use_cases(suite.application_names)

    def estimator(backend):
        return ProbabilisticEstimator(
            list(suite.graphs),
            mapping=suite.mapping,
            waiting_model=model,
            backend=backend,
        )

    scalar = estimator("python").estimate_many(
        use_cases, iterations=iterations
    )
    batched = estimator(None).estimate_many(use_cases, iterations=iterations)
    assert len(batched) == len(scalar)
    for got, want in zip(batched, scalar):
        assert got.use_case == want.use_case
        assert got.model_name == want.model_name
        assert got.iterations_used == want.iterations_used
        assert got.periods == want.periods, want.use_case
        assert list(got.periods) == list(want.periods)
        assert got.isolation_periods == want.isolation_periods
        assert got.waiting_times == want.waiting_times
        assert got.response_times == want.response_times


def test_unread_batch_keeps_few_gc_tracked_objects():
    """NEW BOUND: a 1023-row batch nobody reads keeps at most 64
    GC-tracked objects (rows built eagerly kept about 6,150)."""
    suite = paper_benchmark_suite(seed=2007, application_count=10)
    estimator = ProbabilisticEstimator(
        list(suite.graphs), mapping=suite.mapping
    )
    use_cases = all_use_cases(suite.application_names)
    estimator.estimate_many(use_cases)  # warm engines, memos and layout
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        batch = estimator.estimate_many(use_cases)
        kept = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(batch) == 1023
    assert kept <= 64, f"{kept} GC-tracked objects kept by an unread batch"
