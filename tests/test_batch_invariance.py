"""Batch invariance: an estimate is a pure function of its query.

A use-case's answer must carry the same bits as the forced scalar
reference loop (``backend="python"``) whether it is estimated inside a
batch of any size — small batches run the scalar loop, batches of at
least ``BATCH_MIN_ROWS`` rows the NumPy kernels — in any position,
after any history of earlier batches on the same estimator.  ``repro
sweep --jobs N`` relies on it when it splits one sweep into per-worker
chunks and stores the bytes.  The solver-level twin in
``tests/test_sdf_mcm.py`` pins the same for
:meth:`~repro.sdf.mcm.IncrementalMCRSolver.solve_many`.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import BATCH_MIN_ROWS, numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.core.registry import WAITING_MODELS
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import all_use_cases
from repro.telemetry import Tracer

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

#: Arguments for the registered models that cannot be built without one.
ARGUMENTS = {"order": "3"}

MODELS = tuple(
    f"{info.name}:{ARGUMENTS[info.name]}"
    if info.requires_argument
    else info.name
    for info in WAITING_MODELS.infos()
)


@functools.lru_cache(maxsize=None)
def _suite():
    return paper_benchmark_suite(seed=7, application_count=5)


@functools.lru_cache(maxsize=None)
def _use_cases():
    return tuple(all_use_cases(_suite().application_names))


def _estimator(model: str, backend: str = "numpy") -> ProbabilisticEstimator:
    suite = _suite()
    return ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model=model,
        backend=backend,
    )


def _answer(result) -> tuple:
    return (
        result.use_case,
        result.periods,
        dict(result.waiting_times),
        dict(result.response_times),
        result.iterations_used,
    )


@functools.lru_cache(maxsize=None)
def _alone(model: str, iterations: int, index: int) -> tuple:
    """The use-case alone on a fresh forced scalar reference loop."""
    result = _estimator(model, "python").estimate(
        _use_cases()[index], iterations=iterations
    )
    return _answer(result)


@st.composite
def _batches(draw):
    count = len(_use_cases())
    indices = st.integers(0, count - 1)
    history = draw(st.lists(indices, max_size=count))
    batch = draw(st.lists(indices, min_size=1, max_size=count))
    return history, draw(st.permutations(batch))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    model=st.sampled_from(MODELS),
    iterations=st.sampled_from((1, 3)),
    batches=_batches(),
)
def test_estimate_alone_equals_estimate_inside_any_batch(
    model, iterations, batches
):
    history, batch = batches
    estimator = _estimator(model)
    use_cases = _use_cases()
    if history:
        estimator.estimate_many(
            [use_cases[i] for i in history], iterations=iterations
        )
    results = estimator.estimate_many(
        [use_cases[i] for i in batch], iterations=iterations
    )
    for index, result in zip(batch, results):
        assert _answer(result) == _alone(model, iterations, index)


@pytest.mark.parametrize("iterations", (1, 3))
@pytest.mark.parametrize("model", MODELS)
def test_whole_gallery_forwards_and_reversed(model, iterations):
    """Every use-case of the gallery, in both orders, as the alone run."""
    use_cases = list(_use_cases())
    forwards = _estimator(model).estimate_many(
        use_cases, iterations=iterations
    )
    backwards = _estimator(model).estimate_many(
        use_cases[::-1], iterations=iterations
    )[::-1]
    for index, (one, two) in enumerate(zip(forwards, backwards)):
        alone = _alone(model, iterations, index)
        assert _answer(one) == alone
        assert _answer(two) == alone


@pytest.mark.parametrize("iterations", (1, 3))
@pytest.mark.parametrize("model", MODELS)
def test_every_batch_size_equals_the_scalar_reference(model, iterations):
    """Batches of 1 to BATCH_MIN_ROWS + 1 rows, either side of the
    dispatch threshold, each on a fresh estimator."""
    use_cases = _use_cases()
    start = 0
    for rows in range(1, BATCH_MIN_ROWS + 2):
        indices = [(start + i) % len(use_cases) for i in range(rows)]
        start += rows
        results = _estimator(model).estimate_many(
            [use_cases[i] for i in indices], iterations=iterations
        )
        for index, result in zip(indices, results):
            assert _answer(result) == _alone(model, iterations, index)


def test_row_count_picks_the_path():
    """Fewer than BATCH_MIN_ROWS rows run the scalar loop, enough rows
    the kernels; the ``estimator.estimate_many`` span says which."""
    estimator = _estimator("second_order")
    estimator._tracer = tracer = Tracer(enabled=True)
    use_cases = _use_cases()
    estimator.estimate_many(use_cases[: BATCH_MIN_ROWS - 1])
    estimator.estimate_many(use_cases[:BATCH_MIN_ROWS])
    batched = [
        span.attributes["batched"]
        for span in tracer.spans()
        if span.name == "estimator.estimate_many"
    ]
    assert batched == [False, True]
