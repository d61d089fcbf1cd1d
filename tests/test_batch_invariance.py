"""Batch invariance: an estimate is a pure function of its query.

On the vectorized backend a use-case's answer must carry the same bits
whether it is estimated alone or inside any batch, in any position,
after any history of earlier batches on the same estimator — the
property ``repro sweep --jobs N`` relies on when it splits one sweep
into per-worker chunks and stores the bytes.  The solver-level twin in
``tests/test_sdf_mcm.py`` pins the same for
:meth:`~repro.sdf.mcm.IncrementalMCRSolver.solve_many`.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.core.registry import WAITING_MODELS
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import all_use_cases

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


def _estimator(model: str) -> ProbabilisticEstimator:
    suite = _suite()
    return ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model=model,
        backend="numpy",
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
    """The use-case estimated alone, on a fresh estimator."""
    (result,) = _estimator(model).estimate_many(
        [_use_cases()[index]], iterations=iterations
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
