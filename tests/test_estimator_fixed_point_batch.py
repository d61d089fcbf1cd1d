"""Batched fixed-point refinement vs. the scalar reference loop.

``estimate_many(..., iterations > 1)`` on the batched kernels iterates
the *whole* use-case batch with a per-row convergence mask: converged
rows freeze (keeping their final pass's waiting/response values),
active rows keep refining.  The contract is the library-wide one (like
``tests/test_backend_parity.py``): the same bits as the scalar
reference loop, the same per-row iteration counts — the mask must
freeze precisely the rows the scalar loop's early break would stop —
and the same errors on the same inputs.  Third-party batch kernels
that cannot consume per-row probabilities (no ``batch_rowwise`` flag)
must fall back to the scalar loop instead of getting wrong shapes.
"""

from __future__ import annotations

import itertools

import pytest

from repro.backend import BATCH_MIN_ROWS, numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.core.waiting import supports_batch, supports_rowwise_batch
from repro.exceptions import AnalysisError
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import UseCase

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

MODELS = (
    "exact",
    "second_order",
    "composability",
    "composability_incremental",
    "priority_preemptive",
    "worst_case",
    "wrr:A=2",
    "tdma",
)


@pytest.fixture(scope="module")
def suite():
    return paper_benchmark_suite(seed=11, application_count=4)


@pytest.fixture(scope="module")
def use_cases(suite):
    names = [g.name for g in suite.graphs]
    return [
        UseCase(combination)
        for size in range(1, len(names) + 1)
        for combination in itertools.combinations(names, size)
    ]


def _estimator(suite, model, backend):
    return ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model=model,
        backend=backend,
    )


def _assert_parity(scalar_results, batched_results):
    for scalar, batched in zip(scalar_results, batched_results):
        assert scalar.use_case == batched.use_case
        assert scalar.iterations_used == batched.iterations_used, (
            scalar.use_case
        )
        assert batched.periods == scalar.periods, scalar.use_case
        assert batched.waiting_times == scalar.waiting_times
        assert batched.response_times == scalar.response_times


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("iterations", (2, 5))
def test_batched_refinement_matches_scalar(
    suite, use_cases, model, iterations
):
    scalar = _estimator(suite, model, "python").estimate_many(
        use_cases, iterations=iterations
    )
    batched = _estimator(suite, model, "numpy").estimate_many(
        use_cases, iterations=iterations
    )
    _assert_parity(scalar, batched)


def test_iteration_capped_rows_report_the_cap(suite, use_cases):
    """``tolerance=0`` keeps contended rows active to the cap while
    contention-free rows still converge (their period is exactly the
    isolation period every pass) — the mask must split the batch the
    same way the scalar early break does."""
    iterations = 4
    scalar = _estimator(suite, "second_order", "python").estimate_many(
        use_cases, iterations=iterations, tolerance=0.0
    )
    batched = _estimator(suite, "second_order", "numpy").estimate_many(
        use_cases, iterations=iterations, tolerance=0.0
    )
    _assert_parity(scalar, batched)
    counts = [result.iterations_used for result in batched]
    singleton = [
        result.iterations_used
        for result in batched
        if len(list(result.use_case)) == 1
    ]
    # Isolated applications re-produce their isolation period exactly.
    assert singleton and all(count == 2 for count in singleton)
    # The gallery's contended rows keep moving at zero tolerance.
    assert max(counts) == iterations


def test_loose_tolerance_freezes_every_row(suite, use_cases):
    batched = _estimator(suite, "second_order", "numpy").estimate_many(
        use_cases, iterations=6, tolerance=0.5
    )
    assert all(result.iterations_used == 2 for result in batched)


def test_mixed_convergence_matches_scalar_per_row(suite, use_cases):
    """Default tolerance, enough passes that rows converge at
    different iterations — exact per-row agreement."""
    scalar = _estimator(suite, "exact", "python").estimate_many(
        use_cases, iterations=6
    )
    batched = _estimator(suite, "exact", "numpy").estimate_many(
        use_cases, iterations=6
    )
    assert [r.iterations_used for r in scalar] == [
        r.iterations_used for r in batched
    ]


class _NegativeModel:
    """A broken model: negative waiting whenever there is contention.

    Implements the full batch protocol (``batch_rowwise`` included) so
    the estimator's negative-waiting guard is reached on both paths.
    """

    name = "negative-test"
    complexity = "O(1)"
    batch_rowwise = True

    def waiting_time(self, own, others):
        return -1.0 if others else 0.0

    def waiting_times_batch(self, vectors, inc, own_active, xp):
        contenders = inc.sum(axis=2)
        return xp.where(contenders > 0, -1.0, 0.0)


def test_negative_waiting_error_message_parity(suite):
    full = [UseCase(tuple(g.name for g in suite.graphs))] * BATCH_MIN_ROWS
    errors = {}
    for backend in ("python", "numpy"):
        estimator = _estimator(suite, _NegativeModel(), backend)
        with pytest.raises(AnalysisError) as info:
            estimator.estimate_many(full, iterations=3)
        errors[backend] = str(info.value)
    assert errors["python"] == errors["numpy"]
    assert "returned negative waiting" in errors["python"]


def test_row_probability_over_one_matches_scalar_message(suite):
    """The batched per-row Definition 4 must reject utilization > 1
    with the scalar :func:`blocking_probability` message format."""
    estimator = _estimator(suite, "second_order", "numpy")
    xp = estimator.backend.xp
    structure = estimator._batch_structure_for()
    processor = structure.processors[0]
    periods = xp.ones((1, len(structure.app_columns)))
    with pytest.raises(AnalysisError) as info:
        estimator._row_probabilities(processor, periods, xp)
    message = str(info.value)
    assert "exceeds 1: actor busy time tau*q=" in message
    assert "exceeds period 1" in message


class _OneDimensionalBatchModel:
    """A third-party kernel that only understands shared ``(n,)``
    probability vectors — no ``batch_rowwise`` opt-in."""

    name = "one-dim-batch"
    complexity = "O(n)"

    def waiting_time(self, own, others):
        return sum(other.tau for other in others)

    def waiting_times_batch(self, vectors, inc, own_active, xp):
        taus = xp.asarray(vectors.tau, dtype=float)
        return inc @ taus


def test_one_dimensional_batch_model_falls_back_for_refinement(
    suite, use_cases
):
    model = _OneDimensionalBatchModel()
    assert supports_batch(model)
    assert not supports_rowwise_batch(model)
    batched = _estimator(suite, model, "numpy")
    # Single-pass estimates may batch; refinement must not.
    assert batched._can_batch(1, BATCH_MIN_ROWS)
    assert not batched._can_batch(2, BATCH_MIN_ROWS)
    scalar = _estimator(suite, model, "python").estimate_many(
        use_cases[:6], iterations=3
    )
    fallback = batched.estimate_many(use_cases[:6], iterations=3)
    _assert_parity(scalar, fallback)


def test_builtins_declare_rowwise_batch():
    from repro.core.waiting import make_waiting_model

    for spec in MODELS:
        model = make_waiting_model(spec)
        assert supports_rowwise_batch(model), spec
