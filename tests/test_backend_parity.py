"""Property-based parity of the batched kernels and the scalar loop.

A batch of at least ``BATCH_MIN_ROWS`` use-cases runs on the NumPy
kernels; ``backend="python"`` forces the scalar reference loop.  For
*any* gallery, mapping, waiting model and analysis method the two must
give the same bits: equal periods, waiting times and response times.
Hypothesis drives random galleries through both, each batch padded to
at least ``BATCH_MIN_ROWS`` rows so the kernels run; dedicated tests
pin the corner cases the strategies reach rarely (stacked mappings,
same-application exclusion, the state-space analysis method) and the
admission controller's warm path, which must stay *bit-identical*
whatever batched work its engines did before, because the runtime
determinism suite byte-compares its decision logs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.admission.controller import AdmissionController
from repro.exceptions import AnalysisError
from repro.analysis_engine import build_engines
from repro.backend import BATCH_MIN_ROWS, numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.core.registry import WAITING_MODELS
from repro.generation.random_sdf import GeneratorConfig, random_sdf_graph
from repro.platform.mapping import index_mapping, modulo_mapping
from repro.platform.platform import Platform
from repro.platform.usecase import UseCase, all_use_cases
from repro.sdf.analysis import AnalysisMethod

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

MODELS = (
    "exact",
    "second_order",
    "fourth_order",
    "order:1",
    "composability",
    "composability_incremental",
    "worst_case",
    "tdma",
)

_SMALL = GeneratorConfig(actor_count_range=(3, 5))


def _gallery(seeds):
    return [
        random_sdf_graph(f"G{index}", seed=seed, config=_SMALL)
        for index, seed in enumerate(seeds)
    ]


def _batch(graphs):
    """Every use-case, repeated up to at least BATCH_MIN_ROWS rows."""
    use_cases = all_use_cases([g.name for g in graphs])
    return use_cases * -(-BATCH_MIN_ROWS // len(use_cases))


def _assert_parity(scalar_results, vector_results):
    assert len(scalar_results) == len(vector_results)
    for scalar, vector in zip(scalar_results, vector_results):
        assert scalar.use_case == vector.use_case
        assert scalar.model_name == vector.model_name
        assert scalar.iterations_used == vector.iterations_used
        assert vector.periods == scalar.periods, scalar.use_case
        assert vector.waiting_times == scalar.waiting_times
        assert vector.response_times == scalar.response_times


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(
        st.integers(0, 10_000), min_size=2, max_size=4, unique=True
    ),
    model=st.sampled_from(MODELS),
)
def test_every_waiting_model_agrees_across_backends(seeds, model):
    """Random gallery, exhaustive use-cases, every waiting model.

    Parity covers the error surface too: a gallery outside a model's
    domain (e.g. an actor with blocking probability 1, which Eq. 8's
    incremental composition cannot decompose) must be refused by both
    backends with the same error, not answered by one of them.
    """
    graphs = _gallery(seeds)
    use_cases = _batch(graphs)
    try:
        scalar = ProbabilisticEstimator(
            graphs, waiting_model=model, backend="python"
        ).estimate_many(use_cases)
    except AnalysisError as scalar_error:
        with pytest.raises(AnalysisError) as vector_error:
            ProbabilisticEstimator(
                graphs, waiting_model=model, backend="numpy"
            ).estimate_many(use_cases)
        assert str(vector_error.value) == str(scalar_error)
        return
    vector = ProbabilisticEstimator(
        graphs, waiting_model=model, backend="numpy"
    ).estimate_many(use_cases)
    _assert_parity(scalar, vector)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(
        st.integers(0, 10_000), min_size=2, max_size=3, unique=True
    ),
    method=st.sampled_from(
        [AnalysisMethod.MCR, AnalysisMethod.STATE_SPACE]
    ),
)
def test_both_analysis_methods_agree_across_backends(seeds, method):
    """MCR and the state-space engine, python vs numpy."""
    graphs = _gallery(seeds)
    use_cases = _batch(graphs)
    scalar = ProbabilisticEstimator(
        graphs, analysis_method=method, backend="python"
    ).estimate_many(use_cases)
    vector = ProbabilisticEstimator(
        graphs, analysis_method=method, backend="numpy"
    ).estimate_many(use_cases)
    _assert_parity(scalar, vector)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(
        st.integers(0, 10_000), min_size=2, max_size=3, unique=True
    ),
    width=st.integers(2, 3),
    include_same_application=st.booleans(),
    model=st.sampled_from(
        ("second_order", "exact", "composability", "worst_case")
    ),
)
def test_stacked_mapping_parity(
    seeds, width, include_same_application, model
):
    """Narrow platforms stack several actors per node — including
    several actors of the *same* application, which exercises the
    same-application exclusion masks of the batched kernels."""
    graphs = _gallery(seeds)
    mapping = modulo_mapping(graphs, Platform.homogeneous(width))
    use_cases = _batch(graphs)
    scalar = ProbabilisticEstimator(
        graphs,
        mapping=mapping,
        waiting_model=model,
        include_same_application=include_same_application,
        backend="python",
    ).estimate_many(use_cases)
    vector = ProbabilisticEstimator(
        graphs,
        mapping=mapping,
        waiting_model=model,
        include_same_application=include_same_application,
        backend="numpy",
    ).estimate_many(use_cases)
    _assert_parity(scalar, vector)


def _fractional_gallery(seeds, scale_seed):
    """:func:`_gallery` with every execution time scaled by a random
    fractional factor: the generator itself draws integer times only."""
    rng = random.Random(scale_seed)
    return [
        graph.with_execution_times(
            {
                actor: time * rng.uniform(0.3, 3.0)
                for actor, time in graph.execution_times().items()
            }
        )
        for graph in _gallery(seeds)
    ]


def _every_model_spec(graphs):
    """One specification per registered model, arguments filled in."""
    specs = {info.name: info.name for info in WAITING_MODELS.infos()}
    specs["order"] = "order:3"
    specs["weighted_round_robin"] = f"weighted_round_robin:{graphs[0].name}=2"
    return list(specs.values())


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(
        st.integers(0, 10_000), min_size=2, max_size=4, unique=True
    ),
    scale_seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([None, 2, 3]),
)
def test_fractional_times_agree_across_backends(seeds, scale_seed, width):
    """Fractional execution times: every registered model gives the
    same waiting and response times on both paths.

    Periods are left out: where two cycles' ratios lie within the
    solver tolerances, which cycle batch certification reports depends
    on solver history (ROADMAP item 6), and fractional times reach such
    near-ties.  Priorities are seeded per application, so
    ``priority_preemptive`` has higher, equal and lower contenders.
    """
    graphs = _fractional_gallery(seeds, scale_seed)
    mapping = (
        index_mapping(graphs)
        if width is None
        else modulo_mapping(graphs, Platform.homogeneous(width))
    ).with_priorities({graph.name: i % 3 for i, graph in enumerate(graphs)})
    use_cases = _batch(graphs)
    for spec in _every_model_spec(graphs):
        try:
            scalar = ProbabilisticEstimator(
                graphs, mapping=mapping, waiting_model=spec, backend="python"
            ).estimate_many(use_cases)
        except AnalysisError as scalar_error:
            with pytest.raises(AnalysisError) as vector_error:
                ProbabilisticEstimator(
                    graphs, mapping=mapping, waiting_model=spec
                ).estimate_many(use_cases)
            assert str(vector_error.value) == str(scalar_error)
            continue
        vector = ProbabilisticEstimator(
            graphs, mapping=mapping, waiting_model=spec
        ).estimate_many(use_cases)
        assert not isinstance(vector, list)  # the kernels ran
        for expected, batched in zip(scalar, vector):
            assert batched.use_case == expected.use_case
            assert batched.waiting_times == expected.waiting_times, spec
            assert batched.response_times == expected.response_times, spec


def _run_admission_sequence(graphs, mapping, engines):
    """Admit everything, withdraw one, re-admit — all on warm engines."""
    controller = AdmissionController(mapping, engines=engines)
    quotes = []
    for graph in graphs:
        decision = controller.request_admission(graph)
        quotes.append(
            (
                graph.name,
                decision.admitted,
                dict(decision.estimated_periods),
            )
        )
    controller.withdraw(graphs[0].name)
    decision = controller.request_admission(graphs[0])
    quotes.append(
        (
            graphs[0].name,
            decision.admitted,
            dict(decision.estimated_periods),
        )
    )
    return quotes


def test_admission_warm_path_is_bit_identical_across_backends():
    """The controller's warm O(1) path never touches the array layer.

    Its quotes must therefore be *bit-identical* whether or not its
    engines served a batched sweep before — the property the runtime
    byte-determinism suite builds on.
    """
    graphs = _gallery([11, 22, 33])
    mapping = index_mapping(graphs)
    fresh_quotes = _run_admission_sequence(
        graphs, mapping, build_engines(graphs)
    )
    engines = build_engines(graphs)
    # Every application in at least BATCH_MIN_ROWS rows, so each
    # engine's period_for certifies in batch.
    ProbabilisticEstimator(
        graphs, mapping=mapping, engines=engines
    ).estimate_many(all_use_cases([g.name for g in graphs]) * BATCH_MIN_ROWS)
    assert any(engine._batch_cache for engine in engines.values())
    warm_quotes = _run_admission_sequence(graphs, mapping, engines)
    assert fresh_quotes == warm_quotes


def test_python_backend_forces_the_scalar_loop():
    graphs = _gallery([5, 6])
    forced = ProbabilisticEstimator(graphs, backend="python")
    assert not forced.backend.vectorized
    assert not forced._can_batch(1, BATCH_MIN_ROWS)
    for selection in (None, "auto", "numpy"):
        estimator = ProbabilisticEstimator(graphs, backend=selection)
        assert estimator.backend.name == "numpy"
        assert estimator._can_batch(1, BATCH_MIN_ROWS)
        assert not estimator._can_batch(1, BATCH_MIN_ROWS - 1)


def test_single_estimate_matches_batched_single():
    """estimate() and a batch repeating its use-case agree, bit for bit."""
    graphs = _gallery([3, 4, 9])
    use_case = UseCase.of(graphs[0].name, graphs[2].name)
    for backend in ("python", "numpy"):
        estimator = ProbabilisticEstimator(graphs, backend=backend)
        single = estimator.estimate(use_case)
        for batched in estimator.estimate_many([use_case] * BATCH_MIN_ROWS):
            assert single.periods == batched.periods
            assert single.waiting_times == batched.waiting_times
