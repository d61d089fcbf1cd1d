"""Unit tests for the array-backend layer itself.

Parity of whole estimates lives in ``test_backend_parity.py``; this
file covers the building blocks — backend resolution, the batched
symmetric-polynomial/waiting kernels against their scalar references,
``IncrementalMCRSolver.solve_many``, ``AnalysisEngine.period_for`` and
its row-count dispatch, and the ``DiscreteTime`` weight validation fix.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis_engine import AnalysisEngine
from repro.backend import (
    BATCH_MIN_ROWS,
    PythonBackend,
    get_backend,
    numpy_available,
)
from repro.core.blocking import build_profile, resident_vectors
from repro.core.distributions import DiscreteTime
from repro.core.exact import ExactWaitingModel
from repro.core.symmetric import (
    elementary_symmetric_all,
    elementary_symmetric_batch,
)
from repro.core.waiting import make_waiting_model, supports_batch
from repro.exceptions import AnalysisError, GraphError
from repro.sdf.builder import GraphBuilder
from repro.sdf.mcm import IncrementalMCRSolver, RatioEdge

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)


class TestBackendSelection:
    def test_python_backend_is_always_available(self):
        backend = get_backend("python")
        assert isinstance(backend, PythonBackend)
        assert not backend.vectorized

    def test_unknown_name_is_rejected(self):
        with pytest.raises(AnalysisError, match="unknown array backend"):
            get_backend("cupy")

    def test_instances_pass_through(self):
        backend = PythonBackend()
        assert get_backend(backend) is backend

    def test_default_is_numpy_exactly_when_importable(self):
        expected = "numpy" if numpy_available() else "python"
        assert get_backend(None).name == expected
        assert get_backend("auto").name == expected

    def test_all_builtin_models_support_batching(self):
        for name in (
            "exact",
            "second_order",
            "fourth_order",
            "order:3",
            "composability",
            "composability_incremental",
            "worst_case",
            "tdma",
        ):
            assert supports_batch(make_waiting_model(name)), name

    def test_scalar_only_models_are_detected(self):
        class ScalarOnly:
            name = "scalar-only"
            complexity = "O(1)"

            def waiting_time(self, own, others):
                return 0.0

        assert not supports_batch(ScalarOnly())


@needs_numpy
class TestBatchedKernels:
    def test_elementary_symmetric_batch_matches_scalar(self):
        import numpy as np

        rng = random.Random(5)
        values = [rng.random() for _ in range(6)]
        include = np.asarray(
            [
                [1.0 if rng.random() < 0.6 else 0.0 for _ in values]
                for _ in range(16)
            ]
        )
        batch = elementary_symmetric_batch(
            np.asarray(values), include, 6, np
        )
        for row in range(16):
            selected = [
                v for v, keep in zip(values, include[row]) if keep
            ]
            reference = elementary_symmetric_all(selected, max_order=6)
            for order, expected in enumerate(reference):
                assert batch[row, order] == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                )
            # Orders beyond the sub-multiset size vanish exactly.
            for order in range(len(selected) + 1, 7):
                assert batch[row, order] == 0.0

    def test_exact_batch_matches_scalar_model(self):
        import numpy as np

        rng = random.Random(1)
        profiles = [
            build_profile(
                f"A{i}", "a", rng.uniform(5, 40), 1, 400.0
            )
            for i in range(5)
        ]
        vectors = resident_vectors(profiles, np)
        active = np.asarray(
            [[1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1.0]]
        )
        inc = active[:, None, :] * (1.0 - np.eye(5))[None, :, :]
        model = ExactWaitingModel()
        batch = model.waiting_times_batch(vectors, inc, active, np)
        for row in range(2):
            for own in range(5):
                if not active[row, own]:
                    continue
                others = [
                    profiles[i]
                    for i in range(5)
                    if i != own and active[row, i]
                ]
                assert batch[row, own] == model.waiting_time(
                    profiles[own], others
                )


@needs_numpy
class TestSolveMany:
    def _ring(self, seed: int):
        rng = random.Random(seed)
        vertex_count = rng.randint(4, 10)
        edges = [
            RatioEdge(
                i,
                (i + 1) % vertex_count,
                rng.uniform(1, 30),
                rng.randint(1, 2),
            )
            for i in range(vertex_count)
        ]
        for _ in range(vertex_count):
            source = rng.randrange(vertex_count)
            target = rng.randrange(vertex_count)
            edges.append(
                RatioEdge(
                    source,
                    target,
                    rng.uniform(1, 30),
                    rng.randint(0 if source != target else 1, 2),
                )
            )
        return vertex_count, edges

    def test_matches_scalar_solver(self):
        import numpy as np

        rng = random.Random(13)
        for seed in range(6):
            vertex_count, edges = self._ring(seed)
            batched = IncrementalMCRSolver(vertex_count, edges)
            reference = IncrementalMCRSolver(vertex_count, edges)
            weight_rows = np.asarray(
                [
                    [rng.uniform(1, 40) for _ in edges]
                    for _ in range(25)
                ]
            )
            ratios = batched.solve_many(weight_rows, np)
            for row in range(25):
                expected = reference.solve(list(weight_rows[row])).ratio
                assert ratios[row] == pytest.approx(
                    expected, rel=1e-9
                ), (seed, row)
            assert batched.batch_accepted + batched.batch_fallbacks >= 25

    def test_certified_results_are_plain_floats(self):
        import numpy as np

        vertex_count, edges = self._ring(3)
        solver = IncrementalMCRSolver(vertex_count, edges)
        rows = np.asarray([[e.weight for e in edges]] * 3)
        ratios = solver.solve_many(rows, np)
        assert all(type(r) is float for r in ratios)

    def test_without_module_handle_falls_back_to_scalar(self):
        vertex_count, edges = self._ring(4)
        batched = IncrementalMCRSolver(vertex_count, edges)
        reference = IncrementalMCRSolver(vertex_count, edges)
        rows = [[e.weight * 1.5 for e in edges]] * 2
        assert batched.solve_many(rows, None) == [
            reference.solve(list(row)).ratio for row in rows
        ]
        assert batched.batch_accepted == 0

    def test_shape_mismatch_is_rejected(self):
        import numpy as np

        vertex_count, edges = self._ring(5)
        solver = IncrementalMCRSolver(vertex_count, edges)
        with pytest.raises(AnalysisError, match="weight matrix"):
            solver.solve_many(np.zeros((2, len(edges) + 1)), np)


class TestPeriodFor:
    @pytest.fixture
    def graph(self):
        return (
            GraphBuilder("ring")
            .actor("a", 10)
            .actor("b", 20)
            .actor("c", 15)
            .channel("a", "b")
            .channel("b", "c")
            .channel("c", "a", initial_tokens=1)
            .build()
        )

    def test_matches_scalar_period(self, graph):
        engine = AnalysisEngine(graph)
        scalar_engine = AnalysisEngine(graph)
        vectors = [
            [10.0, 20.0, 15.0],
            [12.0, 25.0, 15.5],
            [10.0, 20.0, 15.0],  # repeat: must come from the memo
        ] + [
            [11.0 + row, 21.0, 14.0 + row / 4]
            for row in range(BATCH_MIN_ROWS - 3)
        ]
        for backend in (
            ("python",)
            + (("numpy",) if numpy_available() else ())
        ):
            periods = engine.period_for(vectors, backend)
            for row, vector in enumerate(vectors):
                names = graph.actor_names
                expected = scalar_engine.period(
                    dict(zip(names, vector))
                )
                assert periods[row] == expected
            assert all(type(p) is float for p in periods)

    @needs_numpy
    def test_row_count_picks_the_path(self, graph):
        """Fewer than BATCH_MIN_ROWS rows solve one by one into the
        scalar memo; enough rows are certified into the batch memo."""
        vectors = [
            [10.0 + row, 20.0, 15.0] for row in range(BATCH_MIN_ROWS)
        ]
        for rows, batched in (
            (BATCH_MIN_ROWS - 1, False),
            (BATCH_MIN_ROWS, True),
        ):
            engine = AnalysisEngine(graph)
            engine.period_for(vectors[:rows])
            assert bool(engine._batch_cache) is batched
            assert bool(engine._cache) is not batched

    @needs_numpy
    def test_batched_queries_never_pollute_the_scalar_memo(self, graph):
        """Shared engines stay byte-deterministic on the scalar path.

        A batch-certified ratio may differ from the scalar Howard
        result in the last bits; :meth:`AnalysisEngine.period` (the
        path the admission/runtime layer shares) must keep returning
        exactly what a never-batched engine returns.
        """
        engine = AnalysisEngine(graph)
        fresh = AnalysisEngine(graph)
        names = graph.actor_names
        seed_vector = [10.0, 20.0, 15.0]
        certified_vector = [11.5, 23.0, 16.5]
        engine.period_for(
            [seed_vector] + [certified_vector] * (BATCH_MIN_ROWS - 1),
            "numpy",
        )
        for vector in (seed_vector, certified_vector):
            assert engine.period(
                dict(zip(names, vector))
            ) == fresh.period(dict(zip(names, vector)))

    @needs_numpy
    def test_rejects_non_positive_times(self, graph):
        engine = AnalysisEngine(graph)
        with pytest.raises(GraphError, match="must be positive"):
            engine.period_for(
                [[10.0, -1.0, 15.0]] * BATCH_MIN_ROWS, "numpy"
            )

    @needs_numpy
    def test_rejects_wrong_width(self, graph):
        engine = AnalysisEngine(graph)
        with pytest.raises(AnalysisError, match="times per"):
            engine.period_for([[10.0, 20.0]] * BATCH_MIN_ROWS, "numpy")


@needs_numpy
class TestScalarErrorParity:
    """Batched kernels must raise exactly where the scalar path does."""

    def _vectors_and_inc(self, profiles, active):
        import numpy as np

        count = len(profiles)
        vectors = resident_vectors(profiles, np)
        inc = (
            active[:, None, :] * (1.0 - np.eye(count))[None, :, :]
        )
        return vectors, inc

    def test_incremental_composability_p1_raises_like_scalar(self):
        import numpy as np

        model = make_waiting_model("composability_incremental")
        saturated = build_profile("A", "a", 100.0, 1, 100.0)  # P = 1
        other = build_profile("B", "b", 20.0, 1, 200.0)
        assert saturated.probability == 1.0
        with pytest.raises(AnalysisError, match="P_b != 1"):
            model.waiting_time(saturated, [other])
        active = np.asarray([[1.0, 1.0]])
        vectors, inc = self._vectors_and_inc(
            [saturated, other], active
        )
        with pytest.raises(AnalysisError, match="P_b != 1"):
            model.waiting_times_batch(vectors, inc, active, np)

    def test_inactive_saturated_actor_does_not_raise(self):
        import numpy as np

        model = make_waiting_model("composability_incremental")
        saturated = build_profile("A", "a", 100.0, 1, 100.0)
        others = [
            build_profile("B", "b", 20.0, 1, 200.0),
            build_profile("C", "c", 30.0, 1, 300.0),
        ]
        # The saturated actor is inactive in every row, so the scalar
        # loop would never decompose it — no error either way.
        active = np.asarray([[0.0, 1.0, 1.0]])
        vectors, inc = self._vectors_and_inc(
            [saturated, *others], active
        )
        batch = model.waiting_times_batch(vectors, inc, active, np)
        expected = model.waiting_time(others[0], [others[1]])
        assert batch[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_tdma_zero_tau_raises_like_scalar(self):
        import numpy as np

        model = make_waiting_model("tdma")
        idle = build_profile("A", "a", 0.0, 1, 100.0, mu=1.0)
        other = build_profile("B", "b", 20.0, 1, 200.0)
        with pytest.raises(AnalysisError, match="slice length"):
            model.waiting_time(idle, [other])
        active = np.asarray([[1.0, 1.0]])
        vectors, inc = self._vectors_and_inc([idle, other], active)
        with pytest.raises(AnalysisError, match="slice length"):
            model.waiting_times_batch(vectors, inc, active, np)

    def test_tdma_zero_tau_alone_or_inactive_is_fine(self):
        import numpy as np

        model = make_waiting_model("tdma")
        idle = build_profile("A", "a", 0.0, 1, 100.0, mu=1.0)
        other = build_profile("B", "b", 20.0, 1, 200.0)
        # Scalar: no contenders -> waiting 0 and no slice is built.
        assert model.waiting_time(idle, []) == 0.0
        active = np.asarray([[0.0, 1.0]])
        vectors, inc = self._vectors_and_inc([idle, other], active)
        batch = model.waiting_times_batch(vectors, inc, active, np)
        assert batch[0, 1] == 0.0
        assert not np.isnan(batch).any()


class TestDiscreteTimeBackends:
    def test_default_bits_do_not_depend_on_environment(self):
        """The moments are plain Python folds, numpy installed or not."""
        pairs = [(120.0, 0.1), (80.0, 0.3), (40.0, 0.6)]
        dist = DiscreteTime.of(pairs)
        total = sum(w for _, w in pairs)
        normalized = tuple(w / total for _, w in pairs)
        assert dist._normalized() == normalized
        assert dist.mean() == sum(
            v * w for (v, _), w in zip(pairs, normalized)
        )
        assert dist.second_moment() == sum(
            v * v * w for (v, _), w in zip(pairs, normalized)
        )


class TestDiscreteTimeValidation:
    def test_zero_weight_is_rejected_with_context(self):
        with pytest.raises(AnalysisError) as excinfo:
            DiscreteTime.of([(120.0, 0.5), (80.0, 0.0)])
        message = str(excinfo.value)
        assert "strictly positive" in message
        assert "0.0" in message
        assert "80.0" in message
        assert "index 1" in message

    def test_negative_weight_is_rejected_with_context(self):
        with pytest.raises(AnalysisError) as excinfo:
            DiscreteTime.of([(120.0, -0.25), (80.0, 1.0)])
        message = str(excinfo.value)
        assert "strictly positive" in message
        assert "-0.25" in message
        assert "index 0" in message

    def test_nan_weight_is_rejected(self):
        with pytest.raises(AnalysisError, match="strictly positive"):
            DiscreteTime.of([(120.0, float("nan"))])

    def test_positive_weights_still_work(self):
        dist = DiscreteTime.of([(120.0, 1.0), (80.0, 3.0)])
        assert dist.mean() == pytest.approx(90.0)
