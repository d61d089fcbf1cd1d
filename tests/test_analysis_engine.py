"""Incremental analysis engine: parity with the cold path + behaviour.

The acceptance bar of the engine layer is numerical parity: for every
waiting model and both analysis methods, an estimator running on cached
engines (shared HSDF expansion, warm-started Howard, response-time memo)
must reproduce the stateless cold path to <= 1e-9 relative over all
use-case sizes of a four-application gallery.
"""

from __future__ import annotations

import gc
import hashlib
import random
import struct
import tracemalloc

import pytest

from repro.analysis_engine import AnalysisEngine, build_engines
from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import AnalysisError
from repro.generation.gallery import media_device_suite
from repro.platform.mapping import index_mapping
from repro.platform.usecase import all_use_cases
from repro.sdf.analysis import (
    AnalysisMethod,
    critical_cycle,
    period,
    period_with_response_times,
)

WAITING_MODELS = (
    "worst_case",
    "composability",
    "composability_incremental",
    "fourth_order",
    "second_order",
    "exact",
    "tdma",
)


@pytest.fixture(scope="module")
def gallery():
    """Four media applications + index mapping + every use-case."""
    graphs = media_device_suite()[:4]
    mapping = index_mapping(graphs)
    use_cases = all_use_cases(tuple(g.name for g in graphs))
    return graphs, mapping, use_cases


def _sweep_periods(graphs, mapping, use_cases, model, method, incremental):
    estimator = ProbabilisticEstimator(
        graphs,
        mapping=mapping,
        waiting_model=model,
        analysis_method=method,
        incremental=incremental,
    )
    results = estimator.estimate_many(use_cases)
    return {
        (result.use_case, name): result.periods[name]
        for result in results
        for name in result.periods
    }


class TestColdParity:
    """Engine sweep == cold sweep over all use-case sizes (4-app gallery)."""

    @pytest.mark.parametrize("model", WAITING_MODELS)
    def test_mcr_parity_all_sizes(self, gallery, model):
        graphs, mapping, use_cases = gallery
        cold = _sweep_periods(
            graphs, mapping, use_cases, model, AnalysisMethod.MCR, False
        )
        warm = _sweep_periods(
            graphs, mapping, use_cases, model, AnalysisMethod.MCR, True
        )
        assert cold.keys() == warm.keys()
        assert len({uc for uc, _ in cold}) == 15  # 2^4 - 1 use-cases
        for key, value in cold.items():
            assert warm[key] == pytest.approx(value, rel=1e-9), key

    @pytest.mark.parametrize("model", WAITING_MODELS)
    def test_state_space_parity_all_sizes(self, gallery, model):
        graphs, mapping, use_cases = gallery
        cold = _sweep_periods(
            graphs,
            mapping,
            use_cases,
            model,
            AnalysisMethod.STATE_SPACE,
            False,
        )
        warm = _sweep_periods(
            graphs,
            mapping,
            use_cases,
            model,
            AnalysisMethod.STATE_SPACE,
            True,
        )
        for key, value in cold.items():
            assert warm[key] == pytest.approx(value, rel=1e-9), key

    def test_mcr_lawler_engine_matches_cold(self, gallery):
        graphs, _, _ = gallery
        for graph in graphs:
            engine = AnalysisEngine(graph, mcr_algorithm="lawler")
            assert engine.period() == pytest.approx(
                period(graph, mcr_algorithm="lawler"), rel=1e-9
            )


class TestEngineBehaviour:
    def test_isolation_period_matches_stateless(self, gallery):
        graphs, _, _ = gallery
        for graph in graphs:
            engine = AnalysisEngine(graph)
            assert engine.isolation_period == pytest.approx(
                period(graph), rel=1e-12
            )

    def test_weight_only_update_matches_stateless(self, gallery):
        graphs, _, _ = gallery
        graph = graphs[0]
        engine = AnalysisEngine(graph)
        inflated = {
            name: time * 1.7
            for name, time in graph.execution_times().items()
        }
        assert engine.period(inflated) == pytest.approx(
            period_with_response_times(graph, inflated), rel=1e-12
        )

    def test_repeated_vector_hits_cache(self, gallery):
        graphs, _, _ = gallery
        engine = AnalysisEngine(graphs[0])
        inflated = {
            name: time + 5.0
            for name, time in graphs[0].execution_times().items()
        }
        first = engine.period(inflated)
        solves = engine.stats.solves
        second = engine.period(dict(inflated))
        assert second == first
        assert engine.stats.solves == solves  # no new solve
        assert engine.stats.cache_hits >= 1

    def test_partial_and_full_vectors_share_cache_key(self, gallery):
        """A mapping that omits actors at their base time must hit the
        same memo entry as the explicit full vector."""
        graphs, _, _ = gallery
        graph = graphs[0]
        engine = AnalysisEngine(graph)
        first_actor = graph.actor_names[0]
        partial = {first_actor: graph.execution_time(first_actor) + 3.0}
        full = dict(graph.execution_times())
        full[first_actor] = full[first_actor] + 3.0
        engine.period(partial)
        solves = engine.stats.solves
        engine.period(full)
        assert engine.stats.solves == solves

    def test_non_positive_response_times_rejected(self, gallery):
        """The engine keeps the cold path's Actor validation contract:
        non-positive times raise GraphError for both analysis methods."""
        from repro.exceptions import GraphError

        graphs, _, _ = gallery
        graph = graphs[0]
        first_actor = graph.actor_names[0]
        for method in (AnalysisMethod.MCR, AnalysisMethod.STATE_SPACE):
            engine = AnalysisEngine(graph, method=method)
            with pytest.raises(GraphError):
                engine.period({first_actor: -5.0})
            with pytest.raises(GraphError):
                engine.period({first_actor: 0.0})
        with pytest.raises(GraphError):
            AnalysisEngine(graph).critical_cycle({first_actor: -5.0})

    def test_non_numeric_response_time_rejected(self, gallery):
        """A time that is not a number raises GraphError, naming the
        actor, not the memo key packer's ``struct.error``."""
        from repro.exceptions import GraphError

        graphs, _, _ = gallery
        graph = graphs[0]
        first_actor = graph.actor_names[0]
        message = f"actor {first_actor!r}: execution time must be a number"
        for method in (AnalysisMethod.MCR, AnalysisMethod.STATE_SPACE):
            engine = AnalysisEngine(graph, method=method)
            with pytest.raises(GraphError, match=message):
                engine.period({first_actor: "x"})
            assert engine.stats.solves == 0
        with pytest.raises(GraphError, match=message):
            AnalysisEngine(graph).critical_cycle({first_actor: "x"})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_response_times_rejected(self, gallery, bad):
        """NaN and infinite times raise GraphError on every path and
        never reach a memo, so a later good query still solves."""
        from repro.backend import BATCH_MIN_ROWS, numpy_available
        from repro.exceptions import GraphError

        graphs, _, _ = gallery
        graph = graphs[0]
        first_actor = graph.actor_names[0]
        base = [graph.execution_time(name) for name in graph.actor_names]
        bad_row = [bad] + base[1:]
        message = "positive" if bad < 0 else "finite"
        backends = ["python"] + (["numpy"] if numpy_available() else [])
        for method in (AnalysisMethod.MCR, AnalysisMethod.STATE_SPACE):
            engine = AnalysisEngine(graph, method=method)
            with pytest.raises(GraphError, match=message):
                engine.period({first_actor: bad})
            for backend in backends:
                with pytest.raises(GraphError, match=message):
                    engine.period_for(
                        [bad_row] + [base] * BATCH_MIN_ROWS, backend
                    )
            assert engine.stats.solves == 0
            assert engine.period_for([base], backends[-1]) == [
                engine.period()
            ]
        with pytest.raises(GraphError, match=message):
            AnalysisEngine(graph).critical_cycle({first_actor: bad})

    def test_first_bad_row_is_reported(self, gallery):
        """With several bad rows the batch names the first one."""
        from repro.backend import BATCH_MIN_ROWS, numpy_available
        from repro.exceptions import GraphError

        graphs, _, _ = gallery
        graph = graphs[0]
        base = [graph.execution_time(name) for name in graph.actor_names]
        rows = [base, [base[0], float("nan")] + base[2:], [-1.0] + base[1:]]
        rows += [base] * BATCH_MIN_ROWS
        backends = ["python"] + (["numpy"] if numpy_available() else [])
        for backend in backends:
            engine = AnalysisEngine(graph)
            with pytest.raises(GraphError) as error:
                engine.period_for(rows, backend)
            assert f"{graph.actor_names[1]!r}" in str(error.value)
            assert "finite, got nan" in str(error.value)

    def test_warm_policy_is_kept_between_solves(self, gallery):
        graphs, _, _ = gallery
        engine = AnalysisEngine(graphs[0])
        assert engine.last_policy is None
        engine.period()
        assert engine.last_policy is not None

    def test_critical_cycle_matches_stateless(self, gallery):
        graphs, _, _ = gallery
        for graph in graphs:
            engine = AnalysisEngine(graph)
            stateless = critical_cycle(graph)
            from_engine = engine.critical_cycle()
            assert from_engine.ratio == pytest.approx(
                stateless.ratio, rel=1e-12
            )
            assert from_engine.firings == stateless.firings

    def test_state_space_engine_rejects_critical_cycle(self, gallery):
        graphs, _, _ = gallery
        engine = AnalysisEngine(
            graphs[0], method=AnalysisMethod.STATE_SPACE
        )
        with pytest.raises(AnalysisError):
            engine.critical_cycle()
        with pytest.raises(AnalysisError):
            engine.hsdf

    def test_cache_clear_keeps_structure(self, gallery):
        graphs, _, _ = gallery
        engine = AnalysisEngine(graphs[0])
        value = engine.period()
        engine.cache_clear()
        assert engine.period() == value
        assert engine.stats.solves == 2  # re-solved, not re-expanded


class TestEstimatorIntegration:
    def test_shared_engines_across_waiting_models(self, gallery):
        graphs, mapping, use_cases = gallery
        engines = build_engines(graphs)
        periods = {}
        for model in ("second_order", "composability"):
            estimator = ProbabilisticEstimator(
                graphs,
                mapping=mapping,
                waiting_model=model,
                engines=engines,
            )
            assert estimator.engines is engines
            periods[model] = _sweep_periods(
                graphs, mapping, use_cases, model, AnalysisMethod.MCR, False
            )
            for result in estimator.estimate_many(use_cases):
                for name, value in result.periods.items():
                    assert value == pytest.approx(
                        periods[model][(result.use_case, name)], rel=1e-9
                    )
        # One expansion per app served both models.
        assert all(e.stats.solves > 0 for e in engines.values())

    def test_estimate_many_equals_individual_estimates(self, gallery):
        graphs, mapping, use_cases = gallery
        estimator = ProbabilisticEstimator(graphs, mapping=mapping)
        batched = estimator.estimate_many(use_cases)
        for use_case, batch in zip(use_cases, batched):
            single = estimator.estimate(use_case)
            assert single.periods == batch.periods

    def test_sweep_all_sizes_exhaustive_counts(self, gallery):
        graphs, mapping, _ = gallery
        estimator = ProbabilisticEstimator(graphs, mapping=mapping)
        results = estimator.sweep_all_sizes()
        assert len(results) == 15
        sizes = sorted(r.use_case.size for r in results)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_sweep_all_sizes_sampling_is_deterministic(self, gallery):
        graphs, mapping, _ = gallery
        estimator = ProbabilisticEstimator(graphs, mapping=mapping)
        first = estimator.sweep_all_sizes(samples_per_size=2, seed=3)
        second = estimator.sweep_all_sizes(samples_per_size=2, seed=3)
        assert [r.use_case for r in first] == [r.use_case for r in second]
        assert all(
            len([r for r in first if r.use_case.size == s]) <= 2
            for s in (1, 2, 3, 4)
        )

    def test_engines_must_cover_every_application(self, gallery):
        graphs, mapping, _ = gallery
        engines = build_engines(graphs[:2])
        with pytest.raises(AnalysisError):
            ProbabilisticEstimator(
                graphs, mapping=mapping, engines=engines
            )

    def test_engines_must_match_graph_contents(self, gallery):
        """Engines built from a different design variant (same names,
        scaled timings) are rejected instead of answering silently for
        the wrong graph."""
        graphs, mapping, _ = gallery
        engines = build_engines(graphs)
        variants = [
            g.with_execution_times(
                {a.name: a.execution_time * 2.0 for a in g.actors}
            )
            for g in graphs
        ]
        with pytest.raises(AnalysisError):
            ProbabilisticEstimator(
                variants, mapping=mapping, engines=engines
            )

    def test_equal_content_graphs_are_accepted(self, gallery):
        """Re-built (non-identical) graphs with the same content share
        engines fine — the guard compares content, not identity."""
        graphs, mapping, use_cases = gallery
        engines = build_engines(graphs)
        rebuilt = [g.renamed(g.name) for g in graphs]  # fresh objects
        estimator = ProbabilisticEstimator(
            rebuilt, mapping=mapping, engines=engines
        )
        assert estimator.estimate(use_cases[-1]).periods

    def test_engines_with_cold_path_is_rejected(self, gallery):
        """Supplying engines while forcing the cold path is a
        contradiction; it raises instead of silently ignoring them."""
        graphs, mapping, _ = gallery
        with pytest.raises(AnalysisError):
            ProbabilisticEstimator(
                graphs,
                mapping=mapping,
                engines=build_engines(graphs),
                incremental=False,
            )

    def test_engines_must_match_analysis_method(self, gallery):
        graphs, mapping, _ = gallery
        engines = build_engines(graphs)
        with pytest.raises(AnalysisError):
            ProbabilisticEstimator(
                graphs,
                mapping=mapping,
                engines=engines,
                analysis_method=AnalysisMethod.STATE_SPACE,
            )

    def test_fixed_point_iterations_parity(self, gallery):
        graphs, mapping, use_cases = gallery
        for incremental in (True, False):
            estimator = ProbabilisticEstimator(
                graphs, mapping=mapping, incremental=incremental
            )
            result = estimator.estimate(use_cases[-1], iterations=4)
            if incremental:
                warm_periods = result.periods
            else:
                cold_periods = result.periods
        for name, value in cold_periods.items():
            assert warm_periods[name] == pytest.approx(value, rel=1e-9)


class TestEstimationResultLookups:
    """Satellite: unknown applications raise AnalysisError, not KeyError."""

    def test_normalized_period_of_unknown_app(self, gallery):
        graphs, mapping, _ = gallery
        result = ProbabilisticEstimator(graphs, mapping=mapping).estimate()
        with pytest.raises(AnalysisError):
            result.normalized_period_of("nope")

    def test_isolation_period_of_unknown_app(self, gallery):
        graphs, mapping, _ = gallery
        result = ProbabilisticEstimator(graphs, mapping=mapping).estimate()
        with pytest.raises(AnalysisError):
            result.isolation_period_of("nope")

    def test_known_app_lookups_still_work(self, gallery):
        graphs, mapping, _ = gallery
        result = ProbabilisticEstimator(graphs, mapping=mapping).estimate()
        name = graphs[0].name
        assert result.isolation_period_of(name) == pytest.approx(
            result.isolation_periods[name]
        )
        assert result.normalized_period_of(name) >= 1.0


def _backends():
    from repro.backend import numpy_available

    return ["python"] + (["numpy"] if numpy_available() else [])


def _packed(row):
    return struct.pack(f"={len(row)}d", *row)


class TestPackedMemo:
    """Both memos key a vector by its packed doubles; counts, bits,
    precedence, errors and the bytes per entry are pinned here."""

    def test_table1_sweep_counts_and_bits_are_pinned(self):
        """All 1023 use-cases of a 10-application gallery under the
        four Table 1 methods on shared engines: the memo answers the
        same rows and every period keeps its bits (the counts and the
        digest were recorded with tuple-of-floats keys)."""
        from repro.experiments.setup import paper_benchmark_suite

        suite = paper_benchmark_suite(seed=2007, application_count=10)
        engines = build_engines(suite.graphs)
        use_cases = all_use_cases(suite.application_names)
        digest = hashlib.sha256()
        for model in ("second_order", "fourth_order", "composability", "worst_case"):
            estimator = ProbabilisticEstimator(
                suite.graphs, suite.mapping, waiting_model=model, engines=engines
            )
            for result in estimator.estimate_many(use_cases):
                for app in result.use_case:
                    digest.update(struct.pack("=d", result.periods[app]))
        stats = [engine.stats for engine in engines.values()]
        assert len(use_cases) == 1023
        assert sum(s.solves for s in stats) == 19617
        assert sum(s.cache_hits for s in stats) == 903
        assert sum(s.cache_misses for s in stats) == 19617
        assert digest.hexdigest() == (
            "8fa6720636f4082620809c603203ccc11a2c9811fd681136c96986ddc3181d7e"
        )

    def test_scalar_memo_answers_batched_rows_first(self, gallery):
        """A row already in the scalar memo is answered from it by a
        batched call, even when the batch memo holds another value
        for the same vector, and is not copied into the batch memo."""
        graphs, _, _ = gallery
        graph = graphs[0]
        base = [graph.execution_time(name) for name in graph.actor_names]
        known = [t + 1.0 for t in base]
        rows = [known] + [[t + 2.0 + k for t in base] for k in range(4)]
        for backend in _backends():
            engine = AnalysisEngine(graph)
            value = engine.period(dict(zip(graph.actor_names, known)))
            engine._batch_cache[_packed(known)] = -1.0
            solves = engine.stats.solves
            periods = engine.period_for(rows, backend)
            assert periods[0] == value
            assert engine.stats.solves == solves + 4
            assert engine._batch_cache.get(_packed(known), -1.0) == -1.0

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.0, "positive, got 0.0"),
            (-5.0, "positive, got -5.0"),
            (float("nan"), "finite, got nan"),
            (float("inf"), "finite, got inf"),
            (float("-inf"), "positive, got -inf"),
            ("ragged", None),
            ("wide", None),
        ],
    )
    def test_bad_rows_raise_and_leave_memos_untouched(self, gallery, bad, message):
        from repro.backend import BATCH_MIN_ROWS
        from repro.exceptions import GraphError

        graphs, _, _ = gallery
        graph = graphs[0]
        width = len(graph.actor_names)
        base = [graph.execution_time(name) for name in graph.actor_names]
        fresh = [[t + 3.0 + k for t in base] for k in range(BATCH_MIN_ROWS)]
        if bad == "ragged":
            rows = [base, base[:-1]] + fresh
            error_type = AnalysisError
            expected = f"expected {width} times per vector, got {width - 1}"
        elif bad == "wide":
            rows = [row + [1.0] for row in fresh]
            error_type = AnalysisError
            expected = f"expected {width} times per vector, got {width + 1}"
        else:
            rows = [base, [base[0], bad] + base[2:]] + fresh
            error_type = GraphError
            expected = (
                f"actor {graph.actor_names[1]!r}: execution time must be "
                f"{message}"
            )
        for backend in _backends():
            engine = AnalysisEngine(graph)
            engine.period(dict(zip(graph.actor_names, base)))
            engine.period_for([[t + 1.0 for t in base]] * BATCH_MIN_ROWS, backend)
            memos = (dict(engine._cache), dict(engine._batch_cache))
            solves = engine.stats.solves
            with pytest.raises(error_type) as error:
                engine.period_for(rows, backend)
            assert str(error.value) == expected
            assert (engine._cache, engine._batch_cache) == memos
            assert engine.stats.solves == solves

    def test_int_and_float_times_share_one_entry(self, gallery):
        """``82`` and ``82.0`` are one key, and the scalar fallback
        (what runs without numpy) keys rows like the batched path."""
        graphs, _, _ = gallery
        graph = graphs[0]
        first = graph.actor_names[0]
        engine = AnalysisEngine(graph)
        as_int = engine.period({first: 82})
        solves = engine.stats.solves
        assert engine.period({first: 82.0}) == as_int
        assert engine.stats.solves == solves
        row = [82.0] + [graph.execution_time(n) for n in graph.actor_names[1:]]
        assert list(engine._cache) == [_packed(row)]
        assert engine.period_for([row] * 5, "python") == [as_int] * 5
        assert engine.stats.solves == solves
        for backend in _backends():
            other = AnalysisEngine(graph)
            rows = [[t * (1.5 + k) for t in row] for k in range(5)]
            other.period_for(rows, backend)
            memo = other._batch_cache if backend == "numpy" else other._cache
            assert set(memo) == {_packed(r) for r in rows}

    def test_memo_entry_bytes_are_bounded(self):
        """A 512-row batch grows the memo by at most ``8 * width + 160``
        bytes per entry: key, value and dict slot, measured with
        tracemalloc on an engine whose solver structures are warm."""
        from repro.experiments.setup import paper_benchmark_suite

        graph = paper_benchmark_suite(seed=2007, application_count=10).graphs[0]
        width = len(graph.actor_names)
        base = [graph.execution_time(name) for name in graph.actor_names]
        rng = random.Random(24)

        def rows(count):
            return [[t * (1.0 + rng.random()) for t in base] for _ in range(count)]

        engine = AnalysisEngine(graph)
        engine.period_for(rows(64))
        engine.cache_clear()
        batch = rows(512)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.period_for(batch)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = len(engine._cache) + len(engine._batch_cache)
        assert entries == 512
        assert grown / entries <= 8 * width + 160
