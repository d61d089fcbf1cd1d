"""Batched MCR answers pinned bit for bit.

``IncrementalMCRSolver.solve_many`` certifies remembered critical
cycles against a whole batch of weight vectors and solves only the
uncertified rows with Howard.  The parity suites bound its answers
within 1e-9 relative; this file pins the exact bits and the split
between certified and re-solved rows.

The fixture ``tests/goldens/solve_many.json`` holds, per application of
``paper_benchmark_suite(seed=2007, application_count=10)``, the periods
``AnalysisEngine.period_for`` returns on the numpy backend (as
``float.hex``) for the response-time vectors of a seeded
``second_order`` sweep, plus the solver's ``batch_accepted`` and
``batch_fallbacks`` counters.  Each fresh engine is fed twice: the
first half of its vectors with three of them repeated (one solve serves
each repeat), then all of them, so the second call reads the batch memo
for the first half and solves the rest.

Regeneration (after an *intentional* numeric change)::

    PYTHONPATH=src python -m pytest tests/test_solve_many_golden.py \
        --update-goldens

then review the fixture diff before committing.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.analysis_engine import AnalysisEngine
from repro.backend import numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import all_use_cases

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

GOLDEN = Path(__file__).parent / "goldens" / "solve_many.json"

SEED = 2007
#: Use-cases drawn from the gallery's 1023; each application sees
#: roughly half of them.
SAMPLE = 160


def _response_vectors(suite) -> dict:
    """Per application, its response-time vector in each sampled
    use-case that contains it (``actor_names`` order)."""
    names = [g.name for g in suite.graphs]
    use_cases = random.Random(SEED).sample(all_use_cases(names), SAMPLE)
    estimator = ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model="second_order",
        backend="numpy",
    )
    results = estimator.estimate_many(use_cases)
    return {
        graph.name: [
            [result.response_times[(graph.name, a)] for a in graph.actor_names]
            for result in results
            if graph.name in result.use_case
        ]
        for graph in suite.graphs
    }


def _answers() -> dict:
    suite = paper_benchmark_suite(seed=SEED, application_count=10)
    vectors = _response_vectors(suite)
    answers: dict = {}
    for graph in suite.graphs:
        rows = vectors[graph.name]
        engine = AnalysisEngine(graph)
        head = rows[: len(rows) // 2]
        first = engine.period_for(head + head[:3], "numpy")
        second = engine.period_for(rows, "numpy")
        solver = engine._solver
        answers[graph.name] = {
            "rows": len(rows),
            "first": [value.hex() for value in first],
            "second": [value.hex() for value in second],
            "batch_accepted": solver.batch_accepted,
            "batch_fallbacks": solver.batch_fallbacks,
            "solves": engine.stats.solves,
            "cache_hits": engine.stats.cache_hits,
        }
    return answers


def test_solve_many_matches_golden_bit_for_bit(update_goldens):
    actual = _answers()
    if update_goldens:
        GOLDEN.write_text(json.dumps(actual, indent=1) + "\n")
        pytest.skip("golden regenerated")
    golden = json.loads(GOLDEN.read_text())
    assert list(actual) == list(golden)
    for app, want in golden.items():
        assert actual[app] == want, app
    # The fixture must exercise both outcomes of certification.
    assert sum(a["batch_accepted"] for a in golden.values()) > 0
    assert sum(a["batch_fallbacks"] for a in golden.values()) > 0
