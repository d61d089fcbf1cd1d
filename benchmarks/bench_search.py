"""Placement-search bench: batched evaluation must pay for itself.

The search layer's whole premise is that one strategy step evaluates a
*batch* of candidates through the array pipeline — one waiting-kernel
pass per processor and one :meth:`AnalysisEngine.period_for` call per
application spanning the batch — instead of composing a fresh
per-candidate :class:`ProbabilisticEstimator` and solving candidates
one by one.  This bench measures exactly that ratio on an exhaustive
scan and enforces the acceptance bar (>= 2x locally; CI smoke
overrides via ``REPRO_BENCH_MIN_SPEEDUP_SEARCH`` because one-shot
wall-clock ratios are noisy on shared runners).
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import SMOKE, report
from repro.backend import BATCH_MIN_ROWS
from repro.core.estimator import ProbabilisticEstimator
from repro.experiments.setup import paper_benchmark_suite
from repro.search import (
    CandidateEvaluator,
    Constraint,
    Objective,
    SearchSpace,
    derive_targets,
)

pytest.importorskip("numpy")

#: Batched-vs-scalar speedup the exhaustive scan must clear.
MIN_SPEEDUP_SEARCH = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_SEARCH", "2.0")
)

APPLICATIONS = 3 if SMOKE else 5


def build_space() -> SearchSpace:
    suite = paper_benchmark_suite(application_count=APPLICATIONS)
    return SearchSpace(
        list(suite.graphs),
        platform=suite.platform,
        model="wrr",
        weight_choices=(1, 2),
    )


def scan_batched(space: SearchSpace) -> float:
    """Exhaustive scan through the batched evaluator; returns seconds."""
    targets = derive_targets(list(space.graphs), slack=6.0)
    evaluator = CandidateEvaluator(
        space,
        objective=Objective("total_period"),
        constraint=Constraint(targets),
    )
    candidates = list(space.candidates())
    started = time.perf_counter()
    evaluated = evaluator.evaluate(candidates)
    elapsed = time.perf_counter() - started
    assert len(evaluated) == space.size
    return elapsed


def scan_scalar(space: SearchSpace) -> float:
    """The pre-search-layer baseline: one scalar estimator per
    candidate (fresh composition, per-application scalar solves)."""
    candidates = list(space.candidates())
    started = time.perf_counter()
    for candidate in candidates:
        estimator = ProbabilisticEstimator(
            list(space.graphs),
            mapping=space.mapping_of(candidate),
            waiting_model=space.model_of(candidate),
            backend="python",
        )
        estimator.estimate()
    elapsed = time.perf_counter() - started
    return elapsed


def test_batched_scan_beats_per_candidate_scalar(benchmark):
    space = build_space()
    # Parity first: the speed claim is worthless if answers drift.
    targets = derive_targets(list(space.graphs), slack=6.0)
    evaluator = CandidateEvaluator(
        space,
        objective=Objective("total_period"),
        constraint=Constraint(targets),
    )
    # Enough candidates for the batched solve path.
    probe = list(space.candidates())[:BATCH_MIN_ROWS]
    for item in evaluator.evaluate(probe):
        reference = ProbabilisticEstimator(
            list(space.graphs),
            mapping=space.mapping_of(item.candidate),
            waiting_model=space.model_of(item.candidate),
            backend="python",
        ).estimate()
        assert item.periods == reference.periods

    scalar_seconds = scan_scalar(space)
    batched_seconds = benchmark.pedantic(
        lambda: scan_batched(space), rounds=1, iterations=1
    )
    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["candidates"] = space.size
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    lines = [
        "placement search: exhaustive scan, batched vs per-candidate scalar",
        f"applications        : {APPLICATIONS}",
        f"candidates          : {space.size}",
        f"scalar scan [s]     : {scalar_seconds:.4f}",
        f"batched scan [s]    : {batched_seconds:.4f}",
        f"speedup             : {speedup:.2f}x "
        f"(required >= {MIN_SPEEDUP_SEARCH}x)",
    ]
    report("search_batching", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP_SEARCH, (
        f"batched candidate evaluation only {speedup:.2f}x faster than "
        f"the per-candidate scalar baseline "
        f"(required {MIN_SPEEDUP_SEARCH}x)"
    )
