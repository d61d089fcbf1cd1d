"""``sweep``: the paper's design-space exploration.

Set-up generates paper-style 10-application galleries, one shared
engine set per gallery and one estimator per Table 1 method on top of
it (the README's headline workflow).  The galleries and the order of
the work are fixed (the paper's suite and its successors) and the seed
picks the use-cases that are checked and simulated: estimation cost
differs between random galleries, and between method orders, far more
than the host's noise, and seeding them made the timings depend on the
seed rather than on the program.  One operation is an exhaustive
``estimate_many`` over all 1023 use-cases for one (gallery, method)
pair; no pair repeats within a run.  Nearly all the time is spent in
``core``, ``analysis_engine`` and ``sdf.mcm`` on 1023-row batches.
"""

from __future__ import annotations

import random
import time

from common import (
    TABLE1_MODELS,
    Run,
    engine_totals,
    simulate_periods,
    stratified_use_cases,
)

#: Galleries built at set-up: 4 methods each, more pairs than the
#: fastest expected host finishes within one run.  Gallery ``i`` is the
#: paper suite with master seed ``2007 + i``.
GALLERIES = 48
FIRST_GALLERY_SEED = 2007

#: The first ``WINDOW_GALLERIES`` galleries' pairs always run; the exact
#: work counts and the period error are taken over them.
WINDOW_GALLERIES = 12

#: Use-cases of each size (2..10) per window gallery simulated for the
#: period error.  Its spread between seeds comes mostly from the
#: galleries, hence a wide window and one use-case per size.
DES_PER_SIZE = 1

#: Use-cases of each operation compared against the python backend.
CHECKS_PER_OP = 3


def _build():
    from repro import ProbabilisticEstimator, build_engines
    from repro.experiments.setup import paper_benchmark_suite

    galleries = []
    for index in range(GALLERIES):
        gallery_seed = FIRST_GALLERY_SEED + index
        suite = paper_benchmark_suite(seed=gallery_seed, application_count=10)
        engines = build_engines(suite.graphs)
        estimators = {
            model: ProbabilisticEstimator(
                suite.graphs, suite.mapping, waiting_model=model, engines=engines
            )
            for model in TABLE1_MODELS
        }
        galleries.append((suite, engines, estimators))
    return galleries


def _plan():
    """Galleries in order, each gallery's four methods in Table 1 order.

    Every prefix of the plan holds the methods in equal shares, and each
    gallery's engines see their methods back to back, as in the headline
    workflow.  The order is the same for every seed: the first method on
    a gallery pays the cold solves its successors then find memoised, so
    a seeded order moved the median op time between seeds by more than
    the host's noise.
    """
    return [(g, m) for g in range(GALLERIES) for m in TABLE1_MODELS]


def run(ctx: Run) -> None:
    from repro import ProbabilisticEstimator, UseCase, all_use_cases, build_engines
    from repro.exceptions import ReproError
    from repro.telemetry import get_registry

    galleries = ctx.time_setup(_build, repeats=5)
    names = galleries[0][0].application_names
    use_cases = all_use_cases(names)
    plan = _plan()
    window_ops = WINDOW_GALLERIES * len(TABLE1_MODELS)
    check_rng = random.Random(f"sweep-check:{ctx.seed}")
    references = {}
    registry = get_registry()
    fallbacks_start = registry.value("repro_engine_batch_fallbacks_total") or 0.0
    start_totals = engine_totals(e for _, e, _ in galleries)
    window_results = {}

    ctx.host.warm()
    deadline = ctx.deadline()
    for index, (g, model) in enumerate(plan):
        if index >= window_ops and time.perf_counter() >= deadline:
            break
        suite, _, estimators = galleries[g]
        ctx.attempted += 1
        try:
            with ctx.op(len(use_cases), request=f"sweep-{index}"):
                results = estimators[model].estimate_many(use_cases)
        except ReproError as error:
            ctx.fail(f"op {index} ({g}, {model}): {error}")
            continue
        # Output check, outside the timed region: a seeded sample of the
        # op's use-cases against the python backend's scalar estimate,
        # on engines of its own so the measured memo history is
        # untouched.
        key = (g, model)
        if key not in references:
            references[key] = ProbabilisticEstimator(
                suite.graphs, suite.mapping, waiting_model=model, backend="python"
            )
        good = len(results) == len(use_cases)
        for row in check_rng.sample(range(len(use_cases)), CHECKS_PER_OP):
            if not good:
                break
            expected = references[key].estimate(use_cases[row]).periods
            good = ctx.check_periods(
                f"sweep op {index} row {row}", results[row].periods, expected
            )
        if not good:
            ctx.fail(f"op {index} ({g}, {model}): output check failed")
        if index < window_ops and model == "second_order":
            window_results[g] = {r.use_case.applications: r.periods for r in results}
        if index == window_ops - 1:
            totals = engine_totals(e for _, e, _ in galleries)
            solves, hits, misses = (
                now - then for now, then in zip(totals, start_totals)
            )
            fallbacks = (
                registry.value("repro_engine_batch_fallbacks_total") or 0.0
            ) - fallbacks_start
            ctx.mark_rss()
            ctx.counts.update(
                {
                    "window_ops": window_ops,
                    "engine_solves": solves,
                    "memo_hits": hits,
                    "memo_queries": hits + misses,
                    "howard_fallbacks": fallbacks,
                }
            )
    ctx.close_ops()

    # Accuracy of the paper's method on the window's galleries: a
    # stratified sample of its sweep answers against the simulator.
    sample_rng = random.Random(f"sweep-des:{ctx.seed}")
    for g in range(WINDOW_GALLERIES):
        suite = galleries[g][0]
        sample = {
            apps
            for _ in range(DES_PER_SIZE)
            for apps in stratified_use_cases(sample_rng, names, range(2, 11))
        }
        for use_case in sorted(sample):
            if g not in window_results:  # the op failed and was counted
                continue
            simulated = simulate_periods(
                suite.graphs, suite.mapping, UseCase(use_case)
            )
            estimated = window_results[g][use_case]
            ctx.error_pairs.extend(
                (estimated[app], simulated[app]) for app in use_case
            )
    ctx.counts["period_error_pct"] = ctx.period_error_pct()

    def calibration_op() -> None:
        """A fixed op on fresh engines: the traced-vs-untraced probe."""
        suite = galleries[0][0]
        estimator = ProbabilisticEstimator(
            suite.graphs,
            suite.mapping,
            waiting_model="second_order",
            engines=build_engines(suite.graphs),
        )
        estimator.estimate_many(use_cases)

    ctx.overhead_op = calibration_op
