"""``validate``: the paper's Table 1 loop, estimate against simulation.

Each operation takes one seeded use-case of 2-10 applications from one
of a few fixed 10-application paper suites, runs a scalar
``second_order`` estimate and a default FCFS ``Simulator.run`` of it.
The suites are fixed and the seed picks the use-cases: simulation cost
differs a lot between random suites, and a few seeded suites per run
made the figures depend on the seed more than on the program.  The simulator is
about 93% of the op time, so this is the workload that measures the
``simulation`` layer.
"""

from __future__ import annotations

import math
import random
import time

from common import Run, engine_totals

#: Master seeds of the paper suites the use-cases are drawn from: the
#: paper's own (2007) and the next three.
GALLERY_SEEDS = (2007, 2008, 2009, 2010)

#: Ops come in blocks of one use-case per (suite, size 2..10) pair; the
#: first ``WINDOW_BLOCKS`` blocks always run, and the exact counts and
#: the period error are taken over them.
WINDOW_BLOCKS = 3
SIZES = range(2, 11)


def _build():
    from repro import ProbabilisticEstimator
    from repro.experiments.setup import paper_benchmark_suite

    galleries = []
    for gallery_seed in GALLERY_SEEDS:
        suite = paper_benchmark_suite(seed=gallery_seed, application_count=10)
        estimator = ProbabilisticEstimator(
            suite.graphs, suite.mapping, waiting_model="second_order"
        )
        galleries.append((suite, estimator))
    return galleries


def _plan(seed: int, names):
    """Endless blocks holding every (suite, size) pair once, shuffled.

    Period error and simulation cost grow with the number of active
    applications, so every block keeps the same mix of sizes and suites.
    """
    rng = random.Random(f"validate-plan:{seed}")
    while True:
        block = [(g, size) for g in range(len(GALLERY_SEEDS)) for size in SIZES]
        rng.shuffle(block)
        for g, size in block:
            yield g, tuple(sorted(rng.sample(names, size)))


def run(ctx: Run) -> None:
    from repro import SimulationConfig, Simulator, UseCase
    from repro.exceptions import ReproError
    from repro.telemetry import get_registry

    # Set-up is short here (about 60 ms), so many repetitions steady its
    # median cheaply: with 11 it spread 0.10-0.16 between runs.
    galleries = ctx.time_setup(_build, repeats=21)
    names = galleries[0][0].application_names
    window_ops = WINDOW_BLOCKS * len(GALLERY_SEEDS) * len(SIZES)
    registry = get_registry()
    fallbacks_start = registry.value("repro_engine_batch_fallbacks_total") or 0.0
    start_totals = engine_totals(e.engines for _, e in galleries)
    events = stale = 0

    ctx.host.warm()
    deadline = ctx.deadline()
    for index, (g, apps) in enumerate(_plan(ctx.seed, names)):
        if index >= window_ops and time.perf_counter() >= deadline:
            break
        suite, estimator = galleries[g]
        use_case = UseCase(apps)
        ctx.attempted += 1
        try:
            with ctx.op(1, request=f"validate-{index}"):
                estimate = estimator.estimate(use_case)
                simulator = Simulator(
                    use_case.select(list(suite.graphs)),
                    suite.mapping,
                    SimulationConfig(),
                )
                simulated = simulator.run()
        except ReproError as error:
            ctx.fail(f"op {index} {apps}: {error}")
            continue
        pairs = [(estimate.periods.get(app, math.nan), simulated.period_of(app)) for app in apps]
        if not all(math.isfinite(e) and math.isfinite(s) and s > 0 for e, s in pairs):
            ctx.fail(f"op {index} {apps}: non-finite period {pairs}")
            continue
        stats = simulator.stats()
        ctx.extra["des_events_all"] = (
            ctx.extra.get("des_events_all", 0) + stats.events_dispatched
        )
        if index < window_ops:
            ctx.error_pairs.extend(pairs)
            events += stats.events_dispatched
            stale += stats.stale_events
        if index == window_ops - 1:
            ctx.mark_rss()
            totals = engine_totals(e.engines for _, e in galleries)
            solves, hits, misses = (
                now - then for now, then in zip(totals, start_totals)
            )
            ctx.counts.update(
                {
                    "window_ops": window_ops,
                    "engine_solves": solves,
                    "memo_hits": hits,
                    "memo_queries": hits + misses,
                    "howard_fallbacks": (
                        registry.value("repro_engine_batch_fallbacks_total") or 0.0
                    )
                    - fallbacks_start,
                    "des_events": events,
                    "des_stale_events": stale,
                    "period_error_pct": ctx.period_error_pct(),
                }
            )
    ctx.close_ops()

    def calibration_op() -> None:
        """A fixed op on fresh engines: the traced-vs-untraced probe."""
        from repro import ProbabilisticEstimator

        suite = galleries[0][0]
        everything = UseCase(names)
        ProbabilisticEstimator(
            suite.graphs, suite.mapping, waiting_model="second_order"
        ).estimate(everything)
        Simulator(list(suite.graphs), suite.mapping, SimulationConfig()).run()

    ctx.overhead_op = calibration_op
