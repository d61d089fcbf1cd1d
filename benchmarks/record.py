#!/usr/bin/env python
"""Record one point of the performance trajectory as ``BENCH_<n>.json``.

The repository asserts its speedups in benches but never *kept* them;
this recorder runs the headline measurements programmatically and
writes one machine-readable snapshot so CI (nightly + on demand, see
``.github/workflows/perf.yml``) accumulates a history that can be
plotted and diffed across PRs:

* ``incremental_sweep`` — cold re-expansion vs. warm engines on the
  exhaustive use-case sweep (PR 1's claim);
* ``vectorized_sweep`` — scalar incremental vs. NumPy-batched pipeline
  on the same sweep (PR 3's claim; ``null`` without numpy);
* ``batched_fixed_point_sweep`` — scalar vs. mask-batched fixed-point
  refinement (``iterations > 1``) on the same sweep (PR 6's claim);
* ``sweep_memo`` — entries and tracemalloc bytes per entry of the
  response-time memos after one default exhaustive sweep;
* ``runtime.decisions_per_second`` — resource-manager decision rate
  over a replayed scenario trace (PR 2's claim);
* ``service`` — queries/sec and latency percentiles of the
  micro-batching estimation server under the seeded load generator
  (PR 4's claim);
* ``fleet`` — queries/sec and latency percentiles of the sharded
  serving topology: 2 estimation-server shards behind the
  consistent-hash router, each shard running a multiprocess solver
  pool, driven by a bursty open-loop storm of multiplexed clients
  (PR 8's claim);
* ``search`` — placement-search exhaustive scan: batched candidate
  evaluation vs the per-candidate scalar baseline, plus the greedy
  walk's evaluated-candidate count (PR 9's claim);
* ``simulation.fastcore_speedup`` — the SoA fast stepping loop vs. the
  reference event loop, blended across arbitration policies on
  conformance-recipe scenarios (PR 6's claim);
* ``telemetry`` — registry-derived observability counters of a cached
  service run: result-cache hit rate, micro-batch size histogram,
  engine fallback counters, and the full merged metrics snapshot
  (PR 7's layer).

Every snapshot leads with a ``header`` block carrying the schema
version, so downstream tooling can dispatch on ``header.schema``
instead of sniffing keys.  Measurement sections are independent:
a bench that cannot run (missing optional dependency, perturbed
runner) records ``null`` and an entry in ``header.errors`` rather
than losing the whole trajectory point.

Usage::

    PYTHONPATH=src python benchmarks/record.py             # auto index
    PYTHONPATH=src python benchmarks/record.py --fast      # CI smoke
    PYTHONPATH=src python benchmarks/record.py --index 123 \
        --output-dir bench-history
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

#: Bump when the JSON layout changes shape (not when a new optional
#: section is added — absent/null sections are part of the contract).
#: 1: flat ``schema`` field, all sections mandatory.
#: 2: ``header`` block (schema/python/backend/fast/errors), sections
#:    individually fault-tolerant, ``simulation`` section and
#:    ``speedups.batched_fixed_point_sweep`` added.
#: 3: ``telemetry`` section — registry-derived result-cache hit rate,
#:    micro-batch size histogram, engine fallback/fixed-point counters,
#:    plus the full merged metrics snapshot of a cached service run.
#: 4: ``fleet`` section — qps and latency percentiles of the sharded
#:    topology (2 shards behind the consistent-hash router, each with
#:    a multiprocess solver pool) under a bursty open-loop storm.
#: 5: ``search`` section — placement-search exhaustive-scan timings:
#:    batched candidate evaluation vs the per-candidate scalar
#:    baseline, plus the greedy walk's evaluated-candidate count.
#: 6: ``fleet.router_batching`` — the same fan-in storm through the
#:    router with micro-batching off vs. on (one framed
#:    ``estimate_batch`` per shard hop), recording qps / p99 for both
#:    runs plus the speedup and p99 reduction.
#: 7: ``fleet.router_batching`` records the default router (which
#:    always coalesces) on that storm: qps, p99, errors and hops per
#:    query.  The window sweep and its speedup fields are gone.
#: 8: ``speedups.sweep_memo`` — the response-time memo of one default
#:    exhaustive sweep: entry count and tracemalloc bytes per entry.
SCHEMA_VERSION = 8


def _measure_sweeps(fast: bool) -> Dict[str, object]:
    from repro.core.estimator import ProbabilisticEstimator
    from repro.experiments.scalability import run_sweep_speedup
    from repro.experiments.setup import paper_benchmark_suite

    applications = 4 if fast else 8
    sweep = run_sweep_speedup(application_count=applications)

    vectorized: Optional[float] = None
    batched_fixed_point: Optional[float] = None
    contention_models: Dict[str, Optional[float]] = {
        "priority_preemptive": None,
        "weighted_round_robin": None,
    }
    try:
        import numpy  # noqa: F401  (probe only)
    except ImportError:
        pass
    else:
        suite = paper_benchmark_suite(application_count=applications)
        priority_mapping = suite.mapping.with_priorities(
            {
                name: index % 3
                for index, name in enumerate(suite.application_names)
            }
        )

        def sweep_seconds(
            backend: str,
            model: str = "second_order",
            mapping=None,
            iterations: int = 1,
        ) -> float:
            estimator = ProbabilisticEstimator(
                list(suite.graphs),
                mapping=(
                    mapping if mapping is not None else suite.mapping
                ),
                waiting_model=model,
                backend=backend,
            )
            started = time.perf_counter()
            estimator.sweep_all_sizes(
                samples_per_size=None, iterations=iterations
            )
            return time.perf_counter() - started

        vectorized = round(
            sweep_seconds("python") / sweep_seconds("numpy"), 3
        )
        # PR 6: fixed-point refinement batched across the whole
        # use-case batch with a per-row convergence mask.
        refinements = 3 if fast else 4
        batched_fixed_point = round(
            sweep_seconds("python", iterations=refinements)
            / sweep_seconds("numpy", iterations=refinements),
            3,
        )
        for model in contention_models:
            contention_models[model] = round(
                sweep_seconds("python", model, priority_mapping)
                / sweep_seconds("numpy", model, priority_mapping),
                3,
            )

    return {
        "incremental_sweep": round(sweep.speedup, 3),
        "vectorized_sweep": vectorized,
        "batched_fixed_point_sweep": batched_fixed_point,
        # PR 5: the registry-shipped contention models on the same
        # exhaustive sweep (None without numpy).
        "vectorized_sweep_contention_models": contention_models,
        "sweep_memo": _measure_sweep_memo(applications),
    }


def _measure_sweep_memo(applications: int) -> Dict[str, object]:
    """Entries and bytes per entry of the response-time memos after
    one default exhaustive ``second_order`` sweep.

    A first sweep warms the engines' solver structures and the
    estimator's batch layout; the memos are then cleared and the traced
    growth of a second, identical sweep (results dropped) is divided by
    the entries it left behind.
    """
    import gc
    import tracemalloc

    from repro.analysis_engine import build_engines
    from repro.core.estimator import ProbabilisticEstimator
    from repro.experiments.setup import paper_benchmark_suite
    from repro.platform.usecase import all_use_cases

    suite = paper_benchmark_suite(application_count=applications)
    engines = build_engines(suite.graphs)
    estimator = ProbabilisticEstimator(
        list(suite.graphs), mapping=suite.mapping, engines=engines
    )
    use_cases = all_use_cases(suite.application_names)
    estimator.estimate_many(use_cases)
    for engine in engines.values():
        engine.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimator.estimate_many(use_cases)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(
        len(engine._cache) + len(engine._batch_cache)
        for engine in engines.values()
    )
    return {
        "applications": applications,
        "use_cases": len(use_cases),
        "entries": entries,
        "bytes_per_entry": round(grown / entries, 1) if entries else None,
    }


def _measure_simulation(fast: bool) -> Dict[str, object]:
    """Blended speedup of ``Simulator.run`` (the SoA fast core) over
    the reference loop ``Simulator._run_reference`` on
    conformance-recipe scenarios."""
    from repro.conformance import generate_scenarios
    from repro.experiments.setup import paper_benchmark_suite
    from repro.simulation.engine import SimulationConfig, Simulator

    policies = (
        "fcfs",
        "round_robin",
        "weighted_round_robin",
        "priority",
        "priority_preemptive",
    )
    scenarios = generate_scenarios(
        application_count=4, count=2 if fast else 5
    )
    suites = {
        seed: paper_benchmark_suite(seed=seed, application_count=4)
        for seed in {s.gallery_seed for s in scenarios}
    }
    target = 150 if fast else 400

    def batch_seconds(policy: str, reference: bool) -> float:
        simulators = []
        for scenario in scenarios:
            suite = suites[scenario.gallery_seed]
            graphs = [suite.graph(name) for name in scenario.use_case]
            mapping = suite.mapping.with_priorities(
                dict(scenario.priorities)
            )
            params = (
                {"weights": dict(scenario.weights)}
                if policy == "weighted_round_robin"
                else None
            )
            simulators.append(
                Simulator(
                    graphs,
                    mapping=mapping,
                    config=SimulationConfig(
                        target_iterations=target,
                        arbitration=policy,
                        arbitration_params=params,
                    ),
                )
            )
        started = time.perf_counter()
        for simulator in simulators:
            if reference:
                simulator._run_reference()
            else:
                simulator.run()
        return time.perf_counter() - started

    reference_total = 0.0
    fast_total = 0.0
    per_policy = {}
    for policy in policies:
        reference = batch_seconds(policy, reference=True)
        quick = batch_seconds(policy, reference=False)
        reference_total += reference
        fast_total += quick
        per_policy[policy] = round(reference / quick, 3)

    return {
        "fastcore_speedup": round(reference_total / fast_total, 3),
        "fastcore_speedup_per_policy": per_policy,
        "scenarios": len(scenarios),
        "target_iterations": target,
    }


def _measure_runtime(fast: bool) -> Dict[str, object]:
    from repro.experiments.runtime_throughput import (
        run_runtime_throughput,
    )
    from repro.experiments.setup import paper_benchmark_suite
    from repro.runtime.manager import gallery_from_graphs

    runtime_suite = paper_benchmark_suite(application_count=4)
    throughput = run_runtime_throughput(
        gallery_from_graphs(list(runtime_suite.graphs)),
        mapping=runtime_suite.mapping,
        loads=(1.0, 2.0) if fast else (0.5, 1.0, 2.0, 4.0),
        events=120 if fast else 400,
        policy="downgrade-greedy",
    )
    return {
        "decisions_per_second": round(
            throughput.decisions_per_second, 1
        ),
        "admission_ratio_at_max_load": round(
            throughput.points[-1].admission_ratio, 4
        ),
    }


def _measure_service(fast: bool) -> Dict[str, object]:
    from repro.experiments.service_load import LoadConfig, run_load
    from repro.runtime.service import GallerySpec

    load = run_load(
        LoadConfig(
            clients=4 if fast else 16,
            queries_per_client=8 if fast else 32,
            gallery=GallerySpec(application_count=4 if fast else 8),
            cache_entries=0,
        )
    )
    return {
        "queries_per_second": round(load.queries_per_second, 1),
        "latency_p50_ms": round(load.latency_p50_ms, 3),
        "latency_p90_ms": round(load.latency_p90_ms, 3),
        "latency_p99_ms": round(load.latency_p99_ms, 3),
        "mean_batch": round(load.mean_batch, 2),
        "errors": load.errors,
    }


def _measure_fleet(fast: bool) -> Dict[str, object]:
    """The sharded topology end to end: router + per-shard pools.

    Open-loop (bursty) so the rate probes the fleet rather than the
    clients' round-trip; many logical clients multiplex over a few
    pipelined sockets, the pattern real frontends produce.
    """
    import os

    from repro.experiments.service_load import LoadConfig, run_load
    from repro.runtime.service import GallerySpec

    load = run_load(
        LoadConfig(
            clients=64 if fast else 1024,
            queries_per_client=2 if fast else 4,
            connections=8 if fast else 32,
            shards=2,
            solver_workers=min(os.cpu_count() or 1, 2),
            arrival="bursty",
            mean_interarrival_ms=1.0,
            gallery=GallerySpec(application_count=4 if fast else 8),
        )
    )
    # The router micro-batcher on the fan-in pattern it was built
    # for: many logical clients over a few sockets hammering a small
    # gallery set, so same-gallery queries coalesce into one framed
    # ``estimate_batch`` per shard hop.
    fan_in = run_load(
        LoadConfig(
            clients=64 if fast else 256,
            queries_per_client=2 if fast else 4,
            connections=8,
            shards=2,
            arrival="bursty",
            mean_interarrival_ms=0.5,
            gallery=GallerySpec(application_count=4),
        )
    )
    assert fan_in.router is not None
    hops = int(fan_in.router["batches"])  # type: ignore[call-overload]
    return {
        "shards": load.shards,
        "solver_workers_per_shard": load.workers,
        "clients": load.config.clients,
        "connections": load.config.connections,
        "arrival": load.config.arrival,
        "queries_per_second": round(load.queries_per_second, 1),
        "latency_p50_ms": round(load.latency_p50_ms, 3),
        "latency_p90_ms": round(load.latency_p90_ms, 3),
        "latency_p99_ms": round(load.latency_p99_ms, 3),
        "mean_batch": round(load.mean_batch, 2),
        "errors": load.errors,
        "shed": load.shed,
        "router_retries": load.retries,
        "router_batching": {
            "queries_per_second": round(fan_in.queries_per_second, 1),
            "latency_p99_ms": round(fan_in.latency_p99_ms, 3),
            "errors": fan_in.errors,
            "hops_per_query": round(hops / fan_in.queries, 3),
        },
    }


def _measure_search(fast: bool) -> Dict[str, object]:
    """Placement search: batched scan vs per-candidate scalar.

    The exhaustive strategy evaluates the whole candidate space in
    batches through the array pipeline; the baseline composes one
    scalar :class:`ProbabilisticEstimator` per candidate.  Also records
    how few candidates the greedy walk needs on the same space, since
    that is the default ``repro place`` path.
    """
    from repro.core.estimator import ProbabilisticEstimator
    from repro.experiments.setup import paper_benchmark_suite
    from repro.search import (
        CandidateEvaluator,
        Constraint,
        Objective,
        SearchSpace,
        StrategyOptions,
        derive_targets,
        run_strategy,
    )

    applications = 3 if fast else 5
    suite = paper_benchmark_suite(application_count=applications)
    space = SearchSpace(
        list(suite.graphs),
        platform=suite.platform,
        model="wrr",
        weight_choices=(1, 2),
    )
    targets = derive_targets(list(space.graphs), slack=6.0)
    objective = Objective("total_period")
    constraint = Constraint(targets)
    candidates = list(space.candidates())

    started = time.perf_counter()
    for candidate in candidates:
        ProbabilisticEstimator(
            list(space.graphs),
            mapping=space.mapping_of(candidate),
            waiting_model=space.model_of(candidate),
            backend="python",
        ).estimate()
    scalar_seconds = time.perf_counter() - started

    evaluator = CandidateEvaluator(
        space, objective=objective, constraint=constraint
    )
    started = time.perf_counter()
    evaluator.evaluate(candidates)
    batched_seconds = time.perf_counter() - started

    greedy = run_strategy(
        "greedy",
        space,
        CandidateEvaluator(
            space, objective=objective, constraint=constraint
        ),
        StrategyOptions(seed=0),
    )
    return {
        "applications": applications,
        "candidates": space.size,
        "scalar_scan_seconds": round(scalar_seconds, 4),
        "batched_scan_seconds": round(batched_seconds, 4),
        "batched_scan_speedup": round(scalar_seconds / batched_seconds, 2),
        "greedy_evaluated": greedy.evaluated,
        "greedy_feasible": bool(
            greedy.best is not None and greedy.best.feasible
        ),
    }


def _sum_samples(
    snapshot: Dict[str, object], name: str, key: str = "value"
) -> float:
    """Sum one field over every sample of a snapshot family (0 when the
    family never came to life in this process)."""
    entry = snapshot.get(name)
    if not isinstance(entry, dict):
        return 0.0
    total = 0.0
    for sample in entry.get("samples", ()):  # type: ignore[union-attr]
        total += float(sample.get(key, 0.0))
    return total


def _measure_telemetry(fast: bool) -> Dict[str, object]:
    """Registry-derived counters of one cached service run.

    Unlike the throughput-oriented ``service`` section (which disables
    the result cache to measure raw solve rate), this run keeps the
    cache on so the snapshot shows the hit rates and batch shapes an
    operator would scrape in production.  The merged snapshot also
    carries the process-global engine/estimator counters accumulated by
    the sections that ran before it — the point of a trajectory record.
    """
    from repro.experiments.service_load import LoadConfig, run_load
    from repro.runtime.service import GallerySpec

    load = run_load(
        LoadConfig(
            clients=4,
            queries_per_client=8,
            gallery=GallerySpec(application_count=4),
        )
    )
    snapshot = load.telemetry
    hits = _sum_samples(snapshot, "repro_result_cache_hits_total")
    misses = _sum_samples(snapshot, "repro_result_cache_misses_total")
    lookups = hits + misses
    batch_entry = snapshot.get("repro_service_batch_size", {})
    batch_samples = (
        batch_entry.get("samples", [])  # type: ignore[union-attr]
        if isinstance(batch_entry, dict)
        else []
    )
    batch_size = dict(batch_samples[0]) if batch_samples else None
    if batch_size is not None:
        batch_size.pop("labels", None)
    return {
        "result_cache": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": round(hits / lookups, 4) if lookups else None,
        },
        "batch_size": batch_size,
        "fallbacks": {
            "engine_batch_fallbacks": int(
                _sum_samples(snapshot, "repro_engine_batch_fallbacks_total")
            ),
            "estimator_fixed_point_passes": int(
                _sum_samples(
                    snapshot, "repro_estimator_fixed_point_passes_total"
                )
            ),
        },
        "snapshot": snapshot,
    }


#: Section name -> measurement callable.  Sections run independently;
#: one failing (or an optional dependency missing deeper than its own
#: probe) must not cost the rest of the snapshot.
SECTIONS: Dict[str, Callable[[bool], object]] = {
    "speedups": _measure_sweeps,
    "simulation": _measure_simulation,
    "runtime": _measure_runtime,
    "service": _measure_service,
    "fleet": _measure_fleet,
    "search": _measure_search,
    "telemetry": _measure_telemetry,
}


def _collect(fast: bool) -> Dict[str, object]:
    from repro.backend import get_backend

    errors: Dict[str, str] = {}
    record: Dict[str, object] = {
        "header": {
            "schema": SCHEMA_VERSION,
            "tool": "benchmarks/record.py",
            "fast": fast,
            "python": platform.python_version(),
            "backend": get_backend().name,
            "errors": errors,
        },
    }
    for name, measure in SECTIONS.items():
        try:
            record[name] = measure(fast)
        except Exception as error:  # noqa: BLE001 — tolerance is the point
            record[name] = None
            errors[name] = f"{type(error).__name__}: {error}"
            print(
                f"warning: section {name!r} failed: {errors[name]}",
                file=sys.stderr,
            )
    return record


def _next_index(directory: Path) -> int:
    """1 + the largest recorded index (0 for an empty history)."""
    best = -1
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            best = max(best, int(match.group(1)))
    return best + 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="record one BENCH_<n>.json perf-trajectory point"
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="where BENCH_<n>.json lands (default: the repo root)",
    )
    parser.add_argument(
        "--index",
        type=int,
        default=None,
        help=(
            "trajectory index n (default: 1 + the largest index "
            "already recorded in --output-dir; CI passes its run "
            "number)"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke scale: smaller galleries, fewer events/queries",
    )
    arguments = parser.parse_args(argv)

    record = _collect(fast=arguments.fast)
    directory = arguments.output_dir
    directory.mkdir(parents=True, exist_ok=True)
    index = (arguments.index if arguments.index is not None else _next_index(directory))
    record["header"]["index"] = index
    path = directory / f"BENCH_{index}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"recorded {path}")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
