"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the gated end-to-end metrics with the program
untouched.  ``--trace 1`` wraps each layer's public functions from this
directory, prints the per-layer table and writes the spans as
Chrome-trace JSON under ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "validate", "serve")

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("period_error_pct", "%"),
)


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent.parent != source.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    return repro


def _environment(repro) -> dict:
    import numpy

    from repro.telemetry import telemetry_enabled

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "backend": repro.get_backend().name,
        "telemetry": telemetry_enabled(),
    }


#: Traced/untraced pairs of the fixed op behind ``trace.overhead_pct``.
OVERHEAD_PAIRS = 10


def _overhead_pct(ctx, op) -> float:
    """Median traced/untraced time of a fixed op, alternating order."""
    ratios = []
    for index in range(OVERHEAD_PAIRS):
        times = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            ctx.log.enabled = traced
            before = ctx.host.sample()
            started = time.perf_counter()
            op()
            elapsed = time.perf_counter() - started
            after = ctx.host.sample()
            times[traced] = elapsed * ctx.host.scale_between(before, after)
        ratios.append(times[True] / times[False])
    ctx.log.enabled = True
    return (statistics.median(ratios) - 1.0) * 100.0


def _end_to_end(ctx) -> dict:
    from figures import peak_rss_mb

    setup, setup_raw = ctx.setup_s()
    throughput, throughput_raw = ctx.throughput_per_s()
    latency = ctx.latency_figures()
    return {
        "setup_s": (setup, setup_raw),
        "peak_rss_mb": (ctx.rss_mb if ctx.rss_mb is not None else peak_rss_mb(), None),
        "ok_ratio": ((ctx.attempted - ctx.failed) / ctx.attempted, None),
        "throughput_per_s": (throughput, throughput_raw),
        "latency_p50_ms": (latency["p50"], latency["p50_raw"]),
        "latency_tail_ms": (latency["tail"], latency["tail_raw"]),
        "period_error_pct": (ctx.period_error_pct(), None),
    }, latency


def _per_layer(ctx, figures: dict) -> dict:
    """Every per-layer metric; layers a workload does not run read 0."""
    from spans import LAYERS, attribute, build_ms

    split = attribute(ctx.log, ctx.extra.get("ops_from", -float("inf")))
    counts = ctx.counts
    rows = counts.get("engine_solves", 0)
    queries = counts.get("memo_queries", 0)
    fallbacks = counts.get("howard_fallbacks", 0)
    solve_calls = split.calls.get("sdf.mcm.solve_many", 0) + split.calls.get(
        "sdf.mcm.solve", 0
    )
    sim_ms = split.layer_ms.get("simulation", 0.0)
    sim_events = ctx.extra.get("des_events_all", 0)
    layer = {
        "host.ref_ms": (ctx.host.median_ms(), "ms"),
        "setup_s.raw": (figures["setup_s"][1], "s"),
        "throughput_per_s.raw": (figures["throughput_per_s"][1], "1/s"),
        "latency_p50_ms.raw": (figures["latency_p50_ms"][1], "ms"),
        "latency_tail_ms.raw": (figures["latency_tail_ms"][1], "ms"),
        "trace.op_ms": (split.op_ms / split.ops, "ms"),
        "unattributed_ms": (split.unattributed_ms / split.ops, "ms"),
        "trace.overhead_pct": (ctx.overhead_pct, "%"),
        "core.self_ms": (split.per_op("core"), "ms"),
        "core.waiting.ms": (split.per_op("core.waiting"), "ms"),
        "analysis_engine.self_ms": (split.per_op("analysis_engine"), "ms"),
        "analysis_engine.memo_hit_ratio": (
            counts.get("memo_hits", 0) / queries if queries else 0.0,
            "ratio",
        ),
        "analysis_engine.build_ms": (
            build_ms(ctx.log, ctx.setup_windows) / max(len(ctx.setups), 1),
            "ms",
        ),
        "sdf.mcm.self_ms": (split.per_op("sdf.mcm"), "ms"),
        "sdf.mcm.rows": (rows, "count"),
        "sdf.mcm.howard_rows": (fallbacks, "count"),
        "sdf.mcm.certified_ratio": (1.0 - fallbacks / rows if rows else 0.0, "ratio"),
        "sdf.mcm.rows_per_call": (
            split.rows.get("sdf.mcm", 0) / solve_calls if solve_calls else 0.0,
            "rows",
        ),
        "simulation.self_ms": (split.per_op("simulation"), "ms"),
        "simulation.events": (counts.get("des_events", 0), "count"),
        "simulation.us_per_event": (
            sim_ms * 1e3 / sim_events if sim_events else 0.0,
            "us",
        ),
        "simulation.stale_events": (counts.get("des_stale_events", 0), "count"),
        "service.protocol.ms": (split.per_op("service.protocol"), "ms"),
        "service.hashring.ms": (split.per_op("service.hashring"), "ms"),
        "service.cache.ms": (split.per_op("service.cache"), "ms"),
        "service.cache.hit_ratio": (0.0, "ratio"),
        "service.server.batches": (0, "count"),
        "service.server.mean_batch": (0.0, "queries"),
        "service.server.queue_wait_mean_ms": (0.0, "ms"),
        "service.router.forwarded": (0, "count"),
        "service.router.retries": (0, "count"),
        "service.router.replications": (0, "count"),
        "service.pool.gallery_builds": (0, "count"),
        "service.pool.evictions": (0, "count"),
        "bench.gen_late_p99_ms": (0.0, "ms"),
    }
    # The served workload fills in the fleet's figures.
    layer.update(ctx.layer)
    print(f"\nper-layer self time per op ({split.ops} traced ops):")
    total = 0.0
    for name in LAYERS:
        value = split.per_op(name)
        total += value
        share = 100.0 * value * split.ops / split.op_ms if split.op_ms else 0.0
        print(f"  {name:<18} {value:10.3f} ms  {share:5.1f}%")
    unattributed = split.unattributed_ms / split.ops
    print(f"  {'unattributed':<18} {unattributed:10.3f} ms")
    print(
        f"  {'sum':<18} {total + unattributed:10.3f} ms"
        f"  vs traced op {split.op_ms / split.ops:.3f} ms"
    )
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repro = _import_program()
    sys.path.insert(0, str(HERE))
    from common import Run
    from spans import SpanLog, instrument

    log = None
    if args.trace:
        log = SpanLog()
        instrument(log)
    ctx = Run(args.workload, args.seed, args.seconds, log)
    environment = _environment(repro)
    workload = __import__(args.workload)
    workload.run(ctx)

    figures, latency = _end_to_end(ctx)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(
        f"ops attempted={ctx.attempted} failed={ctx.failed}; host reference "
        f"median {ctx.host.median_ms():.3f} ms over {len(ctx.host.samples_ms)} samples"
    )
    windows = latency["windows"]
    print(
        f"latency tail is p{latency['tail_percentile']:.1f} of "
        f"{latency['samples']} samples"
        if windows == 1
        else f"latency tail is the median of {windows} windows' "
        f"p{latency['tail_percentile']:.1f}, {latency['samples']} samples in all"
    )
    for name, unit in END_TO_END:
        value, raw = figures[name]
        raw_text = "" if raw is None else f"   (raw {raw:.6g})"
        print(f"  {name:<18} {value:12.6g} {unit}{raw_text}")
    print(
        "raw metrics: "
        + json.dumps({n: v[1] for n, v in figures.items() if v[1] is not None})
    )
    print("exact counts: " + json.dumps(ctx.counts, sort_keys=True))
    for note in ctx.notes:
        print(note)
    for problem in ctx.problems:
        print(f"problem: {problem}")

    if args.trace:
        if ctx.overhead_op is not None:
            ctx.overhead_pct = _overhead_pct(ctx, ctx.overhead_op)
        metrics_source = _per_layer(ctx, figures)
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        log.write_chrome_trace(trace_path)
        print(f"spans: {len(log.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics_source.items()
        }
    else:
        metrics = {
            name: {"value": figures[name][0], "unit": unit} for name, unit in END_TO_END
        }
    correct = ctx.failed == 0 and not ctx.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ctx.attempted,
                "failed": ctx.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
