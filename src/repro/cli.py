"""Command-line interface.

The subcommands mirror the library's workflow::

    python -m repro generate --seed 7 --json         # make a graph
    python -m repro info graph.json                  # analyze one graph
    python -m repro estimate --suite 5 --model exact # Fig.-4 estimate
    python -m repro simulate --suite 5               # reference DES run
    python -m repro sweep --suite 5 --samples 4      # mini Table 1/Fig 6
    python -m repro runtime --suite 4 --events 1000  # resource manager
    python -m repro models                           # model registry
    python -m repro conformance --suite 4            # analytic vs DES

Application sets come from the deterministic paper suite (``--suite N``
= first N of the ten seeded applications), the media gallery
(``--media``) or graph JSON files (``--file``, repeatable).  The
``sweep --estimates-only`` mode honors a persistent result store
(``--store results.jsonl``) and fans misses out over worker processes
(``--jobs 4``).  All output is plain text.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ExperimentError
from repro.experiments.accuracy import summarize_by_size, summarize_sweep
from repro.experiments.reporting import render_series, render_table
from repro.experiments.runner import SweepConfig, run_sweep
from repro.experiments.setup import BenchmarkSuite, paper_benchmark_suite
from repro.generation.gallery import media_device_suite
from repro.generation.random_sdf import GeneratorConfig, random_sdf_graph
from repro.platform.mapping import index_mapping
from repro.platform.usecase import UseCase
from repro.sdf.analysis import period as analytical_period
from repro.sdf.liveness import is_live
from repro.sdf.repetition import repetition_vector
from repro.sdf.serialization import graph_from_json, graph_to_json
from repro.sdf.visualization import to_dot
from repro.search import (
    DEFAULT_MAPPINGS,
    DEFAULT_SLACK,
    OBJECTIVES,
    STRATEGIES,
    place as run_place,
)
from repro.simulation.engine import SimulationConfig, Simulator


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    try:
        arguments.handler(arguments)
    except Exception as error:  # surface library errors as CLI errors
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Probabilistic resource-contention performance estimation "
            "(reproduction of Kumar et al., DAC 2007)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a random SDF graph"
    )
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--name", default="G")
    generate.add_argument(
        "--actors", type=int, nargs=2, metavar=("LO", "HI"),
        default=(8, 10),
    )
    generate.add_argument("--pipeline-depth", type=int, default=1)
    output = generate.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", default=True)
    output.add_argument("--dot", action="store_true")
    generate.set_defaults(handler=_cmd_generate)

    info = commands.add_parser("info", help="analyze one graph JSON file")
    info.add_argument("file", help="graph JSON (see 'generate --json')")
    info.set_defaults(handler=_cmd_info)

    for name, helptext in (
        ("estimate", "probabilistic period estimation for a use-case"),
        ("simulate", "reference discrete-event simulation of a use-case"),
    ):
        sub = commands.add_parser(name, help=helptext)
        _add_application_selection(sub)
        sub.add_argument(
            "--apps",
            help="comma-separated active applications (default: all)",
        )
        if name == "estimate":
            sub.add_argument("--model", default="second_order")
            sub.add_argument("--iterations", type=int, default=1)
            sub.set_defaults(handler=_cmd_estimate)
        else:
            sub.add_argument("--iterations", type=int, default=100)
            sub.set_defaults(handler=_cmd_simulate)

    sweep = commands.add_parser(
        "sweep", help="mini Table-1 / Figure-6 sweep"
    )
    _add_application_selection(sweep)
    sweep.add_argument(
        "--samples",
        type=int,
        default=4,
        help="use-cases sampled per size (0 = exhaustive 2^N)",
    )
    sweep.add_argument("--sim-iterations", type=int, default=40)
    sweep.add_argument(
        "--estimates-only",
        action="store_true",
        help=(
            "skip the reference simulations and batch-estimate every "
            "sampled use-case on the incremental analysis engine "
            "(--samples 0 = exhaustive 2^N)"
        ),
    )
    sweep.add_argument(
        "--model",
        default=None,
        help="waiting model for --estimates-only (default second_order)",
    )
    sweep.add_argument(
        "--iterations",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fixed-point refinement passes per estimate for "
            "--estimates-only (batched across the whole sweep with a "
            "per-row convergence mask when numpy is installed)"
        ),
    )
    sweep.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "JSON-lines result store for --estimates-only: stored "
            "use-cases are cache hits, misses are computed and "
            "appended (hit/miss counts are printed)"
        ),
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for --estimates-only misses "
            "(1 = in-process)"
        ),
    )
    sweep.set_defaults(handler=_cmd_sweep)

    runtime = commands.add_parser(
        "runtime",
        help=(
            "replay a generated scenario-event stream through the "
            "run-time resource manager"
        ),
    )
    _add_application_selection(runtime)
    runtime.add_argument("--events", type=int, default=500)
    runtime.add_argument("--seed", type=int, default=7)
    runtime.add_argument(
        "--policy",
        choices=("reject", "evict", "downgrade", "downgrade-greedy"),
        default="downgrade",
        help="QoS policy applied when a request does not fit",
    )
    runtime.add_argument(
        "--arrival",
        choices=("poisson", "bursty", "diurnal"),
        default="poisson",
    )
    runtime.add_argument(
        "--mean-interarrival",
        type=float,
        default=100.0,
        help="mean time between start requests (the load knob)",
    )
    runtime.add_argument(
        "--mean-holding",
        type=float,
        default=400.0,
        help="mean time an application stays running",
    )
    runtime.add_argument(
        "--slack",
        type=float,
        default=1.5,
        help=(
            "each application's required period = slack x its "
            "isolation period"
        ),
    )
    runtime.add_argument(
        "--validate",
        type=int,
        default=0,
        metavar="N",
        help=(
            "cross-check up to N resident-set snapshots against the "
            "discrete-event simulator"
        ),
    )
    runtime.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="write the generated trace as JSON",
    )
    runtime.add_argument(
        "--save-log",
        metavar="PATH",
        default=None,
        help="write the decision log as JSON",
    )
    runtime.set_defaults(handler=_cmd_runtime)

    placement = commands.add_parser(
        "place",
        help=(
            "search the placement space (mappings x priorities x WRR "
            "weights) for the best feasible configuration under "
            "per-application period targets"
        ),
    )
    _add_application_selection(placement)
    placement.add_argument(
        "--strategy",
        choices=tuple(sorted(STRATEGIES)),
        default="greedy",
        help="search strategy (exhaustive is the ground truth)",
    )
    placement.add_argument(
        "--model",
        default="wrr",
        help=(
            "waiting-model spec; a bare weights-capable name when "
            "--weights spans choices (the search appends each "
            "candidate's weight vector)"
        ),
    )
    placement.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="total_period",
        help="what to minimize among feasible candidates",
    )
    placement.add_argument(
        "--seed",
        type=int,
        default=0,
        help=(
            "seed of the stochastic strategies (same seed = "
            "byte-identical result JSON)"
        ),
    )
    placement.add_argument(
        "--slack",
        type=float,
        default=DEFAULT_SLACK,
        help=(
            "derived target per application = slack x its isolation "
            "period (ignored when --target is given)"
        ),
    )
    placement.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="APP=PERIOD",
        help="explicit period target (repeatable)",
    )
    placement.add_argument(
        "--mappings",
        default=",".join(DEFAULT_MAPPINGS),
        metavar="NAME[,NAME...]",
        help="mapping recipes to consider (index, spread, modulo)",
    )
    placement.add_argument(
        "--weights",
        default="1,2",
        metavar="W[,W...]",
        help=(
            "WRR slice weights to consider per application "
            "('none' disables the weight axis)"
        ),
    )
    placement.add_argument(
        "--priority-levels",
        default=None,
        metavar="P[,P...]",
        help=(
            "arbitration levels to consider per application "
            "(default: no priority axis)"
        ),
    )
    placement.add_argument(
        "--json",
        action="store_true",
        help="print the full PlacementResult JSON instead of a table",
    )
    placement.set_defaults(handler=_cmd_place)

    serve = commands.add_parser(
        "serve",
        help=(
            "long-lived estimation server: JSON-lines over TCP (or "
            "stdio), micro-batching concurrent queries onto warm "
            "engine pools"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help=(
            "serve one session over stdin/stdout instead of TCP "
            "(requests in, responses out, one JSON object per line)"
        ),
    )
    serve.add_argument("--max-batch", type=int, default=128, metavar="N")
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="queue depth that counts as overload",
    )
    serve.add_argument(
        "--shed-policy",
        choices=("reject", "evict", "downgrade"),
        default="reject",
        help=(
            "overload behaviour (runtime QoS vocabulary): reject the "
            "newcomer, evict the oldest pending query, or downgrade "
            "the newcomer to a cheaper waiting model"
        ),
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        metavar="N",
        help="LRU result-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--fixed-point-iterations",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fixed-point refinement passes per solve (server-wide; "
            "batched solves refine whole micro-batches with a "
            "per-row convergence mask)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "solver worker processes (0 = single solver thread); each "
            "worker owns a warm engine pool, galleries stick to one "
            "worker by consistent hash, large batches split across "
            "workers"
        ),
    )
    serve.add_argument(
        "--split-threshold",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --workers, batches larger than N for one gallery "
            "fan out over several workers instead of queueing on the "
            "gallery's home worker"
        ),
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "expose merged Prometheus metrics over HTTP GET /metrics "
            "on this port (0 = ephemeral; the bound address is printed)"
        ),
    )
    serve.add_argument(
        "--trace-export",
        default=None,
        metavar="PATH",
        help=(
            "on shutdown, write the session's spans as a Chrome-trace "
            "(Perfetto-loadable) JSON timeline"
        ),
    )
    serve.add_argument(
        "--span-log",
        default=None,
        metavar="PATH",
        help="stream every finished span to PATH as JSON lines",
    )
    serve.set_defaults(handler=_cmd_serve)

    route = commands.add_parser(
        "route",
        help=(
            "shard router: one JSON-lines front-end that consistent-"
            "hashes estimate queries by gallery over N running "
            "estimation-server shards, with ping health checks and "
            "idempotent failover retries"
        ),
    )
    route.add_argument(
        "--shard",
        dest="shards",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help=(
            "address of one running `repro serve` shard "
            "(repeat per shard)"
        ),
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port",
        type=int,
        default=0,
        help="front-end TCP port (0 = ephemeral; printed once bound)",
    )
    route.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help=(
            "seconds between background shard pings (down shards "
            "leave the ring, resurrected ones re-join; 0 disables)"
        ),
    )
    route.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "extra shards a query may fail over to when its home "
            "shard dies mid-request"
        ),
    )
    route.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "expose the router's merged Prometheus metrics over HTTP "
            "GET /metrics on this port (0 = ephemeral)"
        ),
    )
    route.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="N",
        help=(
            "replicate each freshly solved answer to the next N "
            "shards in ring order so shard death fails over to a "
            "warm replica instead of a cold re-solve (0 = off)"
        ),
    )
    route.add_argument(
        "--handoff-limit",
        type=int,
        default=256,
        metavar="N",
        help=(
            "cached entries handed off per gallery when a shard "
            "joins or leaves the ring"
        ),
    )
    route.add_argument(
        "--shards-file",
        default=None,
        metavar="PATH",
        help=(
            "membership file (one host:port per line, # comments); "
            "SIGHUP re-reads it and joins/leaves shards so the fleet "
            "reshapes without restarting the router (admin join/leave "
            "protocol verbs work too)"
        ),
    )
    route.set_defaults(handler=_cmd_route)

    metrics = commands.add_parser(
        "metrics",
        help=(
            "scrape a running estimation server's merged metrics "
            "(Prometheus text, or --json for the snapshot)"
        ),
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument(
        "--port", type=int, required=True, help="server TCP port"
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the JSON snapshot instead of Prometheus text",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    models = commands.add_parser(
        "models",
        help=(
            "list the registered contention models (semantics, batch "
            "support, matching DES arbiter)"
        ),
    )
    models.set_defaults(handler=_cmd_models)

    conformance = commands.add_parser(
        "conformance",
        help=(
            "check every registered model's declared semantics "
            "(conservative bound / mean tolerance) against the "
            "discrete-event simulator on seeded scenario batches"
        ),
    )
    conformance.add_argument(
        "--suite",
        type=int,
        default=4,
        metavar="N",
        help="applications per gallery (paper-style seeded galleries)",
    )
    conformance.add_argument(
        "--scenarios",
        type=int,
        default=50,
        metavar="N",
        help="seeded scenarios per model",
    )
    conformance.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master scenario seed (default: the library's)",
    )
    conformance.add_argument(
        "--models",
        default=None,
        metavar="NAME[,NAME...]",
        help="restrict to these registered models (default: all)",
    )
    conformance.add_argument(
        "--sim-iterations", type=int, default=60, metavar="N"
    )
    conformance.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the accumulated engine profile (events, stale "
            "events, preemptions, per-phase wall time) "
            "after the conformance table"
        ),
    )
    conformance.set_defaults(handler=_cmd_conformance)

    reproduce = commands.add_parser(
        "reproduce",
        help="regenerate the paper's Table 1, Figures 5-6 and timing",
    )
    reproduce.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help=(
            "quick: sampled use-cases, short simulations (seconds); "
            "paper: all 2^N use-cases, longer simulations (minutes)"
        ),
    )
    reproduce.add_argument(
        "--applications", type=int, default=10, metavar="N"
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    return parser


def _add_application_selection(sub: argparse.ArgumentParser) -> None:
    selection = sub.add_mutually_exclusive_group(required=True)
    selection.add_argument(
        "--suite",
        type=int,
        metavar="N",
        help="first N applications of the deterministic paper suite",
    )
    selection.add_argument(
        "--media",
        action="store_true",
        help="the five media-device gallery applications",
    )
    selection.add_argument(
        "--file",
        action="append",
        metavar="GRAPH.json",
        help="graph JSON file (repeatable)",
    )


def _selected_suite(arguments) -> BenchmarkSuite:
    if arguments.suite is not None:
        return paper_benchmark_suite(application_count=arguments.suite)
    if arguments.media:
        graphs = media_device_suite()
    else:
        graphs = []
        for path in arguments.file:
            with open(path) as handle:
                graphs.append(graph_from_json(handle.read()))
    mapping = index_mapping(graphs)
    return BenchmarkSuite(
        graphs=tuple(graphs),
        platform=mapping.platform,
        mapping=mapping,
        seed=0,
    )


def _selected_use_case(arguments, suite: BenchmarkSuite) -> UseCase:
    if getattr(arguments, "apps", None):
        return UseCase(tuple(arguments.apps.split(",")))
    return UseCase(suite.application_names)


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
def _cmd_generate(arguments) -> None:
    graph = random_sdf_graph(
        arguments.name,
        seed=arguments.seed,
        config=GeneratorConfig(
            actor_count_range=tuple(arguments.actors),
            pipeline_depth=arguments.pipeline_depth,
        ),
    )
    if arguments.dot:
        print(to_dot(graph))
    else:
        print(graph_to_json(graph))


def _cmd_info(arguments) -> None:
    with open(arguments.file) as handle:
        graph = graph_from_json(handle.read())
    vector = repetition_vector(graph)
    rows = [
        ["actors", len(graph)],
        ["channels", len(graph.channels)],
        ["strongly connected", graph.is_strongly_connected()],
        ["live", is_live(graph)],
        ["repetition vector", " ".join(
            f"{k}:{v}" for k, v in vector.items()
        )],
        ["period (isolation)", f"{analytical_period(graph):.2f}"],
        [
            "workload / iteration",
            "{:.0f}".format(
                sum(
                    vector[a.name] * a.execution_time
                    for a in graph.actors
                )
            ),
        ],
    ]
    print(render_table(["property", "value"], rows, title=graph.name))


def _cmd_estimate(arguments) -> None:
    suite = _selected_suite(arguments)
    use_case = _selected_use_case(arguments, suite)
    estimator = ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model=arguments.model,
    )
    result = estimator.estimate(
        use_case, iterations=arguments.iterations
    )
    rows = [
        [
            name,
            f"{result.isolation_periods[name]:.1f}",
            f"{result.periods[name]:.1f}",
            f"{result.normalized_period_of(name):.2f}",
        ]
        for name in use_case
    ]
    print(
        render_table(
            ["app", "isolation", "estimated", "inflation"],
            rows,
            title=(
                f"Estimate ({result.model_name}) for use-case "
                f"{use_case.label()}"
            ),
        )
    )


def _cmd_simulate(arguments) -> None:
    suite = _selected_suite(arguments)
    use_case = _selected_use_case(arguments, suite)
    active = use_case.select(list(suite.graphs))
    result = Simulator(
        active,
        mapping=suite.mapping,
        config=SimulationConfig(
            target_iterations=arguments.iterations
        ),
    ).run()
    rows = [
        [
            name,
            f"{result.period_of(name):.1f}",
            f"{result.worst_period_of(name):.1f}",
            result.metrics[name].iterations,
        ]
        for name in use_case
    ]
    print(
        render_table(
            ["app", "period", "worst iteration", "iterations"],
            rows,
            title=f"Simulation of use-case {use_case.label()}",
        )
    )
    busiest = sorted(
        result.processor_utilization.items(),
        key=lambda item: -item[1],
    )[:5]
    print(
        "busiest processors: "
        + ", ".join(f"{name}={value:.2f}" for name, value in busiest)
    )


def _cmd_place(arguments) -> None:
    suite = _selected_suite(arguments)
    targets = None
    if arguments.target:
        targets = {}
        for pair in arguments.target:
            app, _, raw = pair.partition("=")
            if not app or not raw:
                raise ExperimentError(
                    f"bad --target {pair!r}; expected APP=PERIOD"
                )
            targets[app] = float(raw)
    weights = None
    if arguments.weights and arguments.weights.lower() != "none":
        weights = tuple(
            int(part) for part in arguments.weights.split(",") if part
        )
    levels = None
    if arguments.priority_levels:
        levels = tuple(
            float(part)
            for part in arguments.priority_levels.split(",")
            if part
        )
    result = run_place(
        list(suite.graphs),
        platform=suite.platform,
        targets=targets,
        slack=arguments.slack,
        strategy=arguments.strategy,
        model=arguments.model,
        objective=arguments.objective,
        seed=arguments.seed,
        mappings=tuple(
            part for part in arguments.mappings.split(",") if part
        ),
        weight_choices=weights,
        priority_levels=levels,
    )
    if arguments.json:
        print(result.to_json_str())
        return
    rows = [
        [
            app,
            f"{result.best.periods[app]:.1f}",
            (
                f"{result.targets[app]:.1f}"
                if result.targets.get(app) is not None
                else "-"
            ),
            "yes" if app not in result.best.violations else "NO",
        ]
        for app in result.applications
    ]
    print(
        render_table(
            ["app", "period", "target", "meets"],
            rows,
            title=(
                f"Placement ({result.strategy}, {result.objective}) — "
                f"{'feasible' if result.feasible else 'infeasible'}"
            ),
        )
    )
    weights_text = (
        ", ".join(
            f"{app}={weight}"
            for app, weight in sorted(result.best.weights.items())
        )
        or "-"
    )
    print(
        f"best: mapping={result.best.mapping} weights=[{weights_text}] "
        f"model={result.best.model}"
    )
    print(
        f"objective value: {result.best.objective_value:.1f}; "
        f"evaluated {result.evaluated} of {result.space['size']} "
        f"candidates in {result.steps} steps"
    )


def _cmd_sweep(arguments) -> None:
    if arguments.samples < 0:
        raise ExperimentError(
            f"--samples must be >= 0 (0 = exhaustive 2^N), "
            f"got {arguments.samples}"
        )
    if arguments.estimates_only:
        _cmd_sweep_estimates_only(arguments)
        return
    suite = _selected_suite(arguments)
    for flag, default in (
        ("model", None),
        ("store", None),
        ("jobs", 1),
    ):
        if getattr(arguments, flag) != default:
            raise ExperimentError(
                f"--{flag} only applies with --estimates-only; the "
                "simulating sweep always compares all four techniques "
                "in-process"
            )
    sweep = run_sweep(
        suite,
        config=SweepConfig(
            target_iterations=arguments.sim_iterations,
            samples_per_size=(
                arguments.samples if arguments.samples > 0 else None
            ),
        ),
    )
    rows = [
        [
            summary.method,
            f"{summary.throughput_percent:.1f}",
            f"{summary.period_percent:.1f}",
        ]
        for summary in summarize_sweep(sweep)
    ]
    print(
        render_table(
            ["method", "throughput %", "period %"],
            rows,
            title=(
                f"Mean absolute inaccuracy over "
                f"{sweep.use_case_count} use-cases"
            ),
        )
    )
    by_size = summarize_by_size(sweep)
    sizes = sorted(by_size)
    series = {
        method: [
            next(
                s.period_percent
                for s in by_size[size]
                if s.method == method
            )
            for size in sizes
        ]
        for method in sweep.methods
    }
    print()
    print(
        render_series(
            "#apps",
            sizes,
            series,
            title="Period inaccuracy (%) by number of concurrent apps",
        )
    )


def _cmd_sweep_estimates_only(arguments) -> None:
    """Batched estimation sweep on the incremental analysis engine.

    Demonstrates the paper's headline workflow — sweeping every
    (sampled) use-case analytically — at engine speed: no simulations,
    one shared set of cached HSDF expansions, warm-started solves.
    With ``--store`` and/or ``--jobs`` the sweep runs through the
    :class:`~repro.runtime.service.SweepService`: stored use-cases are
    cache hits, misses fan out over worker processes.
    """
    import time as _time

    model = arguments.model or "second_order"
    samples = arguments.samples if arguments.samples > 0 else None
    if arguments.store is not None or arguments.jobs != 1:
        # The service path rebuilds the gallery from its recipe (in
        # workers, when --jobs > 1) — don't build the suite here.
        _cmd_sweep_service(arguments, model, samples)
        return
    suite = _selected_suite(arguments)
    estimator = ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model=model,
    )
    started = _time.perf_counter()
    # sweep_all_sizes and SweepConfig share DEFAULT_SWEEP_SEED, so this
    # covers the same use-cases as the simulating sweep and the two
    # commands' numbers are comparable.
    # A batched sweep builds its rows when read: build them in the timer.
    results = list(
        estimator.sweep_all_sizes(
            samples_per_size=samples, iterations=arguments.iterations
        )
    )
    elapsed = _time.perf_counter() - started

    inflations_by_size: dict = {}
    for result in results:
        inflations_by_size.setdefault(result.use_case.size, []).extend(
            result.normalized_period_of(name) for name in result.use_case
        )
    use_cases_by_size: dict = {}
    for result in results:
        use_cases_by_size[result.use_case.size] = (
            use_cases_by_size.get(result.use_case.size, 0) + 1
        )
    print(
        _render_inflation_table(
            inflations_by_size,
            use_cases_by_size,
            title=(
                f"Batched estimate ({estimator.waiting_model.name}) of "
                f"{len(results)} use-cases in {elapsed * 1e3:.0f} ms"
            ),
        )
    )


def _render_inflation_table(
    inflations_by_size: dict, use_cases_by_size: dict, title: str
) -> str:
    rows = []
    for size in sorted(inflations_by_size):
        inflations = inflations_by_size[size]
        rows.append(
            [
                size,
                use_cases_by_size[size],
                f"{sum(inflations) / len(inflations):.2f}",
                f"{max(inflations):.2f}",
            ]
        )
    return render_table(
        ["#apps", "use-cases", "mean inflation", "worst inflation"],
        rows,
        title=title,
    )


def _gallery_spec(arguments) -> "GallerySpec":
    from repro.experiments.setup import DEFAULT_SEED
    from repro.runtime.service import GallerySpec

    if arguments.suite is not None:
        return GallerySpec(
            kind="paper",
            seed=DEFAULT_SEED,
            application_count=arguments.suite,
        )
    if arguments.media:
        return GallerySpec(kind="media", application_count=5)
    raise ExperimentError(
        "--store/--jobs need a reproducible gallery: use --suite N "
        "or --media (graph files cannot be rebuilt in workers or "
        "keyed in the store)"
    )


def _cmd_sweep_service(arguments, model: str, samples) -> None:
    from repro.runtime.service import ResultStore, SweepService

    store = (
        ResultStore(arguments.store)
        if arguments.store is not None
        else None
    )
    service = SweepService(store=store, jobs=arguments.jobs)
    outcome = service.sweep(
        _gallery_spec(arguments),
        model=model,
        samples_per_size=samples,
        fixed_point_iterations=arguments.iterations,
    )
    inflations_by_size: dict = {}
    use_cases_by_size: dict = {}
    for record in outcome.results:
        size = len(record.use_case)
        inflations_by_size.setdefault(size, []).extend(
            record.periods[name] / record.isolation[name]
            for name in record.use_case
        )
        use_cases_by_size[size] = use_cases_by_size.get(size, 0) + 1
    print(
        _render_inflation_table(
            inflations_by_size,
            use_cases_by_size,
            title=(
                f"Sweep service ({model}, jobs={outcome.jobs}) over "
                f"{outcome.use_case_count} use-cases in "
                f"{outcome.elapsed_seconds * 1e3:.0f} ms"
            ),
        )
    )
    if store is not None:
        print(
            f"store {arguments.store}: {outcome.hits} hits, "
            f"{outcome.misses} misses"
        )


def _cmd_serve(arguments) -> None:
    import asyncio

    from repro.service.cache import ResultCache
    from repro.service.server import EstimationServer
    from repro.telemetry import (
        JsonLinesSpanSink,
        MetricsRegistry,
        Tracer,
        start_metrics_endpoint,
        write_chrome_trace,
    )

    async def _serve() -> None:
        registry = MetricsRegistry(enabled=True)
        tracer = Tracer()
        span_sink = None
        if arguments.span_log:
            span_sink = JsonLinesSpanSink(arguments.span_log)
            tracer.set_sink(span_sink)
        pool_options = {}
        if arguments.split_threshold is not None:
            pool_options["split_threshold"] = arguments.split_threshold
        server = EstimationServer(
            cache=ResultCache(arguments.cache_size, registry=registry),
            max_batch=arguments.max_batch,
            max_pending=arguments.max_pending,
            shed_policy=arguments.shed_policy,
            fixed_point_iterations=arguments.fixed_point_iterations,
            solver_workers=arguments.workers,
            registry=registry,
            tracer=tracer,
            **pool_options,
        )
        metrics_server = None
        try:
            if arguments.metrics_port is not None:
                metrics_server, (mhost, mport) = await start_metrics_endpoint(
                    server.render_metrics,
                    host=arguments.host,
                    port=arguments.metrics_port,
                )
                print(
                    f"metrics on http://{mhost}:{mport}/metrics", flush=True
                )
            if arguments.stdio:
                await server.serve_stdio()
                return
            host, port = await server.start(arguments.host, arguments.port)
            print(f"serving on {host}:{port}", flush=True)
            await server.wait_shutdown()
        finally:
            await server.aclose()
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            if arguments.trace_export:
                write_chrome_trace(
                    arguments.trace_export, spans=server.tracer.spans()
                )
            if span_sink is not None:
                span_sink.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


def _cmd_route(arguments) -> None:
    import asyncio
    import signal

    from repro.service.router import ShardRouter, parse_shard_address
    from repro.telemetry import start_metrics_endpoint

    def _read_shards_file(path: str):
        with open(path, "r", encoding="utf-8") as handle:
            return [
                parse_shard_address(line.strip())
                for line in handle
                if line.strip() and not line.strip().startswith("#")
            ]

    async def _reload_membership(router: "ShardRouter", path: str) -> None:
        """SIGHUP: converge the live ring onto the membership file."""
        try:
            desired = {f"{host}:{port}": (host, port)
                       for host, port in _read_shards_file(path)}
        except Exception as error:
            print(f"membership reload failed: {error}", flush=True)
            return
        current = set(router.shard_health())
        for name in sorted(current - set(desired)):
            try:
                summary = await router.leave(name)
                print(f"left shard {name}: {summary}", flush=True)
            except Exception as error:
                print(f"leave {name} failed: {error}", flush=True)
        for name in sorted(set(desired) - current):
            try:
                summary = await router.join(desired[name])
                print(f"joined shard {name}: {summary}", flush=True)
            except Exception as error:
                print(f"join {name} failed: {error}", flush=True)

    async def _route() -> None:
        shards = [parse_shard_address(shard) for shard in arguments.shards]
        router = ShardRouter(
            shards,
            health_interval=arguments.health_interval,
            max_retries=arguments.max_retries,
            replication=arguments.replication,
            handoff_limit=arguments.handoff_limit,
        )
        metrics_server = None
        if arguments.shards_file is not None:
            loop = asyncio.get_running_loop()
            try:
                loop.add_signal_handler(
                    signal.SIGHUP,
                    lambda: loop.create_task(
                        _reload_membership(router, arguments.shards_file)
                    ),
                )
            except (NotImplementedError, RuntimeError):
                print(
                    "SIGHUP reload unavailable on this platform; "
                    "use the join/leave protocol verbs",
                    flush=True,
                )
        try:
            if arguments.metrics_port is not None:
                metrics_server, (mhost, mport) = await start_metrics_endpoint(
                    router.render_metrics,
                    host=arguments.host,
                    port=arguments.metrics_port,
                )
                print(
                    f"metrics on http://{mhost}:{mport}/metrics", flush=True
                )
            host, port = await router.start(arguments.host, arguments.port)
            shard_names = ", ".join(router.shard_health())
            print(
                f"routing on {host}:{port} over shards [{shard_names}]",
                flush=True,
            )
            await router.wait_shutdown()
        finally:
            await router.aclose()
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()

    try:
        asyncio.run(_route())
    except KeyboardInterrupt:
        pass


def _cmd_metrics(arguments) -> None:
    import asyncio
    import json

    from repro.service.client import ServiceClient

    async def _scrape():
        client = await ServiceClient.connect(arguments.host, arguments.port)
        try:
            return await client.metrics()
        finally:
            await client.aclose()

    result = asyncio.run(_scrape())
    if arguments.json:
        print(json.dumps(result["snapshot"], indent=2, sort_keys=True))
    else:
        print(result["exposition"], end="")


def _cmd_runtime(arguments) -> None:
    from repro.experiments.reporting import render_bar_chart
    from repro.generation.workload import WorkloadConfig, WorkloadGenerator
    from repro.runtime.events import trace_to_json
    from repro.runtime.log import log_to_json
    from repro.runtime.manager import ResourceManager, gallery_from_graphs
    from repro.runtime.validation import validate_log

    suite = _selected_suite(arguments)
    specs = gallery_from_graphs(
        list(suite.graphs), slack=arguments.slack
    )
    generator = WorkloadGenerator(
        [spec.name for spec in specs],
        quality_levels={
            spec.name: spec.ladder.level_names for spec in specs
        },
        config=WorkloadConfig(
            arrival=arguments.arrival,
            mean_interarrival=arguments.mean_interarrival,
            mean_holding=arguments.mean_holding,
        ),
    )
    trace = generator.generate(
        seed=arguments.seed, events=arguments.events
    )
    manager = ResourceManager(
        specs, mapping=suite.mapping, policy=arguments.policy
    )
    log = manager.replay(trace)

    counts = log.counts_by_outcome()
    rows = [
        ["events", len(log.records)],
        ["admitted", counts["admitted"]],
        ["rejected", counts["rejected"]],
        ["stopped", counts["stopped"]],
        ["ignored", counts["ignored"]],
        ["evictions", log.eviction_count],
        ["downgrades", log.downgrade_count],
        ["admission ratio", f"{log.admission_ratio:.3f}"],
        ["decisions/sec", f"{log.decisions_per_second:.0f}"],
    ]
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=(
                f"Runtime replay ({manager.policy.name} policy, "
                f"{arguments.arrival} arrivals, seed {arguments.seed})"
            ),
        )
    )
    utilization = sorted(
        log.mean_utilization().items(), key=lambda item: -item[1]
    )[:5]
    if utilization:
        print()
        print(
            render_bar_chart(
                [name for name, _ in utilization],
                [value for _, value in utilization],
                title="mean utilization (busiest processors)",
                value_format="{:.2f}",
            )
        )
    if arguments.validate > 0:
        points = validate_log(
            specs,
            suite.mapping,
            log,
            max_points=arguments.validate,
        )
        print()
        rows = [
            [
                point.record_index,
                "+".join(app for app, _ in point.residents),
                app,
                f"{point.predicted[app]:.1f}",
                f"{point.simulated[app]:.1f}",
                f"{point.ratios[app]:.2f}",
            ]
            for point in points
            for app, _ in point.residents
        ]
        print(
            render_table(
                ["record", "residents", "app", "predicted",
                 "simulated", "ratio"],
                rows,
                title="prediction vs. discrete-event simulation",
            )
        )
    if arguments.save_trace:
        with open(arguments.save_trace, "w") as handle:
            handle.write(trace_to_json(trace))
        print(f"trace written to {arguments.save_trace}")
    if arguments.save_log:
        with open(arguments.save_log, "w") as handle:
            handle.write(log_to_json(log))
        print(f"log written to {arguments.save_log}")


def _cmd_models(arguments) -> None:
    from repro.core.registry import render_model_table

    print(render_model_table())


def _cmd_conformance(arguments) -> None:
    from repro.conformance import (
        DEFAULT_CONFORMANCE_SEED,
        run_conformance,
    )

    models = (
        [name.strip() for name in arguments.models.split(",")]
        if arguments.models
        else None
    )
    report = run_conformance(
        application_count=arguments.suite,
        scenarios_per_model=arguments.scenarios,
        seed=(
            arguments.seed
            if arguments.seed is not None
            else DEFAULT_CONFORMANCE_SEED
        ),
        models=models,
        target_iterations=arguments.sim_iterations,
        progress=lambda message: print(f"... {message}", flush=True),
        collect_stats=arguments.profile,
    )
    print(report.render())
    if arguments.profile:
        print()
        print(report.render_profile())
    if not report.passed:
        failed = [
            r.model for r in report.reports if r.status == "failed"
        ]
        raise ExperimentError(
            f"conformance FAILED for {', '.join(failed)}"
        )


def _cmd_reproduce(arguments) -> None:
    from repro.experiments.figure5 import run_figure5
    from repro.experiments.figure6 import run_figure6
    from repro.experiments.table1 import run_table1
    from repro.experiments.timing import run_timing

    suite = paper_benchmark_suite(
        application_count=arguments.applications
    )
    if arguments.scale == "paper":
        config = SweepConfig(
            target_iterations=200, samples_per_size=None
        )
        figure5_iterations = 300
    else:
        config = SweepConfig(target_iterations=60, samples_per_size=8)
        figure5_iterations = 100

    print(run_figure5(suite, target_iterations=figure5_iterations).render())
    print()
    sweep = run_sweep(suite, config=config)
    print(run_table1(suite, sweep=sweep).render())
    print()
    print(run_figure6(suite, sweep=sweep).render())
    print()
    print(run_timing(suite, sweep=sweep).render())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
