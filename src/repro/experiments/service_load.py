"""Seeded async load generator for the estimation service.

Answers the serving layer's two operational questions — how many
queries per second does one server sustain, and what latency do clients
see — with a fully in-process, reproducible experiment: an
:class:`~repro.service.server.EstimationServer` on an ephemeral local
port, ``clients`` concurrent :class:`~repro.service.client
.ServiceClient` connections, each issuing ``queries_per_client``
questions drawn from a per-client seeded RNG over the gallery's
non-empty use-cases.  Client-observed latencies are kept as raw
samples, and the report's percentiles are their exact nearest-rank
values; they also land in a telemetry
:class:`~repro.telemetry.Histogram` for the ``metrics`` exposition.
The report carries throughput, latency percentiles and the server-side
micro-batching/cache/shedding counters, so one run shows *why* the
throughput number is what it is.

The same harness scales to the **fleet** topology: ``shards > 1``
spawns N servers behind a :class:`~repro.service.router.ShardRouter`
front-end (clients keep speaking the ordinary protocol — to the
router), ``solver_workers > 0`` gives every shard a multiprocess
:class:`~repro.service.workers.SolverPool`, and ``connections`` caps
the *socket* count independently of the *logical client* count:
thousands of concurrent clients multiplex onto a few pipelined
connections, which is how real fleets are driven.  Open-loop arrival
processes reuse the workload generator's vocabulary
(:mod:`repro.generation.workload`): ``closed`` (back-to-back, the
default), ``poisson``, ``bursty`` (exponential gaps whose mean swings
by ``burst_factor`` every ``burst_length`` queries) and ``diurnal``
(sinusoidal rate by thinning).

Observability hooks mirror ``repro serve``: ``metrics_port`` exposes
the merged exposition over HTTP ``GET /metrics`` while the run is
live (and the report keeps the text a real scrape returned),
``trace_export`` writes the server's span timeline as Chrome-trace
JSON, ``span_log`` streams finished spans as JSON lines, and
``metrics_output`` saves the final exposition to a file.

Usage (module or CLI)::

    from repro.experiments.service_load import LoadConfig, run_load
    print(run_load(LoadConfig(clients=16)).render())

    PYTHONPATH=src python -m repro.experiments.service_load --clients 16
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError, ServiceError
from repro.experiments.reporting import render_table
from repro.runtime.service import GallerySpec
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.pool import EnginePool
from repro.service.protocol import wire_gallery
from repro.service.router import ShardRouter
from repro.service.server import EstimationServer
from repro.telemetry import (
    Histogram,
    JsonLinesSpanSink,
    MetricsRegistry,
    Tracer,
    log_buckets,
    start_metrics_endpoint,
    write_chrome_trace,
)

#: Client-side latency histogram bounds (exposition only): 10 µs ..
#: 10 s, four buckets per decade.
LATENCY_BUCKETS = log_buckets(1e-5, 10.0)

#: Open-loop arrival processes (plus ``closed``, the classic
#: back-to-back loop) — same vocabulary as the workload generator.
ARRIVALS: Tuple[str, ...] = ("closed", "poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation scenario (fully deterministic per seed,
    modulo wall-clock noise in the measured latencies)."""

    clients: int = 8
    queries_per_client: int = 32
    seed: int = 7
    gallery: GallerySpec = field(default_factory=GallerySpec)
    model: str = "second_order"
    method: str = "mcr"
    max_batch: int = 128
    max_pending: int = 1024
    shed_policy: str = "reject"
    cache_entries: int = 4096
    shards: int = 1
    solver_workers: int = 0
    replication: int = 1
    churn: bool = False
    connections: Optional[int] = None
    arrival: str = "closed"
    mean_interarrival_ms: float = 2.0
    burst_length: int = 8
    burst_factor: float = 4.0
    diurnal_period_ms: float = 250.0
    diurnal_amplitude: float = 0.8
    metrics_port: Optional[int] = None
    trace_export: Optional[str] = None
    span_log: Optional[str] = None
    metrics_output: Optional[str] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ExperimentError(f"clients must be >= 1, got {self.clients}")
        if self.queries_per_client < 1:
            raise ExperimentError(
                f"queries_per_client must be >= 1, "
                f"got {self.queries_per_client}"
            )
        if self.shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {self.shards}")
        if self.solver_workers < 0:
            raise ExperimentError(
                f"solver_workers must be >= 0, got {self.solver_workers}"
            )
        if self.connections is not None and self.connections < 1:
            raise ExperimentError(
                f"connections must be >= 1, got {self.connections}"
            )
        if self.replication < 0:
            raise ExperimentError(
                f"replication must be >= 0, got {self.replication}"
            )
        if self.churn and self.shards < 2:
            raise ExperimentError(
                "churn needs a fleet: shards must be >= 2"
            )
        if self.arrival not in ARRIVALS:
            raise ExperimentError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}"
            )
        if self.mean_interarrival_ms <= 0:
            raise ExperimentError("mean_interarrival_ms must be positive")
        if self.burst_length < 1 or self.burst_factor < 1.0:
            raise ExperimentError(
                "burst_length must be >= 1 and burst_factor >= 1"
            )
        if self.diurnal_period_ms <= 0 or not (
            0.0 <= self.diurnal_amplitude < 1.0
        ):
            raise ExperimentError(
                "diurnal_period_ms must be positive and diurnal_amplitude "
                "in [0, 1)"
            )


@dataclass(frozen=True)
class LoadReport:
    """What the generator measured, client- and server-side."""

    queries: int
    errors: int
    elapsed_seconds: float
    queries_per_second: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    mean_batch: float
    max_batch: int
    cache_hits: int
    shed: int
    degraded: int
    config: LoadConfig
    telemetry: Dict[str, object] = field(default_factory=dict)
    exposition: str = ""
    scraped_exposition: Optional[str] = None
    shards: int = 1
    workers: int = 0
    retries: int = 0
    router: Optional[Dict[str, object]] = None
    churn_events: List[Dict[str, object]] = field(default_factory=list)
    #: Every answered query's client-observed latency, in answer order.
    latencies_ms: List[float] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            ["clients", self.config.clients],
            ["arrival", self.config.arrival],
            ["queries", self.queries],
            ["errors", self.errors],
            ["elapsed", f"{self.elapsed_seconds * 1e3:.0f} ms"],
            ["queries/sec", f"{self.queries_per_second:.0f}"],
            ["latency p50", f"{self.latency_p50_ms:.2f} ms"],
            ["latency p90", f"{self.latency_p90_ms:.2f} ms"],
            ["latency p99", f"{self.latency_p99_ms:.2f} ms"],
            ["mean batch", f"{self.mean_batch:.1f}"],
            ["max batch", self.max_batch],
            ["cache hits", self.cache_hits],
            ["shed", self.shed],
            ["degraded", self.degraded],
        ]
        if self.shards > 1 or self.workers > 0:
            rows.extend(
                [
                    ["shards", self.shards],
                    ["solver workers", self.workers],
                    ["router retries", self.retries],
                ]
            )
        if self.router is not None:
            rows.extend(
                [
                    ["router batches", self.router.get("batches", 0)],
                    ["replications", self.router.get("replications", 0)],
                ]
            )
        if self.churn_events:
            rows.append(["churn events", len(self.churn_events)])
        return render_table(
            ["metric", "value"],
            rows,
            title=(
                f"Service load ({self.config.model}, gallery "
                f"{self.config.gallery.label()}, seed "
                f"{self.config.seed})"
            ),
        )

    def to_json(self) -> Dict[str, object]:
        """The machine-readable summary CI gates assert on."""
        return {
            "gallery": self.config.gallery.label(),
            "model": self.config.model,
            "arrival": self.config.arrival,
            "clients": self.config.clients,
            "connections": self.config.connections,
            "shards": self.shards,
            "workers": self.workers,
            "queries": self.queries,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p90_ms": self.latency_p90_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
            "degraded": self.degraded,
            "retries": self.retries,
            "router": self.router,
            "churn_events": self.churn_events,
        }


def _client_plan(config: LoadConfig, client_index: int) -> List[Tuple[str, ...]]:
    """The seeded use-case sequence one client will ask about."""
    names = config.gallery.application_names()
    rng = random.Random(f"{config.seed}:{client_index}")
    plan: List[Tuple[str, ...]] = []
    for _ in range(config.queries_per_client):
        size = rng.randint(1, len(names))
        plan.append(tuple(sorted(rng.sample(names, size))))
    return plan


def _client_delays(config: LoadConfig, client_index: int) -> List[float]:
    """Seconds each of the client's queries waits before being sent.

    Mirrors the workload generator's arrival clock
    (:mod:`repro.generation.workload`): exponential gaps for
    ``poisson``, gap means swinging by ``burst_factor`` every
    ``burst_length`` queries for ``bursty``, and a sinusoidal rate by
    thinning for ``diurnal``.  ``closed`` is the classic closed loop —
    no think time at all.
    """
    count = config.queries_per_client
    if config.arrival == "closed":
        return [0.0] * count
    rng = random.Random(f"{config.seed}:arrival:{client_index}")
    mean = config.mean_interarrival_ms / 1e3
    delays: List[float] = []
    now = 0.0
    previous = 0.0
    burst_remaining = 0
    for _ in range(count):
        if config.arrival == "poisson":
            now += rng.expovariate(1.0 / mean)
        elif config.arrival == "bursty":
            if burst_remaining > 0:
                gap_mean = mean / config.burst_factor
                burst_remaining -= 1
            else:
                gap_mean = mean * config.burst_factor
                burst_remaining = config.burst_length - 1
            now += rng.expovariate(1.0 / gap_mean)
        else:  # diurnal, by thinning a homogeneous peak-rate process
            period = config.diurnal_period_ms / 1e3
            peak_rate = (1.0 + config.diurnal_amplitude) / mean
            while True:
                now += rng.expovariate(peak_rate)
                phase = 2.0 * math.pi * now / period
                rate = (
                    1.0 + config.diurnal_amplitude * math.sin(phase)
                ) / mean
                if rng.random() <= rate / peak_rate:
                    break
        delays.append(now - previous)
        previous = now
    return delays


async def _run_client(
    config: LoadConfig,
    client: ServiceClient,
    client_index: int,
    latency: Histogram,
    samples: List[float],
    errors: List[str],
) -> None:
    """One logical client: its seeded plan over a (shared) connection."""
    gallery = wire_gallery(config.gallery)
    plan = _client_plan(config, client_index)
    delays = _client_delays(config, client_index)
    for query_index, (use_case, delay) in enumerate(zip(plan, delays)):
        if delay > 0:
            await asyncio.sleep(delay)
        started = _time.perf_counter()
        try:
            await client.estimate(
                use_case,
                gallery=gallery,
                model=config.model,
                method=config.method,
                trace=f"load-{config.seed}-{client_index}-{query_index}",
            )
        except ServiceError as error:
            errors.append(str(error))
            continue
        seconds = _time.perf_counter() - started
        latency.observe(seconds)
        samples.append(seconds * 1e3)


async def _run_churn(
    config: LoadConfig,
    router_address: Tuple[str, int],
    spare_address: Tuple[str, int],
    victim: "EstimationServer",
    victim_name: str,
    events: List[Dict[str, object]],
) -> None:
    """Drive elasticity churn through the router *while load runs*.

    The sequence is the fleet's worst day compressed: a shard joins
    (warm hand-off), a shard dies without warning (tests replication
    failover), then the corpse is administratively retired.  The load
    clients must observe none of it beyond latency.
    """
    admin = await ServiceClient.connect(*router_address)
    clock = _time.perf_counter()

    def stamp(event: str, **extra: object) -> None:
        events.append(
            dict(
                {
                    "event": event,
                    "at_ms": (_time.perf_counter() - clock) * 1e3,
                },
                **extra,
            )
        )

    try:
        await asyncio.sleep(0.05)
        joined = await admin.join(f"{spare_address[0]}:{spare_address[1]}")
        stamp(
            "join",
            shard=joined.get("shard"),
            handoff=joined.get("handoff"),
        )
        await asyncio.sleep(0.05)
        await victim.aclose()  # unannounced death, not a graceful leave
        stamp("kill", shard=victim_name)
        await asyncio.sleep(0.1)
        left = await admin.leave(victim_name)
        stamp("leave", shard=victim_name, handoff=left.get("handoff"))
    finally:
        await admin.aclose()


async def _scrape_http(host: str, port: int) -> str:
    """One in-loop ``GET /metrics`` against the HTTP endpoint — what an
    external scraper would see, fetched without blocking the loop."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            b"GET /metrics HTTP/1.0\r\nHost: " + host.encode() + b"\r\n\r\n"
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0]
    if b"200" not in status:
        raise ExperimentError(
            f"metrics endpoint answered {status.decode(errors='replace')!r}"
        )
    return body.decode("utf-8")


def _aggregate_stats(
    snapshots: List[Dict[str, object]],
) -> Dict[str, object]:
    """Fleet-wide rollup of per-shard server snapshots.

    Counters sum; ``mean_batch`` is the batch-weighted mean (total
    batched queries over total batches, exactly what each shard
    reports locally); ``max_batch`` is the fleet maximum.
    """
    if len(snapshots) == 1:
        return snapshots[0]

    def total(key: str) -> int:
        return sum(int(s[key]) for s in snapshots)  # type: ignore[arg-type]

    batches = total("batches")
    batched = total("batched_queries")
    max_batch = max(int(s["max_batch"]) for s in snapshots)  # type: ignore[arg-type]
    return {
        "mean_batch": batched / batches if batches else 0.0,
        "max_batch": max_batch,
        "shed": total("shed"),
        "degraded": total("degraded"),
        "cache": {
            "hits": sum(
                int(s["cache"]["hits"])  # type: ignore[index]
                for s in snapshots
            )
        },
    }


async def _run(config: LoadConfig) -> LoadReport:
    registry = MetricsRegistry(enabled=True)
    tracer = Tracer()
    span_sink = None
    if config.span_log:
        span_sink = JsonLinesSpanSink(config.span_log)
        tracer.set_sink(span_sink)
    # The client-side latency histogram lives in the *server's* registry
    # on purpose: one exposition then carries the whole story — what
    # clients saw next to what the batcher did.
    latency = registry.histogram(
        "repro_load_latency_seconds",
        "Client-observed estimate latency of the load generator",
        buckets=LATENCY_BUCKETS,
        always=True,
    )
    # Single-shard runs keep the historical shape: the one server
    # shares the front registry with the latency histogram.  Fleet
    # runs give every shard its own registry (the per-server stats
    # contract must not bleed across shards) and put the histogram and
    # router counters together on the front-end's.
    fleet = config.shards > 1
    servers: List[EstimationServer] = []
    for _ in range(config.shards):
        shard_registry = (
            MetricsRegistry(enabled=True) if fleet else registry
        )
        servers.append(
            EstimationServer(
                pool=EnginePool(registry=shard_registry),
                cache=ResultCache(
                    config.cache_entries, registry=shard_registry
                ),
                max_batch=config.max_batch,
                max_pending=config.max_pending,
                shed_policy=config.shed_policy,
                solver_workers=config.solver_workers,
                registry=shard_registry,
                tracer=tracer,
            )
        )
    addresses = [await server.start() for server in servers]
    # Churn runs need a spare shard standing by to join mid-load; it is
    # started but *not* handed to the router at construction.
    spare_address: Optional[Tuple[str, int]] = None
    if config.churn:
        spare_registry = MetricsRegistry(enabled=True)
        spare = EstimationServer(
            pool=EnginePool(registry=spare_registry),
            cache=ResultCache(config.cache_entries, registry=spare_registry),
            max_batch=config.max_batch,
            max_pending=config.max_pending,
            shed_policy=config.shed_policy,
            solver_workers=config.solver_workers,
            registry=spare_registry,
            tracer=tracer,
        )
        servers.append(spare)
        spare_address = await spare.start()
    router: Optional[ShardRouter] = None
    if fleet:
        router = ShardRouter(
            addresses,
            health_interval=0.25,
            replication=config.replication,
            registry=registry,
            tracer=tracer,
        )
        address = await router.start()
    else:
        address = addresses[0]
    front = router if router is not None else servers[0]
    metrics_server = None
    scraped: Optional[str] = None
    errors: List[str] = []
    samples: List[float] = []
    connection_count = min(
        config.connections
        if config.connections is not None
        else config.clients,
        config.clients,
    )
    connections: List[ServiceClient] = []
    try:
        if config.metrics_port is not None:
            metrics_server, metrics_address = await start_metrics_endpoint(
                front.render_metrics, port=config.metrics_port
            )
        connections = [
            await ServiceClient.connect(address[0], address[1])
            for _ in range(connection_count)
        ]
        started = _time.perf_counter()
        churn_events: List[Dict[str, object]] = []
        tasks = [
            _run_client(
                config,
                connections[index % connection_count],
                index,
                latency,
                samples,
                errors,
            )
            for index in range(config.clients)
        ]
        if config.churn:
            assert router is not None and router.address is not None
            assert spare_address is not None
            victim_address = addresses[0]
            tasks.append(
                _run_churn(
                    config,
                    router.address,
                    spare_address,
                    servers[0],
                    f"{victim_address[0]}:{victim_address[1]}",
                    churn_events,
                )
            )
        await asyncio.gather(*tasks)
        elapsed = _time.perf_counter() - started
        if metrics_server is not None:
            scraped = await _scrape_http(*metrics_address)
        stats = _aggregate_stats([server.snapshot() for server in servers])
        router_stats = router.snapshot() if router is not None else None
        telemetry = front.metrics_snapshot()
        exposition = front.render_metrics()
    finally:
        for connection in connections:
            await connection.aclose()
        if router is not None:
            await router.aclose()
        for server in servers:
            await server.aclose()
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()
        if config.trace_export:
            write_chrome_trace(config.trace_export, spans=tracer.spans())
        if span_sink is not None:
            span_sink.close()
    if config.metrics_output:
        Path(config.metrics_output).write_text(
            scraped if scraped is not None else exposition,
            encoding="utf-8",
        )
    queries = len(samples)
    cache: Dict[str, object] = stats["cache"]  # type: ignore[assignment]
    ranked = sorted(samples)

    def latency_ms(fraction: float) -> float:
        # Nearest rank.  All-error runs have no latencies; the report
        # must still come back (errors=N is the finding, not a crash).
        return ranked[max(1, math.ceil(fraction * queries)) - 1] if queries else 0.0

    return LoadReport(
        queries=queries,
        errors=len(errors),
        elapsed_seconds=elapsed,
        queries_per_second=queries / elapsed if elapsed > 0 else 0.0,
        latency_p50_ms=latency_ms(0.50),
        latency_p90_ms=latency_ms(0.90),
        latency_p99_ms=latency_ms(0.99),
        mean_batch=float(stats["mean_batch"]),  # type: ignore[arg-type]
        max_batch=int(stats["max_batch"]),  # type: ignore[arg-type]
        cache_hits=int(cache["hits"]),  # type: ignore[arg-type]
        shed=int(stats["shed"]),  # type: ignore[arg-type]
        degraded=int(stats["degraded"]),  # type: ignore[arg-type]
        config=config,
        telemetry=telemetry,
        exposition=exposition,
        scraped_exposition=scraped,
        shards=config.shards,
        workers=config.solver_workers,
        retries=(
            int(router_stats["retries"])  # type: ignore[arg-type]
            if router_stats is not None
            else 0
        ),
        router=router_stats,
        churn_events=churn_events,
        latencies_ms=samples,
    )


def run_load(config: Optional[LoadConfig] = None) -> LoadReport:
    """Run one scenario end to end (spawns its own event loop)."""
    return asyncio.run(_run(config if config is not None else LoadConfig()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded async load generator for 'repro serve'"
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--queries", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--applications", type=int, default=6)
    parser.add_argument("--model", default="second_order")
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument(
        "--shed-policy",
        choices=("reject", "evict", "downgrade"),
        default="reject",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "estimation-server shards behind a consistent-hash router "
            "(1 = the classic single-server run, no router)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="solver worker processes per shard (0 = solver thread)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="N",
        help=(
            "ring-successor shards each fresh answer replicates to "
            "(0 = off; fleet runs only)"
        ),
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help=(
            "drive elasticity churn mid-load: join a spare shard, "
            "kill a shard, retire the corpse (needs --shards >= 2)"
        ),
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=None,
        metavar="N",
        help=(
            "sockets the logical clients multiplex onto (default: one "
            "per client; thousands of clients should share a few "
            "pipelined connections)"
        ),
    )
    parser.add_argument(
        "--arrival",
        choices=ARRIVALS,
        default="closed",
        help="arrival process (closed = back-to-back, no think time)",
    )
    parser.add_argument(
        "--mean-interarrival",
        type=float,
        default=2.0,
        metavar="MS",
        help="mean think time per client for open-loop arrivals",
    )
    parser.add_argument("--burst-length", type=int, default=8)
    parser.add_argument("--burst-factor", type=float, default=4.0)
    parser.add_argument(
        "--diurnal-period", type=float, default=250.0, metavar="MS"
    )
    parser.add_argument("--diurnal-amplitude", type=float, default=0.8)
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="save the machine-readable report summary as JSON",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose HTTP GET /metrics during the run (0 = ephemeral)",
    )
    parser.add_argument(
        "--trace-export",
        default=None,
        metavar="PATH",
        help="write the server's spans as Chrome-trace JSON",
    )
    parser.add_argument(
        "--span-log",
        default=None,
        metavar="PATH",
        help="stream finished spans to PATH as JSON lines",
    )
    parser.add_argument(
        "--metrics-output",
        default=None,
        metavar="PATH",
        help="save the final Prometheus exposition to PATH",
    )
    arguments = parser.parse_args(argv)
    report = run_load(
        LoadConfig(
            clients=arguments.clients,
            queries_per_client=arguments.queries,
            seed=arguments.seed,
            gallery=GallerySpec(
                application_count=arguments.applications
            ),
            model=arguments.model,
            cache_entries=arguments.cache_size,
            shed_policy=arguments.shed_policy,
            shards=arguments.shards,
            solver_workers=arguments.workers,
            replication=arguments.replication,
            churn=arguments.churn,
            connections=arguments.connections,
            arrival=arguments.arrival,
            mean_interarrival_ms=arguments.mean_interarrival,
            burst_length=arguments.burst_length,
            burst_factor=arguments.burst_factor,
            diurnal_period_ms=arguments.diurnal_period,
            diurnal_amplitude=arguments.diurnal_amplitude,
            metrics_port=arguments.metrics_port,
            trace_export=arguments.trace_export,
            span_log=arguments.span_log,
            metrics_output=arguments.metrics_output,
        )
    )
    print(report.render())
    if arguments.report_json:
        Path(arguments.report_json).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
