"""``serve``: served latency through a routed, sharded estimation fleet.

An in-process :class:`~repro.service.router.ShardRouter` fronts two
:class:`~repro.service.server.EstimationServer` shards, all with the
program's defaults (one solver thread per shard, replication 1, router
batching off).  The load generator talks to the router over its own
``ServiceClient`` connections.  Fleet and generator share one event
loop, as in the repository's ``service_load`` harness: a generator on a
second thread added interpreter-lock handoffs of up to the 5 ms switch
interval to every hop, which is neither program work nor steady.

Queries are seeded use-cases over a few 10-application galleries.  The
key space (about 5k) is sized against the 4096-entry result cache, which
replication copies to both shards, so about 80% of queries hit: the
median sits on the hit path (protocol, router, hash ring, cache) and the
tail on the miss path (``estimate_many`` on small batches, the opposite
batch size to ``sweep``).  Caches are warmed after set-up, untimed.

The process is pinned to one CPU.  On two vCPUs every interpreter-lock
hand-off between the event loop and a shard's solver thread wakes the
other vCPU, and how fast that happens depends on what the rest of the
machine runs: on the machine the benchmark was defined on, with four
requests in flight the served throughput rose 25% whenever another
process kept the other vCPU busy, which no single-threaded reference
kernel sees, and the open-loop tail spread 0.2 between runs.  Pinned,
hand-offs are switches on one CPU and the reference kernel runs on that
CPU too; a process busy on the other vCPU no longer moved the served
throughput.  Parallelism between the event loop and the solver threads
is therefore not measured.

Phases: first a Poisson open loop at a fixed rate far below capacity,
whose hits and misses are planned (see :func:`_plan`), gives the
latencies, timed from each request's due time; then a closed loop with
a fixed number of requests in flight gives the throughput.  Both are
cut into segments, and the reference kernel runs only between segments,
with no request in flight.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import statistics
import time
from typing import Dict, List, Set, Tuple

from common import Run, simulate_periods, stratified_use_cases
from hostref import NOMINAL_ROUND_TRIP_MS, HostRef, round_trip_kernel

#: Master seeds of the served paper galleries (fixed; the seed picks the
#: queries): the paper's own suite and the next four.
GALLERY_SEEDS = (2007, 2008, 2009, 2010, 2011)
GALLERIES = len(GALLERY_SEEDS)
APPLICATIONS = 10
CONNECTIONS = 2
#: Requests kept in flight by the closed loop.  Four (misses batched
#: two or three rows at a time) spread wider between runs than one.
CLOSED_IN_FLIGHT = 1
#: Open-loop arrivals per second: about a tenth of the closed-loop
#: capacity on the machine the benchmark was defined on.  There, a full
#: garbage collection of the fleet's heap stalls the loop for 60-90 ms
#: about once per 20 s of load; at this rate a stall delays only a few
#: requests, so the tail (the 11th-largest latency) mostly measures the
#: cache-miss path rather than whether a stall fell inside the open
#: loop.  At a third of capacity the tail swung several-fold between
#: runs; at 30/s the median moved more, with idle wake-ups.
OPEN_RATE = 60.0
#: Share of ``--seconds`` spent in the closed loop; the rest is open loop.
CLOSED_SHARE = 0.4
#: Share of the open loop's queries planned to miss the cache.
OPEN_MISS_SHARE = 0.2
#: Set-up repetitions per run; set-up is short (no cache warm-up), so
#: many repetitions steady its median cheaply.
SETUP_REPEATS = 11
#: Warm-up keys plus the open loop's planned misses: the result cache's
#: default capacity.
WARM_KEYS = 4096
WARM_CHUNK = 256
#: Use-cases of each size (2..10) per gallery simulated for the period
#: error (deduplicated: there is one use-case of size 10).
DES_PER_SIZE = 2
#: The load phases are cut into segments with the reference kernel run
#: between them, while no request is in flight.  On the machine the
#: benchmark was defined on the host flips between a fast and a slow
#: state every second or so (the kernel reads about 7 or 11 ms), so a
#: segment must be well under a second for the samples around it to
#: see the state it ran in.
SEGMENTS = 32
#: The open loop's latency tail is the median of this many consecutive
#: windows' tails (about 110 samples each, so p90).  On the machine the
#: benchmark was defined on, the 11th-largest of all ~900 samples
#: (p98.8) depended on whether the host had a slow spell during the
#: run: two ten-run sets of the same code spread 0.13 and 0.24, its
#: bound; with a process competing for the CPU it spread 0.28, the
#: windowed figure 0.08.
TAIL_WINDOWS = 8
#: Traced runs only: sequential requests, alternately traced and not.
SEQUENTIAL_BLOCKS = 8
SEQUENTIAL_BLOCK = 100
MODEL = "second_order"
HOST = "127.0.0.1"
TIMEOUT = 60.0

Key = Tuple[int, Tuple[str, ...]]


class Fleet:
    """Two shards and a router, served by the running event loop."""

    def __init__(self) -> None:
        self.servers: list = []
        self.router = None
        self.address = None

    async def start(self, ports: Tuple[int, int]) -> None:
        """Start the shards on ``ports`` (see :func:`split_ports`) and the router."""
        from repro.service.router import ShardRouter
        from repro.service.server import EstimationServer

        self.servers = [EstimationServer() for _ in ports]
        addresses = [
            await server.start(HOST, port) for server, port in zip(self.servers, ports)
        ]
        self.router = ShardRouter(addresses)
        self.address = await self.router.start()

    async def close(self) -> None:
        if self.router is not None:
            await self.router.aclose()
        for server in self.servers:
            await server.aclose()

    def snapshot(self) -> dict:
        servers = []
        for server in self.servers:
            snapshot = server.snapshot()
            wait = server.registry.snapshot()["repro_service_queue_wait_seconds"]
            sample = wait["samples"][0] if wait["samples"] else {}
            snapshot["queue_wait"] = (sample.get("sum", 0.0), sample.get("count", 0))
            servers.append(snapshot)
        return {"servers": servers, "router": self.router.snapshot()}


def split_ports(labels: List[str]) -> Tuple[int, int]:
    """Two free ports on which the galleries split 3:2 between the shards.

    The router places galleries on its hash ring by shard name,
    ``host:port``, and ports are whatever the operating system hands
    out, so the split of the galleries between the two shards is
    random (with four requests in flight, a 4:1 or 5:0 split ran the
    closed loop about 30% faster than 3:2).  Free ports are drawn until
    the split is 3:2, so every run serves the same layout; this runs
    before the set-up timer starts, so set-up times exactly one fleet
    start.
    """
    from repro.service.hashring import HashRing

    with socket.socket() as first:
        first.bind((HOST, 0))
        while True:
            with socket.socket() as second:
                second.bind((HOST, 0))
                ports = (first.getsockname()[1], second.getsockname()[1])
            ring = HashRing([f"{HOST}:{port}" for port in ports])
            owners = [ring.node_for(label) for label in labels]
            if sorted(owners.count(node) for node in set(owners)) == [2, 3]:
                return ports


def _specs():
    from repro.runtime.service import GallerySpec

    return [GallerySpec("paper", seed, APPLICATIONS) for seed in GALLERY_SEEDS]


def _wire(spec) -> Dict[str, object]:
    return {"kind": spec.kind, "seed": spec.seed, "applications": spec.application_count}


def _stream(tag: str, seed: int, names: Tuple[str, ...]):
    """Endless seeded queries: a gallery and a uniform non-empty subset."""
    rng = random.Random(f"serve-{tag}:{seed}")
    while True:
        gallery = rng.randrange(GALLERIES)
        mask = rng.randrange(1, 1 << len(names))
        yield gallery, tuple(n for i, n in enumerate(names) if mask >> i & 1)


def _plan(seed: int, names: Tuple[str, ...], arrivals: int):
    """The warm-up keys, the accuracy sample and the open-loop queries.

    Returns ``(warm, sample, open_queries)``: per gallery the warm-up
    use-cases and the stratified sample among them (up to
    :data:`DES_PER_SIZE` per size 2..10) whose answers are compared with
    the simulator, and the open loop's ``arrivals`` queries in order.

    The open loop's hits and misses are planned rather than left to
    chance.  A fixed share of its queries are use-cases never asked
    before, dealt round the galleries in turn with their sizes cycling
    through 10..2 (a size whose use-cases are used up gives way to the
    next smaller one); the rest are drawn from the warm keys.  Warm keys
    plus planned misses fill the result cache exactly, so nothing is
    evicted while latency is measured, and every seed's open loop holds
    the same mix of hits and of miss sizes.  The tail therefore sits
    among the misses of the largest use-cases, the slowest answers the
    fleet gives.  Left to chance, the number of large misses varied with
    the seed and with how far earlier load had churned the cache, and
    the tail moved with it.
    """
    from repro import all_use_cases

    rng = random.Random(f"serve-plan:{seed}")
    by_size: Dict[int, List[Tuple[str, ...]]] = {}
    for use_case in all_use_cases(names):
        by_size.setdefault(len(use_case.applications), []).append(
            use_case.applications
        )
    misses = round(arrivals * OPEN_MISS_SHARE)
    sample = [
        sorted(
            {
                apps
                for _ in range(DES_PER_SIZE)
                for apps in stratified_use_cases(
                    rng, names, range(2, APPLICATIONS + 1)
                )
            }
        )
        for _ in range(GALLERIES)
    ]
    taken = [set(chosen) for chosen in sample]
    miss_keys: List[Key] = []
    sizes = range(APPLICATIONS, 1, -1)
    for index in range(misses):
        gallery = index % GALLERIES
        wanted = sizes[index // GALLERIES % len(sizes)]
        for size in range(wanted, 0, -1):
            free = [k for k in by_size[size] if k not in taken[gallery]]
            if free:
                break
        apps = rng.choice(free)
        taken[gallery].add(apps)
        miss_keys.append((gallery, apps))

    warm_total = WARM_KEYS - misses
    shares = [warm_total // GALLERIES] * GALLERIES
    for g in range(warm_total % GALLERIES):
        shares[g] += 1
    warm = []
    for gallery, share in enumerate(shares):
        rest = [
            apps
            for size in sorted(by_size)
            for apps in by_size[size]
            if apps not in taken[gallery]
        ]
        keys = sample[gallery] + rng.sample(rest, share - len(sample[gallery]))
        rng.shuffle(keys)
        warm.append(keys)

    hits: List[Key] = []
    for _ in range(arrivals - misses):
        gallery = rng.randrange(GALLERIES)
        hits.append((gallery, rng.choice(warm[gallery])))
    queries = miss_keys + hits
    rng.shuffle(queries)
    return warm, sample, queries


class Load:
    """The load generator's connections and everything they were told."""

    def __init__(self, ctx: Run, specs, fleet: Fleet) -> None:
        self.ctx = ctx
        self.wires = [_wire(spec) for spec in specs]
        self.fleet = fleet
        self.clients: list = []
        # The distinct answers per query, as tuples of atomic values: the
        # garbage collector does not track those, and the bookkeeping is
        # bounded by the key space rather than growing with throughput.
        self.answers: Dict[Key, Set[Tuple[Tuple[str, float], ...]]] = {}
        self.answered = 0
        self.fresh = 0

    async def connect(self) -> None:
        from repro.service.client import ServiceClient

        host, port = self.fleet.address
        self.clients = [await ServiceClient.connect(host, port) for _ in range(CONNECTIONS)]

    async def close(self) -> None:
        for client in self.clients:
            await client.aclose()

    def _record(self, key: Key, answer: dict) -> None:
        self.answers.setdefault(key, set()).add(tuple(answer["periods"].items()))
        self.answered += 1
        if not answer.get("cached"):
            self.fresh += 1

    async def ask(self, slot: int, key: Key, trace: str) -> bool:
        from repro.exceptions import ServiceError

        gallery, apps = key
        try:
            answer = await self.clients[slot % CONNECTIONS].estimate(
                list(apps), gallery=self.wires[gallery], model=MODEL, trace=trace
            )
        except ServiceError as error:
            self.ctx.fail(f"{trace}: {error}")
            return False
        self._record(key, answer)
        return True

    async def warm(self, keys: List[List[Tuple[str, ...]]]) -> None:
        from repro.exceptions import ServiceError

        for gallery, use_cases in enumerate(keys):
            for start in range(0, len(use_cases), WARM_CHUNK):
                chunk = use_cases[start : start + WARM_CHUNK]
                try:
                    result = await self.clients[0].estimate_batch(
                        [list(apps) for apps in chunk],
                        gallery=self.wires[gallery],
                        model=MODEL,
                    )
                except ServiceError as error:
                    self.ctx.problems.append(f"warm-up: {error}")
                    continue
                for apps, answer in zip(chunk, result["results"]):
                    if "error" in answer:
                        self.ctx.problems.append(f"warm-up {apps}: {answer['error']}")
                    else:
                        self._record((gallery, apps), answer)

    async def quiesce(self) -> None:
        """Wait until every fresh answer has been replicated."""
        deadline = time.perf_counter() + TIMEOUT
        while self.fleet.router.snapshot()["replications"] < self.fresh:
            if time.perf_counter() > deadline:
                self.ctx.problems.append("replication did not drain")
                return
            await asyncio.sleep(0.001)

    async def closed_loop(self, stream, seconds: float) -> Tuple[int, float]:
        stop = time.perf_counter() + seconds
        done = [0]
        counter = [0]

        async def worker(slot: int) -> None:
            while time.perf_counter() < stop:
                key = next(stream)
                counter[0] += 1
                self.ctx.attempted += 1
                if await self.ask(slot, key, f"closed-{counter[0]}"):
                    done[0] += 1

        started = time.perf_counter()
        await asyncio.gather(*[worker(slot) for slot in range(CLOSED_IN_FLIGHT)])
        return done[0], time.perf_counter() - started

    async def open_loop(self, queries: List[Key], rng: random.Random, seconds: float):
        """Random arrivals; latency counts from each request's due time.

        The ``len(queries)`` due times are uniform over ``seconds``, a
        Poisson process conditioned on its count.
        """
        dues = sorted(rng.uniform(0.0, seconds) for _ in queries)
        latencies: List[float] = []
        lateness: List[float] = []
        origin = time.perf_counter() + 0.01

        async def one(index: int, due: float) -> None:
            trace = f"open-{self.ctx.attempted}"
            if await self.ask(index, queries[index], trace):
                latencies.append(time.perf_counter() - due)

        tasks = []
        for index, due in enumerate(dues):
            due_at = origin + due
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due_at))
            self.ctx.attempted += 1
            tasks.append(asyncio.ensure_future(one(index, due_at)))
        await asyncio.gather(*tasks)
        return latencies, lateness

    async def sequential(self, stream, traced: bool, block: int) -> List[float]:
        """One request in flight at a time (the traced attribution phase)."""
        log = self.ctx.log
        log.enabled = traced
        times = []
        for index in range(SEQUENTIAL_BLOCK):
            key = next(stream)
            request = f"seq-{block}-{index}"
            started = time.perf_counter()
            if traced:
                with log.op(request):
                    await self.ask(0, key, request)
            else:
                await self.ask(0, key, request)
            times.append(time.perf_counter() - started)
        log.enabled = True
        return times


def _fleet_delta(before: dict, after: dict) -> Dict[str, float]:
    def total(snapshot, *path):
        value = 0.0
        for server in snapshot["servers"]:
            item = server
            for part in path:
                item = item[part]
            value += item
        return value

    delta = {}
    for name, path in (
        ("hits", ("cache", "hits")),
        ("misses", ("cache", "misses")),
        ("batches", ("batches",)),
        ("batched", ("batched_queries",)),
        ("builds", ("pool", "gallery_builds")),
        ("evictions", ("pool", "gallery_evictions")),
        ("shed", ("shed",)),
    ):
        delta[name] = total(after, *path) - total(before, *path)
    waits = [
        sum(s["queue_wait"][i] for s in snap["servers"]) for snap in (before, after) for i in (0, 1)
    ]
    delta["wait_sum"] = waits[2] - waits[0]
    delta["wait_count"] = waits[3] - waits[1]
    for name in ("forwarded", "retries", "replications"):
        delta[name] = after["router"][name] - before["router"][name]
    return delta


def run(ctx: Run) -> None:
    from repro import ProbabilisticEstimator, UseCase
    from repro.telemetry import get_registry

    # The served path is event-loop, socket and JSON work, which the
    # host slows by a different factor than arithmetic: it is scaled by
    # a loopback round-trip kernel of the same kind of work.
    ctx.host = HostRef(kernel=round_trip_kernel, nominal_ms=NOMINAL_ROUND_TRIP_MS)
    # Before any thread starts, so every thread inherits it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    specs = _specs()
    names = specs[0].application_names()
    open_seconds = ctx.seconds * (1.0 - CLOSED_SHARE) / SEGMENTS
    per_segment = max(1, round(OPEN_RATE * open_seconds))
    warm_keys, des_sample, open_queries = _plan(
        ctx.seed, names, per_segment * SEGMENTS
    )
    registry = get_registry()

    async def set_up(ports: Tuple[int, int]) -> Load:
        """Fleet start and the first touch of each gallery (one query
        each, which builds the gallery and its engines on its shard)."""
        fleet = Fleet()
        await fleet.start(ports)
        load = Load(ctx, specs, fleet)
        await load.connect()
        await load.warm([keys[:1] for keys in warm_keys])
        await load.quiesce()
        return load

    async def tear_down(load: Load) -> None:
        await load.close()
        await load.fleet.close()

    loop = asyncio.new_event_loop()
    loads: List[Load] = []

    def build(ports: Tuple[int, int]) -> Load:
        loads.append(loop.run_until_complete(set_up(ports)))
        return loads[-1]

    def discard(load: Load) -> None:
        loads.remove(load)
        loop.run_until_complete(tear_down(load))

    try:
        labels = [spec.label() for spec in specs]
        load = ctx.time_setup(
            build,
            repeats=SETUP_REPEATS,
            discard=discard,
            prepare=lambda: split_ports(labels),
        )
        fleet = load.fleet
        # The caches warm untimed, after set-up.
        fallbacks = registry.value("repro_engine_batch_fallbacks_total") or 0.0
        loop.run_until_complete(load.warm([keys[1:] for keys in warm_keys]))
        loop.run_until_complete(load.quiesce())
        fallbacks = (
            registry.value("repro_engine_batch_fallbacks_total") or 0.0
        ) - fallbacks
        pool = [s["pool"] for s in fleet.snapshot()["servers"]]
        ctx.counts.update(
            {
                "warm_queries": load.answered,
                "engine_solves": sum(p["engine_solves"] for p in pool),
                "memo_hits": sum(p["engine_cache_hits"] for p in pool),
                "memo_queries": sum(
                    p["engine_solves"] + p["engine_cache_hits"] for p in pool
                ),
                "howard_fallbacks": fallbacks,
            }
        )
        ctx.host.warm()
        if ctx.log is not None:
            # Only set-up and the sequential phase below are traced; the
            # load phases run as in a gated run.
            ctx.log.enabled = False

        closed_stream = _stream("closed", ctx.seed, names)
        arrivals = random.Random(f"serve-arrivals:{ctx.seed}")
        closed_seconds = ctx.seconds * CLOSED_SHARE / SEGMENTS
        snapshot_before = fleet.snapshot()
        done = 0
        closed_raw = 0.0
        rates: List[float] = []
        raw_rates: List[float] = []
        latencies: List[float] = []
        scaled: List[float] = []
        lateness: List[float] = []
        before = ctx.host.sample()
        # The open loop runs first, on the cache as set-up left it, so
        # its planned hits and misses hold (see _plan).
        fresh = load.fresh
        for index in range(SEGMENTS):
            queries = open_queries[index * per_segment : (index + 1) * per_segment]
            segment, late = loop.run_until_complete(
                load.open_loop(queries, arrivals, open_seconds)
            )
            loop.run_until_complete(load.quiesce())
            after = ctx.host.sample()
            scale = ctx.host.scale_between(before, after)
            latencies.extend(segment)
            scaled.extend(t * scale for t in segment)
            lateness.extend(late)
            before = after
        open_misses = load.fresh - fresh
        for _ in range(SEGMENTS):
            count, elapsed = loop.run_until_complete(
                load.closed_loop(closed_stream, closed_seconds)
            )
            loop.run_until_complete(load.quiesce())
            after = ctx.host.sample()
            done += count
            closed_raw += elapsed
            raw_rates.append(count / elapsed)
            rates.append(raw_rates[-1] / ctx.host.scale_between(before, after))
            before = after
        ctx.mark_rss()
        snapshot_after = fleet.snapshot()
        delta = _fleet_delta(snapshot_before, snapshot_after)

        if ctx.log is not None:
            stream = _stream("sequential", ctx.seed, names)
            ctx.extra["ops_from"] = time.perf_counter()
            traced: List[float] = []
            untraced: List[float] = []
            for block in range(SEQUENTIAL_BLOCKS):
                on = block % 2 == 1
                before = ctx.host.sample()
                times = loop.run_until_complete(load.sequential(stream, on, block))
                after = ctx.host.sample()
                scale = ctx.host.scale_between(before, after)
                (traced if on else untraced).extend(t * scale for t in times)
            # Medians: a block's mean moves with how many misses it drew.
            ctx.overhead_pct = (
                statistics.median(traced) / statistics.median(untraced) - 1.0
            ) * 100.0
    finally:
        while loads:
            loop.run_until_complete(tear_down(loads.pop()))
        loop.close()
    ctx.host.sample()  # after teardown

    # The median segment: one segment hit by a burst of host contention
    # the reference did not see does not move the figure.
    ctx.throughput = (statistics.median(rates), statistics.median(raw_rates))
    ctx.latencies = ([t * 1e3 for t in scaled], [t * 1e3 for t in latencies])
    ctx.tail_windows = TAIL_WINDOWS
    queries = delta["hits"] + delta["misses"]
    ctx.layer.update(
        {
            "service.cache.hit_ratio": (delta["hits"] / queries if queries else 0.0, "ratio"),
            "service.server.batches": (delta["batches"], "count"),
            "service.server.mean_batch": (
                delta["batched"] / delta["batches"] if delta["batches"] else 0.0,
                "queries",
            ),
            "service.server.queue_wait_mean_ms": (
                1e3 * delta["wait_sum"] / delta["wait_count"] if delta["wait_count"] else 0.0,
                "ms",
            ),
            "service.router.forwarded": (delta["forwarded"], "count"),
            "service.router.retries": (delta["retries"], "count"),
            "service.router.replications": (delta["replications"], "count"),
            "service.pool.gallery_builds": (delta["builds"], "count"),
            "service.pool.evictions": (delta["evictions"], "count"),
            "bench.gen_late_p99_ms": (
                statistics.quantiles(lateness, n=100)[-1] * 1e3,
                "ms",
            ),
        }
    )
    ctx.notes.append(
        f"open loop: {len(latencies)} answered at {OPEN_RATE:g}/s, {open_misses} "
        f"missed the cache ({round(len(open_queries) * OPEN_MISS_SHARE)} planned); "
        f"closed loop: {done} queries in {closed_raw:.3f} s; cache hit ratio "
        f"{ctx.layer['service.cache.hit_ratio'][0]:.3f}; shed {delta['shed']:g}"
    )

    # Output checks, after teardown: every served answer against an
    # in-process estimate_many of the same use-cases.
    served = {
        key: [dict(periods) for periods in sorted(answers)]
        for key, answers in load.answers.items()
    }
    for gallery, spec in enumerate(specs):
        keys = sorted(k for k in served if k[0] == gallery)
        if not keys:
            continue
        suite = spec.build()
        estimator = ProbabilisticEstimator(suite.graphs, suite.mapping, waiting_model=MODEL)
        results = estimator.estimate_many([UseCase(apps) for _, apps in keys])
        for key, result in zip(keys, results):
            for periods in served[key]:
                if not ctx.check_periods(f"served {key}", periods, result.periods):
                    ctx.fail(f"served {key}: differs from estimate_many")
                    break

        # Accuracy: a stratified sample of the warm-up answers (the same
        # use-cases for a seed in every run) against the simulator.
        for apps in des_sample[gallery]:
            simulated = simulate_periods(suite.graphs, suite.mapping, UseCase(apps))
            answer = served[(gallery, apps)][0]
            ctx.error_pairs.extend((answer[app], simulated[app]) for app in apps)
    ctx.counts["period_error_pct"] = ctx.period_error_pct()
