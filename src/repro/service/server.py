"""The estimation server: concurrent queries in, micro-batched solves out.

:class:`EstimationServer` is the long-lived serving layer over the
library's batched estimation stack.  Clients connect over TCP (or a
stdin/stdout pipe) and ask single-use-case questions; the server does
*not* answer them one by one.  Queries land in a pending queue, and a
batcher coroutine drains whatever has accumulated as soon as the solver
is idle — while one batch is being solved in a worker thread, new
arrivals pile up into the next —
groups it by ``(gallery, model, method)``, deduplicates identical
questions, and feeds each group to
:meth:`~repro.core.estimator.ProbabilisticEstimator.estimate_many` on
the warm :class:`~repro.service.pool.EnginePool` estimators.  A group
of at least :data:`~repro.backend.BATCH_MIN_ROWS` queries runs the
array pipeline — one waiting-kernel evaluation per processor and one
:meth:`~repro.analysis_engine.AnalysisEngine.period_for` call per
application for the *whole batch* — so N concurrent clients cost about
one batched solve instead of N scalar ones; a smaller group runs the
scalar loop, which is faster there.

On top of the batcher sit:

* a bounded LRU :class:`~repro.service.cache.ResultCache` keyed like
  the sweep service's result store (a gallery is a recipe, so an answer
  is a pure function of its key and a cached one never goes stale);
* a load-shedding hook reusing the runtime layer's QoS policy
  vocabulary (:func:`~repro.runtime.manager.make_qos_policy`): when the
  pending queue exceeds ``max_pending``, ``reject`` refuses the
  newcomer, ``evict`` sheds the *oldest* pending query instead, and
  ``downgrade`` serves the newcomer under a cheaper waiting model,
  marked as degraded in the response;
* graceful shutdown: a ``shutdown`` request (or :meth:`aclose`) stops
  accepting work, drains every pending query to a real answer, and
  only then tears the loop down.
"""

from __future__ import annotations

import asyncio
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.runtime.manager import (
    DowngradePolicy,
    EvictLowestPriorityPolicy,
    QoSPolicy,
    RejectPolicy,
    make_qos_policy,
)
from repro.service.cache import ResultCache
from repro.service.pool import EnginePool
from repro.service.workers import DEFAULT_SPLIT_THRESHOLD, SolverPool
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SHUTTING_DOWN,
    JsonLinesEndpoint,
    Query,
    member_results,
    parse_cache_entries,
    parse_cache_export,
    parse_estimate,
    parse_estimate_batch,
    parse_place,
    settled,
    unique_queries,
)
from repro.telemetry import COUNT_BUCKETS, MetricsRegistry, Tracer

#: Waiting model served under the ``downgrade`` shedding policy — the
#: cheap direct-composition technique (Eq. 6/7), batch-capable like the
#: default model, so degraded traffic still micro-batches.
DEFAULT_DEGRADED_MODEL = "composability"


class ServerStats:
    """Counters behind the ``stats`` op (all since server start).

    A *view* over the server's metrics registry: every counter is a
    registry instrument (visible in the ``metrics`` exposition), and the
    ``stats`` response reads the very same instruments — the two
    surfaces cannot drift.  Instruments are created ``always=True`` so
    the byte-compatible ``stats`` contract holds even when telemetry is
    disabled via ``REPRO_TELEMETRY=0``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        counter = registry.counter
        self._requests = counter(
            "repro_service_requests_total",
            "Requests received, any operation",
            always=True,
        )
        self._estimate_requests = counter(
            "repro_service_estimate_requests_total",
            "Estimate requests received",
            always=True,
        )
        self._solved_queries = counter(
            "repro_service_solved_queries_total",
            "Deduplicated queries answered by a batched solve",
            always=True,
        )
        self._batches = counter(
            "repro_service_batches_total",
            "Micro-batches drained by the batcher",
            always=True,
        )
        self._batched_queries = counter(
            "repro_service_batched_queries_total",
            "Pending queries drained into micro-batches",
            always=True,
        )
        self._shed = counter(
            "repro_service_shed_total",
            "Queries refused by the overload policy",
            always=True,
        )
        self._evicted = counter(
            "repro_service_evicted_total",
            "Pending queries evicted by newer arrivals under overload",
            always=True,
        )
        self._degraded = counter(
            "repro_service_degraded_total",
            "Queries downgraded to the cheaper waiting model",
            always=True,
        )
        self._errors = counter(
            "repro_service_errors_total",
            "Requests answered with an error response",
            always=True,
        )
        self._disconnects = counter(
            "repro_service_disconnects_total",
            "Pending queries dropped because their client disconnected",
            always=True,
        )
        self._max_batch = registry.gauge(
            "repro_service_max_batch",
            "Largest micro-batch drained so far",
            always=True,
        )
        self._batch_size = registry.histogram(
            "repro_service_batch_size",
            "Queries per drained micro-batch",
            buckets=COUNT_BUCKETS,
            always=True,
        )
        self._batch_groups = registry.histogram(
            "repro_service_batch_groups",
            "Distinct (gallery, model, method) groups per micro-batch",
            buckets=COUNT_BUCKETS,
            always=True,
        )
        self._queue_wait = registry.histogram(
            "repro_service_queue_wait_seconds",
            "Seconds estimate queries spent in the pending queue",
            always=True,
        )

    # -- mutators (the only writers of these instruments) --------------

    def record_request(self) -> None:
        self._requests.inc()

    def record_estimate_request(self) -> None:
        self._estimate_requests.inc()

    def record_error(self) -> None:
        self._errors.inc()

    def record_shed(self) -> None:
        self._shed.inc()

    def record_evicted(self) -> None:
        self._evicted.inc()

    def record_degraded(self) -> None:
        self._degraded.inc()

    def record_disconnect(self) -> None:
        self._disconnects.inc()

    def record_batch(self, size: int) -> None:
        self._batches.inc()
        self._batched_queries.inc(size)
        self._max_batch.set_max(size)
        self._batch_size.observe(size)

    def record_groups(self, count: int) -> None:
        self._batch_groups.observe(count)

    def record_solved(self, count: int) -> None:
        self._solved_queries.inc(count)

    def observe_queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(seconds)

    # -- read view (field names of the former dataclass) ----------------

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def estimate_requests(self) -> int:
        return int(self._estimate_requests.value)

    @property
    def solved_queries(self) -> int:
        return int(self._solved_queries.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def batched_queries(self) -> int:
        return int(self._batched_queries.value)

    @property
    def max_batch(self) -> int:
        return int(self._max_batch.value)

    @property
    def shed(self) -> int:
        return int(self._shed.value)

    @property
    def evicted(self) -> int:
        return int(self._evicted.value)

    @property
    def degraded(self) -> int:
        return int(self._degraded.value)

    @property
    def errors(self) -> int:
        return int(self._errors.value)

    @property
    def disconnects(self) -> int:
        return int(self._disconnects.value)

    @property
    def mean_batch(self) -> float:
        batches = self._batches.value
        return self._batched_queries.value / batches if batches else 0.0


@dataclass
class _PendingQuery:
    """One enqueued question plus where its answer goes."""

    query: Query
    future: "asyncio.Future[Dict[str, object]]"
    requested_model: str
    trace_id: Optional[str] = None
    enqueued: float = 0.0
    #: Connection token of the submitting client — disconnect reaping
    #: drops every pending entry carrying a dead connection's token.
    conn: Optional[object] = None

    @property
    def degraded_from(self) -> Optional[str]:
        if self.query.model == self.requested_model:
            return None
        return self.requested_model


class EstimationServer(JsonLinesEndpoint):
    """Async micro-batching estimation service over warm engine pools.

    Parameters
    ----------
    pool / cache:
        Warm estimator pool and LRU result cache; built with defaults
        when omitted (``ResultCache(0)`` disables caching).
    max_batch:
        Most queries drained into one micro-batch.  The batcher never
        lingers: when the solver is free a lone miss is solved at once,
        and a batch forms from whatever arrives while a solve runs.
    max_pending:
        Queue depth that counts as overload; beyond it the shedding
        policy decides.
    shed_policy:
        Runtime QoS policy name or instance
        (:func:`~repro.runtime.manager.make_qos_policy`):
        ``reject``, ``evict`` or ``downgrade``/``downgrade-greedy``.
    degraded_model:
        Waiting model served under ``downgrade`` shedding.
    fixed_point_iterations:
        Fixed-point refinement passes every solve runs (the
        ``estimate_many`` knob).  A server-wide setting — it shapes
        every answer the server may cache, so it is server
        configuration, not a per-query field.  On the batched pipeline
        refinement iterates the whole micro-batch with a per-row
        convergence mask, so the batching payoff survives
        ``iterations > 1``.
    solver_workers:
        ``0`` (default) keeps the single solver *thread* — engines are
        stateful, one thread serializes every batch.  ``>= 1`` runs a
        :class:`~repro.service.workers.SolverPool` of persistent worker
        *processes* instead (capped at the CPU count): each worker owns
        a warm per-process engine pool, batches dispatch with
        gallery affinity, and large single-gallery groups split across
        workers so multi-core hardware actually solves in parallel.
    split_threshold:
        Solver-pool group size above which one batch fans out across
        workers (ignored in single-thread mode).
    """

    def __init__(
        self,
        pool: Optional[EnginePool] = None,
        cache: Optional[ResultCache] = None,
        max_batch: int = 128,
        max_pending: int = 1024,
        shed_policy: "QoSPolicy | str" = "reject",
        degraded_model: str = DEFAULT_DEGRADED_MODEL,
        fixed_point_iterations: int = 1,
        solver_workers: int = 0,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        if fixed_point_iterations < 1:
            raise ServiceError(
                "fixed_point_iterations must be >= 1, got "
                f"{fixed_point_iterations}"
            )
        if solver_workers < 0:
            raise ServiceError(
                f"solver_workers must be >= 0, got {solver_workers}"
            )
        # Each server owns its registry: embedded deployments and tests
        # run several servers per process, and the ``stats`` contract
        # ("all since server start") must not bleed across instances.
        # Library-level metrics (engines, estimators) accumulate in the
        # process-global registry; :meth:`render_metrics` merges both.
        if registry is None:
            registry = MetricsRegistry(enabled=True)
        self.stats = ServerStats(registry)
        super().__init__(
            {
                "ping": self._ping,
                "estimate": self._estimate,
                "estimate_batch": self._estimate_batch,
                "place": self._place,
                "stats": self._stats,
                "metrics": self._metrics,
                "cache_export": self._cache_export,
                "cache_import": self._cache_import,
                "shutdown": self._shutdown,
            },
            registry=registry,
            tracer=tracer if tracer is not None else Tracer(),
            count_request=self.stats.record_request,
            count_error=self.stats.record_error,
            request_span="service.request",
        )
        self.pool = (
            pool
            if pool is not None
            else EnginePool(registry=self.registry)
        )
        self.cache = (
            cache if cache is not None else ResultCache(registry=self.registry)
        )
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.shed_policy = make_qos_policy(shed_policy)
        self.degraded_model = degraded_model
        self.fixed_point_iterations = fixed_point_iterations
        self.solver_workers = solver_workers
        self.split_threshold = split_threshold
        self._metric_place = self.registry.counter(
            "repro_service_place_requests_total",
            "Placement searches served",
        )
        self._pending: Deque[_PendingQuery] = deque()
        self._arrival: Optional[asyncio.Event] = None
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._workers: Optional[SolverPool] = None
        self._busy = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_running(self) -> None:
        if self._arrival is None:
            self._arrival = asyncio.Event()
            if self.solver_workers > 0:
                # Multiprocess mode: persistent worker processes with
                # warm per-process engine pools; the in-process
                # EnginePool stays quiescent (nothing mutates it), so
                # stats may read it loop-side directly.
                self._workers = SolverPool(
                    self.solver_workers,
                    max_galleries=self.pool.max_galleries,
                    split_threshold=self.split_threshold,
                    registry=self.registry,
                    tracer=self.tracer,
                )
            else:
                # One worker thread on purpose: analysis engines are
                # stateful and not thread-safe; a single solver thread
                # serializes every batch while the event loop keeps
                # accepting (and coalescing) new queries.
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-service"
                )
            self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        self._ensure_running()
        return await super().start(host, port)

    async def serve_stdio(self) -> None:
        """Serve this process's stdin/stdout (the ``--stdio`` mode)
        until EOF or a ``shutdown`` request, then drain and stop."""
        self._ensure_running()
        try:
            await self.serve_pipes(sys.stdin, sys.stdout)
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Graceful stop: refuse new queries, drain pending to real
        answers, then tear down the batcher, executor and listeners."""
        self._stop_accepting()
        if self._arrival is not None:
            self._arrival.set()  # wake the batcher for the final drain
            while self._pending or self._busy:
                await asyncio.sleep(0.005)
            # Give handlers awaiting a just-resolved future a chance to
            # flush their response before their transport goes away.
            await asyncio.sleep(0.02)
        await self._close_connections()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._workers is not None:
            self._workers.shutdown(wait=True)
            self._workers = None

    def _drop_disconnected(self, conn: object) -> None:
        """Remove a dead connection's entries from the pending queue.

        A dead entry would otherwise sit in the queue holding
        ``max_pending`` capacity and could shed a live client's query.
        Its future is cancelled (nobody can read an answer), the
        serving task unwinds, and live clients keep the capacity.
        """
        if not self._pending:
            return
        survivors: List[_PendingQuery] = []
        dropped = 0
        for pending in self._pending:
            if pending.conn is conn and not pending.future.done():
                pending.future.cancel()
                self.stats.record_disconnect()
                dropped += 1
            else:
                survivors.append(pending)
        if dropped:
            self._pending.clear()
            self._pending.extend(survivors)

    # ------------------------------------------------------------------
    # Operations: ``(payload, trace_id, conn)`` in; the result out, or
    # an awaitable of it when the answer waits for a solve
    # ------------------------------------------------------------------
    def _ping(self, *_: object) -> Dict[str, object]:
        return {"pong": True, "protocol": PROTOCOL_VERSION}

    def _estimate(
        self, payload: Dict[str, object], trace_id: Optional[str], conn: object
    ) -> object:
        future = self._submit(parse_estimate(payload), trace_id, conn)
        return settled([future], lambda: _echo_trace(future.result(), trace_id))

    def _estimate_batch(
        self, payload: Dict[str, object], trace_id: Optional[str], conn: object
    ) -> object:
        """N same-gallery questions in one framed message (the router's
        shard hop).

        Each question goes through the ordinary :meth:`_submit` intake
        — cache fast path, shedding, pending queue — so a batch member
        is indistinguishable from a single estimate once enqueued.
        Failures are per-member (``{"error": ...}`` in that member's
        slot): one shed or failed question must not poison its
        batch-mates' answers.  A batch of cache hits is answered at
        once; one miss makes the whole answer wait.
        """
        futures = [
            self._submit(query, trace_id, conn)
            for query in parse_estimate_batch(payload)
        ]
        return settled(
            futures,
            lambda: _echo_trace({"results": member_results(futures)}, trace_id),
        )

    def _cache_import(
        self, payload: Dict[str, object], *_: object
    ) -> Dict[str, object]:
        return {"imported": self.cache.import_entries(parse_cache_entries(payload))}

    # ------------------------------------------------------------------
    # Query intake: cache fast path, overload shedding, enqueue
    # ------------------------------------------------------------------
    def _submit(
        self,
        query: Query,
        trace_id: Optional[str] = None,
        conn: Optional[object] = None,
    ) -> "asyncio.Future[Dict[str, object]]":
        """Take one question in; returns the future of its answer.

        A cache hit resolves at once; a refused question (shutdown or
        overload shedding) resolves to its error.
        """
        self.stats.record_estimate_request()
        future = asyncio.get_running_loop().create_future()
        requested_model = query.model
        try:
            if self._closing:
                raise ServiceError(SHUTTING_DOWN)
            cached = self.cache.get(query.key)
            if cached is not None:
                future.set_result(dict(cached, cached=True))
                return future
            if len(self._pending) >= self.max_pending:
                query = self._shed(query)
        except ServiceError as error:
            future.set_exception(error)
            return future
        self._pending.append(
            _PendingQuery(
                query=query,
                future=future,
                requested_model=requested_model,
                trace_id=trace_id,
                enqueued=time.perf_counter(),
                conn=conn,
            )
        )
        assert self._arrival is not None
        self._arrival.set()
        return future

    def _cache_export(
        self, payload: Dict[str, object], *_: object
    ) -> Dict[str, object]:
        """The ``cache_export`` op: portable warm answers per gallery.

        The response always names every cached gallery, so a router
        planning a hand-off can learn what this shard holds and fetch
        the moving galleries' entries in the same round-trip.
        """
        galleries, limit = parse_cache_export(payload)
        cached = self.cache.gallery_labels()
        wanted = cached if galleries is None else [
            label for label in galleries if label in set(cached)
        ]
        entries = []
        for label in wanted:
            for key, value in self.cache.export_gallery(label, limit=limit):
                entries.append([list(key), value])
        return {"galleries": cached, "entries": entries}

    def _shed(self, query: Query) -> Query:
        """Apply the overload policy; returns the (possibly degraded)
        query to enqueue, or raises for the rejected newcomer."""
        policy = self.shed_policy
        if isinstance(policy, EvictLowestPriorityPolicy):
            victim = self._pending.popleft()
            self.stats.record_evicted()
            victim.future.set_exception(
                ServiceError(
                    f"overloaded: evicted by a newer query while "
                    f"{self.max_pending} queries were pending "
                    f"({policy.name} policy)"
                )
            )
            return query
        if isinstance(policy, DowngradePolicy):
            if query.model != self.degraded_model:
                self.stats.record_degraded()
                return query.degraded(self.degraded_model)
            # Already at the degraded model: there is nothing cheaper
            # to serve, so the queue bound must still hold — fall back
            # to rejecting, like the runtime policy's "no feasible
            # assignment" outcome.
            self.stats.record_shed()
            raise ServiceError(
                f"overloaded: {self.max_pending} queries pending and "
                f"{query.model!r} is already the degraded model "
                f"({policy.name} policy)"
            )
        if not isinstance(policy, RejectPolicy):  # pragma: no cover
            raise ServiceError(
                f"shedding has no mapping for QoS policy {policy.name!r}"
            )
        self.stats.record_shed()
        raise ServiceError(
            f"overloaded: {self.max_pending} queries pending "
            f"({policy.name} policy)"
        )

    def _stats(self, *_: object) -> object:
        """The ``stats`` op: loop-side counters plus the pool view.

        Solves mutate the pool on the solver thread, so while a batch
        runs the pool is read there, serialized against the solve; with
        no batch running nothing touches it and the answer is
        immediate.  A solver pool's workers are asked for their view."""
        if self._workers is None and not self._busy:
            return self.snapshot()

        async def solver_side() -> Dict[str, object]:
            if self._workers is not None:
                return self.snapshot(workers=await self._workers.snapshot())
            loop = asyncio.get_running_loop()
            pool = await loop.run_in_executor(self._executor, self.pool.snapshot)
            return self.snapshot(pool=pool)

        return solver_side()

    async def _place(
        self, payload: Dict[str, object], trace_id: Optional[str], conn: object
    ) -> Dict[str, object]:
        """The ``place`` op: a placement search over a named gallery.

        Runs on the default executor with its own fresh analysis
        engines — placement is a control-plane question (rare, heavier
        than one estimate) and must not contend for the solver thread's
        warm engine pool or block the event loop.  The search is
        seeded and wall-clock-free, so the JSON it returns is
        byte-identical to an in-process :func:`repro.search.place` call
        with the same parameters — which also makes the op idempotent
        and safe for router failover retries.
        """
        from repro.search import place as run_place

        query = parse_place(payload)

        def _run() -> Dict[str, object]:
            suite = query.gallery.build()
            result = run_place(
                list(suite.graphs),
                platform=suite.platform,
                targets=query.targets,
                slack=query.slack,
                strategy=query.strategy,
                model=query.model,
                method=query.method,
                objective=query.objective,
                seed=query.seed,
                mappings=query.mappings,
                weight_choices=query.weights,
                priority_levels=query.priority_levels,
            )
            return result.to_json()

        loop = asyncio.get_running_loop()
        with self.tracer.span(
            "service.place",
            trace_id=trace_id,
            gallery=query.gallery.label(),
            strategy=query.strategy,
        ):
            placement = await loop.run_in_executor(None, _run)
        self._metric_place.inc()
        return _echo_trace(
            {
                "gallery": query.gallery.label(),
                "strategy": query.strategy,
                "placement": placement,
            },
            trace_id,
        )

    # ------------------------------------------------------------------
    # The batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._arrival is not None
        while True:
            if not self._pending:
                self._arrival.clear()
                await self._arrival.wait()
            batch: List[_PendingQuery] = []
            while self._pending and len(batch) < self.max_batch:
                batch.append(self._pending.popleft())
            if not batch:
                continue
            self._busy = True
            try:
                await self._run_batch(batch)
            finally:
                self._busy = False

    async def _run_batch(self, batch: List[_PendingQuery]) -> None:
        drained = time.perf_counter()
        for pending in batch:
            wait = drained - pending.enqueued
            self.stats.observe_queue_wait(wait)
            # Retroactive per-query span: the wait already happened, so
            # it is recorded as a finished interval carrying the
            # client's trace id.
            self.tracer.record(
                "service.queue_wait",
                start=pending.enqueued,
                duration=wait,
                trace_id=pending.trace_id,
            )
        self.stats.record_batch(len(batch))
        groups: Dict[Tuple[str, str, str], List[_PendingQuery]] = {}
        for pending in batch:
            groups.setdefault(pending.query.group, []).append(pending)
        self.stats.record_groups(len(groups))
        with self.tracer.span(
            "service.batch", size=len(batch), groups=len(groups)
        ):
            if self._workers is not None:
                # Multiprocess mode: distinct groups hash to distinct
                # workers, so solving them concurrently uses the fleet;
                # the single solver thread below could only serialize.
                await asyncio.gather(
                    *[
                        self._dispatch_group(members, len(batch))
                        for members in groups.values()
                    ]
                )
            else:
                for members in groups.values():
                    await self._dispatch_group(members, len(batch))

    async def _dispatch_group(
        self, members: List[_PendingQuery], batch_size: int
    ) -> None:
        """Solve one ``(gallery, model, method)`` group and resolve its
        members' futures."""
        unique, trace_ids = unique_queries(members)
        queries = list(unique.values())
        first = queries[0]
        self.stats.record_solved(len(queries))
        try:
            with self.tracer.span(
                "service.solve",
                trace_id=trace_ids[0] if len(trace_ids) == 1 else None,
                gallery=first.gallery.label(),
                model=first.model,
                method=first.method.value,
                queries=len(queries),
                trace_ids=list(trace_ids),
            ):
                if self._workers is not None:
                    payloads = await self._workers.solve(
                        queries, self.fixed_point_iterations
                    )
                else:
                    payloads = await asyncio.get_running_loop().run_in_executor(
                        self._executor,
                        self.pool.solve,
                        queries,
                        self.fixed_point_iterations,
                    )
        except Exception as error:
            # Any solver failure answers the whole group; the
            # batcher itself must survive to serve the next batch.
            for pending in members:
                if not pending.future.done():
                    pending.future.set_exception(ServiceError(str(error)))
            return
        by_key = dict(zip(unique.keys(), payloads))
        for key, payload in by_key.items():
            payload["batch_size"] = batch_size
            self.cache.put(key, payload)
        for pending in members:
            if pending.future.done():  # evicted or disconnected mid-flight
                continue
            payload = dict(
                by_key[pending.query.key],
                cached=False,
                degraded=pending.degraded_from,
            )
            pending.future.set_result(payload)

    # ------------------------------------------------------------------
    def snapshot(
        self,
        pool: Optional[Dict[str, object]] = None,
        workers: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Everything the ``stats`` op reports (JSON-serializable).

        Safe to call directly on a quiesced server (tests, benches);
        while solves are in flight the protocol path supplies ``pool``
        captured on the solver thread instead (see
        :meth:`_stats`).  ``workers`` is the solver pool's
        deep view when the ``stats`` op gathered one; the direct path
        reports the loop-side view.
        """
        if workers is None and self._workers is not None:
            workers = self._workers.local_snapshot()
        return {
            "protocol": PROTOCOL_VERSION,
            "requests": self.stats.requests,
            "estimate_requests": self.stats.estimate_requests,
            "solved_queries": self.stats.solved_queries,
            "batches": self.stats.batches,
            "batched_queries": self.stats.batched_queries,
            "mean_batch": self.stats.mean_batch,
            "max_batch": self.stats.max_batch,
            "pending": len(self._pending),
            "shed": self.stats.shed,
            "evicted": self.stats.evicted,
            "degraded": self.stats.degraded,
            "errors": self.stats.errors,
            "disconnects": self.stats.disconnects,
            "shed_policy": self.shed_policy.name,
            "cache": self.cache.snapshot(),
            "pool": pool if pool is not None else self.pool.snapshot(),
            "workers": workers,
        }


def _echo_trace(
    result: Dict[str, object], trace_id: Optional[str]
) -> Dict[str, object]:
    """Echo the client's trace id in the result, so a pipelined client
    can correlate answer, request and the spans carrying the id."""
    if trace_id is not None:
        result["trace"] = trace_id
    return result
