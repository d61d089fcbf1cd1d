"""The multiprocess solver pool behind the estimation server.

The micro-batcher's original solver was one worker *thread* — engines
are stateful, so one thread serialized every batch, and the 3.8x
micro-batching win was capped at a single core.  :class:`SolverPool`
lifts that cap: each worker slot is its own single-process
``ProcessPoolExecutor`` whose long-lived worker owns a warm per-process
:class:`~repro.service.pool.EnginePool`, so batches of different
galleries solve genuinely in parallel while every gallery's structural
work is still paid once.  The same pool fans out ``repro sweep --jobs
N`` (:class:`~repro.runtime.service.SweepService`).

Placement is gallery-affine via the consistent-hash ring
(:class:`~repro.service.hashring.HashRing`): a gallery's batches land
on one home worker whose engine pool stays warm.  Large single-gallery
batches would leave the other cores idle, so a group bigger than
``split_threshold`` is *split* across workers, fanning out from the
home worker along the ring — the affinity worker keeps the warmest
pool, spill workers warm up only under load that justifies them.

Workers are processes and processes die.  A ``BrokenProcessPool`` on a
slot respawns that slot's executor (fresh process, cold pool) and
re-drives every batch that was in flight on it — estimates are
idempotent, so re-driving is always safe and no pending future is ever
dropped.  Respawns, per-worker batch counts and solve spans are
exported through the server's registry as ``repro_service_worker_*``.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.service.hashring import HashRing
from repro.service.protocol import Query
from repro.telemetry import MetricsRegistry, Tracer, get_registry

#: Queries per group below which a batch stays whole on its home
#: worker.  Splitting pays one IPC round-trip per extra worker, so tiny
#: groups are cheaper warm-and-serial than cold-and-parallel.
DEFAULT_SPLIT_THRESHOLD = 16

#: How often a broken slot may be respawned for one submitted batch
#: before the failure is reported to the queries instead of retried —
#: a batch that kills every process it touches must not respawn
#: workers forever.
MAX_REDRIVES = 2

# ----------------------------------------------------------------------
# Worker-process side: module globals, initialized once per process.
# ----------------------------------------------------------------------
_WORKER_POOL = None
_WORKER_INDEX: int = -1


def _init_worker(index: int, max_galleries: int) -> None:
    """Process initializer: build this worker's warm engine pool."""
    global _WORKER_POOL, _WORKER_INDEX
    from repro.service.pool import EnginePool

    _WORKER_INDEX = index
    _WORKER_POOL = EnginePool(max_galleries=max_galleries)


def _worker_solve(queries: List[Query], iterations: int) -> List[Dict[str, object]]:
    """Worker entry: one batched solve on the process-local pool."""
    assert _WORKER_POOL is not None, "worker used before initialization"
    return _WORKER_POOL.solve(queries, iterations)


def _worker_snapshot() -> Dict[str, object]:
    """This worker's pool counters, for the ``stats`` op."""
    assert _WORKER_POOL is not None, "worker used before initialization"
    return dict(_WORKER_POOL.snapshot(), worker=_WORKER_INDEX)


# ----------------------------------------------------------------------
# Loop side
# ----------------------------------------------------------------------
class SolverPool:
    """N persistent solver processes with gallery-affine dispatch.

    Parameters
    ----------
    workers:
        Worker process count; capped at ``os.cpu_count()`` — more
        processes than cores only adds context-switching to a
        CPU-bound solver.
    max_galleries:
        Per-worker engine-pool LRU bound.
    split_threshold:
        Group size above which one batch fans out across workers.
    """

    def __init__(
        self,
        workers: int,
        max_galleries: int = 8,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if split_threshold < 1:
            raise ServiceError(
                f"split_threshold must be >= 1, got {split_threshold}"
            )
        self.workers = min(workers, os.cpu_count() or 1)
        self.max_galleries = max_galleries
        self.split_threshold = split_threshold
        self.tracer = tracer if tracer is not None else Tracer()
        registry = registry if registry is not None else get_registry()
        self._metric_batches = registry.counter(
            "repro_service_worker_batches_total",
            "Batches dispatched to solver-pool workers",
            always=True,
        )
        self._metric_queries = registry.counter(
            "repro_service_worker_queries_total",
            "Queries solved by solver-pool workers",
            always=True,
        )
        self._metric_splits = registry.counter(
            "repro_service_worker_splits_total",
            "Groups fanned out across several workers for parallelism",
            always=True,
        )
        self._metric_respawns = registry.counter(
            "repro_service_worker_respawns_total",
            "Worker processes respawned after a crash",
            always=True,
        )
        self._metric_redrives = registry.counter(
            "repro_service_worker_redrives_total",
            "In-flight batches re-driven after a worker crash",
            always=True,
        )
        # Ring nodes are worker *slots*; a respawned slot keeps its
        # name, so affinity survives crashes.
        self._ring = HashRing([f"worker-{i}" for i in range(self.workers)])
        self._executors: List[Optional[ProcessPoolExecutor]] = [
            None for _ in range(self.workers)
        ]
        self._generations: List[int] = [0 for _ in range(self.workers)]
        self._batch_counts: List[int] = [0 for _ in range(self.workers)]
        self._closed = False

    # -- slot management ------------------------------------------------
    def _executor(self, slot: int) -> ProcessPoolExecutor:
        if self._closed:
            raise ServiceError("solver pool is closed")
        executor = self._executors[slot]
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(slot, self.max_galleries),
            )
            self._executors[slot] = executor
        return executor

    def _respawn(self, slot: int, observed_generation: int) -> None:
        """Replace a broken slot executor exactly once per crash.

        Several batches can be in flight on one slot when its process
        dies; each sees ``BrokenProcessPool`` and calls in here, but
        only the first caller (whose observed generation still matches)
        actually pays the respawn — the rest just re-drive onto the
        fresh executor.
        """
        if self._generations[slot] != observed_generation:
            return
        self._generations[slot] += 1
        broken = self._executors[slot]
        self._executors[slot] = None
        self._metric_respawns.inc()
        if broken is not None:
            broken.shutdown(wait=False)

    def worker_for(self, gallery_label: str) -> int:
        """The home worker slot of a gallery (stable, affinity)."""
        return int(self._ring.node_for(gallery_label).split("-")[1])

    def _plan(self, queries: List[Query]) -> List[Tuple[int, List[Query]]]:
        """Assign one group's queries to worker slots.

        Small groups stay whole on the home worker; a group larger than
        ``split_threshold`` splits into roughly equal chunks fanning
        out from the home worker along the ring's preference order.
        """
        label = queries[0].gallery.label()
        order = [
            int(node.split("-")[1]) for node in self._ring.nodes_for(label)
        ]
        if len(queries) <= self.split_threshold or len(order) == 1:
            return [(order[0], queries)]
        chunks = min(
            len(order),
            (len(queries) + self.split_threshold - 1) // self.split_threshold,
        )
        self._metric_splits.inc()
        return [
            (order[index], queries[index::chunks]) for index in range(chunks)
        ]

    # -- solving --------------------------------------------------------
    async def solve(
        self, queries: List[Query], iterations: int = 1
    ) -> List[Dict[str, object]]:
        """Solve one ``(gallery, model, method)`` group; returns one
        payload per query, in query order."""
        plan = self._plan(queries)
        chunk_payloads = await asyncio.gather(
            *[
                self._solve_chunk(slot, chunk, iterations)
                for slot, chunk in plan
            ]
        )
        if len(plan) == 1:
            return chunk_payloads[0]
        # Undo the strided split: chunk i holds queries[i::chunks].
        merged: List[Optional[Dict[str, object]]] = [None] * len(queries)
        for index, payloads in enumerate(chunk_payloads):
            for offset, payload in enumerate(payloads):
                merged[index + offset * len(plan)] = payload
        assert all(payload is not None for payload in merged)
        return merged  # type: ignore[return-value]

    async def _solve_chunk(
        self, slot: int, queries: List[Query], iterations: int
    ) -> List[Dict[str, object]]:
        first = queries[0]
        loop = asyncio.get_running_loop()
        for attempt in range(MAX_REDRIVES + 1):
            generation = self._generations[slot]
            executor = self._executor(slot)
            try:
                with self.tracer.span(
                    "service.worker_solve",
                    worker=slot,
                    gallery=first.gallery.label(),
                    model=first.model,
                    queries=len(queries),
                    attempt=attempt,
                ):
                    payloads = await loop.run_in_executor(
                        executor, _worker_solve, queries, iterations
                    )
            except BrokenProcessPool:
                # The worker process died under this batch.  Respawn
                # the slot (once across concurrent observers) and
                # re-drive: estimates are idempotent, the queries lose
                # nothing but time.
                self._respawn(slot, generation)
                if attempt == MAX_REDRIVES:
                    raise ServiceError(
                        f"solver worker {slot} died "
                        f"{MAX_REDRIVES + 1} times under one batch"
                    ) from None
                self._metric_redrives.inc()
                continue
            self._metric_batches.inc()
            self._metric_queries.inc(len(queries))
            self._batch_counts[slot] += 1
            return payloads
        raise AssertionError("unreachable")  # pragma: no cover

    # -- maintenance ----------------------------------------------------
    def local_snapshot(self) -> Dict[str, object]:
        """Loop-side pool view — no worker round-trips, safe anywhere."""
        return {
            "workers": self.workers,
            "split_threshold": self.split_threshold,
            "respawns": int(self._metric_respawns.value),
            "redrives": int(self._metric_redrives.value),
            "per_worker": [
                {
                    "worker": slot,
                    "spawned": self._executors[slot] is not None,
                    "batches": self._batch_counts[slot],
                }
                for slot in range(self.workers)
            ],
        }

    async def snapshot(self) -> Dict[str, object]:
        """Pool-wide view for the ``stats`` op, enriched with each live
        worker's in-process engine-pool counters."""
        loop = asyncio.get_running_loop()
        view = self.local_snapshot()
        for entry in view["per_worker"]:  # type: ignore[union-attr]
            slot = entry["worker"]
            if self._executors[slot] is not None:
                try:
                    entry.update(
                        await loop.run_in_executor(
                            self._executors[slot], _worker_snapshot
                        )
                    )
                except BrokenProcessPool:
                    entry["spawned"] = False
        return view

    def shutdown(self, wait: bool = True) -> None:
        """Join every worker process (idempotent)."""
        self._closed = True
        for slot, executor in enumerate(self._executors):
            if executor is not None:
                executor.shutdown(wait=wait)
                self._executors[slot] = None
