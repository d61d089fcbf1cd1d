"""Tests of the multiprocess solver pool behind the estimation server.

Every scenario runs real worker *processes* (single-worker
``ProcessPoolExecutor`` slots) — parity against the thread-mode server,
gallery affinity, strided group splitting, crash respawn/re-drive,
graceful shutdown that leaves no child process behind, plus the
concurrency fix that makes the pool safe to operate: eager reaping of
disconnected clients' pending queries.

Worker counts are capped at ``os.cpu_count()`` in production; tests
monkeypatch the count up so multi-worker placement is exercised even
on one-core runners (correctness does not depend on real parallelism).
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os

import pytest

from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import encode_message, parse_estimate
from repro.service.server import EstimationServer
from repro.service.workers import SolverPool
from repro.telemetry import MetricsRegistry

GALLERY = {"kind": "paper", "seed": 2007, "applications": 4}


def names():
    from repro.runtime.service import GallerySpec

    return GallerySpec(
        kind="paper", seed=2007, application_count=4
    ).application_names()


def all_single_queries():
    """One parsed query per application — distinct, same gallery."""
    return [
        parse_estimate({"gallery": GALLERY, "use_case": [name]})
        for name in names()
    ]


def serve(coroutine_factory, **server_kwargs):
    """Run one async scenario against a fresh TCP server."""

    async def scenario():
        server = EstimationServer(**server_kwargs)
        host, port = await server.start()
        try:
            return await coroutine_factory(server, host, port)
        finally:
            await server.aclose()

    return asyncio.run(scenario())


@pytest.fixture
def many_cpus(monkeypatch):
    """Lift the worker cap so placement tests see several slots."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


# ----------------------------------------------------------------------
# SolverPool directly
# ----------------------------------------------------------------------
class TestSolverPool:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError, match="workers"):
            SolverPool(0)
        with pytest.raises(ServiceError, match="split_threshold"):
            SolverPool(1, split_threshold=0)

    def test_worker_count_capped_at_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pool = SolverPool(8, registry=MetricsRegistry(enabled=True))
        assert pool.workers == 2

    def test_affinity_is_stable_per_gallery(self, many_cpus):
        pool = SolverPool(4, registry=MetricsRegistry(enabled=True))
        label = "paper:2007:4"
        home = pool.worker_for(label)
        assert all(pool.worker_for(label) == home for _ in range(16))
        # Different galleries spread over slots (not all on one).
        homes = {
            pool.worker_for(f"paper:{seed}:4") for seed in range(40)
        }
        assert len(homes) > 1

    def test_small_group_stays_on_home_worker(self, many_cpus):
        pool = SolverPool(
            4, split_threshold=16, registry=MetricsRegistry(enabled=True)
        )
        queries = all_single_queries()
        plan = pool._plan(queries)
        assert len(plan) == 1
        assert plan[0][0] == pool.worker_for(queries[0].gallery.label())
        assert plan[0][1] == queries

    def test_large_group_splits_stride_wise(self, many_cpus):
        pool = SolverPool(
            4, split_threshold=1, registry=MetricsRegistry(enabled=True)
        )
        queries = all_single_queries()
        plan = pool._plan(queries)
        assert len(plan) == 4
        slots = [slot for slot, _ in plan]
        assert len(set(slots)) == 4
        assert slots[0] == pool.worker_for(queries[0].gallery.label())
        # Strided chunks cover every query exactly once.
        covered = [query for _, chunk in plan for query in chunk]
        assert sorted(q.key for q in covered) == sorted(
            q.key for q in queries
        )

    def test_solve_merges_split_results_in_query_order(self, many_cpus):
        async def scenario():
            pool = SolverPool(
                2,
                split_threshold=1,
                registry=MetricsRegistry(enabled=True),
            )
            try:
                queries = all_single_queries()
                whole = SolverPool(
                    1, registry=MetricsRegistry(enabled=True)
                )
                try:
                    split_payloads = await pool.solve(queries)
                    whole_payloads = await whole.solve(queries)
                finally:
                    whole.shutdown()
                assert [p["use_case"] for p in split_payloads] == [
                    [name] for name in names()
                ]
                for split, reference in zip(split_payloads, whole_payloads):
                    assert split["use_case"] == reference["use_case"]
                    assert split["periods"] == reference["periods"]
                snapshot = pool.local_snapshot()
                assert [
                    entry["batches"]
                    for entry in snapshot["per_worker"]
                ] == [1, 1]
            finally:
                pool.shutdown()

        asyncio.run(scenario())

    def test_crashed_worker_respawns_and_redrives(self):
        async def scenario():
            pool = SolverPool(1, registry=MetricsRegistry(enabled=True))
            try:
                queries = all_single_queries()
                first = await pool.solve(queries)
                # Kill the worker process under the pool.
                with contextlib.suppress(Exception):
                    pool._executors[0].submit(os._exit, 1).result()
                # The next solve sees BrokenProcessPool, respawns the
                # slot and re-drives — the caller just gets answers.
                second = await pool.solve(queries)
                snapshot = pool.local_snapshot()
                assert snapshot["respawns"] >= 1
                assert snapshot["redrives"] >= 1
                for a, b in zip(first, second):
                    assert a["use_case"] == b["use_case"]
                    assert b["periods"] == a["periods"]
            finally:
                pool.shutdown()

        asyncio.run(scenario())

    def test_shutdown_joins_all_worker_processes(self):
        async def scenario():
            pool = SolverPool(1, registry=MetricsRegistry(enabled=True))
            await pool.solve(all_single_queries()[:1])
            assert multiprocessing.active_children()
            pool.shutdown(wait=True)
            assert multiprocessing.active_children() == []
            with pytest.raises(ServiceError, match="closed"):
                await pool.solve(all_single_queries()[:1])

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The server in worker mode
# ----------------------------------------------------------------------
class TestWorkerModeServer:
    def test_rejects_negative_workers(self):
        with pytest.raises(ServiceError, match="solver_workers"):
            EstimationServer(solver_workers=-1)

    def test_parity_with_thread_mode(self, many_cpus):
        """The exhaustive single-app query set answers identically in
        worker mode (split across processes) and thread mode."""

        async def ask_all(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                return await asyncio.gather(
                    *[
                        client.estimate([name], gallery=GALLERY)
                        for name in names()
                    ]
                )
            finally:
                await client.aclose()

        threaded = serve(ask_all)
        pooled = serve(
            ask_all,
            solver_workers=2,
            split_threshold=1,
        )
        for a, b in zip(threaded, pooled):
            assert a["use_case"] == b["use_case"]
            assert b["periods"] == a["periods"]

    def test_stats_reports_worker_view(self, many_cpus):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                await client.estimate([names()[0]], gallery=GALLERY)
                return await client.stats()
            finally:
                await client.aclose()

        stats = serve(scenario, solver_workers=2)
        view = stats["workers"]
        assert view["workers"] == 2
        assert view["respawns"] == 0
        spawned = [
            entry for entry in view["per_worker"] if entry["spawned"]
        ]
        assert len(spawned) == 1  # affinity: one gallery, one worker
        assert spawned[0]["batches"] == 1
        # The deep view carries the worker's own engine-pool counters.
        assert spawned[0]["galleries"] == ["paper:2007:4"]

    def test_graceful_shutdown_drains_pool_to_real_answers(
        self, many_cpus, held_batcher
    ):
        """Shutdown with queries in flight: every future drains to a
        real answer and every worker process is joined."""

        async def scenario():
            server = EstimationServer(solver_workers=2, split_threshold=1)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            control = await ServiceClient.connect(host, port)
            try:
                async with held_batcher(server, len(names())):
                    pending = [
                        asyncio.ensure_future(
                            client.estimate([name], gallery=GALLERY)
                        )
                        for name in names()
                    ]
                await control.shutdown()
                results = await asyncio.gather(*pending)
            finally:
                await client.aclose()
                await control.aclose()
            await server.aclose()
            return results

        results = asyncio.run(scenario())
        assert len(results) == len(names())
        for result in results:
            assert result["periods"]
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Concurrency fix: disconnect reaping
# ----------------------------------------------------------------------
class TestDisconnectReaping:
    def test_disconnected_clients_queries_are_dropped_eagerly(
        self, held_batcher
    ):
        """A client that vanishes mid-batch must not occupy
        ``max_pending``: its entries are reaped on disconnect, so the
        next client's queries are admitted, not shed."""

        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                # The batcher is held: the ghost client files one query
                # and vanishes before any batch drains.
                async with held_batcher(server, 3):
                    _, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        encode_message(
                            {
                                "id": 1,
                                "op": "estimate",
                                "gallery": GALLERY,
                                "use_case": [names()[0]],
                            }
                        )
                    )
                    await writer.drain()
                    writer.close()
                    await asyncio.sleep(0.1)  # server observes the disconnect
                    # With max_pending=2, both live queries only fit if
                    # the ghost's entry was reaped.
                    asked = asyncio.gather(
                        client.estimate([names()[1]], gallery=GALLERY),
                        client.estimate([names()[2]], gallery=GALLERY),
                    )
                results = await asked
            finally:
                await client.aclose()
            return results, server.snapshot()

        results, stats = serve(scenario, max_pending=2)
        assert all(result["periods"] for result in results)
        assert stats["disconnects"] == 1
        assert stats["shed"] == 0
        # The reaped query was never solved on the ghost's behalf.
        assert stats["solved_queries"] == 2

    def test_live_connection_is_not_reaped(self, held_batcher):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            other = await ServiceClient.connect(host, port)
            try:
                async with held_batcher(server, 1):
                    pending = asyncio.ensure_future(
                        client.estimate([names()[0]], gallery=GALLERY)
                    )
                    await other.aclose()  # a *different* client leaves
                    await asyncio.sleep(0.05)
                result = await pending
            finally:
                await client.aclose()
            return result, server.snapshot()

        result, stats = serve(scenario)
        assert result["periods"]
        assert stats["disconnects"] == 0
