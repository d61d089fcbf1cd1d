"""Tests of the estimation service: protocol, pool, cache, server.

The async server tests each spin a real TCP server on an ephemeral
port inside ``asyncio.run`` — no event-loop plugins — and talk to it
through the public client, so what is asserted is the wire behaviour:
concurrent-client parity against direct estimation (the same bits),
cross-request dedup, cache hit semantics, overload
shedding under every QoS policy, and graceful shutdown.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ServiceConnectionError, ServiceError
from repro.experiments.service_load import (
    LATENCY_BUCKETS,
    LoadConfig,
    _client_plan,
    run_load,
)
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import UseCase, all_use_cases
from repro.runtime.service import GallerySpec, ResultStore
from repro.sdf.analysis import AnalysisMethod
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, estimate_once
from repro.service.pool import EnginePool
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    decode_message,
    encode_message,
    parse_estimate,
    parse_gallery,
)
from repro.service.server import EstimationServer

GALLERY = {"kind": "paper", "seed": 2007, "applications": 4}
SPEC = GallerySpec(kind="paper", seed=2007, application_count=4)


def names():
    return SPEC.application_names()


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        payload = {"id": 3, "op": "ping", "nested": {"a": [1, 2]}}
        assert decode_message(encode_message(payload)) == payload

    def test_encode_is_one_line(self):
        assert encode_message({"op": "ping"}).count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError, match="undecodable"):
            decode_message(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            decode_message(b"[1, 2]\n")

    def test_decode_rejects_oversized(self):
        with pytest.raises(ServiceError, match="exceeds"):
            decode_message(b"x" * (MAX_MESSAGE_BYTES + 1))

    def test_parse_gallery_defaults(self):
        spec = parse_gallery({})
        assert spec.kind == "paper"
        assert spec.application_count == 8

    def test_parse_gallery_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown gallery"):
            parse_gallery({"flavor": "spicy"})

    def test_parse_gallery_rejects_non_object(self):
        with pytest.raises(ServiceError, match="gallery"):
            parse_gallery("paper")

    def test_parse_estimate_key_matches_result_store(self):
        query = parse_estimate(
            {
                "gallery": GALLERY,
                "use_case": list(names()[:2]),
                "model": "exact",
                "method": "mcr",
            }
        )
        assert query.key == ResultStore.key(
            SPEC,
            UseCase(tuple(names()[:2])),
            "exact",
            AnalysisMethod.MCR,
        )

    def test_parse_estimate_rejects_unknown_application(self):
        with pytest.raises(ServiceError, match="outside gallery"):
            parse_estimate({"gallery": GALLERY, "use_case": ["nope"]})

    def test_parse_estimate_rejects_empty_use_case(self):
        with pytest.raises(ServiceError, match="non-empty"):
            parse_estimate({"gallery": GALLERY, "use_case": []})

    def test_parse_estimate_rejects_bad_method(self):
        with pytest.raises(ServiceError, match="unknown analysis"):
            parse_estimate(
                {
                    "gallery": GALLERY,
                    "use_case": [names()[0]],
                    "method": "tarot",
                }
            )

    @pytest.fixture
    def model_builds(self, monkeypatch):
        """Specs instantiated by the registry, on an empty
        validation memo."""
        import repro.core.registry as registry
        import repro.service.protocol as protocol

        built = []
        create = registry.create_waiting_model
        monkeypatch.setattr(
            registry,
            "create_waiting_model",
            lambda spec: built.append(spec) or create(spec),
        )
        monkeypatch.setattr(protocol, "_VALIDATED_MODELS", {})
        return built

    def test_repeated_good_model_is_validated_once(self, model_builds):
        """A spec that passed for a gallery's applications is not
        instantiated again by later parses of the same pair."""
        payload = {
            "gallery": GALLERY,
            "use_case": [names()[0]],
            "model": "wrr:A=3,B=1",
        }
        for _ in range(3):
            assert parse_estimate(payload).model == "wrr:A=3,B=1"
        assert model_builds == ["wrr:A=3,B=1"]
        # Another gallery's application names are an entry of their own.
        parse_estimate(
            {**payload, "gallery": {**GALLERY, "applications": 3}}
        )
        assert model_builds == ["wrr:A=3,B=1"] * 2

    def test_bad_model_is_refused_on_every_request(self, model_builds):
        payload = {
            "gallery": GALLERY,
            "use_case": [names()[0]],
            "model": "wrr:Z=2",
        }
        messages = set()
        for _ in range(3):
            with pytest.raises(ServiceError, match="bad waiting") as error:
                parse_estimate(payload)
            messages.add(str(error.value))
        assert len(messages) == 1
        assert model_builds == ["wrr:Z=2"] * 3

    def test_unregistered_model_is_refused_after_a_good_parse(
        self, model_builds
    ):
        """A memoized spec whose registry entry went away is refused
        with the registry's own message."""
        from repro.core.registry import WAITING_MODELS, WaitingModelInfo

        info = WaitingModelInfo(
            name="memo_probe",
            factory=object,
            summary="validation memo probe",
            semantics="conservative",
            supports_batch=False,
        )
        payload = {
            "gallery": GALLERY,
            "use_case": [names()[0]],
            "model": "memo_probe",
        }
        with WAITING_MODELS.temporary(info):
            assert parse_estimate(payload).model == "memo_probe"
        with pytest.raises(ServiceError, match="unknown waiting model"):
            parse_estimate(payload)

    def test_degraded_query_changes_only_the_model(self):
        query = parse_estimate({"gallery": GALLERY, "use_case": [names()[0]]})
        cheap = query.degraded("composability")
        assert cheap.model == "composability"
        assert cheap.use_case == query.use_case
        assert cheap.group != query.group


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class TestEnginePool:
    def test_estimators_share_engines_per_method(self):
        pool = EnginePool()
        first = pool.estimator(SPEC, "second_order", AnalysisMethod.MCR)
        second = pool.estimator(SPEC, "exact", AnalysisMethod.MCR)
        assert first is not second
        assert first.engines is second.engines
        assert pool.stats.gallery_builds == 1
        assert pool.stats.estimator_builds == 2

    def test_repeated_lookup_is_cached(self):
        pool = EnginePool()
        first = pool.estimator(SPEC, "second_order", AnalysisMethod.MCR)
        again = pool.estimator(SPEC, "second_order", AnalysisMethod.MCR)
        assert first is again
        assert pool.stats.estimator_builds == 1

    def test_lru_eviction(self):
        pool = EnginePool(max_galleries=2)
        specs = [GallerySpec(application_count=count) for count in (2, 3, 4)]
        for spec in specs:
            pool.estimator(spec, "second_order", AnalysisMethod.MCR)
        assert len(pool) == 2
        assert pool.stats.gallery_evictions == 1
        snapshot = pool.snapshot()
        assert specs[0].label() not in snapshot["galleries"]

    def test_rejects_bad_bound(self):
        with pytest.raises(ServiceError):
            EnginePool(max_galleries=0)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestResultCache:
    def key(self, index, gallery="g"):
        return (gallery, f"uc{index}", "second_order", "mcr")

    def test_hit_and_miss_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.get(self.key(0)) is None
        cache.put(self.key(0), {"value": 1})
        assert cache.get(self.key(0)) == {"value": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_prefers_stale_entries(self):
        cache = ResultCache(max_entries=2)
        cache.put(self.key(0), {"value": 0})
        cache.put(self.key(1), {"value": 1})
        assert cache.get(self.key(0)) is not None  # refresh 0
        cache.put(self.key(2), {"value": 2})  # evicts 1
        assert cache.get(self.key(1)) is None
        assert cache.get(self.key(0)) is not None
        assert cache.stats.evictions == 1

    def test_zero_entries_disables_storage(self):
        cache = ResultCache(max_entries=0)
        cache.put(self.key(0), {"value": 1})
        assert len(cache) == 0
        assert cache.get(self.key(0)) is None

    def test_rejects_negative_bound(self):
        with pytest.raises(ServiceError):
            ResultCache(max_entries=-1)


# ----------------------------------------------------------------------
# Server behaviour over real sockets
# ----------------------------------------------------------------------
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


class TestServer:
    def test_concurrent_clients_match_direct_estimation(self, held_batcher):
        """Many clients, one micro-batch, the scalar path's bits."""
        use_cases = list(all_use_cases(names()))

        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(5)]
            try:
                async with held_batcher(server, len(use_cases)):
                    asked = asyncio.gather(
                        *[
                            clients[index % len(clients)].estimate(
                                use_case.applications, gallery=GALLERY
                            )
                            for index, use_case in enumerate(use_cases)
                        ]
                    )
                results = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return results, server.snapshot()

        results, stats = serve(scenario)

        suite = paper_benchmark_suite(application_count=4)
        reference = ProbabilisticEstimator(
            list(suite.graphs),
            mapping=suite.mapping,
            waiting_model="second_order",
            backend="python",
        )
        for use_case, served in zip(use_cases, results):
            direct = reference.estimate(use_case)
            assert served["use_case"] == list(use_case.applications)
            assert served["periods"] == direct.periods
            assert served["isolation"] == direct.isolation_periods
        # All 15 questions arrived concurrently: far fewer batches
        # than queries, and every query solved exactly once.
        assert stats["estimate_requests"] == len(use_cases)
        assert stats["batches"] < len(use_cases)
        assert stats["solved_queries"] == len(use_cases)

    def test_identical_queries_deduplicate_inside_a_batch(self, held_batcher):
        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(6)]
            try:
                async with held_batcher(server, len(clients)):
                    asked = asyncio.gather(
                        *[
                            client.estimate(
                                [names()[0], names()[1]], gallery=GALLERY
                            )
                            for client in clients
                        ]
                    )
                results = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return results, server.snapshot()

        results, stats = serve(scenario, cache=ResultCache(0))
        assert stats["solved_queries"] == 1
        assert stats["batched_queries"] == 6
        first = results[0]["periods"]
        assert all(result["periods"] == first for result in results)

    def test_cache_hits(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                first = await client.estimate([names()[0]], gallery=GALLERY)
                second = await client.estimate([names()[0]], gallery=GALLERY)
            finally:
                await client.aclose()
            return first, second, server.snapshot()

        first, second, stats = serve(scenario)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["periods"] == first["periods"]
        assert stats["pool"]["gallery_builds"] == 1

    def test_cached_entries_never_reach_the_solver(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                for _ in range(4):
                    await client.estimate([names()[1]], gallery=GALLERY)
            finally:
                await client.aclose()
            return server.snapshot()

        stats = serve(scenario)
        assert stats["solved_queries"] == 1
        assert stats["cache"]["hits"] == 3

    def test_overload_reject_sheds_newcomers(self, held_batcher):
        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(5)]
            try:
                async with held_batcher(server, len(clients)):
                    asked = asyncio.gather(
                        *[
                            client.estimate(
                                [names()[index % 4]], gallery=GALLERY
                            )
                            for index, client in enumerate(clients)
                        ],
                        return_exceptions=True,
                    )
                outcomes = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return outcomes, server.snapshot()

        outcomes, stats = serve(
            scenario,
            max_pending=1,
            shed_policy="reject",
        )
        served = [o for o in outcomes if isinstance(o, dict)]
        shed = [o for o in outcomes if isinstance(o, ServiceError)]
        assert len(served) == 1
        assert len(shed) == 4
        assert all("overloaded" in str(error) for error in shed)
        assert stats["shed"] == 4

    def test_overload_evict_drops_the_oldest_pending(self, held_batcher):
        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(4)]
            try:
                async with held_batcher(server, len(clients)):
                    asked = asyncio.gather(
                        *[
                            client.estimate(
                                [names()[index % 4]], gallery=GALLERY
                            )
                            for index, client in enumerate(clients)
                        ],
                        return_exceptions=True,
                    )
                outcomes = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return outcomes, server.snapshot()

        outcomes, stats = serve(
            scenario,
            max_pending=1,
            shed_policy="evict",
        )
        served = [o for o in outcomes if isinstance(o, dict)]
        evicted = [o for o in outcomes if isinstance(o, ServiceError)]
        assert len(served) == 1
        assert len(evicted) == 3
        assert all("evicted" in str(error) for error in evicted)
        assert stats["evicted"] == 3
        assert stats["shed"] == 0

    def test_overload_downgrade_serves_a_cheaper_model(self, held_batcher):
        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(4)]
            try:
                async with held_batcher(server, len(clients)):
                    asked = asyncio.gather(
                        *[
                            client.estimate(list(names()), gallery=GALLERY)
                            for client in clients
                        ]
                    )
                results = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return results, server.snapshot()

        results, stats = serve(
            scenario,
            max_pending=1,
            shed_policy="downgrade",
            cache=ResultCache(0),
        )
        degraded = [r for r in results if r["degraded"] is not None]
        full = [r for r in results if r["degraded"] is None]
        assert len(full) == 1
        assert len(degraded) == 3
        assert stats["degraded"] == 3
        assert all(r["model"] == "composability" for r in degraded)
        assert all(r["degraded"] == "second_order" for r in degraded)
        # Degraded answers are real composability estimates.
        suite = paper_benchmark_suite(application_count=4)
        reference = ProbabilisticEstimator(
            list(suite.graphs),
            mapping=suite.mapping,
            waiting_model="composability",
            backend="python",
        ).estimate(UseCase(names()))
        for result in degraded:
            assert result["periods"] == reference.periods

    def test_overload_downgrade_still_bounds_the_queue(self, held_batcher):
        """A flood already at the degraded model cannot grow the queue
        forever: with nothing cheaper to serve, the bound rejects."""

        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(4)]
            try:
                async with held_batcher(server, len(clients)):
                    asked = asyncio.gather(
                        *[
                            client.estimate(
                                [names()[index % 4]],
                                gallery=GALLERY,
                                model="composability",
                            )
                            for index, client in enumerate(clients)
                        ],
                        return_exceptions=True,
                    )
                outcomes = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return outcomes, server.snapshot()

        outcomes, stats = serve(
            scenario,
            max_pending=1,
            shed_policy="downgrade",
            cache=ResultCache(0),
        )
        served = [o for o in outcomes if isinstance(o, dict)]
        shed = [o for o in outcomes if isinstance(o, ServiceError)]
        assert len(served) == 1
        assert len(shed) == 3
        assert all("already the degraded model" in str(e) for e in shed)
        assert stats["shed"] == 3
        assert stats["degraded"] == 0

    def test_fire_and_forget_shutdown_still_stops_the_server(self):
        """A client that sends shutdown and vanishes without reading
        the acknowledgement must still stop the server."""

        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            waiter = asyncio.ensure_future(server.wait_shutdown())
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"id": 1, "op": "shutdown"}\n')
            await writer.drain()
            writer.close()  # gone before the response is read
            await asyncio.wait_for(waiter, timeout=5)
            await server.aclose()

        asyncio.run(scenario())

    def test_stats_while_a_cold_gallery_is_solving(self):
        """The stats op is answered (pool view serialized onto the
        solver thread) even while a batch is building a gallery."""

        async def scenario(server, host, port):
            first = await ServiceClient.connect(host, port)
            second = await ServiceClient.connect(host, port)
            try:
                estimate = asyncio.ensure_future(
                    first.estimate(list(names()), gallery=GALLERY)
                )
                snapshots = []
                for _ in range(20):
                    snapshots.append(await second.stats())
                result = await estimate
            finally:
                await first.aclose()
                await second.aclose()
            return result, snapshots

        result, snapshots = serve(scenario)
        assert result["periods"]
        assert all("pool" in snapshot for snapshot in snapshots)

    def test_solver_errors_answer_the_query_not_the_connection(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceError, match="waiting model"):
                    await client.estimate(
                        [names()[0]], gallery=GALLERY, model="psychic"
                    )
                # The connection (and server) survived the failure.
                healthy = await client.estimate([names()[0]], gallery=GALLERY)
            finally:
                await client.aclose()
            return healthy

        healthy = serve(scenario)
        assert healthy["periods"]

    def test_unknown_op_and_malformed_line_are_reported(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"id": 9, "op": "dance"}\n')
                writer.write(b"not json at all\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return [first, second]

        # Malformed lines are answered inline by the read loop while
        # valid requests run as tasks, so the two responses may arrive
        # in either order — match them by id.
        responses = {r["id"]: r for r in serve(scenario)}
        assert responses[9]["ok"] is False
        assert "unknown op" in responses[9]["error"]
        assert responses[None]["ok"] is False
        assert "undecodable" in responses[None]["error"]

    def test_ping_stats_and_estimate_once(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                pong = await client.ping()
                once = await estimate_once((host, port), [names()[2]], gallery=GALLERY)
                stats = await client.stats()
            finally:
                await client.aclose()
            return pong, once, stats

        pong, once, stats = serve(scenario)
        assert pong["pong"] is True
        assert once["periods"]
        assert stats["requests"] >= 3
        assert stats["shed_policy"] == "reject"

    def test_graceful_shutdown_drains_pending_queries(self, held_batcher):
        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            clients = [await ServiceClient.connect(host, port) for _ in range(3)]
            async with held_batcher(server, len(clients)):
                tasks = [
                    asyncio.ensure_future(
                        client.estimate(
                            [names()[index]], gallery=GALLERY
                        )
                    )
                    for index, client in enumerate(clients)
                ]
            # The queries are enqueued, unsolved.
            await server.aclose()
            results = await asyncio.gather(*tasks)
            for client in clients:
                await client.aclose()
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return results, server

        results, server = asyncio.run(scenario())
        assert len(results) == 3
        for result in results:
            assert result["periods"]
        assert not server._pending

    def test_shutdown_op_releases_wait_shutdown(self):
        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            waiter = asyncio.ensure_future(server.wait_shutdown())
            client = await ServiceClient.connect(host, port)
            try:
                answer = await client.estimate([names()[0]], gallery=GALLERY)
                stopping = await client.shutdown()
                await asyncio.wait_for(waiter, timeout=5)
            finally:
                await client.aclose()
                await server.aclose()
            return answer, stopping

        answer, stopping = asyncio.run(scenario())
        assert answer["periods"]
        assert stopping == {"stopping": True}

    def test_submit_after_close_is_refused(self):
        async def scenario():
            server = EstimationServer()
            await server.start()
            await server.aclose()
            from repro.service.protocol import parse_estimate

            query = parse_estimate({"gallery": GALLERY, "use_case": [names()[0]]})
            with pytest.raises(ServiceError, match="shutting down"):
                await server._submit(query)

        asyncio.run(scenario())

    def test_default_server_solves_a_lone_miss_without_lingering(self):
        """Drain on idle: with the solver free, the batcher takes a lone
        miss at once instead of sleeping a batch window first."""
        sleeps = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        async def scenario(server, host, port):
            query = parse_estimate({"gallery": GALLERY, "use_case": [names()[0]]})
            asyncio.sleep = recording_sleep
            try:
                answer = await server._submit(query)
            finally:
                asyncio.sleep = real_sleep
            return answer, server.stats

        answer, stats = serve(scenario)
        assert answer["cached"] is False
        assert sleeps == []
        assert (stats.batches, stats.max_batch) == (1, 1)

    def test_misses_arriving_during_a_solve_form_one_batch(self):
        """Batches form under load without a window: the queries that
        arrive while the solver thread is busy drain as one batch."""
        use_cases = list(all_use_cases(names()))
        first, rest = use_cases[0], use_cases[1:]
        entered, release = threading.Event(), threading.Event()

        async def scenario(server, host, port):
            solve = server.pool.solve

            def gated_solve(queries, iterations):
                entered.set()
                release.wait()
                return solve(queries, iterations)

            server.pool.solve = gated_solve
            loop = asyncio.get_running_loop()

            def submit(use_case):
                return server._submit(
                    parse_estimate(
                        {"gallery": GALLERY, "use_case": list(use_case.applications)}
                    )
                )

            busy = submit(first)
            try:
                assert await loop.run_in_executor(None, entered.wait, 30)
                waiting = [submit(use_case) for use_case in rest]
            finally:
                release.set()
            answers = await asyncio.gather(busy, *waiting)
            return answers, server.stats

        answers, stats = serve(scenario, cache=ResultCache(0))
        assert all(answer["cached"] is False for answer in answers)
        assert stats.batches == 2
        assert stats.max_batch == len(rest)
        assert stats.solved_queries == len(use_cases)
        assert answers[-1]["batch_size"] == len(rest)

    def test_one_client_can_pipeline_concurrent_queries(self, held_batcher):
        use_cases = list(all_use_cases(names()))[:8]

        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                async with held_batcher(server, len(use_cases)):
                    asked = asyncio.gather(
                        *[
                            client.estimate(
                                use_case.applications, gallery=GALLERY
                            )
                            for use_case in use_cases
                        ]
                    )
                results = await asked
            finally:
                await client.aclose()
            return results, server.snapshot()

        results, stats = serve(scenario, cache=ResultCache(0))
        assert len(results) == len(use_cases)
        assert stats["batches"] < len(use_cases)
        for use_case, result in zip(use_cases, results):
            assert result["use_case"] == list(use_case.applications)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServiceError):
            EstimationServer(max_batch=0)
        with pytest.raises(ServiceError):
            EstimationServer(max_pending=0)


# ----------------------------------------------------------------------
# Client: responses filed by id
# ----------------------------------------------------------------------
def against_fake_server(answer, calls):
    """Run ``calls(client)`` against a scripted peer: it reads two
    request lines, then ``answer(reader, writer, ids)`` replies (or
    not)."""

    async def scenario():
        async def handle(reader, writer):
            ids = [json.loads(await reader.readline())["id"] for _ in range(2)]
            await answer(reader, writer, ids)

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = await ServiceClient.connect(host, port)
        try:
            return await calls(client)
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    return asyncio.run(scenario())


def two_calls(client):
    return asyncio.gather(client.ping(), client.stats(), return_exceptions=True)


class TestClientFiling:
    def test_out_of_order_responses_are_matched_by_id(self):
        async def reversed_answers(reader, writer, ids):
            for request_id in reversed(ids):
                writer.write(
                    encode_message(
                        {"id": request_id, "ok": True, "result": {"n": request_id}}
                    )
                )
            await writer.drain()

        first, second = against_fake_server(reversed_answers, two_calls)
        assert first["n"] < second["n"]

    def test_connection_loss_fails_every_pending_call(self):
        async def hang_up(reader, writer, ids):
            writer.close()

        async def calls(client):
            outcomes = await two_calls(client)
            # The client stays failed: later calls fail at once.
            with pytest.raises(ServiceConnectionError):
                await client.ping()
            return outcomes

        outcomes = against_fake_server(hang_up, calls)
        assert all(isinstance(o, ServiceConnectionError) for o in outcomes)

    def test_a_non_integer_response_id_fails_the_pending_calls(self):
        async def bad_id(reader, writer, ids):
            writer.write(encode_message({"id": "seven", "ok": True, "result": {}}))
            await writer.drain()
            await reader.read()  # no answers follow; the client hangs up

        outcomes = against_fake_server(
            bad_id, lambda client: asyncio.wait_for(two_calls(client), 2)
        )
        assert all(type(o) is ServiceError for o in outcomes)
        assert all("unexpected id 'seven'" in str(o) for o in outcomes)


# ----------------------------------------------------------------------
# CLI: the stdio framing end to end
# ----------------------------------------------------------------------
class TestServeCLI:
    def run_stdio(self, requests):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--stdio",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        out, err = process.communicate(stdin, timeout=120)
        assert process.returncode == 0, err
        return [json.loads(line) for line in out.splitlines()]

    def test_stdio_session(self):
        responses = self.run_stdio(
            [
                {"id": 1, "op": "ping"},
                {
                    "id": 2,
                    "op": "estimate",
                    "gallery": GALLERY,
                    "use_case": list(names()[:2]),
                },
                {"id": 3, "op": "shutdown"},
            ]
        )
        by_id = {response["id"]: response for response in responses}
        assert by_id[1]["result"]["pong"] is True
        assert by_id[2]["ok"] is True
        assert set(by_id[2]["result"]["periods"]) == set(names()[:2])
        assert by_id[3]["result"] == {"stopping": True}


class TestLazyExports:
    def test_solver_modules_do_not_load_the_serving_stack(self):
        """A sweep's ``pool``/``protocol``/``workers`` imports leave the
        server, router and client unloaded; the package names still
        resolve on first access."""
        code = "\n".join(
            [
                "import sys",
                "import repro.service.pool, repro.service.protocol",
                "import repro.service.workers",
                "for name in ('server', 'router', 'client'):",
                "    assert f'repro.service.{name}' not in sys.modules, name",
                "from repro.service import EstimationServer",
                "from repro.service.server import EstimationServer as direct",
                "assert EstimationServer is direct",
                "import repro.service as service",
                "missing = [n for n in service.__all__ if not hasattr(service, n)]",
                "assert not missing, missing",
                "assert set(service.__all__) <= set(dir(service))",
            ]
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_unknown_name_raises_attribute_error(self):
        import repro.service as service

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            service.Nope


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestServiceLoad:
    def test_client_plans_are_seeded_and_distinct(self):
        config = LoadConfig(clients=2, queries_per_client=6)
        assert _client_plan(config, 0) == _client_plan(config, 0)
        assert _client_plan(config, 0) != _client_plan(config, 1)
        replay = LoadConfig(clients=2, queries_per_client=6)
        assert _client_plan(config, 1) == _client_plan(replay, 1)

    def test_latency_histogram_quantiles(self):
        # The exposition's latency histogram: nearest-rank off the log
        # buckets, clamped to observed extremes.
        from repro.telemetry import Histogram

        histogram = Histogram(LATENCY_BUCKETS)
        for value in (0.004, 0.001, 0.003, 0.002):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.quantile(0.0) == pytest.approx(0.001)
        assert histogram.quantile(1.0) == pytest.approx(0.004)
        assert histogram.quantile(0.5) <= histogram.quantile(0.99)
        with pytest.raises(Exception):
            histogram.quantile(1.5)

    def test_run_load_end_to_end(self):
        report = run_load(
            LoadConfig(
                clients=3,
                queries_per_client=5,
                gallery=GallerySpec(application_count=3),
            )
        )
        assert report.queries == 15
        assert report.errors == 0
        assert report.queries_per_second > 0
        assert report.latency_p99_ms >= report.latency_p50_ms
        # Exact nearest-rank percentiles of the recorded samples, not
        # histogram bucket edges.
        ranked = sorted(report.latencies_ms)
        assert len(ranked) == 15
        assert report.latency_p50_ms == ranked[7]
        assert report.latency_p90_ms == ranked[13]
        assert report.latency_p99_ms == ranked[14]
        rendered = report.render()
        assert "queries/sec" in rendered

    def test_all_error_run_reports_instead_of_crashing(self):
        report = run_load(
            LoadConfig(
                clients=2,
                queries_per_client=3,
                gallery=GallerySpec(application_count=2),
                model="not-a-model",
            )
        )
        assert report.queries == 0
        assert report.errors == 6
        assert report.latency_p50_ms == 0.0
        assert "errors" in report.render()

    def test_config_validation(self):
        with pytest.raises(Exception):
            LoadConfig(clients=0)
        with pytest.raises(Exception):
            LoadConfig(queries_per_client=0)
