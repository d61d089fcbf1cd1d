"""Tests of the consistent-hash ring and the shard router.

The router scenarios run real fleets in-process: N TCP
:class:`~repro.service.server.EstimationServer` shards behind one
:class:`~repro.service.router.ShardRouter` front-end, spoken to through
the ordinary :class:`~repro.service.client.ServiceClient`.  Asserted on
the wire: estimate parity through the router (bit-identical to a
direct shard), gallery→shard affinity,
aggregated stats/metrics, and the failover contract — a shard killed
mid-run loses no client query, because estimates are idempotent and the
router retries them on the surviving shards.
"""

from __future__ import annotations

import asyncio
import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.runtime.service import GallerySpec
from repro.service.client import ServiceClient
from repro.service.hashring import HashRing, stable_hash
from repro.service.router import ShardRouter, parse_shard_address
from repro.service.server import EstimationServer

GALLERY = {"kind": "paper", "seed": 2007, "applications": 4}
SPEC = GallerySpec(kind="paper", seed=2007, application_count=4)


def names():
    return SPEC.application_names()


def gallery_payload(seed: int):
    return {"kind": "paper", "seed": seed, "applications": 4}


def gallery_payload_label(seed: int) -> str:
    return GallerySpec(kind="paper", seed=seed, application_count=4).label()


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # Frozen value: placement must agree across processes and
        # versions (builtin hash() is salted and would not).
        assert stable_hash("paper:2007:4") == 14628221769663690160

    def test_lookup_is_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        other = HashRing(["c", "b", "a"])  # insertion order is irrelevant
        for seed in range(50):
            key = f"paper:{seed}:4"
            assert ring.node_for(key) == other.node_for(key)

    def test_keys_spread_over_nodes(self):
        ring = HashRing(["a", "b", "c"])
        owners = {ring.node_for(f"paper:{seed}:4") for seed in range(60)}
        assert owners == {"a", "b", "c"}

    def test_removal_only_remaps_the_dead_nodes_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"paper:{seed}:4" for seed in range(200)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove("b")
        for key in keys:
            after = ring.node_for(key)
            if before[key] != "b":
                assert after == before[key]
            else:
                assert after != "b"

    def test_nodes_for_orders_all_nodes_starting_at_home(self):
        ring = HashRing(["a", "b", "c"])
        for seed in range(20):
            key = f"paper:{seed}:4"
            order = ring.nodes_for(key)
            assert order[0] == ring.node_for(key)
            assert sorted(order) == ["a", "b", "c"]

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(
            st.text(min_size=1, max_size=6), min_size=1, max_size=6, unique=True
        ),
        removed=st.integers(min_value=0, max_value=5),
        keys=st.lists(st.text(max_size=12), min_size=1, max_size=8),
        replicas=st.integers(min_value=1, max_value=16),
    )
    def test_nodes_for_matches_the_full_ring_walk(
        self, nodes, removed, keys, replicas
    ):
        """Stopping once every live node is listed gives the order a
        walk over every ring point gives, before and after a removal."""

        def full_walk(ring, key):
            points = ring._points
            start = bisect.bisect_right(points, stable_hash(key))
            order = []
            for offset in range(len(points)):
                node = ring._owners[points[(start + offset) % len(points)]]
                if node not in order:
                    order.append(node)
            return order

        ring = HashRing(nodes, replicas=replicas)
        for key in keys:
            assert ring.nodes_for(key) == full_walk(ring, key)
        if len(nodes) > 1:
            ring.remove(nodes[removed % len(nodes)])
            for key in keys:
                assert ring.nodes_for(key) == full_walk(ring, key)

    def test_rejoin_restores_placement(self):
        ring = HashRing(["a", "b"])
        before = {
            f"k{i}": ring.node_for(f"k{i}") for i in range(50)
        }
        ring.remove("a")
        ring.add("a")
        assert all(
            ring.node_for(key) == owner for key, owner in before.items()
        )

    def test_loud_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ServiceError, match="already"):
            ring.add("a")
        with pytest.raises(ServiceError, match="not on the ring"):
            ring.remove("b")
        ring.remove("a")
        with pytest.raises(ServiceError, match="no nodes"):
            ring.node_for("k")
        with pytest.raises(ServiceError, match="replicas"):
            HashRing(replicas=0)


class TestParseShardAddress:
    def test_parses_host_and_port(self):
        assert parse_shard_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_rejects_malformed(self):
        with pytest.raises(ServiceError, match="host:port"):
            parse_shard_address("9000")
        with pytest.raises(ServiceError, match="non-integer"):
            parse_shard_address("host:nine")


# ----------------------------------------------------------------------
# Fleet scenarios
# ----------------------------------------------------------------------
def fleet(coroutine_factory, shards=2, **router_kwargs):
    """Run one async scenario against a fresh N-shard fleet."""

    async def scenario():
        servers = [EstimationServer() for _ in range(shards)]
        addresses = [await server.start() for server in servers]
        router = ShardRouter(
            addresses, **dict({"health_interval": 0.0}, **router_kwargs)
        )
        address = await router.start()
        client = await ServiceClient.connect(*address)
        try:
            return await coroutine_factory(
                client, router, servers, addresses
            )
        finally:
            await client.aclose()
            await router.aclose()
            for server in servers:
                await server.aclose()

    return asyncio.run(scenario())


class TestShardRouter:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ServiceError, match="at least one shard"):
            ShardRouter([])
        with pytest.raises(ServiceError, match="duplicate"):
            ShardRouter([("h", 1), ("h", 1)])
        with pytest.raises(ServiceError, match="health_interval"):
            ShardRouter([("h", 1)], health_interval=-1)

    def test_estimate_parity_through_the_router(self):
        async def scenario(client, router, servers, addresses):
            return await asyncio.gather(
                *[
                    client.estimate([name], gallery=GALLERY)
                    for name in names()
                ]
            )

        routed = fleet(scenario)

        # Parity against a single un-routed server on the same queries.
        async def direct_scenario():
            server = EstimationServer()
            host, port = await server.start()
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
                await server.aclose()

        direct = asyncio.run(direct_scenario())
        for a, b in zip(routed, direct):
            assert a["use_case"] == b["use_case"]
            assert a["periods"] == b["periods"]

    def test_one_gallery_lands_on_one_shard(self):
        async def scenario(client, router, servers, addresses):
            results = await asyncio.gather(
                *[
                    client.estimate([name], gallery=GALLERY)
                    for name in names()
                ]
            )
            return results, await client.stats()

        results, stats = fleet(scenario)
        shards = {result["shard"] for result in results}
        assert len(shards) == 1  # affinity
        per_shard = stats["per_shard_forwarded"]
        assert sorted(per_shard.values()) == [0, len(names())]

    def test_different_galleries_spread_over_shards(self):
        async def scenario(client, router, servers, addresses):
            results = await asyncio.gather(
                *[
                    client.estimate(
                        ["A"], gallery=gallery_payload(seed)
                    )
                    for seed in range(2000, 2012)
                ]
            )
            return {result["shard"] for result in results}

        assert len(fleet(scenario)) == 2

    def test_ping_reports_fleet_health(self):
        async def scenario(client, router, servers, addresses):
            return await client.ping()

        pong = fleet(scenario)
        assert pong["router"] is True
        assert list(pong["shards"].values()) == [True, True]

    def test_metrics_exposition_merges_router_counters(self):
        async def scenario(client, router, servers, addresses):
            await client.estimate([names()[0]], gallery=GALLERY)
            return await client.metrics()

        result = fleet(scenario)
        assert "repro_router_requests_total" in result["exposition"]
        assert "repro_router_forwarded_total" in result["exposition"]

    def test_unknown_op_is_an_error_response(self):
        async def scenario(client, router, servers, addresses):
            with pytest.raises(ServiceError, match="unknown op"):
                await client._call({"op": "dance"})
            return await client.ping()

        assert fleet(scenario)["pong"] is True

    def test_shutdown_op_stops_the_router_not_the_shards(self):
        async def scenario():
            servers = [EstimationServer() for _ in range(2)]
            addresses = [await server.start() for server in servers]
            router = ShardRouter(addresses, health_interval=0.0)
            address = await router.start()
            waiter = asyncio.ensure_future(router.wait_shutdown())
            client = await ServiceClient.connect(*address)
            result = await client.shutdown()
            await client.aclose()
            await asyncio.wait_for(waiter, timeout=5)
            await router.aclose()
            # Shards survive the router.
            direct = await ServiceClient.connect(*addresses[0])
            pong = await direct.ping()
            await direct.aclose()
            for server in servers:
                await server.aclose()
            return result, pong

        result, pong = asyncio.run(scenario())
        assert result["stopping"] is True
        assert pong["pong"] is True


class TestFailover:
    def test_shard_death_mid_run_loses_no_query(self):
        """Kill the home shard while clients are mid-burst: every
        query still answers (idempotent retry on the survivor) with
        parity, and the router records the failover."""

        async def scenario(client, router, servers, addresses):
            # Learn each query's answer and the gallery's home shard
            # while both shards live.
            reference = {}
            for name in names():
                result = await client.estimate([name], gallery=GALLERY)
                reference[name] = result
            home = reference[names()[0]]["shard"]
            victim = next(
                index
                for index, address in enumerate(addresses)
                if f"{address[0]}:{address[1]}" == home
            )
            await servers[victim].aclose()  # the shard dies
            # Burst of concurrent queries straight into the dead home
            # shard — all must answer from the survivor.
            results = await asyncio.gather(
                *[
                    client.estimate([name], gallery=GALLERY)
                    for name in names()
                    for _ in range(3)
                ]
            )
            return reference, home, results, router.snapshot()

        reference, home, results, stats = fleet(scenario)
        assert len(results) == 3 * len(names())
        for result in results:
            assert result["shard"] != home
            expected = reference[result["use_case"][0]]
            assert result["periods"] == expected["periods"]
        assert stats["shard_down"] == 1
        assert stats["retries"] >= 1
        assert stats["errors"] == 0
        assert stats["live_shards"] == 1

    def test_all_shards_down_fails_loudly(self):
        async def scenario(client, router, servers, addresses):
            for server in servers:
                await server.aclose()
            with pytest.raises(ServiceError, match="no shard could answer"):
                await client.estimate([names()[0]], gallery=GALLERY)
            with pytest.raises(ServiceError, match="no healthy shard"):
                await client.estimate([names()[0]], gallery=GALLERY)
            return router.snapshot()

        stats = fleet(scenario)
        assert stats["live_shards"] == 0
        assert stats["errors"] == 2

    def test_health_loop_resurrects_a_returned_shard(self):
        async def scenario():
            servers = [EstimationServer() for _ in range(2)]
            addresses = [await server.start() for server in servers]
            router = ShardRouter(addresses, health_interval=0.05)
            address = await router.start()
            client = await ServiceClient.connect(*address)
            try:
                await servers[0].aclose()
                # Drive a query so the router notices the death (or the
                # health loop does — either way the shard goes down).
                await client.estimate([names()[0]], gallery=GALLERY)
                deadline = asyncio.get_running_loop().time() + 5
                while router.shard_health()[
                    f"{addresses[0][0]}:{addresses[0][1]}"
                ]:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                # The shard comes back on the same port...
                servers[0] = EstimationServer()
                await servers[0].start(
                    host=addresses[0][0], port=addresses[0][1]
                )
                # ...and the health loop re-adds it to the ring.
                while not router.shard_health()[
                    f"{addresses[0][0]}:{addresses[0][1]}"
                ]:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                result = await client.estimate(
                    [names()[0]], gallery=GALLERY
                )
                return result, router.snapshot()
            finally:
                await client.aclose()
                await router.aclose()
                for server in servers:
                    await server.aclose()

        result, stats = asyncio.run(scenario())
        assert result["periods"]
        assert stats["shard_down"] == 1
        assert stats["shard_up"] == 1
        assert stats["live_shards"] == 2



    def test_blackholed_shard_is_marked_down_and_failed_over(self):
        """A shard that accepts connections but never answers: the
        bounded health ping marks it down, which closes its connection,
        so an estimate hung on it fails over to the live shard."""

        async def scenario():
            server = EstimationServer()
            live = await server.start()
            held = []

            async def swallow(reader, writer):
                held.append(writer)
                await reader.read()  # never answers; returns at EOF

            blackhole = await asyncio.start_server(swallow, "127.0.0.1", 0)
            hole = blackhole.sockets[0].getsockname()[:2]
            hole_name = f"{hole[0]}:{hole[1]}"
            router = ShardRouter([live, hole], health_interval=0.05)
            client = await ServiceClient.connect(*await router.start())
            seed = next(
                seed
                for seed in range(2000, 2100)
                if router._ring.node_for(gallery_payload_label(seed)) == hole_name
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                answer = await asyncio.wait_for(
                    client.estimate(["A"], gallery=gallery_payload(seed)),
                    timeout=1.0,
                )
                elapsed = loop.time() - started
                pong = await client.ping()
            finally:
                await client.aclose()
                await router.aclose()
                await server.aclose()
                blackhole.close()
                for writer in held:
                    writer.close()
            return answer, elapsed, pong["shards"], hole_name

        answer, elapsed, shards, hole_name = asyncio.run(scenario())
        assert elapsed < 1.0
        assert shards[hole_name] is False
        assert answer["shard"] != hole_name
        assert answer["periods"]
