"""Tests of fleet elasticity: live resharding, cache replication,
router micro-batching and the churn-safety fixes.

Every scenario runs a real in-process fleet (TCP servers behind a
:class:`~repro.service.router.ShardRouter`) and asserts on the wire:

* ``join`` warms the new shard with exactly the ~1/N key space it now
  owns (planned on a preview ring) before it serves a single query;
  ``leave`` hands a shard's cached answers to each gallery's new owner
  before retiring it;
* every fresh answer replicates to the ring successor, so a shard
  death fails over to a *warm* replica instead of a cold re-solve;
* the router micro-batcher coalesces concurrent same-gallery queries
  into one framed ``estimate_batch`` per shard hop, deduplicated by
  query key, with per-member trace echo;
* the failover-recompute regression: retry candidates are recomputed
  from the live ring per attempt, so a retry never burns its budget on
  a shard a concurrent ``_mark_down`` already declared dead;
* join + leave mid-load: zero lost queries, every answer bit-identical
  to the stable-fleet reference.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ServiceConnectionError, ServiceError
from repro.experiments.service_load import LoadConfig, run_load
from repro.runtime.service import GallerySpec
from repro.service.client import ServiceClient
from repro.service.hashring import HashRing
from repro.service.router import ShardRouter
from repro.service.server import EstimationServer

GALLERY = {"kind": "paper", "seed": 2007, "applications": 4}
SPEC = GallerySpec(kind="paper", seed=2007, application_count=4)


def names():
    return SPEC.application_names()


def gallery_payload(seed: int):
    return {"kind": "paper", "seed": seed, "applications": 4}


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
            return await coroutine_factory(client, router, servers, addresses)
        finally:
            await client.aclose()
            await router.aclose()
            for server in servers:
                await server.aclose()

    return asyncio.run(scenario())


def assert_parity(result, expected):
    assert result["periods"] == expected["periods"]


# ----------------------------------------------------------------------
# Preview ring
# ----------------------------------------------------------------------
class TestHashRingPreview:
    def test_with_node_only_remaps_keys_to_the_new_node(self):
        ring = HashRing(["a", "b", "c"])
        preview = ring.with_node("d")
        keys = [f"paper:{seed}:4" for seed in range(300)]
        moved = [
            key for key in keys if preview.node_for(key) != ring.node_for(key)
        ]
        assert moved  # the joiner owns a real share of the key space
        assert all(preview.node_for(key) == "d" for key in moved)
        # ~1/N of the keys move, nothing close to a full reshuffle.
        assert len(moved) < len(keys) / 2
        # The live ring is untouched by planning.
        assert "d" not in ring
        assert ring.nodes == ["a", "b", "c"]


# ----------------------------------------------------------------------
# cache_export / cache_import / estimate_batch (server ops)
# ----------------------------------------------------------------------
class TestCacheTransfer:
    def test_export_import_round_trip_is_a_warm_start(self):
        async def scenario():
            source = EstimationServer()
            target = EstimationServer()
            addresses = [await source.start(), await target.start()]
            a = await ServiceClient.connect(*addresses[0])
            b = await ServiceClient.connect(*addresses[1])
            try:
                fresh = await a.estimate([names()[0]], gallery=GALLERY)
                export = await a.cache_export()
                imported = await b.cache_import(export["entries"])
                warm = await b.estimate([names()[0]], gallery=GALLERY)
                empty = await a.cache_export(
                    galleries=["paper:2007:4"], limit=0
                )
                return fresh, export, imported, warm, empty
            finally:
                await a.aclose()
                await b.aclose()
                await source.aclose()
                await target.aclose()

        fresh, export, imported, warm, empty = asyncio.run(scenario())
        assert export["galleries"] == ["paper:2007:4"]
        assert len(export["entries"]) == 1
        assert imported["imported"] == 1
        # The importer answers from cache without ever solving.
        assert warm["cached"] is True
        assert_parity(warm, fresh)
        # limit=0 lists galleries but moves nothing.
        assert empty["galleries"] == ["paper:2007:4"]
        assert empty["entries"] == []

    def test_import_rejects_malformed_entries(self):
        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceError, match="entries"):
                    await client._call({"op": "cache_import"})
                with pytest.raises(ServiceError, match="4-element"):
                    await client.cache_import([[["just", "three", "parts"], {}]])
                return await client.ping()
            finally:
                await client.aclose()
                await server.aclose()

        assert asyncio.run(scenario())["pong"] is True


class TestEstimateBatchOp:
    def test_batch_answers_match_single_estimates(self):
        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            try:
                singles = [
                    await client.estimate([name], gallery=GALLERY)
                    for name in names()
                ]
                batch = await client.estimate_batch(
                    [[name] for name in names()], gallery=GALLERY
                )
                return singles, batch
            finally:
                await client.aclose()
                await server.aclose()

        singles, batch = asyncio.run(scenario())
        results = batch["results"]
        assert len(results) == len(names())
        for single, member in zip(singles, results):
            assert member["use_case"] == single["use_case"]
            assert member["cached"] is True  # the singles warmed the cache
            assert_parity(member, single)

    def test_batch_validation_is_loud(self):
        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceError, match="use_cases"):
                    await client.estimate_batch([], gallery=GALLERY)
                with pytest.raises(ServiceError, match="outside gallery"):
                    await client.estimate_batch(
                        [["Nope"]], gallery=GALLERY
                    )
                return await client.ping()
            finally:
                await client.aclose()
                await server.aclose()

        assert asyncio.run(scenario())["pong"] is True


# ----------------------------------------------------------------------
# Live resharding: join / leave
# ----------------------------------------------------------------------
class TestJoin:
    def test_join_warms_the_joiner_with_its_key_space(self):
        async def scenario():
            servers = [EstimationServer() for _ in range(3)]
            addresses = [await server.start() for server in servers]
            router = ShardRouter(addresses[:2], health_interval=0.0)
            address = await router.start()
            client = await ServiceClient.connect(*address)
            try:
                seeds = list(range(2000, 2040))
                for seed in seeds:
                    await client.estimate(["A"], gallery=gallery_payload(seed))
                new_name = f"{addresses[2][0]}:{addresses[2][1]}"
                labels = [f"paper:{seed}:4" for seed in seeds]
                preview = router._ring.with_node(new_name)
                movers = [
                    label
                    for label in labels
                    if preview.node_for(label) == new_name
                ]
                stay = {
                    label: router._ring.node_for(label)
                    for label in labels
                    if label not in set(movers)
                }
                summary = await client.join(new_name)
                after = {
                    label: router._ring.node_for(label) for label in stay
                }
                routed = [
                    await client.estimate(
                        ["A"], gallery=gallery_payload(int(label.split(":")[1]))
                    )
                    for label in movers
                ]
                return summary, movers, stay, after, routed, router.snapshot()
            finally:
                await client.aclose()
                await router.aclose()
                for server in servers:
                    await server.aclose()

        summary, movers, stay, after, routed, stats = asyncio.run(scenario())
        assert movers  # 40 galleries over 3 nodes: some must move
        # The hand-off moved exactly the joiner's new key space.
        assert summary["handoff"]["galleries"] == sorted(movers)
        assert summary["handoff"]["entries"] == len(movers)
        assert summary["live_shards"] == 3
        # Bounded remap: every non-mover keeps its owner.
        assert stay == after
        # The joiner serves its galleries *warm* — no cold start.
        new_name = summary["shard"]
        for result in routed:
            assert result["shard"] == new_name
            assert result["cached"] is True
        assert stats["joins"] == 1
        assert stats["handoff_entries"] == len(movers)

    def test_join_duplicate_and_unreachable_fail_loudly(self):
        async def scenario(client, router, servers, addresses):
            with pytest.raises(ServiceError, match="already part"):
                await client.join(f"{addresses[0][0]}:{addresses[0][1]}")
            # A server that no longer listens cannot join.
            ghost = EstimationServer()
            host, port = await ghost.start()
            await ghost.aclose()
            with pytest.raises(ServiceError, match="unreachable"):
                await client.join(f"{host}:{port}")
            return router.snapshot()

        stats = fleet(scenario)
        assert stats["joins"] == 0
        assert stats["live_shards"] == 2


class TestLeave:
    def test_leave_hands_the_key_space_to_survivors(self):
        async def scenario(client, router, servers, addresses):
            reference = {}
            for seed in range(2000, 2012):
                reference[seed] = await client.estimate(
                    ["A"], gallery=gallery_payload(seed)
                )
            victim = reference[2000]["shard"]
            summary = await client.leave(victim)
            again = await client.estimate(["A"], gallery=gallery_payload(2000))
            return reference, victim, summary, again, router.snapshot()

        reference, victim, summary, again, stats = fleet(scenario)
        assert summary["shard"] == victim
        assert summary["handoff"]["entries"] >= 1
        assert summary["live_shards"] == 1
        # The retired shard is forgotten, not marked down.
        assert victim not in stats["shards"]
        assert stats["leaves"] == 1
        # Its galleries answer warm from the new owner, with parity.
        assert again["shard"] != victim
        assert again["cached"] is True
        assert_parity(again, reference[2000])

    def test_leave_refuses_the_last_shard_and_unknown_names(self):
        async def scenario(client, router, servers, addresses):
            with pytest.raises(ServiceError, match="not part of the fleet"):
                await client.leave("127.0.0.1:1")
            await client.leave(f"{addresses[0][0]}:{addresses[0][1]}")
            with pytest.raises(ServiceError, match="last healthy shard"):
                await client.leave(f"{addresses[1][0]}:{addresses[1][1]}")
            return router.snapshot()

        stats = fleet(scenario)
        assert stats["live_shards"] == 1
        assert stats["leaves"] == 1

    def test_health_loop_does_not_resurrect_a_left_shard(self):
        async def scenario():
            servers = [EstimationServer() for _ in range(2)]
            addresses = [await server.start() for server in servers]
            router = ShardRouter(addresses, health_interval=0.05)
            address = await router.start()
            client = await ServiceClient.connect(*address)
            try:
                name = f"{addresses[0][0]}:{addresses[0][1]}"
                await client.leave(name)
                # The left shard's server is alive and pingable; give
                # the health loop several ticks to (wrongly) notice it.
                await asyncio.sleep(0.25)
                return name, router.snapshot()
            finally:
                await client.aclose()
                await router.aclose()
                for server in servers:
                    await server.aclose()

        name, stats = asyncio.run(scenario())
        assert name not in stats["shards"]
        assert stats["live_shards"] == 1

    def test_probe_during_the_handoff_does_not_resurrect_the_leaver(self):
        """Two health probes race ``leave``: one already in flight when
        it starts, one landing during the (delayed) cache hand-off.  The
        pre-fix router let either put the still-pingable shard back on
        the ring, leaving a ghost ring node once it was forgotten."""

        async def scenario(client, router, servers, addresses):
            name = f"{addresses[0][0]}:{addresses[0][1]}"
            shard = router._shards[name]
            real = await router._client(shard)
            handoff_started = asyncio.Event()

            class DelayedHandoff:
                async def ping(self):
                    await handoff_started.wait()
                    return await real.ping()

                async def cache_export(self, **kwargs):
                    handoff_started.set()
                    await in_flight
                    assert await router._probe(shard)
                    # Admin verbs racing the hand-off are refused too.
                    with pytest.raises(ServiceError, match="not part of"):
                        await router.leave(name)
                    with pytest.raises(ServiceError, match="is leaving"):
                        await router.join(addresses[0])
                    return await real.cache_export(**kwargs)

                def __getattr__(self, attribute):
                    return getattr(real, attribute)

            shard.client = DelayedHandoff()
            in_flight = asyncio.ensure_future(router._probe(shard))
            await asyncio.sleep(0)
            summary = await router.leave(name)
            return summary, router

        summary, router = fleet(scenario, shards=3)
        assert summary["live_shards"] == 2
        assert sorted(router._ring.nodes) == sorted(router._shards)
        assert router.snapshot()["live_shards"] == 2

    def test_router_verbs_are_rejected_by_a_plain_server(self):
        async def scenario():
            server = EstimationServer()
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceError, match="unknown op"):
                    await client.join("127.0.0.1:1")
                return await client.ping()
            finally:
                await client.aclose()
                await server.aclose()

        assert asyncio.run(scenario())["pong"] is True


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
class TestReplication:
    def test_shard_death_fails_over_to_a_warm_replica(self):
        async def scenario(client, router, servers, addresses):
            first = await client.estimate([names()[0]], gallery=GALLERY)
            # The replica is shipped asynchronously; wait for it.
            deadline = asyncio.get_running_loop().time() + 5
            while router._replica_tasks:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            victim = next(
                index
                for index, address in enumerate(addresses)
                if f"{address[0]}:{address[1]}" == first["shard"]
            )
            await servers[victim].aclose()
            second = await client.estimate([names()[0]], gallery=GALLERY)
            return first, second, router.snapshot()

        first, second, stats = fleet(scenario)
        assert stats["replications"] == 1
        assert second["shard"] != first["shard"]
        # The failover read hits the replica — no cold re-solve.
        assert second["cached"] is True
        assert_parity(second, first)

    def test_replication_zero_disables_the_copies(self):
        async def scenario(client, router, servers, addresses):
            await client.estimate([names()[0]], gallery=GALLERY)
            while router._replica_tasks:
                await asyncio.sleep(0.01)
            return router.snapshot()

        stats = fleet(scenario, replication=0)
        assert stats["replications"] == 0

    def test_rejects_bad_elasticity_configuration(self):
        with pytest.raises(ServiceError, match="replication"):
            ShardRouter([("h", 1)], replication=-1)
        with pytest.raises(ServiceError, match="handoff_limit"):
            ShardRouter([("h", 1)], handoff_limit=-1)


# ----------------------------------------------------------------------
# The failover-recompute regression
# ----------------------------------------------------------------------
class TestFailoverRecompute:
    def test_retry_skips_a_shard_marked_down_mid_request(self):
        """The home shard resets the connection, and *while that
        request was in flight* a probe marked the second-preference
        shard down.  The pre-fix router retried against the captured
        preference list — burning its one retry on the known-dead
        shard.  Candidates are now recomputed per attempt."""

        async def scenario(client, router, servers, addresses):
            label = SPEC.label()
            order = router._ring.nodes_for(label)
            shard1, shard2, shard3 = (
                router._shards[name] for name in order
            )
            # The second-preference shard's server is really gone, so a
            # wasted retry against it cannot accidentally succeed.
            victim = next(
                index
                for index, address in enumerate(addresses)
                if f"{address[0]}:{address[1]}" == shard2.name
            )
            await servers[victim].aclose()

            class Trap:
                """Home-shard client: dies mid-request, and the death
                coincides with a probe declaring shard2 down."""

                async def estimate_batch(self, *args, **kwargs):
                    router._mark_down(shard2)
                    raise ServiceConnectionError(
                        "connection reset mid-request"
                    )

                async def aclose(self):
                    pass

            shard1.client = Trap()
            result = await client.estimate([names()[0]], gallery=GALLERY)
            return result, shard3.name, router.snapshot()

        result, third, stats = fleet(scenario, shards=3, max_retries=1)
        # One retry allowed, and it reaches the healthy third shard —
        # the pre-fix router spent it on shard2 and failed the query.
        assert result["shard"] == third
        assert result["periods"]
        assert stats["retries"] == 1
        assert stats["errors"] == 0

    def test_a_draining_shard_fails_over_instead_of_refusing(self):
        """A closing server answers each new question with a
        "shutting down" error over a still-live connection.  The router
        must treat that like a dead transport: mark the shard down and
        ask the ring successor, so the client sees an answer."""

        async def scenario(client, router, servers, addresses):
            home_name = router._ring.node_for(SPEC.label())
            home = next(
                server
                for server, address in zip(servers, addresses)
                if f"{address[0]}:{address[1]}" == home_name
            )
            # Dial the home shard, then start its graceful close: the
            # router's connection stays open while new work is refused.
            warm = await client.estimate([names()[0]], gallery=GALLERY)
            home._stop_accepting()
            result = await client.estimate([names()[1]], gallery=GALLERY)
            return home_name, warm, result, router.snapshot()

        home_name, warm, result, stats = fleet(scenario)
        assert warm["shard"] == home_name
        assert result["shard"] != home_name
        assert result["periods"]
        assert stats["errors"] == 0
        assert stats["retries"] == 1
        assert stats["shards"][home_name] is False
        assert stats["shard_down"] == 1


# ----------------------------------------------------------------------
# Router micro-batching
# ----------------------------------------------------------------------
class TestRouterMicroBatching:
    def test_concurrent_queries_coalesce_into_framed_hops(self):
        async def scenario(client, router, servers, addresses):
            plan = [
                (name, f"trace-{copy}-{name}")
                for name in names()
                for copy in range(3)
            ]
            results = await asyncio.gather(
                *[
                    client.estimate([name], gallery=GALLERY, trace=trace)
                    for name, trace in plan
                ]
            )
            return plan, results, router.snapshot()

        plan, results, stats = fleet(scenario)
        assert stats["batched_queries"] == len(plan)
        assert stats["batches"] >= 1
        # Dedup: 12 client questions are only 4 distinct queries.
        assert stats["forwarded"] < len(plan)
        for (name, trace), result in zip(plan, results):
            assert result["use_case"] == [name]
            assert result["periods"]
            assert result["trace"] == trace  # per-member echo
            assert "shard" in result

    def test_a_lone_query_is_forwarded_after_one_loop_turn(self):
        """No window: the first query of a group yields one event-loop
        turn for same-group arrivals, then forwards."""
        sleeps = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        async def scenario(client, router, servers, addresses):
            asyncio.sleep = recording_sleep
            try:
                answer = await client.estimate([names()[0]], gallery=GALLERY)
            finally:
                asyncio.sleep = real_sleep
            return answer, router.snapshot()

        answer, stats = fleet(scenario)
        assert answer["periods"]
        assert sleeps == [0]
        assert (stats["batches"], stats["batched_queries"]) == (1, 1)

    def test_pipelined_same_group_estimates_ride_one_hop(self):
        """Estimates pipelined on one connection in one loop turn reach
        the router in one read and share one framed hop."""

        async def scenario(client, router, servers, addresses):
            results = await asyncio.gather(
                *[client.estimate([name], gallery=GALLERY) for name in names()]
            )
            return results, router.snapshot()

        results, stats = fleet(scenario)
        assert [result["use_case"] for result in results] == [
            [name] for name in names()
        ]
        assert stats["batches"] == 1
        assert stats["batched_queries"] == len(names())

    def test_batched_answers_match_unbatched(self):
        """Coalesced answers equal one-hop-per-query answers bit for
        bit."""

        def answer(result):
            return result["use_case"], result["periods"], result["isolation"]

        async def one_at_a_time(client, router, servers, addresses):
            results = [
                await client.estimate([name], gallery=GALLERY)
                for name in names()
            ]
            return results, router.snapshot()

        async def coalesced(client, router, servers, addresses):
            results = await asyncio.gather(
                *[client.estimate([name], gallery=GALLERY) for name in names()]
            )
            return results, router.snapshot()

        unbatched, unbatched_stats = fleet(one_at_a_time)
        batched, batched_stats = fleet(coalesced)
        assert unbatched_stats["batches"] == len(names())
        assert batched_stats["batches"] < len(names())
        assert [answer(r) for r in batched] == [answer(r) for r in unbatched]

    def test_estimate_batch_through_the_router(self):
        async def scenario(client, router, servers, addresses):
            batch = await client.estimate_batch(
                [[name] for name in names()], gallery=GALLERY
            )
            return batch, router.snapshot()

        batch, stats = fleet(scenario)
        results = batch["results"]
        assert len(results) == len(names())
        shards = {member["shard"] for member in results}
        assert len(shards) == 1  # one gallery, one shard, one hop
        assert stats["batches"] == 1
        assert stats["forwarded"] == len(names())
        for member, name in zip(results, names()):
            assert member["use_case"] == [name]
            assert member["periods"]

    def test_batched_failover_survives_a_shard_death(self):
        async def scenario(client, router, servers, addresses):
            reference = await asyncio.gather(
                *[
                    client.estimate([name], gallery=GALLERY)
                    for name in names()
                ]
            )
            home = reference[0]["shard"]
            victim = next(
                index
                for index, address in enumerate(addresses)
                if f"{address[0]}:{address[1]}" == home
            )
            await servers[victim].aclose()
            results = await asyncio.gather(
                *[
                    client.estimate([name], gallery=GALLERY)
                    for name in names()
                ]
            )
            return reference, home, results, router.snapshot()

        reference, home, results, stats = fleet(scenario)
        for expected, result in zip(reference, results):
            assert result["shard"] != home
            assert_parity(result, expected)
        assert stats["shard_down"] == 1
        assert stats["errors"] == 0


# ----------------------------------------------------------------------
# Elasticity under load (join + leave mid-run, churn harness)
# ----------------------------------------------------------------------
class TestElasticityUnderLoad:
    def test_join_and_leave_mid_load_lose_no_query(self):
        """A shard joins and another leaves while four clients stream
        queries: zero errors, and every answer equals the stable-fleet
        reference bit for bit."""

        async def scenario():
            servers = [EstimationServer() for _ in range(3)]
            addresses = [await server.start() for server in servers]
            router = ShardRouter(addresses[:2], health_interval=0.1)
            address = await router.start()
            admin = await ServiceClient.connect(*address)
            clients = [
                await ServiceClient.connect(*address) for _ in range(4)
            ]
            galleries = [gallery_payload(seed) for seed in range(2000, 2006)]
            try:
                reference = {}
                for gallery in galleries:
                    for name in names():
                        result = await admin.estimate([name], gallery=gallery)
                        reference[(gallery["seed"], name)] = result

                answers = []
                errors = []

                async def run_client(index, client):
                    for step in range(25):
                        gallery = galleries[(index + step) % len(galleries)]
                        name = names()[step % len(names())]
                        try:
                            result = await client.estimate(
                                [name], gallery=gallery
                            )
                        except ServiceError as error:
                            errors.append(str(error))
                            continue
                        answers.append(((gallery["seed"], name), result))
                        await asyncio.sleep(0.004)

                async def churn():
                    await asyncio.sleep(0.03)
                    joined = await admin.join(
                        f"{addresses[2][0]}:{addresses[2][1]}"
                    )
                    await asyncio.sleep(0.05)
                    left = await admin.leave(
                        f"{addresses[0][0]}:{addresses[0][1]}"
                    )
                    return joined, left

                outcome = await asyncio.gather(
                    *[
                        run_client(index, client)
                        for index, client in enumerate(clients)
                    ],
                    churn(),
                )
                joined, left = outcome[-1]
                return (
                    reference,
                    answers,
                    errors,
                    joined,
                    left,
                    router.snapshot(),
                )
            finally:
                for client in clients:
                    await client.aclose()
                await admin.aclose()
                await router.aclose()
                for server in servers:
                    await server.aclose()

        reference, answers, errors, joined, left, stats = asyncio.run(
            scenario()
        )
        assert errors == []
        assert len(answers) == 4 * 25  # zero lost queries
        for key, result in answers:
            assert_parity(result, reference[key])
        assert joined["live_shards"] == 3
        assert left["live_shards"] == 2
        assert stats["joins"] == 1
        assert stats["leaves"] == 1

    def test_service_load_churn_harness(self):
        """The ``--churn`` load scenario drives join / kill / leave
        mid-run and must come back clean: every query answered."""
        report = run_load(
            LoadConfig(
                clients=4,
                queries_per_client=8,
                shards=2,
                churn=True,
                gallery=GallerySpec(application_count=4),
            )
        )
        assert report.errors == 0
        assert report.queries == 4 * 8
        assert report.router is not None
        assert [event["event"] for event in report.churn_events] == [
            "join",
            "kill",
            "leave",
        ]
        assert report.router["joins"] == 1
        assert report.router["leaves"] == 1
        payload = report.to_json()
        assert len(payload["churn_events"]) == 3

    def test_churn_requires_a_fleet(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="churn"):
            LoadConfig(shards=1, churn=True)
