"""The shard router: one front-end over N estimation-server shards.

One :class:`~repro.service.server.EstimationServer` — even with a
multiprocess solver pool — is still one event loop, one result cache
and one engine pool.  The fleet layer runs N server processes
(*shards*) and puts this thin asyncio front-end before them:

* clients speak the ordinary JSON-lines protocol to the router — no
  client changes, :class:`~repro.service.client.ServiceClient` works
  as-is;
* ``estimate`` queries are **consistent-hashed by gallery key**
  (:class:`~repro.service.hashring.HashRing`), so one gallery's
  queries always land on one shard whose engine pool and result cache
  stay hot, and adding/removing a shard only re-homes that shard's
  galleries;
* each shard is reached over one multiplexed
  :class:`~repro.service.client.ServiceClient` connection (requests
  pipeline, responses match by id), so the router adds sockets
  proportional to shards, not clients;
* shards are **health-checked** via the protocol's ``ping``, each
  bounded by the health interval; a shard that dies (connection
  refused/reset/EOF) or stops answering leaves the ring, its
  galleries re-home to the surviving shards, and the estimate that
  observed the death is **retried** there — estimates are idempotent
  queries, so failover is invisible to clients beyond latency.  A
  draining shard (closing, refusing new questions) counts as dead too.
  Failover candidates are recomputed from the live ring *per attempt*
  (a preference list captured before a concurrent ``_mark_down`` would
  waste retries on shards the router already knows are dead).  A
  resurrected shard re-joins the ring at the next health tick.  Its
  cache needs no repair: a gallery is a recipe, so a cached answer is
  a pure function of its key and cannot go stale.

The fleet is **elastic** (PR 10):

* ``join``/``leave`` admin verbs reshape the ring at runtime.  A
  joining shard is *warmed before it serves*: the router plans the
  ~1/N key space the joiner will own on a preview ring, exports those
  galleries' cached answers from the survivors (bounded by
  ``handoff_limit`` entries per gallery) and imports them into the
  joiner — only then does the shard enter the ring.  A leaving shard
  hands its cached answers to each gallery's new owner before it is
  dropped.
* every freshly solved estimate is **asynchronously replicated** to
  the next ``replication`` shards in ring order, so a shard death no
  longer cold-starts its key space: the failover read hits the
  replica in the neighbour's result cache instead of re-solving.
* every estimate travels to its shard in a framed ``estimate_batch``
  hop, and the router **micro-batches** without a timer: the first
  query of a ``(gallery, model, method)`` group yields one event-loop
  turn, so the same-group queries already read from any client
  connection join it, are deduplicated by query key and ride in its
  hop — N concurrent questions cost one round-trip of framing
  instead of N.

``stats``/``metrics`` aggregate the router's own counters with every
live shard's; ``shutdown`` stops the router — shards are separate
processes with their own lifecycles.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.exceptions import ServiceConnectionError, ServiceError
from repro.service.client import ServiceClient
from repro.service.hashring import HashRing
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SHUTTING_DOWN,
    JsonLinesEndpoint,
    Query,
    member_results,
    parse_estimate,
    parse_estimate_batch,
    parse_place,
    settled,
    unique_queries,
    wire_gallery,
)
from repro.telemetry import MetricsRegistry, Tracer

_T = TypeVar("_T")

#: Cached-answer entries handed off per gallery on join/leave.  The
#: hand-off is a warm-up, not a guarantee — bounding it keeps ring
#: changes O(cache) cheap and the admin verbs fast.
DEFAULT_HANDOFF_LIMIT = 256

#: Most queries one framed shard hop carries; a larger coalesced
#: group is split into several hops.
MAX_BATCH = 128


def parse_shard_address(value: str) -> Tuple[str, int]:
    """``host:port`` → address tuple (loud on malformed input)."""
    host, separator, port = value.rpartition(":")
    if not separator or not host:
        raise ServiceError(
            f"shard address {value!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ServiceError(
            f"shard address {value!r} has a non-integer port"
        ) from None


@dataclass
class _Shard:
    """One backend server: address, connection, health."""

    name: str
    address: Tuple[str, int]
    client: Optional[ServiceClient] = None
    healthy: bool = True
    forwarded: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Set when ``leave`` starts: a retiring shard never re-enters the
    #: ring, even if a health probe lands during its hand-off.
    retiring: bool = False


@dataclass
class _RoutedQuery:
    """One client estimate waiting for its shard hop."""

    query: Query
    trace_id: Optional[str]
    future: "asyncio.Future[Dict[str, object]]"


class ShardRouter(JsonLinesEndpoint):
    """Consistent-hash front-end over estimation-server shards.

    Parameters
    ----------
    shards:
        Backend addresses as ``(host, port)`` tuples.
    health_interval:
        Seconds between background ``ping`` sweeps (0 disables the
        loop; death is then only detected by failing forwards, and a
        down shard can only return via an admin ``join``).
    max_retries:
        How many *additional* shards a failed-over estimate may try
        before reporting failure (bounded by the live shard count).
    replication:
        How many ring-successor shards each freshly solved answer is
        asynchronously replicated to (0 disables; 1 — the default —
        survives any single shard death warm).
    handoff_limit:
        Cached entries exported per gallery during join/leave
        hand-offs.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[str, int]],
        health_interval: float = 1.0,
        max_retries: int = 2,
        replication: int = 1,
        handoff_limit: int = DEFAULT_HANDOFF_LIMIT,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not shards:
            raise ServiceError("router needs at least one shard address")
        if health_interval < 0:
            raise ServiceError(
                f"health_interval must be >= 0, got {health_interval}"
            )
        if replication < 0:
            raise ServiceError(
                f"replication must be >= 0, got {replication}"
            )
        if handoff_limit < 0:
            raise ServiceError(
                f"handoff_limit must be >= 0, got {handoff_limit}"
            )
        if registry is None:
            registry = MetricsRegistry(enabled=True)
        self.health_interval = health_interval
        self.max_retries = max_retries
        self.replication = replication
        self.handoff_limit = handoff_limit
        self._shards: Dict[str, _Shard] = {}
        for host, port in shards:
            name = f"{host}:{port}"
            if name in self._shards:
                raise ServiceError(f"duplicate shard address {name!r}")
            self._shards[name] = _Shard(name=name, address=(host, port))
        self._ring = HashRing(list(self._shards))
        counter = registry.counter
        self._metric_requests = counter(
            "repro_router_requests_total",
            "Requests received by the shard router",
            always=True,
        )
        self._metric_forwarded = counter(
            "repro_router_forwarded_total",
            "Estimate queries forwarded to shards",
            always=True,
        )
        self._metric_retries = counter(
            "repro_router_retries_total",
            "Estimates retried on another shard after a shard death",
            always=True,
        )
        self._metric_failovers = counter(
            "repro_router_shard_down_total",
            "Shards marked down (connection death or failed ping)",
            always=True,
        )
        self._metric_rejoins = counter(
            "repro_router_shard_up_total",
            "Shards re-joining the ring after a successful ping",
            always=True,
        )
        self._metric_errors = counter(
            "repro_router_errors_total",
            "Requests answered with an error response by the router",
            always=True,
        )
        self._metric_batches = counter(
            "repro_router_batches_total",
            "Estimate hops forwarded to shards, one framed batch each",
            always=True,
        )
        self._metric_batched_queries = counter(
            "repro_router_batched_queries_total",
            "Client estimates carried by estimate hops",
            always=True,
        )
        self._metric_replications = counter(
            "repro_router_replications_total",
            "Cached answers replicated to a ring-successor shard",
            always=True,
        )
        self._metric_joins = counter(
            "repro_router_joins_total",
            "Shards added to the ring by the join verb",
            always=True,
        )
        self._metric_leaves = counter(
            "repro_router_leaves_total",
            "Shards retired from the fleet by the leave verb",
            always=True,
        )
        self._metric_handoff_entries = counter(
            "repro_router_handoff_entries_total",
            "Cached answers moved between shards by join/leave hand-offs",
            always=True,
        )
        #: Estimates waiting for their group's hop, by group.
        self._pending: Dict[
            Tuple[str, str, str], List[_RoutedQuery]
        ] = {}
        self._replica_tasks: "set[asyncio.Task[None]]" = set()
        self._hop_tasks: "set[asyncio.Task[None]]" = set()
        self._health_task: Optional["asyncio.Task[None]"] = None
        super().__init__(
            {
                "ping": self._ping,
                "estimate": self._forward_estimate,
                "estimate_batch": self._forward_estimate_batch,
                "place": self._forward_place,
                "stats": self._stats,
                "metrics": self._metrics,
                "join": self._join,
                "leave": self._leave,
                "shutdown": self._shutdown,
            },
            registry=registry,
            tracer=tracer if tracer is not None else Tracer(),
            count_request=self._metric_requests.inc,
            count_error=self._metric_errors.inc,
            request_span="router.request",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        address = await super().start(host, port)
        if self.health_interval > 0:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )
        return address

    async def aclose(self) -> None:
        self._stop_accepting()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._replica_tasks:
            await asyncio.gather(
                *list(self._replica_tasks), return_exceptions=True
            )
        await self._close_connections()
        for shard in self._shards.values():
            if shard.client is not None:
                await shard.client.aclose()
                shard.client = None

    # ------------------------------------------------------------------
    # Shard management
    # ------------------------------------------------------------------
    async def _client(self, shard: _Shard) -> ServiceClient:
        """The shard's multiplexed connection, dialing if necessary."""
        if shard.client is None:
            async with shard.lock:
                if shard.client is None:
                    try:
                        shard.client = await ServiceClient.connect(
                            *shard.address
                        )
                    except OSError as error:
                        raise ServiceConnectionError(
                            f"shard {shard.name} unreachable: {error}"
                        ) from None
        return shard.client

    def _mark_down(self, shard: _Shard) -> None:
        """Remove a dead shard from the ring; its galleries re-home."""
        if not shard.healthy:
            return
        shard.healthy = False
        self._metric_failovers.inc()
        if shard.name in self._ring:
            self._ring.remove(shard.name)
        client, shard.client = shard.client, None
        if client is not None:
            # Fire-and-forget close: the transport is already dead.
            task = asyncio.get_running_loop().create_task(client.aclose())
            task.add_done_callback(lambda _: None)

    def _mark_up(self, shard: _Shard) -> None:
        if shard.healthy or shard.retiring:
            return
        shard.healthy = True
        self._metric_rejoins.inc()
        if shard.name not in self._ring:
            self._ring.add(shard.name)

    async def _ping_shard(self, shard: _Shard) -> None:
        await (await self._client(shard)).ping()

    async def _probe(self, shard: _Shard) -> bool:
        """One health ping; flips the shard up or down accordingly.

        The ping is bounded by ``health_interval``: a shard that accepts
        connections but never answers is down, and must neither stall
        the fleet's health sweep nor keep its galleries."""
        try:
            await asyncio.wait_for(
                self._ping_shard(shard), self.health_interval or None
            )
        except (
            ServiceConnectionError,
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
        ):
            # Marking down also closes the client, so forwards hung on
            # an unanswering shard fail over.
            self._mark_down(shard)
            return False
        except ServiceError:
            # An error reply over a live transport: do not flip the
            # shard either way, a later probe decides.
            return False
        self._mark_up(shard)
        return True

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await asyncio.gather(
                *[self._probe(shard) for shard in list(self._shards.values())]
            )

    def _next_candidate(
        self, label: str, tried: "set[str]"
    ) -> Optional[_Shard]:
        """The best untried healthy shard for ``label`` *right now*.

        Recomputed from the live ring on every call: a concurrent
        ``_mark_down`` (another request's failure, a health probe)
        immediately disqualifies a shard, so a retry never burns an
        attempt on a shard the router already knows is dead.
        """
        if len(self._ring) == 0:
            return None
        for name in self._ring.nodes_for(label):
            if name in tried:
                continue
            shard = self._shards.get(name)
            if shard is not None and shard.healthy:
                return shard
        return None

    async def _failover(
        self,
        label: str,
        attempt: Callable[[_Shard, int], Awaitable[_T]],
    ) -> Tuple[_Shard, _T]:
        """Run ``attempt`` against healthy shards in preference order.

        At most ``max_retries + 1`` attempts; transport-level failures
        (a draining shard's refusal among them) mark the shard down and
        move on (estimates and placements are idempotent, re-asking is
        safe).  Candidates are recomputed per attempt — see
        :meth:`_next_candidate`.
        """
        tried: "set[str]" = set()
        attempts = 0
        last_error: Optional[str] = None
        while attempts < self.max_retries + 1:
            shard = self._next_candidate(label, tried)
            if shard is None:
                break
            if attempts:
                self._metric_retries.inc()
            attempts += 1
            tried.add(shard.name)
            try:
                return shard, await attempt(shard, attempts)
            except (ServiceConnectionError, ConnectionError) as error:
                last_error = str(error)
                self._mark_down(shard)
                continue
        if attempts == 0 and last_error is None:
            raise ServiceError(
                "no healthy shard is available for the query"
            )
        raise ServiceError(
            f"no shard could answer after {attempts} attempt(s): "
            f"{last_error or 'no healthy shard available'}"
        )

    # ------------------------------------------------------------------
    # Live resharding: join / leave
    # ------------------------------------------------------------------
    async def join(self, address: Tuple[str, int]) -> Dict[str, object]:
        """Add a shard to the live ring, warmed before it serves.

        The hand-off is planned on a *preview* ring (current nodes plus
        the joiner): every cached gallery a survivor holds whose owner
        flips to the joiner re-homes, so the joiner receives exactly
        the ~1/N key space it is about to own, bounded by
        ``handoff_limit`` entries per gallery.  Only after the import
        completes does the shard enter the ring — its first queries
        land on a warm cache, not a cold start.
        """
        if self._closing:
            raise ServiceError("router is shutting down")
        name = f"{address[0]}:{address[1]}"
        known = self._shards.get(name)
        if known is not None and known.healthy:
            raise ServiceError(
                f"shard {name!r} is already part of the fleet"
            )
        if known is not None and known.retiring:
            raise ServiceError(f"shard {name!r} is leaving the fleet")
        if known is not None:
            # A known-but-down shard: admin-driven resurrection walks
            # the same probe-then-rejoin path as the health loop.
            if not await self._probe(known):
                raise ServiceError(f"shard {name!r} is unreachable")
            self._metric_joins.inc()
            return {
                "shard": name,
                "rejoined": True,
                "live_shards": len(self._ring),
            }
        shard = _Shard(name=name, address=address)
        try:
            await self._ping_shard(shard)
        except (ServiceConnectionError, ConnectionError, OSError) as error:
            raise ServiceError(
                f"cannot join unreachable shard {name!r}: {error}"
            ) from None
        # Plan the hand-off on the preview ring, against the galleries
        # the survivors actually hold warm answers for.
        preview = self._ring.with_node(name)
        moved_galleries: List[str] = []
        entries_moved = 0
        for survivor in list(self._shards.values()):
            if not survivor.healthy:
                continue
            try:
                survivor_client = await self._client(survivor)
                listing = await survivor_client.cache_export(galleries=[])
                labels = [
                    label
                    for label in listing.get("galleries", [])
                    if preview.node_for(str(label)) == name
                    and self._ring.node_for(str(label)) == survivor.name
                ]
                if not labels:
                    continue
                export = await survivor_client.cache_export(
                    galleries=labels, limit=self.handoff_limit
                )
                entries = export.get("entries", [])
                if entries:
                    imported = await (await self._client(shard)).cache_import(
                        entries
                    )
                    entries_moved += int(imported.get("imported", 0))
                    self._metric_handoff_entries.inc(
                        int(imported.get("imported", 0))
                    )
                moved_galleries.extend(str(label) for label in labels)
            except (ServiceConnectionError, ConnectionError):
                self._mark_down(survivor)
        self._shards[name] = shard
        self._ring.add(name)
        self._metric_joins.inc()
        return {
            "shard": name,
            "rejoined": False,
            "handoff": {
                "galleries": sorted(moved_galleries),
                "entries": entries_moved,
            },
            "live_shards": len(self._ring),
        }

    async def leave(self, name: str) -> Dict[str, object]:
        """Gracefully retire a shard from the fleet.

        The shard leaves the ring first (no new queries land on it),
        its cached answers hand off to each gallery's new owner, and
        only then is it forgotten — the health loop will not resurrect
        a shard that *left*, unlike one that *died*.
        """
        shard = self._shards.get(name)
        if shard is None or shard.retiring:
            raise ServiceError(f"shard {name!r} is not part of the fleet")
        survivors = [
            s for s in self._shards.values() if s.healthy and s.name != name
        ]
        if shard.healthy and not survivors:
            raise ServiceError(
                f"cannot retire {name!r}: it is the last healthy shard"
            )
        was_healthy = shard.healthy
        if shard.name in self._ring:
            self._ring.remove(shard.name)
        shard.healthy = False
        # The hand-off below awaits; a probe landing meanwhile (or one
        # already in flight) must not put the shard back on the ring.
        shard.retiring = True
        entries_moved = 0
        handoff_galleries: List[str] = []
        if was_healthy:
            try:
                export = await (await self._client(shard)).cache_export(
                    limit=self.handoff_limit
                )
                by_owner: Dict[str, List[object]] = {}
                for entry in export.get("entries", []):
                    label = str(entry[0][0])
                    owner = self._ring.node_for(label)
                    by_owner.setdefault(owner, []).append(entry)
                handoff_galleries = [
                    str(label) for label in export.get("galleries", [])
                ]
                for owner, entries in by_owner.items():
                    target = self._shards.get(owner)
                    if target is None or not target.healthy:
                        continue
                    try:
                        imported = await (
                            await self._client(target)
                        ).cache_import(entries)
                        moved = int(imported.get("imported", 0))
                        entries_moved += moved
                        self._metric_handoff_entries.inc(moved)
                    except (ServiceConnectionError, ConnectionError):
                        self._mark_down(target)
            except (ServiceConnectionError, ConnectionError):
                pass  # the leaver died mid-goodbye: nothing to hand off
        del self._shards[name]
        client, shard.client = shard.client, None
        if client is not None:
            await client.aclose()
        self._metric_leaves.inc()
        return {
            "shard": name,
            "handoff": {
                "galleries": handoff_galleries,
                "entries": entries_moved,
            },
            "live_shards": len(self._ring),
        }

    # ------------------------------------------------------------------
    # Operations: ``(payload, trace_id, conn)`` in; the result out, or
    # an awaitable of it when the answer waits for a shard
    # ------------------------------------------------------------------
    def _ping(self, *_: object) -> Dict[str, object]:
        return {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "router": True,
            "shards": self.shard_health(),
        }

    async def _join(self, payload: Dict[str, object], *_: object) -> Dict[str, object]:
        return await self.join(parse_shard_address(str(payload.get("shard", ""))))

    async def _leave(self, payload: Dict[str, object], *_: object) -> Dict[str, object]:
        host, port = parse_shard_address(str(payload.get("shard", "")))
        return await self.leave(f"{host}:{port}")

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _forward_estimate(
        self, payload: Dict[str, object], trace_id: Optional[str], conn: object
    ) -> "asyncio.Future[Dict[str, object]]":
        # Validate at the edge (same contract as the server) — and the
        # parse yields the gallery label the ring hashes on.
        (answer,) = self._coalesce([parse_estimate(payload)], trace_id)
        return answer

    def _forward_estimate_batch(
        self, payload: Dict[str, object], trace_id: Optional[str], conn: object
    ) -> object:
        """A client-side ``estimate_batch`` through the router; failed
        members carry ``{"error": ...}`` in their slot."""
        answers = self._coalesce(parse_estimate_batch(payload), trace_id)
        return settled(answers, lambda: {"results": member_results(answers)})

    def _coalesce(
        self, queries: List[Query], trace_id: Optional[str]
    ) -> List["asyncio.Future[Dict[str, object]]"]:
        """Queue one group's queries for a shard hop; returns the
        futures of their answers.

        The first query of a ``(gallery, model, method)`` group opens
        the group's pending list and starts the task that forwards it.
        That task yields one event-loop turn first, so the same-group
        requests read from any connection meanwhile join the list; it
        then forwards one ``estimate_batch`` hop per :data:`MAX_BATCH`
        members.
        """
        if self._closing:
            raise ServiceError("router is shutting down")
        loop = asyncio.get_running_loop()
        members = [
            _RoutedQuery(query=query, trace_id=trace_id, future=loop.create_future())
            for query in queries
        ]
        group = queries[0].group
        pending = self._pending.get(group)
        if pending is not None:
            pending.extend(members)
        else:
            self._pending[group] = list(members)
            task = loop.create_task(self._forward_pending(group))
            self._hop_tasks.add(task)
            task.add_done_callback(self._hop_tasks.discard)
        return [member.future for member in members]

    async def _forward_pending(self, group: Tuple[str, str, str]) -> None:
        await asyncio.sleep(0)
        pending = self._pending.pop(group)
        for start in range(0, len(pending), MAX_BATCH):
            await self._forward_group(pending[start : start + MAX_BATCH])

    async def _forward_group(self, members: List[_RoutedQuery]) -> None:
        """Forward one ``(gallery, model, method)`` group as a single
        framed ``estimate_batch`` hop and resolve its members."""
        first = members[0].query
        label = first.gallery.label()
        unique, trace_ids = unique_queries(members)
        queries = list(unique.values())
        hop_trace = trace_ids[0] if len(trace_ids) == 1 else None

        async def attempt(shard: _Shard, attempts: int) -> Dict[str, object]:
            with self.tracer.span(
                "router.forward_batch",
                trace_id=hop_trace,
                shard=shard.name,
                gallery=label,
                queries=len(queries),
                attempt=attempts,
            ):
                client = await self._client(shard)
                result = await client.estimate_batch(
                    [list(q.use_case.applications) for q in queries],
                    gallery=wire_gallery(first.gallery),
                    model=first.model,
                    method=first.method.value,
                    trace=hop_trace,
                )
                raw = result.get("results")
                if isinstance(raw, list) and any(
                    isinstance(payload, dict)
                    and payload.get("error") == SHUTTING_DOWN
                    for payload in raw
                ):
                    # A closing shard refuses every new question and
                    # is about to drop its connections: fail over now
                    # rather than hand the refusal to the clients.
                    raise ServiceConnectionError(
                        f"shard {shard.name} is shutting down"
                    )
                return result

        try:
            shard, result = await self._failover(label, attempt)
        except Exception as error:
            message = str(error)
            for member in members:
                if not member.future.done():
                    member.future.set_exception(ServiceError(message))
            return
        shard.forwarded += len(queries)
        self._metric_forwarded.inc(len(queries))
        self._metric_batches.inc()
        self._metric_batched_queries.inc(len(members))
        raw = result.get("results")
        payloads = raw if isinstance(raw, list) else []
        if len(payloads) != len(queries):
            message = (
                f"shard {shard.name} answered {len(payloads)} results "
                f"for a batch of {len(queries)}"
            )
            for member in members:
                if not member.future.done():
                    member.future.set_exception(ServiceError(message))
            return
        by_key = dict(zip(unique.keys(), payloads))
        for member in members:
            if member.future.done():
                continue
            payload = by_key[member.query.key]
            if set(payload) == {"error"}:
                member.future.set_exception(
                    ServiceError(str(payload["error"]))
                )
                continue
            answer = dict(payload, shard=shard.name)
            if member.trace_id is not None:
                answer["trace"] = member.trace_id
            else:
                answer.pop("trace", None)
            member.future.set_result(answer)
        # After the answers: their writes are scheduled first.
        for key, payload in by_key.items():
            if "error" not in payload:
                self._replicate(label, key, payload, exclude=shard.name)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def _replicate(
        self,
        label: str,
        key: Tuple[str, str, str, str],
        payload: Dict[str, object],
        exclude: str,
    ) -> None:
        """Asynchronously copy a fresh answer to ring-successor shards.

        Cache hits are skipped: the serving shard already holds the
        entry it just read.
        """
        if (
            self.replication < 1
            or self._closing
            or payload.get("cached") is True
        ):
            return
        try:
            order = self._ring.nodes_for(label)
        except ServiceError:
            return
        targets: List[_Shard] = []
        for name in order:
            if name == exclude:
                continue
            shard = self._shards.get(name)
            if shard is None or not shard.healthy:
                continue
            targets.append(shard)
            if len(targets) >= self.replication:
                break
        if not targets:
            return
        entry = [
            list(key),
            {
                k: v
                for k, v in payload.items()
                if k not in ("cached", "degraded", "shard", "trace")
            },
        ]
        task = asyncio.get_running_loop().create_task(
            self._send_replica(targets, entry)
        )
        self._replica_tasks.add(task)
        task.add_done_callback(self._replica_tasks.discard)

    async def _send_replica(
        self, targets: List[_Shard], entry: List[object]
    ) -> None:
        for shard in targets:
            try:
                await (await self._client(shard)).cache_import([entry])
                self._metric_replications.inc()
            except (ServiceConnectionError, ConnectionError):
                self._mark_down(shard)
            except ServiceError:
                pass  # the target refused the import; not a death

    async def _forward_place(
        self, payload: Dict[str, object], trace_id: Optional[str], conn: object
    ) -> Dict[str, object]:
        """Forward a ``place`` request to the gallery's home shard.

        Same routing discipline as estimates: validate at the edge,
        consistent-hash on the gallery label (a gallery's placement
        lands where its warm engines live), and fail over down the
        preference order — the search is deterministic and
        wall-clock-free, so re-asking another shard is safe and yields
        byte-identical placement JSON.
        """
        if self._closing:
            raise ServiceError("router is shutting down")
        query = parse_place(payload)
        label = query.gallery.label()

        async def attempt(shard: _Shard, attempts: int) -> Dict[str, object]:
            with self.tracer.span(
                "router.forward_place",
                trace_id=trace_id,
                shard=shard.name,
                gallery=label,
                attempt=attempts,
            ):
                # Validated above; the shard parses the same payload.
                return await (await self._client(shard))._call(payload)

        shard, result = await self._failover(label, attempt)
        shard.forwarded += 1
        self._metric_forwarded.inc()
        result["shard"] = shard.name
        return result

    async def _stats(self, *_: object) -> Dict[str, object]:
        shards: Dict[str, object] = {}
        for shard in list(self._shards.values()):
            if not shard.healthy:
                shards[shard.name] = None
                continue
            try:
                shards[shard.name] = await (await self._client(shard)).stats()
            except (ServiceConnectionError, ConnectionError):
                self._mark_down(shard)
                shards[shard.name] = None
        return dict(self.snapshot(), per_shard=shards)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def shard_health(self) -> Dict[str, bool]:
        return {
            shard.name: shard.healthy for shard in self._shards.values()
        }

    def snapshot(self) -> Dict[str, object]:
        """Router-side counters (JSON-serializable, no shard calls).

        ``batches`` counts every estimate hop (each is one framed
        ``estimate_batch``), and ``batched_queries`` the client
        estimates those hops carried; ``forwarded`` and
        ``per_shard_forwarded`` count deduplicated queries.
        """
        return {
            "protocol": PROTOCOL_VERSION,
            "router": True,
            "shards": self.shard_health(),
            "live_shards": len(self._ring),
            "requests": int(self._metric_requests.value),
            "forwarded": int(self._metric_forwarded.value),
            "retries": int(self._metric_retries.value),
            "shard_down": int(self._metric_failovers.value),
            "shard_up": int(self._metric_rejoins.value),
            "errors": int(self._metric_errors.value),
            "batches": int(self._metric_batches.value),
            "batched_queries": int(self._metric_batched_queries.value),
            "replication": self.replication,
            "replications": int(self._metric_replications.value),
            "joins": int(self._metric_joins.value),
            "leaves": int(self._metric_leaves.value),
            "handoff_entries": int(self._metric_handoff_entries.value),
            "per_shard_forwarded": {
                shard.name: shard.forwarded
                for shard in self._shards.values()
            },
        }
