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
* shards are **health-checked** via the protocol's ``ping``; a shard
  that dies (connection refused/reset/EOF) leaves the ring, its
  galleries re-home to the surviving shards, and the estimate that
  observed the death is **retried** there — estimates are idempotent
  queries, so failover is invisible to clients beyond latency.
  Failover candidates are recomputed from the live ring *per attempt*
  (a preference list captured before a concurrent ``_mark_down`` would
  waste retries on shards the router already knows are dead).  A
  resurrected shard re-joins the ring at the next health tick — after
  every gallery invalidation it missed while down has been **replayed**
  to it, so a shard that slept through an ``invalidate`` broadcast can
  never serve its stale cache to the fleet.

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
* with ``batch_window > 0`` the router **micro-batches**: estimate
  queries arriving across client connections within the window are
  grouped by ``(gallery, model, method)``, deduplicated by query key
  and forwarded as one framed ``estimate_batch`` message per shard
  hop — N concurrent questions cost one round-trip of framing instead
  of N (the same grouping/dedup discipline as the server's batcher).

``stats``/``metrics`` aggregate the router's own counters with every
live shard's; ``invalidate`` broadcasts (any shard may have served the
gallery before a ring change) and *queues* an invalidation epoch for
down shards; ``shutdown`` stops the router — shards are separate
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
    Query,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_estimate,
    parse_estimate_batch,
    parse_gallery,
    parse_place,
    resolve_request_id,
    resolve_trace_id,
)
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    get_registry,
    render_merged,
    snapshot_merged,
)

_T = TypeVar("_T")

#: Cached-answer entries handed off per gallery on join/leave.  The
#: hand-off is a warm-up, not a guarantee — bounding it keeps ring
#: changes O(cache) cheap and the admin verbs fast.
DEFAULT_HANDOFF_LIMIT = 256


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
    failures: int = 0
    forwarded: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Per-gallery invalidation epoch this shard has acknowledged.  A
    #: shard whose ack lags the router's epoch for a gallery holds a
    #: potentially stale cache for it — it must not serve that gallery
    #: until the invalidation is replayed (the stale-rejoin fix).
    acked: Dict[str, int] = field(default_factory=dict)
    #: Set when ``leave`` starts: a retiring shard never re-enters the
    #: ring, even if a health probe lands during its hand-off.
    retiring: bool = False


@dataclass
class _RoutedQuery:
    """One client estimate waiting inside the router's micro-batcher."""

    query: Query
    trace_id: Optional[str]
    future: "asyncio.Future[Dict[str, object]]"


class ShardRouter:
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
    batch_window:
        Seconds the router's micro-batcher lingers so same-gallery
        estimates from different client connections coalesce into one
        framed ``estimate_batch`` per shard hop.  ``0`` (default)
        forwards estimate-by-estimate — the pre-elasticity behaviour.
    max_batch:
        Most queries one framed shard hop may carry.
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
        batch_window: float = 0.0,
        max_batch: int = 128,
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
        if batch_window < 0:
            raise ServiceError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if replication < 0:
            raise ServiceError(
                f"replication must be >= 0, got {replication}"
            )
        if handoff_limit < 0:
            raise ServiceError(
                f"handoff_limit must be >= 0, got {handoff_limit}"
            )
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=True)
        )
        self.tracer = tracer if tracer is not None else Tracer()
        self.health_interval = health_interval
        self.max_retries = max_retries
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.replication = replication
        self.handoff_limit = handoff_limit
        self._shards: Dict[str, _Shard] = {}
        for host, port in shards:
            name = f"{host}:{port}"
            if name in self._shards:
                raise ServiceError(f"duplicate shard address {name!r}")
            self._shards[name] = _Shard(name=name, address=(host, port))
        self._ring = HashRing(list(self._shards))
        counter = self.registry.counter
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
            "Micro-batched estimate groups forwarded as one shard hop",
            always=True,
        )
        self._metric_batched_queries = counter(
            "repro_router_batched_queries_total",
            "Client estimates coalesced by the router micro-batcher",
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
        self._metric_replayed = counter(
            "repro_router_invalidations_replayed_total",
            "Queued gallery invalidations replayed to rejoining shards",
            always=True,
        )
        self._metric_stale_risk = counter(
            "repro_router_stale_risk_total",
            "Forwards to a shard lagging a gallery's invalidation epoch "
            "(0 when the rejoin-replay protocol holds)",
            always=True,
        )
        #: Per-gallery invalidation epoch + the wire recipe to replay.
        self._gallery_epochs: Dict[str, int] = {}
        self._gallery_recipes: Dict[str, Dict[str, object]] = {}
        #: Labels whose broadcast is mid-flight — forwards during the
        #: broadcast race it benignly and are not a protocol violation.
        self._invalidating: "set[str]" = set()
        #: Micro-batcher state (active only when ``batch_window > 0``).
        self._pending: Dict[
            Tuple[str, str, str], List[_RoutedQuery]
        ] = {}
        self._arrival: Optional[asyncio.Event] = None
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._group_tasks: "set[asyncio.Task[None]]" = set()
        self._replica_tasks: "set[asyncio.Task[None]]" = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_task: Optional["asyncio.Task[None]"] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._stop: Optional[asyncio.Event] = None
        self._closing = False
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        if self._server is not None:
            raise ServiceError("router already started")
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=port,
            limit=2 * 1024 * 1024,
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        loop = asyncio.get_running_loop()
        if self.health_interval > 0:
            self._health_task = loop.create_task(self._health_loop())
        if self.batch_window > 0:
            self._arrival = asyncio.Event()
            self._batcher = loop.create_task(self._batch_loop())
        return self.address

    async def wait_shutdown(self) -> None:
        assert self._stop is not None, "router not started"
        await self._stop.wait()

    async def aclose(self) -> None:
        self._closing = True
        if self._stop is not None:
            self._stop.set()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._batcher is not None:
            # Drain the micro-batcher to real answers (or errors) —
            # enqueued clients are still awaiting their futures.
            assert self._arrival is not None
            self._arrival.set()
            while any(self._pending.values()) or self._group_tasks:
                await asyncio.sleep(0.005)
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._replica_tasks:
            await asyncio.gather(
                *list(self._replica_tasks), return_exceptions=True
            )
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, BrokenPipeError):
                pass
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
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
        shard.failures += 1
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

    async def _replay_invalidations(self, shard: _Shard) -> int:
        """Bring a rejoining shard's caches up to the fleet's epochs.

        A shard that was down during an ``invalidate`` broadcast kept
        its stale :class:`~repro.service.cache.ResultCache` and warm
        engines; replaying every missed gallery invalidation *before*
        the shard re-enters the ring is what makes resurrection safe.
        Raises on failure — the caller must then leave the shard down.
        """
        replayed = 0
        client = await self._client(shard)
        for label, epoch in list(self._gallery_epochs.items()):
            if shard.acked.get(label, 0) >= epoch:
                continue
            await client.invalidate(self._gallery_recipes[label])
            shard.acked[label] = epoch
            replayed += 1
            self._metric_replayed.inc()
        return replayed

    async def _probe(self, shard: _Shard) -> bool:
        """One health ping; flips the shard up or down accordingly.

        A down shard only comes back up once every gallery invalidation
        it slept through has been replayed — an unreplayable shard
        stays off the ring (the stale-rejoin fix)."""
        try:
            await (await self._client(shard)).ping()
            if not shard.healthy:
                await self._replay_invalidations(shard)
        except (ServiceConnectionError, ConnectionError, OSError):
            self._mark_down(shard)
            return False
        except ServiceError:
            # The shard is reachable but refused an invalidation
            # replay: it must not serve until a later probe succeeds.
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
        mark the shard down and move on (estimates and placements are
        idempotent, re-asking is safe).  Candidates are recomputed per
        attempt — see :meth:`_next_candidate`.
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
            epoch = self._gallery_epochs.get(label, 0)
            if (
                epoch
                and label not in self._invalidating
                and shard.acked.get(label, 0) < epoch
            ):
                # Should be impossible: healthy shards ack at broadcast
                # time, rejoiners replay before re-entering the ring and
                # joiners ack on entry.  Counted, not raised — serving a
                # possibly-stale answer beats serving none.
                self._metric_stale_risk.inc()
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
            # the same replay-then-rejoin path as the health loop.
            if not await self._probe(known):
                raise ServiceError(
                    f"shard {name!r} is unreachable or refused the "
                    f"invalidation replay"
                )
            self._metric_joins.inc()
            return {
                "shard": name,
                "rejoined": True,
                "live_shards": len(self._ring),
            }
        shard = _Shard(name=name, address=address)
        try:
            await (await self._client(shard)).ping()
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
        # The joiner's cache holds only entries exported from healthy
        # (fully acked) survivors: it starts current on every epoch.
        shard.acked = dict(self._gallery_epochs)
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
    # Front-end protocol
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        send_lock = asyncio.Lock()
        tasks: "set[asyncio.Task[None]]" = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(
                        writer,
                        error_response(None, "message too long"),
                        send_lock,
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = decode_message(line)
                except Exception as error:
                    self._metric_requests.inc()
                    self._metric_errors.inc()
                    await self._send(
                        writer, error_response(None, str(error)), send_lock
                    )
                    continue
                if payload.get("op") == "shutdown":
                    await self._serve_payload(payload, writer, send_lock)
                    break
                task = loop.create_task(
                    self._serve_payload(payload, writer, send_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        payload: Dict[str, object],
        send_lock: asyncio.Lock,
    ) -> None:
        async with send_lock:
            try:
                writer.write(encode_message(payload))
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass  # client went away

    async def _serve_payload(
        self,
        payload: Dict[str, object],
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
    ) -> None:
        self._metric_requests.inc()
        request_id: object = None
        op = payload.get("op")
        try:
            request_id = resolve_request_id(payload)
            with self.tracer.span("router.request", op=str(op)):
                if op == "ping":
                    response = ok_response(
                        request_id,
                        {
                            "pong": True,
                            "protocol": PROTOCOL_VERSION,
                            "router": True,
                            "shards": self.shard_health(),
                        },
                    )
                elif op == "estimate":
                    response = ok_response(
                        request_id, await self._forward_estimate(payload)
                    )
                elif op == "estimate_batch":
                    response = ok_response(
                        request_id,
                        await self._forward_estimate_batch(payload),
                    )
                elif op == "place":
                    response = ok_response(
                        request_id, await self._forward_place(payload)
                    )
                elif op == "stats":
                    response = ok_response(request_id, await self._stats())
                elif op == "metrics":
                    response = ok_response(
                        request_id,
                        {
                            "exposition": self.render_metrics(),
                            "snapshot": self.metrics_snapshot(),
                        },
                    )
                elif op == "invalidate":
                    response = ok_response(
                        request_id,
                        await self._broadcast_invalidate(payload),
                    )
                elif op == "join":
                    response = ok_response(
                        request_id,
                        await self.join(
                            parse_shard_address(
                                str(payload.get("shard", ""))
                            )
                        ),
                    )
                elif op == "leave":
                    host, port = parse_shard_address(
                        str(payload.get("shard", ""))
                    )
                    response = ok_response(
                        request_id, await self.leave(f"{host}:{port}")
                    )
                elif op == "shutdown":
                    response = ok_response(request_id, {"stopping": True})
                else:
                    raise ServiceError(
                        f"unknown op {op!r} (expected ping, estimate, "
                        f"estimate_batch, place, stats, metrics, "
                        f"invalidate, join, leave or shutdown)"
                    )
        except Exception as error:
            self._metric_errors.inc()
            response = error_response(request_id, str(error))
            op = None
        await self._send(writer, response, send_lock)
        if op == "shutdown":
            assert self._stop is not None
            self._stop.set()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @staticmethod
    def _wire_gallery(query: Query) -> Dict[str, object]:
        return {
            "kind": query.gallery.kind,
            "seed": query.gallery.seed,
            "applications": query.gallery.application_count,
        }

    async def _forward_estimate(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        if self._closing:
            raise ServiceError("router is shutting down")
        # Validate at the edge (same contract as the server) — and the
        # parse yields the gallery label the ring hashes on.
        query = parse_estimate(payload)
        trace_id = resolve_trace_id(payload)
        if self._batcher is not None:
            return await self._submit_batched(query, trace_id)
        label = query.gallery.label()

        async def attempt(shard: _Shard, attempts: int) -> Dict[str, object]:
            with self.tracer.span(
                "router.forward",
                trace_id=trace_id,
                shard=shard.name,
                gallery=label,
                attempt=attempts,
            ):
                client = await self._client(shard)
                return await client.estimate(
                    list(query.use_case.applications),
                    gallery=self._wire_gallery(query),
                    model=query.model,
                    method=query.method.value,
                    trace=trace_id,
                )

        shard, result = await self._failover(label, attempt)
        shard.forwarded += 1
        self._metric_forwarded.inc()
        self._replicate(label, query.key, result, exclude=shard.name)
        result["shard"] = shard.name
        return result

    async def _forward_estimate_batch(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """A client-side ``estimate_batch`` through the router.

        With the micro-batcher on, members join the shared pending
        pool (coalescing with other connections' queries); otherwise
        the group forwards as one framed hop directly.
        """
        if self._closing:
            raise ServiceError("router is shutting down")
        queries = parse_estimate_batch(payload)
        trace_id = resolve_trace_id(payload)
        loop = asyncio.get_running_loop()
        members = [
            _RoutedQuery(
                query=query, trace_id=trace_id, future=loop.create_future()
            )
            for query in queries
        ]
        if self._batcher is not None:
            group = members[0].query.group
            self._pending.setdefault(group, []).extend(members)
            assert self._arrival is not None
            self._arrival.set()
        else:
            await self._forward_group(members)
        results: List[Dict[str, object]] = []
        for member in members:
            try:
                results.append(await member.future)
            except ServiceError as error:
                results.append({"error": str(error)})
        return {"results": results}

    async def _submit_batched(
        self, query: Query, trace_id: Optional[str]
    ) -> Dict[str, object]:
        """Enqueue one estimate into the micro-batcher and await it."""
        member = _RoutedQuery(
            query=query,
            trace_id=trace_id,
            future=asyncio.get_running_loop().create_future(),
        )
        self._pending.setdefault(query.group, []).append(member)
        assert self._arrival is not None
        self._arrival.set()
        return await member.future

    async def _batch_loop(self) -> None:
        assert self._arrival is not None
        while True:
            if not any(self._pending.values()):
                self._arrival.clear()
                await self._arrival.wait()
            if self.batch_window > 0 and not self._closing:
                # Linger: same-gallery queries from other connections
                # land in this hop, not the next.
                await asyncio.sleep(self.batch_window)
            groups = [
                members for members in self._pending.values() if members
            ]
            self._pending = {}
            loop = asyncio.get_running_loop()
            for members in groups:
                # One framed hop per max_batch chunk per group; groups
                # fly concurrently — shard affinity spreads them.
                for start in range(0, len(members), self.max_batch):
                    chunk = members[start : start + self.max_batch]
                    task = loop.create_task(self._forward_group(chunk))
                    self._group_tasks.add(task)
                    task.add_done_callback(self._group_tasks.discard)

    async def _forward_group(self, members: List[_RoutedQuery]) -> None:
        """Forward one ``(gallery, model, method)`` group as a single
        framed ``estimate_batch`` hop and resolve its members."""
        first = members[0].query
        label = first.gallery.label()
        # Same dedup discipline as the server batcher: N clients asking
        # the same question inside one window cost one forwarded query.
        unique: Dict[Tuple[str, str, str, str], Query] = {}
        for member in members:
            unique.setdefault(member.query.key, member.query)
        queries = list(unique.values())
        trace_ids = tuple(
            dict.fromkeys(
                member.trace_id
                for member in members
                if member.trace_id is not None
            )
        )
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
                return await client.estimate_batch(
                    [list(q.use_case.applications) for q in queries],
                    gallery=self._wire_gallery(first),
                    model=first.model,
                    method=first.method.value,
                    trace=hop_trace,
                )

        try:
            shard, result = await self._failover(label, attempt)
        except Exception as error:
            message = str(error)
            for member in members:
                if not member.future.done():
                    member.future.set_exception(ServiceError(message))
            return
        shard.forwarded += 1
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
        for key, payload in by_key.items():
            if "error" not in payload:
                self._replicate(label, key, payload, exclude=shard.name)
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

        Cache hits are skipped (the serving shard already holds the
        entry it just read) and so are answers for galleries whose
        epoch moved — a replica of a pre-invalidation answer must never
        land after the invalidation.
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
        epoch = self._gallery_epochs.get(label, 0)
        entry = [
            list(key),
            {
                k: v
                for k, v in payload.items()
                if k not in ("cached", "degraded", "shard", "trace")
            },
        ]
        task = asyncio.get_running_loop().create_task(
            self._send_replica(targets, label, epoch, entry)
        )
        self._replica_tasks.add(task)
        task.add_done_callback(self._replica_tasks.discard)

    async def _send_replica(
        self,
        targets: List[_Shard],
        label: str,
        epoch: int,
        entry: List[object],
    ) -> None:
        for shard in targets:
            if self._gallery_epochs.get(label, 0) != epoch:
                return  # invalidated since the solve: drop the replica
            try:
                await (await self._client(shard)).cache_import([entry])
                self._metric_replications.inc()
            except (ServiceConnectionError, ConnectionError):
                self._mark_down(shard)
            except ServiceError:
                pass  # the target refused the import; not a death

    async def _forward_place(
        self, payload: Dict[str, object]
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
        trace_id = resolve_trace_id(payload)
        label = query.gallery.label()

        async def attempt(shard: _Shard, attempts: int) -> Dict[str, object]:
            with self.tracer.span(
                "router.forward_place",
                trace_id=trace_id,
                shard=shard.name,
                gallery=label,
                attempt=attempts,
            ):
                client = await self._client(shard)
                return await client.place(
                    gallery={
                        "kind": query.gallery.kind,
                        "seed": query.gallery.seed,
                        "applications": query.gallery.application_count,
                    },
                    strategy=query.strategy,
                    model=query.model,
                    objective=query.objective,
                    seed=query.seed,
                    slack=query.slack,
                    targets=query.targets,
                    mappings=list(query.mappings),
                    weights=(
                        list(query.weights)
                        if query.weights is not None
                        else None
                    ),
                    priority_levels=(
                        list(query.priority_levels)
                        if query.priority_levels is not None
                        else None
                    ),
                    method=query.method.value,
                    trace=trace_id,
                )

        shard, result = await self._failover(label, attempt)
        shard.forwarded += 1
        self._metric_forwarded.inc()
        result["shard"] = shard.name
        return result

    async def _broadcast_invalidate(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        spec = parse_gallery(payload.get("gallery"))
        label = spec.label()
        gallery = {
            "kind": spec.kind,
            "seed": spec.seed,
            "applications": spec.application_count,
        }
        # The epoch bump is the fence: a down shard keeps its stale
        # cache, but its ack now lags, so it cannot rejoin the ring
        # until the invalidation is replayed to it.
        epoch = self._gallery_epochs.get(label, 0) + 1
        self._gallery_epochs[label] = epoch
        self._gallery_recipes[label] = gallery
        self._invalidating.add(label)
        results: Dict[str, object] = {}
        try:
            for shard in list(self._shards.values()):
                if not shard.healthy:
                    results[shard.name] = {
                        "skipped": "shard down",
                        "queued": True,
                    }
                    continue
                try:
                    results[shard.name] = await (
                        await self._client(shard)
                    ).invalidate(gallery)
                    shard.acked[label] = epoch
                except (ServiceConnectionError, ConnectionError) as error:
                    self._mark_down(shard)
                    results[shard.name] = {
                        "skipped": str(error),
                        "queued": True,
                    }
        finally:
            self._invalidating.discard(label)
        return {"gallery": label, "epoch": epoch, "shards": results}

    async def _stats(self) -> Dict[str, object]:
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
        """Router-side counters (JSON-serializable, no shard calls)."""
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
            "batch_window": self.batch_window,
            "batches": int(self._metric_batches.value),
            "batched_queries": int(self._metric_batched_queries.value),
            "replication": self.replication,
            "replications": int(self._metric_replications.value),
            "joins": int(self._metric_joins.value),
            "leaves": int(self._metric_leaves.value),
            "handoff_entries": int(self._metric_handoff_entries.value),
            "invalidations_replayed": int(self._metric_replayed.value),
            "stale_risk": int(self._metric_stale_risk.value),
            "per_shard_forwarded": {
                shard.name: shard.forwarded
                for shard in self._shards.values()
            },
        }

    def render_metrics(self) -> str:
        """Prometheus exposition: router registry + process-global."""
        return render_merged(self.registry, get_registry())

    def metrics_snapshot(self) -> Dict[str, object]:
        return snapshot_merged(self.registry, get_registry())
