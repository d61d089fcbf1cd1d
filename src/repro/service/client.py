"""Client library of the estimation service.

:class:`ServiceClient` is one connection, an :class:`asyncio.Protocol`:
each call sends one JSON line and awaits the future its response is
filed into by id, then returns the ``result`` payload or raises
:class:`~repro.exceptions.ServiceError` with the server's message.
Micro-batching needs *concurrent* questions, which one strictly
sequential client cannot produce — open several clients (see
:mod:`repro.experiments.service_load`) or interleave calls from
multiple coroutines on one client: requests pipeline on the socket and
answers may come in any order.  A lost connection fails every pending
call with :class:`~repro.exceptions.ServiceConnectionError`.

The convenience :func:`estimate_once` does connect / ask / close in one
call for scripts and tests.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import ServiceConnectionError, ServiceError
from repro.service.protocol import (
    LineProtocol,
    decode_message,
    encode_message,
    raise_for_response,
)


class ServiceClient(LineProtocol):
    """One connection to an :class:`~repro.service.server
    .EstimationServer` (or a :class:`~repro.service.router.ShardRouter`)."""

    def __init__(self) -> None:
        super().__init__()
        self._transport: Optional[asyncio.Transport] = None
        self._ids = itertools.count(1)
        self._waiting: Dict[int, "asyncio.Future[Dict[str, object]]"] = {}
        self._writable: Optional["asyncio.Future[None]"] = None
        self._closed = asyncio.get_running_loop().create_future()

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        loop = asyncio.get_running_loop()
        return (await loop.create_connection(cls, host, port))[1]

    async def aclose(self) -> None:
        self._transport.close()  # type: ignore[union-attr]
        await self._closed

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        reason = f"connection lost while awaiting a response: {exc}"
        if exc is None:
            reason = "connection closed before a response arrived"
        self._fail(ServiceConnectionError(reason))
        self.resume_writing()
        self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if writable is not None:
            writable.set_result(None)

    def line_received(self, line: bytearray) -> None:
        try:
            response = decode_message(line)
            answered = response.get("id")
            if not isinstance(answered, int):
                raise ServiceError(f"response with unexpected id {answered!r}")
        except ServiceError as error:
            return self._fail(error)
        future = self._waiting.pop(answered, None)
        if future is not None and not future.done():
            future.set_result(response)

    def line_overrun(self) -> None:
        self._fail(ServiceError("response line too long"))

    def _fail(self, error: ServiceError) -> None:
        """Fail every pending call and drop the connection: after a lost
        transport or a garbled response no later line can be trusted to
        answer the id it names."""
        if not self._stopped:
            self._stopped = True
            self._transport.close()  # type: ignore[union-attr]
        waiting, self._waiting = self._waiting, {}
        for future in waiting.values():
            if not future.done():
                future.set_exception(error)

    async def _call(self, payload: Dict[str, object]) -> Dict[str, object]:
        if self._stopped:
            raise ServiceConnectionError("connection closed before a response arrived")
        request_id = next(self._ids)
        data = encode_message(dict(payload, id=request_id))
        future = self._waiting[request_id] = asyncio.get_running_loop().create_future()
        self._transport.write(data)  # type: ignore[union-attr]
        try:
            if self._writable is not None:
                await self._writable
            response = await future
        finally:
            self._waiting.pop(request_id, None)
        return raise_for_response(response)

    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, object]:
        return await self._call({"op": "ping"})

    async def estimate(
        self,
        use_case: Sequence[str],
        gallery: Optional[Dict[str, object]] = None,
        model: str = "second_order",
        method: str = "mcr",
        trace: Optional[str] = None,
    ) -> Dict[str, object]:
        """Ask for one use-case's periods; returns the result payload
        (periods, isolation, cached/degraded markers, batch size).

        ``trace`` is an optional opaque id the server stamps on every
        span this request produces and echoes back in the result, so
        pipelined callers can correlate answers with server timelines.
        """
        payload: Dict[str, object] = {
            "op": "estimate",
            "gallery": dict(gallery) if gallery else {},
            "use_case": list(use_case),
            "model": model,
            "method": method,
        }
        if trace is not None:
            payload["trace"] = trace
        return await self._call(payload)

    async def place(
        self,
        gallery: Optional[Dict[str, object]] = None,
        strategy: str = "greedy",
        model: str = "wrr",
        objective: str = "total_period",
        seed: int = 0,
        slack: float = 2.5,
        targets: Optional[Dict[str, float]] = None,
        mappings: Optional[Sequence[str]] = None,
        weights: Optional[Sequence[int]] = (1, 2),
        priority_levels: Optional[Sequence[float]] = None,
        method: str = "mcr",
        trace: Optional[str] = None,
    ) -> Dict[str, object]:
        """Ask for the best feasible placement of a named gallery.

        The result payload carries the full ``placement`` (a
        :class:`~repro.search.result.PlacementResult` as JSON) — the
        search is seeded and deterministic, so the placement is
        byte-identical to an in-process :func:`repro.search.place`
        call with the same parameters.
        """
        payload: Dict[str, object] = {
            "op": "place",
            "gallery": dict(gallery) if gallery else {},
            "strategy": strategy,
            "model": model,
            "objective": objective,
            "seed": seed,
            "slack": slack,
            "method": method,
        }
        if targets is not None:
            payload["targets"] = dict(targets)
        if mappings is not None:
            payload["mappings"] = list(mappings)
        payload["weights"] = (
            list(weights) if weights is not None else None
        )
        if priority_levels is not None:
            payload["priority_levels"] = list(priority_levels)
        if trace is not None:
            payload["trace"] = trace
        return await self._call(payload)

    async def estimate_batch(
        self,
        use_cases: Sequence[Sequence[str]],
        gallery: Optional[Dict[str, object]] = None,
        model: str = "second_order",
        method: str = "mcr",
        trace: Optional[str] = None,
    ) -> Dict[str, object]:
        """Ask one gallery several use-case questions in one framed
        message; the result's ``results`` list answers them in order
        (failed members carry ``{"error": ...}`` in their slot).

        This is the shard hop of the router's micro-batcher — one
        message per batch instead of one per question.
        """
        payload: Dict[str, object] = {
            "op": "estimate_batch",
            "gallery": dict(gallery) if gallery else {},
            "use_cases": [list(use_case) for use_case in use_cases],
            "model": model,
            "method": method,
        }
        if trace is not None:
            payload["trace"] = trace
        return await self._call(payload)

    async def cache_export(
        self,
        galleries: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, object]:
        """The server's portable cached answers: every cached gallery
        label plus ``entries`` for the requested galleries (``None``
        exports everything, ``limit`` bounds entries per gallery)."""
        payload: Dict[str, object] = {"op": "cache_export"}
        if galleries is not None:
            payload["galleries"] = list(galleries)
        if limit is not None:
            payload["limit"] = limit
        return await self._call(payload)

    async def cache_import(
        self, entries: Sequence[object]
    ) -> Dict[str, object]:
        """Install exported ``[key, payload]`` entries into the
        server's result cache (hand-off / replication target side)."""
        return await self._call(
            {"op": "cache_import", "entries": list(entries)}
        )

    async def join(self, shard: str) -> Dict[str, object]:
        """Router admin: add a shard (``host:port``) to the live ring,
        warmed by a hand-off of the key space it now owns."""
        return await self._call({"op": "join", "shard": shard})

    async def leave(self, shard: str) -> Dict[str, object]:
        """Router admin: gracefully retire a shard — its cached
        answers hand off to the survivors before it leaves the ring."""
        return await self._call({"op": "leave", "shard": shard})

    async def stats(self) -> Dict[str, object]:
        return await self._call({"op": "stats"})

    async def metrics(self) -> Dict[str, object]:
        """The server's merged metrics: Prometheus ``exposition`` text
        plus the JSON ``snapshot``."""
        return await self._call({"op": "metrics"})

    async def shutdown(self) -> Dict[str, object]:
        return await self._call({"op": "shutdown"})


async def estimate_once(
    address: Tuple[str, int],
    use_case: Sequence[str],
    gallery: Optional[Dict[str, object]] = None,
    model: str = "second_order",
    method: str = "mcr",
) -> Dict[str, object]:
    """Connect, ask one question, close — the scripting path."""
    client = await ServiceClient.connect(address[0], address[1])
    try:
        return await client.estimate(
            use_case, gallery=gallery, model=model, method=method
        )
    finally:
        await client.aclose()
