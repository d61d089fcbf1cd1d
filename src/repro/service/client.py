"""Client library of the estimation service.

:class:`ServiceClient` wraps one connection's request/response cycle:
each call sends one JSON line, awaits the matching response (ids are
checked) and either returns the ``result`` payload or raises
:class:`~repro.exceptions.ServiceError` with the server's message.
Micro-batching needs *concurrent* questions, which one strictly
sequential client cannot produce — open several clients (see
:mod:`repro.experiments.service_load`) or interleave calls from
multiple coroutines via :meth:`estimate`, which is safe to invoke
concurrently from one client: requests are pipelined on the socket and
responses are matched back by id.

The convenience :func:`estimate_once` does connect / ask / close in one
call for scripts and tests.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import ServiceConnectionError, ServiceError
from repro.service.protocol import (
    decode_message,
    encode_message,
    raise_for_response,
)


class ServiceClient:
    """One connection to an :class:`~repro.service.server
    .EstimationServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()
        self._responses: Dict[int, Dict[str, object]] = {}

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        # Match the server's read limit: responses are bounded by the
        # protocol's MAX_MESSAGE_BYTES (1 MiB), well above asyncio's
        # default 64 KiB readline limit.
        reader, writer = await asyncio.open_connection(
            host, port, limit=2 * 1024 * 1024
        )
        return cls(reader, writer)

    async def aclose(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    async def _call(self, payload: Dict[str, object]) -> Dict[str, object]:
        request_id = next(self._ids)
        payload = dict(payload, id=request_id)
        try:
            self._writer.write(encode_message(payload))
            await self._writer.drain()
        except (ConnectionError, BrokenPipeError) as error:
            raise ServiceConnectionError(
                f"connection lost while sending a request: {error}"
            ) from None
        # One coroutine at a time reads the socket and files responses
        # by id; everyone else waits for theirs to be filed.  This lets
        # several coroutines share one client (pipelined requests)
        # without a background reader task.
        while request_id not in self._responses:
            async with self._lock:
                if request_id in self._responses:
                    break
                try:
                    line = await self._reader.readline()
                except (ConnectionError, BrokenPipeError) as error:
                    raise ServiceConnectionError(
                        f"connection lost while awaiting a response: {error}"
                    ) from None
                if not line:
                    raise ServiceConnectionError(
                        "connection closed before a response arrived"
                    )
                response = decode_message(line)
                answered = response.get("id")
                if not isinstance(answered, int):
                    raise ServiceError(f"response with unexpected id {answered!r}")
                self._responses[answered] = response
        return raise_for_response(self._responses.pop(request_id))

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
