"""The JSON-lines endpoint both front ends share, tested on each.

The estimation server and the shard router serve the protocol through
one :class:`~repro.service.protocol.JsonLinesEndpoint`; every test here
runs once against a bare server and once against a router over one
shard, speaking raw bytes on the socket.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.protocol import MAX_MESSAGE_BYTES
from repro.service.router import ShardRouter
from repro.service.server import EstimationServer

#: The endpoint's stream read limit; one byte more is an over-long line.
READ_LIMIT = 2 * MAX_MESSAGE_BYTES


def serve_raw(kind, scenario):
    """Run ``scenario(front, reader, writer)`` on a raw connection to a
    fresh front end of ``kind``."""

    async def main():
        shard = EstimationServer()
        address = await shard.start()
        front = shard
        if kind == "router":
            front = ShardRouter([address], health_interval=0.0)
            address = await front.start()
        reader, writer = await asyncio.open_connection(*address)
        try:
            return await scenario(front, reader, writer)
        finally:
            writer.close()
            if front is not shard:
                await front.aclose()
            await shard.aclose()

    return asyncio.run(main())


async def send(writer, *lines):
    writer.write(b"".join(lines))
    await writer.drain()


async def receive(reader):
    return json.loads(await asyncio.wait_for(reader.readline(), timeout=5))


def request(**payload):
    return json.dumps(payload).encode() + b"\n"


@pytest.mark.parametrize("kind", ["server", "router"])
class TestEndpoint:
    def test_oversized_line_is_refused_then_the_connection_closes(self, kind):
        async def scenario(front, reader, writer):
            # Exactly one byte over the limit and no terminator: the
            # endpoint reads all of it, so closing sends no reset.
            await send(writer, b"x" * (READ_LIMIT + 1))
            refused = await receive(reader)
            rest = await asyncio.wait_for(reader.read(), timeout=5)
            return refused, rest

        refused, rest = serve_raw(kind, scenario)
        assert refused == {"id": None, "ok": False, "error": "message too long"}
        assert rest == b""

    def test_undecodable_line_is_answered_and_reading_goes_on(self, kind):
        async def scenario(front, reader, writer):
            await send(writer, b"not json at all\n", request(id=1, op="ping"))
            return await receive(reader), await receive(reader)

        garbled, pong = serve_raw(kind, scenario)
        assert garbled["id"] is None and garbled["ok"] is False
        assert "undecodable" in garbled["error"]
        assert pong["id"] == 1 and pong["result"]["pong"] is True

    def test_blank_lines_are_ignored(self, kind):
        async def scenario(front, reader, writer):
            await send(writer, b"\n   \n", request(id=2, op="ping"))
            return await receive(reader)

        assert serve_raw(kind, scenario)["id"] == 2

    def test_pipelined_requests_are_answered_by_id(self, kind):
        async def scenario(front, reader, writer):
            await send(
                writer,
                request(id=1, op="ping"),
                request(id="two", op="stats"),
                request(id=3, op="ping"),
            )
            return [await receive(reader) for _ in range(3)]

        responses = {answer["id"]: answer for answer in serve_raw(kind, scenario)}
        assert set(responses) == {1, "two", 3}
        assert responses[1]["result"]["pong"] is True
        assert responses["two"]["result"]["requests"] >= 1
        assert responses[3]["result"]["pong"] is True

    def test_shutdown_is_acknowledged_then_wait_shutdown_returns(self, kind):
        async def scenario(front, reader, writer):
            waiter = asyncio.ensure_future(front.wait_shutdown())
            await send(writer, request(id=5, op="shutdown"))
            acknowledged = await receive(reader)
            await asyncio.wait_for(waiter, timeout=5)
            return acknowledged

        acknowledged = serve_raw(kind, scenario)
        assert acknowledged == {"id": 5, "ok": True, "result": {"stopping": True}}

    @pytest.mark.parametrize("op", ["dance", "invalidate"])
    def test_unknown_op_lists_the_valid_ops(self, kind, op):
        async def scenario(front, reader, writer):
            await send(writer, request(id=4, op=op))
            return await receive(reader), list(front.operations)

        response, operations = serve_raw(kind, scenario)
        assert response["ok"] is False
        assert response["error"] == (
            f"unknown op {op!r} (expected one of {', '.join(operations)})"
        )
        assert "estimate" in operations and "shutdown" in operations
        assert ("join" in operations) == (kind == "router")
