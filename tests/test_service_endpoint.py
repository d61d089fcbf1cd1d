"""The JSON-lines endpoint both front ends share, tested on each.

The estimation server and the shard router serve the protocol through
one :class:`~repro.service.protocol.JsonLinesEndpoint`; every test here
runs once against a bare server and once against a router over one
shard, speaking raw bytes on the socket.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.runtime.service import GallerySpec
from repro.service.protocol import MAX_MESSAGE_BYTES
from repro.service.router import ShardRouter
from repro.service.server import EstimationServer
from repro.telemetry import Tracer

GALLERY = {"kind": "paper", "seed": 2007, "applications": 4}
NAMES = GallerySpec(kind="paper", seed=2007, application_count=4).application_names()

#: The endpoint's stream read limit; one byte more is an over-long line.
READ_LIMIT = 2 * MAX_MESSAGE_BYTES


def serve_raw(kind, scenario):
    """Run ``scenario(front, reader, writer)`` on a raw connection to a
    fresh front end of ``kind``."""

    async def main():
        shard = EstimationServer(tracer=Tracer(enabled=True))
        address = await shard.start()
        front = shard
        if kind == "router":
            front = ShardRouter(
                [address], health_interval=0.0, tracer=Tracer(enabled=True)
            )
            address = await front.start()
        # A small receive buffer, so a client that stops reading fills
        # the path back to the endpoint quickly.
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, address)
        reader, writer = await asyncio.open_connection(
            sock=sock, limit=2 * MAX_MESSAGE_BYTES
        )
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

    def test_a_request_split_byte_by_byte_is_framed_whole(self, kind):
        async def scenario(front, reader, writer):
            # The id holds two-byte UTF-8 characters, so some writes end
            # inside a character.
            line = json.dumps({"id": "päng-ü", "op": "ping"}, ensure_ascii=False)
            for byte in line.encode("utf-8") + b"\n":
                await send(writer, bytes([byte]))
                await asyncio.sleep(0.001)
            return await receive(reader)

        pong = serve_raw(kind, scenario)
        assert pong["id"] == "päng-ü" and pong["result"]["pong"] is True

    def test_waiting_requests_read_together_get_sibling_spans(self, kind):
        """Two estimates in one write both wait (a miss, a shard hop):
        each request span is a root carrying its own trace id, and
        nothing nests under the other."""

        async def scenario(front, reader, writer):
            await send(
                writer,
                *[
                    request(
                        id=index,
                        op="estimate",
                        gallery=GALLERY,
                        use_case=[NAMES[index]],
                        trace=f"t{index}",
                    )
                    for index in range(2)
                ],
            )
            answers = [await receive(reader) for _ in range(2)]
            return answers, front.tracer.spans(), front._request_span

        answers, spans, request_span = serve_raw(kind, scenario)
        assert {a["id"]: a["result"]["trace"] for a in answers} == {0: "t0", 1: "t1"}
        requests = [span for span in spans if span.name == request_span]
        assert sorted(span.trace_id for span in requests) == ["t0", "t1"]
        assert all(span.parent_id is None for span in requests)
        request_ids = {span.span_id for span in requests}
        for span in spans:
            if span.parent_id in request_ids:
                parent = next(r for r in requests if r.span_id == span.parent_id)
                assert span.trace_id == parent.trace_id

    def test_a_client_that_stops_reading_pauses_reading(self, kind):
        async def scenario(front, reader, writer):
            (connection,) = front._connections
            sent = 0
            while connection._reader.is_reading():
                assert sent < 2000, "reading never paused"
                await send(
                    writer, *[request(id=sent + i, op="metrics") for i in range(20)]
                )
                sent += 20
                await asyncio.sleep(0.01)
            paused_at = sent
            for _ in range(sent):
                await receive(reader)
            for _ in range(100):
                if connection._reader.is_reading():
                    break
                await asyncio.sleep(0.01)
            resumed = connection._reader.is_reading()
            await send(writer, request(id="after", op="ping"))
            return paused_at, resumed, await receive(reader)

        paused_at, resumed, pong = serve_raw(kind, scenario)
        assert paused_at > 0
        assert resumed
        assert pong["id"] == "after"

    def test_shutdown_answers_requests_in_flight_then_closes(self, kind):
        async def scenario(front, reader, writer):
            await send(
                writer,
                request(id=1, op="estimate", gallery=GALLERY, use_case=list(NAMES)),
                request(id=2, op="shutdown"),
                request(id=3, op="ping"),  # read after shutdown: ignored
            )
            answers = [await receive(reader) for _ in range(2)]
            rest = await asyncio.wait_for(reader.read(), timeout=5)
            return answers, rest

        answers, rest = serve_raw(kind, scenario)
        by_id = {answer["id"]: answer for answer in answers}
        assert by_id[2]["result"] == {"stopping": True}
        assert set(by_id[1]["result"]["periods"]) == set(NAMES)
        assert rest == b""
