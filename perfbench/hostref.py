"""Host-speed reference: a fixed kernel timed between program operations.

The benchmark runs on small shared machines whose speed drifts by tens
of percent within seconds, and CPU time drifts with wall time, so
neither clock alone gives a steady number.  Every run therefore also
times a fixed, benchmark-owned kernel -- pure Python plus NumPy, the
same mix the program's hot paths run, or for the served workload a
loopback JSON round trip -- and scales its timings by how fast the host
ran that kernel at the time.

The kernels import nothing from ``repro`` and only run while no
program work is in flight (between operations, or between the phases of
the served workload), so the program's own background work can never
slow the reference down and hide a regression.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Callable, List, Optional

import numpy as np

#: Median time of :func:`reference_kernel` on the machine the benchmark
#: was defined on (2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4).  A
#: normalised timing reads "milliseconds at that host speed".
NOMINAL_REF_MS = 8.0

_ROWS = np.arange(1023 * 12, dtype=float).reshape(1023, 12)
_WEIGHTS = np.linspace(1.0, 2.0, 12)


def reference_kernel() -> float:
    """Deterministic work: a dict/float loop and small-array NumPy ops."""
    table = {}
    total = 0.0
    for i in range(4000):
        key = (i % 97, i % 89)
        value = table.get(key, 0.0) + i * 0.5
        table[key] = value
        total += value / (1.0 + (i & 7))
    rows = _ROWS
    for _ in range(30):
        scaled = (rows * _WEIGHTS + 0.5) / (rows.sum(axis=1, keepdims=True) + 1.0)
        total += float(scaled.max(axis=1).sum())
        rows = rows[:, ::-1].copy()
    small = np.arange(12.0)
    for i in range(300):
        total += float((small * 1.5 + i).max())
    return total


#: Loopback round trips per :func:`round_trip_kernel` call, and the
#: kernel's median time on the machine the benchmark was defined on.
ROUND_TRIPS = 100
NOMINAL_ROUND_TRIP_MS = 8.0
_PAYLOAD = (
    json.dumps(
        {
            "op": "estimate",
            "gallery": {"kind": "paper", "seed": 2007, "applications": 10},
            "use_case": list("ABCDEFG"),
            "periods": {name: 1234.5 for name in "ABCDEFG"},
        }
    ).encode()
    + b"\n"
)


def round_trip_kernel() -> int:
    """Deterministic loopback work: JSON lines echoed by an asyncio server.

    The served workload spends its time in the event loop, local
    sockets and JSON rather than in arithmetic, and on a shared host
    those slow down by a different factor than :func:`reference_kernel`
    does.  Runs on a private event loop, so it needs no running one.
    """
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(_round_trips())
    finally:
        loop.close()


async def _round_trips() -> int:
    finished = asyncio.get_running_loop().create_future()

    async def echo(reader, writer) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            writer.write(json.dumps(json.loads(line)).encode() + b"\n")
            await writer.drain()
        writer.close()
        finished.set_result(None)

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, port)
    total = 0
    for _ in range(ROUND_TRIPS):
        writer.write(_PAYLOAD)
        await writer.drain()
        total += len(await reader.readline())
    writer.close()
    await writer.wait_closed()
    await finished
    server.close()
    await server.wait_closed()
    return total


#: Back-to-back kernel runs per sample; a sample is their median.
BURST = 3


class HostRef:
    """Reference-kernel samples of one run, in time order.

    ``sample()`` is called between operations; each operation remembers
    the index of the last sample taken before it, and is normalised by
    the mean of that sample and the next one, so drift on the scale of
    an operation is divided out.  A sample is the median of :data:`BURST`
    back-to-back kernel runs: single runs jitter by tens of percent on
    a shared host, and a noisy factor would add noise instead of
    removing it.
    """

    def __init__(
        self,
        interval: float = 0.0,
        kernel: Callable[[], object] = reference_kernel,
        nominal_ms: float = NOMINAL_REF_MS,
    ) -> None:
        self.interval = interval
        self.kernel = kernel
        self.nominal_ms = nominal_ms
        self.samples_ms: List[float] = []
        self._last = -float("inf")

    def sample(self) -> int:
        """Take one sample; returns its index."""
        times = []
        for _ in range(BURST):
            started = time.perf_counter()
            self.kernel()
            times.append((time.perf_counter() - started) * 1e3)
        self.samples_ms.append(statistics.median(times))
        self._last = time.perf_counter()
        return len(self.samples_ms) - 1

    def maybe_sample(self) -> int:
        """Sample when ``interval`` seconds passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            return self.sample()
        return len(self.samples_ms) - 1

    def warm(self) -> None:
        """Untimed calls so the first real sample is not a cold one."""
        for _ in range(BURST):
            self.kernel()

    def scale_between(self, before: int, after: Optional[int] = None) -> float:
        """Factor turning a raw time into a normalised one.

        ``before`` and ``after`` are sample indices bracketing the
        timed work; the factor is ``nominal_ms`` over their mean.
        """
        after = before + 1 if after is None else after
        mean = (self.samples_ms[before] + self.samples_ms[after]) / 2.0
        return self.nominal_ms / mean

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)
