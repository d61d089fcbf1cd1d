"""Consistent hashing for gallery-affinity placement.

Both fleet layers place work by gallery: the in-server solver pool
pins a gallery's warm engines to one worker process, and the shard
router pins a gallery's queries (and therefore its result cache and
engine pool) to one :class:`~repro.service.server.EstimationServer`
shard.  Plain ``hash(key) % n`` placement would reshuffle *every*
gallery whenever ``n`` changes — a dead shard would go cold on the
whole fleet at once.  :class:`HashRing` is the classic fix: each node
owns ``replicas`` pseudo-random points on a ring, a key maps to the
first node point at or after its own ring position, and removing a
node only remaps the keys that node owned.

Hashes come from :func:`hashlib.md5` (stable across processes and
Python versions — ``hash()`` is salted per process, which would break
the router/worker agreement this module exists to provide).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence

from repro.exceptions import ServiceError

#: Ring points per node.  Enough that a handful of nodes split keys
#: close to evenly; small enough that ring construction stays trivial.
DEFAULT_REPLICAS = 64


def stable_hash(value: str) -> int:
    """A process-independent 64-bit hash of ``value``."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over opaque node names.

    Nodes can be added and removed at any time (the router does both as
    shards die and resurrect); lookups on an empty ring fail loudly —
    the caller decides what "no nodes" means for its protocol.
    """

    def __init__(
        self,
        nodes: Sequence[str] = (),
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}
        self._nodes: Dict[str, List[int]] = {}
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> List[str]:
        """Live node names, in insertion order."""
        return list(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ServiceError(f"node {node!r} is already on the ring")
        points = []
        for replica in range(self.replicas):
            point = stable_hash(f"{node}#{replica}")
            # Collisions across nodes are astronomically unlikely but
            # would silently misroute; skip the colliding replica so
            # ownership stays unambiguous.
            if point in self._owners:
                continue
            self._owners[point] = node
            bisect.insort(self._points, point)
            points.append(point)
        self._nodes[node] = points

    def remove(self, node: str) -> None:
        points = self._nodes.pop(node, None)
        if points is None:
            raise ServiceError(f"node {node!r} is not on the ring")
        for point in points:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def with_node(self, node: str) -> "HashRing":
        """A *preview* ring: this ring's nodes plus ``node``.

        The join protocol plans its hand-off against the preview —
        the keys the joiner will own are exactly those whose
        ``node_for`` answer changes between ``self`` and the preview —
        without mutating the live ring the router is still serving
        lookups from.
        """
        preview = HashRing(replicas=self.replicas)
        for existing in self._nodes:
            preview.add(existing)
        preview.add(node)
        return preview

    def node_for(self, key: str) -> str:
        """The node owning ``key`` — stable until that node leaves."""
        if not self._points:
            raise ServiceError("hash ring has no nodes")
        position = stable_hash(key)
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def nodes_for(self, key: str) -> List[str]:
        """Every live node, ordered by preference for ``key``.

        The first entry is :meth:`node_for`; the rest follow the ring —
        the retry order a failed-over key walks, and the spill order a
        split batch fans out across.
        """
        if not self._points:
            raise ServiceError("hash ring has no nodes")
        points = self._points
        count = len(points)
        start = bisect.bisect_right(points, stable_hash(key))
        ordered: List[str] = []
        live = len(self._nodes)
        # The walk stops once every live node is listed; the bound only
        # matters for a node whose every point collided away.
        for index in range(start, start + count):
            node = self._owners[points[index % count]]
            if node not in ordered:
                ordered.append(node)
                if len(ordered) == live:
                    break
        return ordered
