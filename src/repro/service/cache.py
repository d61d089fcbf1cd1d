"""LRU result cache of the estimation server.

Keys follow the :class:`~repro.runtime.service.ResultStore` convention
— ``(gallery label, use-case label, waiting model, analysis method)`` —
so a cached service answer names exactly what a sweep-store line names.
A gallery key is a recipe, so an entry is a pure function of its key
and never goes stale; unlike the store this cache is bounded, and the
least recently used entries make room for new ones.

The cache is also the unit of fleet *mobility*: one gallery's entries
can be exported as ``(key, payload)`` pairs and imported into another
shard's cache — the router's live-resharding hand-off and cross-shard
replication both move warm answers this way (the ``cache_export`` /
``cache_import`` protocol ops).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ServiceError
from repro.telemetry import MetricsRegistry, get_registry

#: ``(gallery, use_case, model, method)`` — see ``ResultStore.key``.
CacheKey = Tuple[str, str, str, str]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    imports: int = 0


class ResultCache:
    """Bounded LRU map of query keys to response payloads.

    ``max_entries=0`` disables caching entirely (every lookup misses,
    nothing is stored) — the benchmark uses that to measure pure
    micro-batching throughput.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 0:
            raise ServiceError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, Dict[str, object]]" = (OrderedDict())
        registry = registry if registry is not None else get_registry()
        self._metric_hits = registry.counter(
            "repro_result_cache_hits_total",
            "Estimation queries answered from the service result cache",
        )
        self._metric_misses = registry.counter(
            "repro_result_cache_misses_total",
            "Estimation queries that missed the service result cache",
        )
        self._metric_evictions = registry.counter(
            "repro_result_cache_evictions_total",
            "Cached results dropped by the LRU bound",
        )
        self._metric_imports = registry.counter(
            "repro_result_cache_imports_total",
            "Cached results imported from another shard "
            "(resharding hand-off or replication)",
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Optional[Dict[str, object]]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._metric_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self._metric_hits.inc()
        return entry

    def put(self, key: CacheKey, value: Dict[str, object]) -> None:
        if self.max_entries == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._metric_evictions.inc()

    # -- fleet mobility -------------------------------------------------
    def gallery_labels(self) -> List[str]:
        """Every gallery with at least one cached answer (sorted)."""
        return sorted({key[0] for key in self._entries})

    def export_gallery(
        self, gallery_label: str, limit: Optional[int] = None
    ) -> List[Tuple[CacheKey, Dict[str, object]]]:
        """One gallery's entries as portable ``(key, payload)`` pairs.

        Most-recently-used entries first, so a bounded hand-off ships
        the answers most likely to be asked again.  Export does not
        touch LRU order — a resharding sweep must not look like a
        client storm to the eviction policy.
        """
        pairs = [
            (key, value)
            for key, value in reversed(self._entries.items())
            if key[0] == gallery_label
        ]
        return pairs if limit is None else pairs[:limit]

    def import_entries(
        self, entries: "Sequence[Tuple[CacheKey, Dict[str, object]]]"
    ) -> int:
        """Install exported entries (hand-off or replication target).

        Returns how many were stored; a disabled cache
        (``max_entries=0``) imports nothing and reports zero, so the
        caller can tell a hand-off landed on a cache-less shard.
        """
        stored = 0
        for key, payload in entries:
            if self.max_entries == 0:
                break
            self.put(tuple(key), dict(payload))
            stored += 1
        self.stats.imports += stored
        self._metric_imports.inc(stored)
        return stored

    def snapshot(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "galleries": self.gallery_labels(),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "imports": self.stats.imports,
        }
