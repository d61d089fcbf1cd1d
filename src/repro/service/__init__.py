"""Estimation-as-a-service: the async micro-batching serving layer.

Public surface:

* :class:`~repro.service.server.EstimationServer` — the long-lived
  asyncio server (TCP or stdio, JSON-lines protocol) that coalesces
  concurrent client queries into cross-request micro-batches on warm
  engine pools;
* :class:`~repro.service.client.ServiceClient` /
  :func:`~repro.service.client.estimate_once` — the client library;
* :class:`~repro.service.pool.EnginePool` and
  :class:`~repro.service.cache.ResultCache` — the warm-state and
  memoization building blocks, reusable outside the server;
* :class:`~repro.service.workers.SolverPool` — the multiprocess
  solver pool a server runs with ``solver_workers > 0``;
* :class:`~repro.service.router.ShardRouter` and
  :class:`~repro.service.hashring.HashRing` — the fleet front-end
  that consistent-hashes galleries over N server shards;
* the :mod:`~repro.service.protocol` message helpers.
"""

import importlib

# Public name -> defining submodule.  Names resolve on first access
# (PEP 562), so importing one submodule (``workers``, ``pool``, ...)
# does not load the server, router and client stacks with it.
_EXPORTS = {
    "CacheKey": "cache",
    "ResultCache": "cache",
    "ServiceClient": "client",
    "estimate_once": "client",
    "HashRing": "hashring",
    "stable_hash": "hashring",
    "EnginePool": "pool",
    "PROTOCOL_VERSION": "protocol",
    "Query": "protocol",
    "decode_message": "protocol",
    "encode_message": "protocol",
    "parse_estimate": "protocol",
    "parse_estimate_batch": "protocol",
    "parse_gallery": "protocol",
    "ShardRouter": "router",
    "parse_shard_address": "router",
    "DEFAULT_DEGRADED_MODEL": "server",
    "EstimationServer": "server",
    "ServerStats": "server",
    "SolverPool": "workers",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CacheKey",
    "DEFAULT_DEGRADED_MODEL",
    "EnginePool",
    "EstimationServer",
    "HashRing",
    "PROTOCOL_VERSION",
    "Query",
    "ResultCache",
    "ServerStats",
    "ServiceClient",
    "ShardRouter",
    "SolverPool",
    "decode_message",
    "encode_message",
    "estimate_once",
    "parse_estimate",
    "parse_estimate_batch",
    "parse_gallery",
    "parse_shard_address",
    "stable_hash",
]
