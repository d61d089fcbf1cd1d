"""Wire protocol of the estimation service: JSON objects, one per line.

The service speaks newline-delimited JSON over any byte stream — a TCP
connection or a stdin/stdout pipe — so clients need nothing beyond a
socket and ``json``.  Every request carries an ``op`` and an ``id`` the
response echoes back; the estimate payload names a reproducible gallery
(the :class:`~repro.runtime.service.GallerySpec` recipe, exactly like
the sweep service's result store), a use-case, a waiting model and an
analysis method, so a query is a *value* — cacheable, batchable and
deduplicatable across clients.

Requests::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "estimate", "gallery": {"kind": "paper", "seed":
     2007, "applications": 8}, "use_case": ["A0", "A3"],
     "model": "second_order", "method": "mcr"}
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "shutdown"}
    {"id": 5, "op": "metrics"}
    {"id": 6, "op": "place", "gallery": {...}, "strategy": "greedy",
     "model": "wrr", "objective": "total_period", "seed": 0,
     "slack": 4.5}
    {"id": 7, "op": "estimate_batch", "gallery": {...},
     "use_cases": [["A0"], ["A0", "A3"]], "model": "second_order",
     "method": "mcr"}
    {"id": 8, "op": "cache_export", "galleries": ["paper:2007:8"],
     "limit": 256}
    {"id": 9, "op": "cache_import", "entries": [[[...key...],
     {...payload...}], ...]}

``estimate_batch`` asks one gallery several use-case questions in a
single framed message — the router forwards every estimate as one of
these per shard hop, coalescing same-gallery queries from many client
connections into it.  ``cache_export``/``cache_import`` move warm cached answers
between shards: the resharding hand-off that warms a joining shard and
the ring-neighbour replication that survives a shard death both ride
on them.  The router additionally understands ``join``/``leave`` admin
verbs (``{"op": "join", "shard": "host:port"}``) for live resharding.

Requests may carry an optional ``trace`` field (an opaque string or
integer): the server stamps it on every span the request produces and
echoes it inside the result payload, so a pipelined client can correlate
its questions with the server-side timeline.

Responses::

    {"id": 2, "ok": true, "result": {"periods": {...}, ...}}
    {"id": 2, "ok": false, "error": "..."}

:class:`JsonLinesEndpoint` is the one front end speaking this protocol
for both the server and the router: listener, per-connection read loop
and op dispatch.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.registry import validate_model_spec
from repro.exceptions import ServiceError
from repro.experiments.setup import DEFAULT_SEED
from repro.platform.usecase import UseCase
from repro.runtime.service import GallerySpec, ResultStore
from repro.sdf.analysis import AnalysisMethod
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    get_registry,
    render_merged,
    snapshot_merged,
)

#: Protocol revision, reported by ``ping`` and ``stats``.
#: 2: ``estimate_batch``, ``cache_export``/``cache_import`` and the
#: router's ``join``/``leave`` elasticity verbs.
PROTOCOL_VERSION = 2

#: Upper bound on one encoded message; a malformed client that streams
#: an unterminated line must not grow the server's buffer unboundedly.
MAX_MESSAGE_BYTES = 1 << 20

#: Upper bound on use-cases one ``estimate_batch`` message may carry —
#: a framed batch must stay well inside ``MAX_MESSAGE_BYTES``.
MAX_BATCH_USE_CASES = 1024

#: Bound on the optional request-scoped ``trace`` id; it travels through
#: span records and exporter output, so a hostile client must not be able
#: to inflate them arbitrarily.
MAX_TRACE_ID_LENGTH = 128

#: The per-question error a draining server answers while it closes.
#: It says nothing about the question, so a router treats it like a
#: dead transport and asks the next shard instead of passing it on.
SHUTTING_DOWN = "server is shutting down"


def encode_message(payload: Dict[str, object]) -> bytes:
    """One protocol message: compact JSON plus the line terminator."""
    line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_MESSAGE_BYTES:
        raise ServiceError(
            f"message of {len(data)} bytes exceeds the protocol bound "
            f"of {MAX_MESSAGE_BYTES}"
        )
    return data


def decode_message(line: bytes) -> Dict[str, object]:
    """Parse one received line into a payload dict (loud on garbage)."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise ServiceError(
            f"message of {len(line)} bytes exceeds the protocol bound "
            f"of {MAX_MESSAGE_BYTES}"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"undecodable message: {error}") from None
    if not isinstance(payload, dict):
        raise ServiceError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def parse_gallery(data: object) -> GallerySpec:
    """Build the gallery recipe named by an ``estimate``/``place``
    payload.  ``applications`` mirrors the CLI's ``--suite N``;
    ``application_count`` is accepted as the dataclass-field spelling."""
    if not isinstance(data, dict):
        raise ServiceError(
            "estimate needs a 'gallery' object, e.g. "
            '{"kind": "paper", "seed": 2007, "applications": 8}'
        )
    known = {"kind", "seed", "applications", "application_count"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ServiceError(f"unknown gallery fields: {unknown!r}")
    count = data.get("applications", data.get("application_count", 8))
    try:
        return GallerySpec(
            kind=str(data.get("kind", "paper")),
            seed=int(data.get("seed", DEFAULT_SEED)),
            application_count=int(count),
        )
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad gallery recipe: {error}") from None


def wire_gallery(spec: GallerySpec) -> Dict[str, object]:
    """The ``gallery`` payload naming ``spec`` — the inverse of
    :func:`parse_gallery`."""
    return {
        "kind": spec.kind,
        "seed": spec.seed,
        "applications": spec.application_count,
    }


@dataclass(frozen=True)
class Query:
    """One estimation question, normalized for batching and caching."""

    gallery: GallerySpec
    use_case: UseCase
    model: str
    method: AnalysisMethod

    @property
    def key(self) -> Tuple[str, str, str, str]:
        """Cache key — the :class:`~repro.runtime.service.ResultStore`
        convention, so service cache entries and sweep store lines name
        results identically."""
        return ResultStore.key(self.gallery, self.use_case, self.model, self.method)

    @property
    def group(self) -> Tuple[str, str, str]:
        """Micro-batch group: queries sharing gallery, model and method
        are answered by one :meth:`estimate_many` call."""
        return (self.gallery.label(), self.model, self.method.value)

    def degraded(self, model: str) -> "Query":
        """The same question under a cheaper waiting model (shedding)."""
        return Query(
            gallery=self.gallery,
            use_case=self.use_case,
            model=model,
            method=self.method,
        )


def unique_queries(
    members: Sequence[object],
) -> Tuple[Dict[Tuple[str, str, str, str], Query], Tuple[str, ...]]:
    """Deduplicate one batch group's members by query key and collect
    their distinct trace ids, both in arrival order.

    ``members`` carry ``query`` and ``trace_id`` attributes (the
    server's and the router's queued entries): N clients asking the
    same question inside one batch cost one estimate.
    """
    unique: Dict[Tuple[str, str, str, str], Query] = {}
    for member in members:
        unique.setdefault(member.query.key, member.query)  # type: ignore[attr-defined]
    trace_ids = tuple(
        dict.fromkeys(
            member.trace_id  # type: ignore[attr-defined]
            for member in members
            if member.trace_id is not None  # type: ignore[attr-defined]
        )
    )
    return unique, trace_ids


def _parse_use_case(raw_use_case: object, gallery: GallerySpec) -> UseCase:
    """One validated use-case of ``gallery`` (shared by both estimate
    spellings, so single and batched queries reject identically)."""
    if not isinstance(raw_use_case, (list, tuple)) or not raw_use_case:
        raise ServiceError(
            "estimate needs a non-empty 'use_case' list of "
            "application names"
        )
    names = tuple(str(name) for name in raw_use_case)
    known = set(gallery.application_names())
    unknown = sorted(set(names) - known)
    if unknown:
        raise ServiceError(
            f"use-case references applications {unknown!r} outside "
            f"gallery {gallery.label()!r}"
        )
    try:
        return UseCase(names)
    except Exception as error:
        raise ServiceError(f"bad use-case: {error}") from None


def _parse_model_and_method(
    payload: Dict[str, object], gallery: GallerySpec
) -> Tuple[str, AnalysisMethod]:
    model = str(payload.get("model", "second_order"))
    try:
        # One registry round-trip covers unknown names (the error
        # lists the registered catalogue), bad arguments ('order:x',
        # 'wrr:A=0') and per-app parameters naming apps outside the
        # gallery ('wrr:Z=2') — rejected at the protocol edge rather
        # than inside the solver worker.
        validate_model_spec(model, gallery.application_names())
    except Exception as error:
        raise ServiceError(f"bad waiting model: {error}") from None
    method_value = str(payload.get("method", "mcr"))
    try:
        method = AnalysisMethod(method_value)
    except ValueError:
        choices = ", ".join(m.value for m in AnalysisMethod)
        raise ServiceError(
            f"unknown analysis method {method_value!r} "
            f"(choose from {choices})"
        ) from None
    return model, method


def parse_estimate(payload: Dict[str, object]) -> Query:
    """Validate an ``estimate`` payload into a :class:`Query`."""
    gallery = parse_gallery(payload.get("gallery"))
    use_case = _parse_use_case(payload.get("use_case"), gallery)
    model, method = _parse_model_and_method(payload, gallery)
    return Query(gallery=gallery, use_case=use_case, model=model, method=method)


def parse_estimate_batch(payload: Dict[str, object]) -> List[Query]:
    """Validate an ``estimate_batch`` payload into its queries.

    One gallery, model and method; several use-cases, answered in
    request order.  This is the router micro-batcher's framing: many
    client questions, one message per shard hop.
    """
    gallery = parse_gallery(payload.get("gallery"))
    raw_use_cases = payload.get("use_cases")
    if not isinstance(raw_use_cases, (list, tuple)) or not raw_use_cases:
        raise ServiceError(
            "estimate_batch needs a non-empty 'use_cases' list of "
            "use-case lists"
        )
    if len(raw_use_cases) > MAX_BATCH_USE_CASES:
        raise ServiceError(
            f"estimate_batch carries {len(raw_use_cases)} use-cases, "
            f"more than the protocol bound of {MAX_BATCH_USE_CASES}"
        )
    model, method = _parse_model_and_method(payload, gallery)
    return [
        Query(
            gallery=gallery,
            use_case=_parse_use_case(raw, gallery),
            model=model,
            method=method,
        )
        for raw in raw_use_cases
    ]


def parse_cache_entries(
    payload: Dict[str, object],
) -> List[Tuple[Tuple[str, str, str, str], Dict[str, object]]]:
    """Validate a ``cache_import`` payload's ``entries`` list.

    Each entry is ``[key, payload]`` with a 4-element string key (the
    :class:`~repro.runtime.service.ResultStore` convention) and a JSON
    object payload — exactly what ``cache_export`` emits.
    """
    raw_entries = payload.get("entries")
    if not isinstance(raw_entries, (list, tuple)):
        raise ServiceError(
            "cache_import needs an 'entries' list of [key, payload] "
            "pairs"
        )
    entries: List[Tuple[Tuple[str, str, str, str], Dict[str, object]]] = []
    for raw in raw_entries:
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 2
            or not isinstance(raw[0], (list, tuple))
            or len(raw[0]) != 4
            or not isinstance(raw[1], dict)
        ):
            raise ServiceError(
                "cache entry must be [key, payload] with a 4-element "
                "key and an object payload"
            )
        key = tuple(str(part) for part in raw[0])
        entries.append((key, dict(raw[1])))  # type: ignore[arg-type]
    return entries


def parse_cache_export(payload: Dict[str, object]) -> Tuple[
    Optional[List[str]], Optional[int]
]:
    """Validate a ``cache_export`` payload: which galleries (``None``
    means every cached gallery) and the per-gallery entry ``limit``."""
    raw_galleries = payload.get("galleries")
    galleries: Optional[List[str]] = None
    if raw_galleries is not None:
        if not isinstance(raw_galleries, (list, tuple)):
            raise ServiceError(
                "cache_export 'galleries' must be a list of gallery "
                "labels or null"
            )
        galleries = [str(label) for label in raw_galleries]
    raw_limit = payload.get("limit")
    limit: Optional[int] = None
    if raw_limit is not None:
        try:
            limit = int(raw_limit)  # type: ignore[arg-type]
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad cache_export limit: {error}") from None
        if limit < 0:
            raise ServiceError(f"limit must be >= 0, got {limit}")
    return galleries, limit


@dataclass(frozen=True)
class PlaceQuery:
    """One placement question, normalized at the protocol edge.

    The search itself is deterministic (seeded strategies, no
    wall-clock in the result), so a ``place`` request is idempotent:
    the router may retry it on any shard and a client may compare the
    returned ``PlacementResult`` JSON byte-for-byte with a local run.
    """

    gallery: GallerySpec
    strategy: str
    model: str
    objective: str
    seed: int
    slack: float
    targets: Optional[Dict[str, float]]
    mappings: Tuple[str, ...]
    weights: Optional[Tuple[int, ...]]
    priority_levels: Optional[Tuple[float, ...]]
    method: AnalysisMethod

    @property
    def group(self) -> Tuple[str, str, str]:
        """Shard-affinity key — same convention as estimate queries, so
        a gallery's placements land on the shard holding its warm
        engines."""
        return (self.gallery.label(), self.model, self.method.value)


def parse_place(payload: Dict[str, object]) -> PlaceQuery:
    """Validate a ``place`` payload into a :class:`PlaceQuery`.

    Everything user-controlled fails here, at the protocol edge:
    unknown strategies/objectives, bad model specs (including per-app
    parameters naming applications outside the gallery — the shared
    eager path of :func:`~repro.core.registry.validate_model_spec`),
    targets for unknown applications, and malformed axis lists.
    """
    from repro.search.objective import OBJECTIVES
    from repro.search.space import MAPPING_BUILDERS
    from repro.search.strategies import STRATEGIES

    gallery = parse_gallery(payload.get("gallery"))
    applications = gallery.application_names()
    strategy = str(payload.get("strategy", "greedy"))
    if strategy not in STRATEGIES:
        raise ServiceError(
            f"unknown strategy {strategy!r} "
            f"(choose from {', '.join(sorted(STRATEGIES))})"
        )
    objective = str(payload.get("objective", "total_period"))
    if objective not in OBJECTIVES:
        raise ServiceError(
            f"unknown objective {objective!r} "
            f"(choose from {', '.join(OBJECTIVES)})"
        )
    model = str(payload.get("model", "wrr"))
    try:
        validate_model_spec(model, applications)
    except Exception as error:
        raise ServiceError(f"bad waiting model: {error}") from None
    raw_targets = payload.get("targets")
    targets: Optional[Dict[str, float]] = None
    if raw_targets is not None:
        if not isinstance(raw_targets, dict):
            raise ServiceError(
                "place 'targets' must be an object of APP: PERIOD"
            )
        unknown = sorted(set(raw_targets) - set(applications))
        if unknown:
            raise ServiceError(
                f"targets reference applications {unknown!r} outside "
                f"gallery {gallery.label()!r}"
            )
        try:
            targets = {
                str(app): float(value)
                for app, value in raw_targets.items()
            }
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad target period: {error}") from None
    raw_mappings = payload.get("mappings", ["index", "spread", "modulo"])
    if not isinstance(raw_mappings, (list, tuple)) or not raw_mappings:
        raise ServiceError("place 'mappings' must be a non-empty list")
    mappings = tuple(str(name) for name in raw_mappings)
    unknown = sorted(set(mappings) - set(MAPPING_BUILDERS))
    if unknown:
        raise ServiceError(
            f"unknown mappings {unknown!r} "
            f"(choose from {', '.join(sorted(MAPPING_BUILDERS))})"
        )
    raw_weights = payload.get("weights", [1, 2])
    weights: Optional[Tuple[int, ...]] = None
    if raw_weights is not None:
        if not isinstance(raw_weights, (list, tuple)):
            raise ServiceError(
                "place 'weights' must be a list of integers or null"
            )
        try:
            weights = tuple(int(value) for value in raw_weights)
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad weight choice: {error}") from None
    raw_levels = payload.get("priority_levels")
    levels: Optional[Tuple[float, ...]] = None
    if raw_levels is not None:
        if not isinstance(raw_levels, (list, tuple)):
            raise ServiceError(
                "place 'priority_levels' must be a list of numbers "
                "or null"
            )
        try:
            levels = tuple(float(value) for value in raw_levels)
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad priority level: {error}") from None
    method_value = str(payload.get("method", "mcr"))
    try:
        method = AnalysisMethod(method_value)
    except ValueError:
        choices = ", ".join(m.value for m in AnalysisMethod)
        raise ServiceError(
            f"unknown analysis method {method_value!r} "
            f"(choose from {choices})"
        ) from None
    try:
        seed = int(payload.get("seed", 0))
        slack = float(payload.get("slack", 2.5))
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad place parameter: {error}") from None
    if targets is None and slack <= 1.0:
        raise ServiceError(
            f"slack must exceed 1.0 (isolation is the floor), "
            f"got {slack}"
        )
    return PlaceQuery(
        gallery=gallery,
        strategy=strategy,
        model=model,
        objective=objective,
        seed=seed,
        slack=slack,
        targets=targets,
        mappings=mappings,
        weights=weights,
        priority_levels=levels,
        method=method,
    )


def error_response(request_id: object, message: str) -> Dict[str, object]:
    return {"id": request_id, "ok": False, "error": message}


def ok_response(request_id: object, result: object) -> Dict[str, object]:
    return {"id": request_id, "ok": True, "result": result}


def raise_for_response(response: Dict[str, object]) -> Dict[str, object]:
    """Client-side helper: unwrap ``result`` or raise the ``error``."""
    if response.get("ok"):
        result = response.get("result")
        return result if isinstance(result, dict) else {"value": result}
    raise ServiceError(str(response.get("error", "unknown error")))


def resolve_request_id(payload: Dict[str, object]) -> Optional[object]:
    """The echoed ``id`` — any JSON scalar; ``None`` when absent."""
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float, bool)):
        raise ServiceError("request 'id' must be a JSON scalar")
    return request_id


def resolve_trace_id(payload: Dict[str, object]) -> Optional[str]:
    """The optional request-scoped ``trace`` id — an opaque client
    string stamped on every span the request produces and echoed inside
    the result payload.  Deliberately *not* part of :class:`Query`:
    identical questions from differently-traced clients must still
    deduplicate and share cache entries."""
    value = payload.get("trace")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ServiceError("request 'trace' must be a string or integer")
    trace_id = str(value)
    if not trace_id:
        raise ServiceError("request 'trace' must not be empty")
    if len(trace_id) > MAX_TRACE_ID_LENGTH:
        raise ServiceError(
            f"request 'trace' exceeds {MAX_TRACE_ID_LENGTH} characters"
        )
    return trace_id


#: An op handler: ``(payload, trace_id, connection token)`` in, the
#: response's ``result`` out.
Handler = Callable[[Dict[str, object], Optional[str], object], Awaitable[object]]


class JsonLinesEndpoint:
    """The JSON-lines front end shared by the server and the router.

    It owns the TCP listener, the per-connection read loop, the op
    dispatch and the ``metrics``/``shutdown`` ops; a subclass supplies
    the op table, its metrics registry, its request and error counters,
    and the name of the span every request is served in.

    Requests on one connection run concurrently, one task per line, so
    a client can pipeline questions and match answers back by id; a
    per-connection lock keeps responses whole.  Any exception a handler
    raises becomes an ``error_response`` and counts as an error: every
    request gets *an* answer.
    """

    def __init__(
        self,
        operations: Dict[str, Handler],
        registry: MetricsRegistry,
        tracer: Tracer,
        count_request: Callable[[], None],
        count_error: Callable[[], None],
        request_span: str,
    ) -> None:
        self.operations = operations
        self.registry = registry
        self.tracer = tracer
        self._count_request = count_request
        self._count_error = count_error
        self._request_span = request_span
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._closing = False
        self.address: Optional[Tuple[str, int]] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen on TCP ``host:port`` (0 = ephemeral); returns the
        bound address."""
        if self._server is not None:
            raise ServiceError(f"{type(self).__name__} already started")
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=host,
            port=port,
            # Twice the message bound: an over-long line fails the read
            # ("message too long") instead of growing the buffer.
            limit=2 * MAX_MESSAGE_BYTES,
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    async def wait_shutdown(self) -> None:
        """Block until a client sends ``shutdown`` (or ``aclose``)."""
        await self._stop.wait()

    def _stop_accepting(self) -> None:
        """First step of a graceful close: refuse new work and new
        connections; open connections keep being served."""
        self._closing = True
        self._stop.set()
        if self._server is not None:
            self._server.close()

    async def _close_connections(self) -> None:
        """Close every client connection and the listener."""
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, BrokenPipeError):
                pass
        if self._server is not None:
            # On >= 3.12 this also waits for connection handlers; the
            # transports just closed, so their readline sees EOF and
            # every handler returns promptly.
            await self._server.wait_closed()
            self._server = None

    def _drop_disconnected(self, conn: object) -> None:
        """Hook: the connection with token ``conn`` stopped reading."""

    def render_metrics(self) -> str:
        """Prometheus exposition: this front end's registry merged with
        the process-global one (engine, estimator and DES counters)."""
        return render_merged(self.registry, get_registry())

    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON snapshot of the same merged registries."""
        return snapshot_merged(self.registry, get_registry())

    async def _metrics(self, *_: object) -> Dict[str, object]:
        return {
            "exposition": self.render_metrics(),
            "snapshot": self.metrics_snapshot(),
        }

    async def _shutdown(self, *_: object) -> Dict[str, object]:
        return {"stopping": True}

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        try:
            await self._serve_stream(reader, writer)
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _serve_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one stream until EOF, ``shutdown`` or an over-long
        line; requests still in flight are drained before returning."""
        send_lock = asyncio.Lock()
        tasks: "set[asyncio.Task[None]]" = set()
        loop = asyncio.get_running_loop()
        # Connection token handed to every handler, so state a request
        # leaves behind can be reaped when the client goes away.
        conn = object()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: protocol abuse.
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
                except ServiceError as error:
                    self._count_request()
                    self._count_error()
                    await self._send(
                        writer, error_response(None, str(error)), send_lock
                    )
                    continue
                request = self._serve_request(payload, writer, send_lock, conn)
                if payload.get("op") == "shutdown":
                    # Served inline so this read loop stops cleanly;
                    # in-flight tasks still drain below.
                    await request
                    break
                task = loop.create_task(request)
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self._drop_disconnected(conn)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _serve_request(
        self,
        payload: Dict[str, object],
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
        conn: object,
    ) -> None:
        """Answer one decoded request through the op table."""
        self._count_request()
        request_id: object = None
        op = payload.get("op")
        try:
            request_id = resolve_request_id(payload)
            trace_id = resolve_trace_id(payload)
            with self.tracer.span(self._request_span, trace_id=trace_id, op=str(op)):
                handler = self.operations.get(op) if isinstance(op, str) else None
                if handler is None:
                    raise ServiceError(
                        f"unknown op {op!r} "
                        f"(expected one of {', '.join(self.operations)})"
                    )
                response = ok_response(
                    request_id, await handler(payload, trace_id, conn)
                )
        except Exception as error:
            self._count_error()
            response = error_response(request_id, str(error))
            op = None
        try:
            await self._send(writer, response, send_lock)
        finally:
            # An accepted shutdown stops the front end even when the
            # requester vanished before reading the acknowledgement.
            if op == "shutdown":
                self._stop.set()

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
                pass  # the client went away; the response has nowhere to go
