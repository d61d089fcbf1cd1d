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
for both the server and the router: listener, op dispatch and one
:class:`JsonLinesConnection` (an :class:`asyncio.Protocol`) per TCP
client or stdin/stdout pipe pair.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import json
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.registry import model_info_for, validate_model_spec
from repro.exceptions import ServiceError
from repro.experiments.setup import DEFAULT_SEED
from repro.platform.usecase import UseCase
from repro.runtime.service import GallerySpec, ResultStore
from repro.sdf.analysis import AnalysisMethod
from repro.telemetry import (
    NULL_SPAN,
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

#: ``(model spec, gallery application names)`` -> the registry entry it
#: passed ``validate_model_spec`` with; a hit on a still-registered entry
#: skips building a throwaway model.  At most 256; failures never stored.
_VALIDATED_MODELS: Dict[Tuple[str, Tuple[str, ...]], object] = {}

#: Bound on the optional request-scoped ``trace`` id; it travels through
#: span records and exporter output, so a hostile client must not be able
#: to inflate them arbitrarily.
MAX_TRACE_ID_LENGTH = 128

#: The per-question error a draining server answers while it closes.
#: It says nothing about the question, so a router treats it like a
#: dead transport and asks the next shard instead of passing it on.
SHUTTING_DOWN = "server is shutting down"

#: ``json.dumps`` with these arguments builds an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_message(payload: Dict[str, object]) -> bytes:
    """One protocol message: compact JSON plus the line terminator."""
    data = _ENCODER.encode(payload).encode("utf-8") + b"\n"
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

    @functools.cached_property
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
    payload: Dict[str, object], gallery: GallerySpec, default_model: str
) -> Tuple[str, AnalysisMethod]:
    model = str(payload.get("model", default_model))
    key = (model, gallery.application_names())
    try:
        # One registry round-trip covers unknown names (the error
        # lists the registered catalogue), bad arguments ('order:x',
        # 'wrr:A=0') and per-app parameters naming apps outside the
        # gallery ('wrr:Z=2') — rejected at the protocol edge rather
        # than inside the solver worker.
        if _VALIDATED_MODELS.get(key) is not model_info_for(model):
            if len(_VALIDATED_MODELS) >= 256:
                _VALIDATED_MODELS.clear()
            _VALIDATED_MODELS[key] = validate_model_spec(model, key[1])
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
    model, method = _parse_model_and_method(payload, gallery, "second_order")
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
    model, method = _parse_model_and_method(payload, gallery, "second_order")
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
    model, method = _parse_model_and_method(payload, gallery, "wrr")
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


#: An op handler: ``(payload, trace_id, connection)`` in; out comes the
#: response's ``result`` or, when the answer must wait, an awaitable.
Handler = Callable[[Dict[str, object], Optional[str], object], object]

#: The longest line an endpoint buffers: a line between the message
#: bound and this is refused as a request, a longer one ends the
#: connection ("message too long").
READ_LIMIT = 2 * MAX_MESSAGE_BYTES

#: Size of a line protocol's reusable receive buffer.
RECEIVE_BYTES = 1 << 14


def settled(futures: Sequence["asyncio.Future[Dict[str, object]]"], finish):
    """``finish()`` once every future is done: the value itself when
    they already are (cache hits, refusals), else a future of it,
    resolved by done callbacks rather than a task."""
    waiting = [future for future in futures if not future.done()]
    if not waiting:
        return finish()
    outcome = asyncio.get_running_loop().create_future()

    def on_done(_: object) -> None:
        waiting.pop()  # one callback per future: a countdown
        if waiting or outcome.done():
            return
        try:
            outcome.set_result(finish())
        except asyncio.CancelledError:  # a member's client went away
            outcome.cancel()
        except Exception as error:
            outcome.set_exception(error)

    for future in waiting:
        future.add_done_callback(on_done)
    return outcome


def member_results(futures) -> List[Dict[str, object]]:
    """An ``estimate_batch`` answer's ``results``: each member's payload,
    or ``{"error": ...}`` in the slot of one that failed."""
    errors = [future.exception() for future in futures]
    return [
        {"error": str(error)} if error is not None else future.result()
        for future, error in zip(futures, errors)
    ]


class LineProtocol(asyncio.BufferedProtocol):
    """Newline framing over one reusable receive buffer.

    A socket transport reads straight into the buffer; a plain
    :class:`asyncio.Protocol` would get a fresh bytes object per read,
    allocated at the transport's 256 KiB ``max_size``.  Pipe transports
    call :meth:`data_received`, which copies into the same buffer.
    Subclasses define ``line_received(line)`` and ``line_overrun()``
    (over :data:`READ_LIMIT` bytes without a terminator) and set
    ``_stopped`` to frame no further lines.
    """

    def __init__(self) -> None:
        self._buffer = bytearray(RECEIVE_BYTES)
        self._start = self._end = 0  # the received bytes not yet framed
        self._stopped = False

    def get_buffer(self, sizehint: int) -> memoryview:
        # Only here may the buffer move or grow: the transport still
        # holds the view it filled while buffer_updated runs.
        buffer, wanted = self._buffer, max(sizehint, RECEIVE_BYTES // 4)
        if len(buffer) - self._end < wanted:
            kept = self._end - self._start
            buffer[:kept] = buffer[self._start : self._end]
            self._start, self._end = 0, kept
            if len(buffer) - kept < wanted:
                buffer.extend(bytes(max(len(buffer), wanted)))
        elif self._end == 0 and len(buffer) > RECEIVE_BYTES:
            del buffer[RECEIVE_BYTES:]  # shrink back after a long line
        return memoryview(buffer)[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        buffer = self._buffer
        self._end += nbytes
        while not self._stopped:
            end = buffer.find(b"\n", self._start, self._end)
            if end < 0:
                break
            if end - self._start > READ_LIMIT:
                return self.line_overrun()
            line = buffer[self._start : end + 1]
            self._start = end + 1
            self.line_received(line)
        if self._stopped or self._start >= self._end:
            self._start = self._end = 0
        elif self._end - self._start > READ_LIMIT:
            self.line_overrun()

    def data_received(self, data: bytes) -> None:
        self.get_buffer(len(data))[: len(data)] = data
        self.buffer_updated(len(data))


class JsonLinesConnection(LineProtocol):
    """One client of a :class:`JsonLinesEndpoint`: a TCP socket, or a
    read pipe and a write pipe (``--stdio``).

    Each framed request is served in its own ``contextvars`` copy: a
    transport reuses one context for every read callback, so without
    it the span stacks of requests read together would nest.  A
    handler's value is written before the read callback returns; an
    awaitable answer is written by a done callback (a coroutine runs as
    a task), so answers go out in completion order (clients match them
    by id).  Any exception becomes an ``error_response`` and counts as an
    error.  While the write buffer is past its high-water mark (a
    client that stops reading), reading pauses.
    """

    def __init__(self, endpoint: "JsonLinesEndpoint") -> None:
        super().__init__()
        self._endpoint = endpoint
        self._reader: Optional[asyncio.ReadTransport] = None
        self._writer: Optional[asyncio.WriteTransport] = None
        self._transports = 0
        self._waiting: "set[asyncio.Future[object]]" = set()
        #: Resolved once every transport of the connection is gone.
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transports += 1
        if isinstance(transport, asyncio.ReadTransport):
            self._reader = transport
        if isinstance(transport, asyncio.WriteTransport):
            self._writer = transport
        self._endpoint._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._stop(disconnected=True)
        self._transports -= 1
        if self._transports == 0:
            self._endpoint._connections.discard(self)
            self.closed.set_result(None)

    def eof_received(self) -> bool:
        self._stop(disconnected=True)
        return True  # closed by _stop once the answers in flight are out

    def pause_writing(self) -> None:
        if not self._stopped:
            self._reader.pause_reading()  # type: ignore[union-attr]

    def resume_writing(self) -> None:
        if not self._stopped:
            self._reader.resume_reading()  # type: ignore[union-attr]

    def line_received(self, line: bytearray) -> None:
        if line.strip():
            contextvars.copy_context().run(self._serve, line)

    def line_overrun(self) -> None:
        self._write(error_response(None, "message too long"))
        self._stop(disconnected=True)

    def _serve(self, line: bytearray) -> None:
        endpoint = self._endpoint
        endpoint._count_request()
        request_id: object = None
        span = NULL_SPAN
        try:
            payload = decode_message(line)
            request_id = resolve_request_id(payload)
            trace_id = resolve_trace_id(payload)
            op = payload.get("op")
            span = endpoint.tracer.span(
                endpoint._request_span, trace_id=trace_id, op=str(op)
            )
            span.__enter__()
            handler = endpoint.operations.get(op) if isinstance(op, str) else None
            if handler is None:
                raise ServiceError(
                    f"unknown op {op!r} "
                    f"(expected one of {', '.join(endpoint.operations)})"
                )
            result = handler(payload, trace_id, self)
        except Exception as error:
            return self._answer(request_id, span, error=error)
        if inspect.isawaitable(result):
            future = asyncio.ensure_future(result)
            self._waiting.add(future)
            future.add_done_callback(functools.partial(self._settle, request_id, span))
            return
        self._answer(request_id, span, result)
        if op == "shutdown":  # read no further; answer what is in flight
            endpoint._stop.set()
            self._stop(disconnected=False)

    def _settle(self, request_id: object, span, future: "asyncio.Future") -> None:
        self._waiting.discard(future)
        if future.cancelled():  # the client went away with its queries
            span.__exit__(None, None, None)
        elif future.exception() is not None:
            self._answer(request_id, span, error=future.exception())
        else:
            self._answer(request_id, span, future.result())
        self._close_if_done()

    def _answer(self, request_id, span, result=None, error=None) -> None:
        span.__exit__(None, None, None)
        if error is None:
            return self._write(ok_response(request_id, result))
        self._endpoint._count_error()
        self._write(error_response(request_id, str(error)))

    def _write(self, payload: Dict[str, object]) -> None:
        writer = self._writer
        if writer is None or writer.is_closing():
            return  # the client went away; the answer has nowhere to go
        try:
            data = encode_message(payload)
        except ServiceError as error:  # an answer over the message bound
            data = encode_message(error_response(payload.get("id"), str(error)))
        writer.write(data)

    def _stop(self, disconnected: bool) -> None:
        """Read no further (``shutdown``, an over-long line, EOF or a
        lost transport).  A client that went away takes its queued
        queries with it; the transport closes once the answers still in
        flight are written."""
        if not self._stopped:
            self._stopped = True
            self._start = self._end = 0
            if self._reader is not None:
                self._reader.pause_reading()
        if disconnected:
            self._endpoint._drop_disconnected(self)
        self._close_if_done()

    def _close_if_done(self) -> None:
        if self._stopped and not self._waiting:
            self.close()

    def close(self) -> None:
        for transport in (self._reader, self._writer):
            if transport is not None:
                transport.close()


class JsonLinesEndpoint:
    """The JSON-lines front end shared by the server and the router.

    It owns the TCP listener, one :class:`JsonLinesConnection` per
    client, the op dispatch and the ``metrics``/``shutdown`` ops; a
    subclass supplies the op table, its metrics registry, its request
    and error counters, and the name of the span every request is
    served in.
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
        self._connections: "set[JsonLinesConnection]" = set()
        self._closing = False
        self.address: Optional[Tuple[str, int]] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen on TCP ``host:port`` (0 = ephemeral); returns the
        bound address."""
        if self._server is not None:
            raise ServiceError(f"{type(self).__name__} already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: JsonLinesConnection(self), host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    async def serve_pipes(self, read_pipe: object, write_pipe: object) -> None:
        """Serve one connection over a pipe pair (the ``--stdio`` mode)
        until EOF or ``shutdown``; answers in flight are written first."""
        loop = asyncio.get_running_loop()
        connection = JsonLinesConnection(self)
        await loop.connect_write_pipe(lambda: connection, write_pipe)
        await loop.connect_read_pipe(lambda: connection, read_pipe)
        await connection.closed

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
        for connection in list(self._connections):
            connection.close()
        if self._server is not None:
            # On >= 3.12 this also waits for the connections to close.
            await self._server.wait_closed()
            self._server = None

    def _drop_disconnected(self, conn: object) -> None:
        """Hook: the connection ``conn`` went away (EOF, lost transport
        or an over-long line); state its requests left can be reaped."""

    def render_metrics(self) -> str:
        """Prometheus exposition: this front end's registry merged with
        the process-global one (engine, estimator and DES counters)."""
        return render_merged(self.registry, get_registry())

    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON snapshot of the same merged registries."""
        return snapshot_merged(self.registry, get_registry())

    def _metrics(self, *_: object) -> Dict[str, object]:
        return {
            "exposition": self.render_metrics(),
            "snapshot": self.metrics_snapshot(),
        }

    def _shutdown(self, *_: object) -> Dict[str, object]:
        return {"stopping": True}
