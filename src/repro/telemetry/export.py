"""Telemetry exporters: Chrome-trace JSON, span logs, scrape endpoint.

Three output formats:

* :func:`write_chrome_trace` — the Chrome ``trace_event`` JSON format
  (``chrome://tracing`` / https://ui.perfetto.dev).  Service spans render
  as ``ph:"X"`` complete events grouped by thread; DES busy intervals
  (from :class:`repro.simulation.trace.TraceEntry` firing records) and
  per-phase engine timings render as separate process tracks, so one file
  shows batcher activity and simulator activity side by side.  Wall-clock
  spans use microseconds since the earliest span; simulation tracks are in
  *simulated* time units (one unit = one microsecond on the timeline) —
  they share the file, not the clock, and are labelled accordingly.
* :func:`write_span_log` / :class:`JsonLinesSpanSink` — one JSON object
  per finished span, either batched at shutdown or streamed live through
  a tracer sink.
* :func:`start_metrics_endpoint` — a deliberately tiny asyncio HTTP
  responder serving the Prometheus exposition on ``GET /metrics`` (and
  ``/``), enough for ``curl``, Prometheus, or the CI scrape step without
  pulling in an HTTP framework.

:func:`validate_exposition` is the schema check CI runs against scraped
output; it accepts exactly the grammar :meth:`MetricsRegistry
.render_prometheus` emits.
"""

from __future__ import annotations

import asyncio
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import TelemetryError
from repro.telemetry.tracing import SpanRecord

__all__ = [
    "JsonLinesSpanSink",
    "chrome_trace_events",
    "engine_stats_events",
    "simulation_trace_events",
    "span_to_dict",
    "start_metrics_endpoint",
    "validate_exposition",
    "write_chrome_trace",
    "write_span_log",
]

#: Fixed process ids for the timeline tracks.
SERVICE_PID = 1
SIMULATION_PID = 2
ENGINE_PID = 3


def span_to_dict(span: SpanRecord) -> Dict[str, object]:
    """JSON-serialisable form of one finished span."""
    out: Dict[str, object] = {
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "span_id": span.span_id,
        "thread": span.thread,
    }
    if span.parent_id is not None:
        out["parent_id"] = span.parent_id
    if span.trace_id is not None:
        out["trace"] = span.trace_id
    if span.attributes:
        out["attributes"] = _plain_attributes(span.attributes)
    return out


def _plain_attributes(attributes: Mapping[str, object]) -> Dict[str, object]:
    plain: Dict[str, object] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            plain[key] = value
        elif isinstance(value, (list, tuple)):
            plain[key] = [str(item) for item in value]
        else:
            plain[key] = str(value)
    return plain


def write_span_log(path: object, spans: Iterable[SpanRecord]) -> int:
    """Write spans as JSON lines; returns the number written."""
    count = 0
    with Path(str(path)).open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


class JsonLinesSpanSink:
    """Tracer sink streaming each finished span to a JSON-lines file."""

    def __init__(self, path: object) -> None:
        self._handle = Path(str(path)).open("w", encoding="utf-8")

    def __call__(self, span: SpanRecord) -> None:
        self._handle.write(json.dumps(span_to_dict(span), sort_keys=True))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.close()


# -- Chrome trace_event ------------------------------------------------


def chrome_trace_events(
    spans: Sequence[SpanRecord],
    pid: int = SERVICE_PID,
    process_name: str = "repro service",
) -> List[Dict[str, object]]:
    """Complete (``ph:"X"``) events for wall-clock spans, one Chrome
    thread track per originating thread, timestamps relative to the
    earliest span."""
    if not spans:
        return []
    base = min(span.start for span in spans)
    events: List[Dict[str, object]] = [
        _metadata(pid, 0, "process_name", name=process_name)
    ]
    thread_ids: Dict[str, int] = {}
    for span in spans:
        tid = thread_ids.get(span.thread)
        if tid is None:
            tid = len(thread_ids) + 1
            thread_ids[span.thread] = tid
            events.append(
                _metadata(pid, tid, "thread_name", name=span.thread)
            )
        args = _plain_attributes(span.attributes)
        if span.trace_id is not None:
            args["trace"] = span.trace_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - base) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "cat": span.name.partition(".")[0],
                "args": args,
            }
        )
    return events


def simulation_trace_events(
    trace: Sequence[object],
    pid: int = SIMULATION_PID,
    process_name: str = "DES (simulated time)",
) -> List[Dict[str, object]]:
    """Busy intervals from DES firing records (``TraceEntry``) as one
    Chrome thread track per processor.  Timestamps are simulated time
    units rendered as microseconds."""
    if not trace:
        return []
    events: List[Dict[str, object]] = [
        _metadata(pid, 0, "process_name", name=process_name)
    ]
    processor_ids: Dict[str, int] = {}
    for entry in trace:
        processor = str(entry.processor)
        tid = processor_ids.get(processor)
        if tid is None:
            tid = len(processor_ids) + 1
            processor_ids[processor] = tid
            events.append(
                _metadata(pid, tid, "thread_name", name=processor)
            )
        events.append(
            {
                "name": f"{entry.application}.{entry.actor}",
                "ph": "X",
                "ts": float(entry.start) * 1e6,
                "dur": float(entry.end - entry.start) * 1e6,
                "pid": pid,
                "tid": tid,
                "cat": "des",
                "args": {"application": entry.application},
            }
        )
    return events


def engine_stats_events(
    stats: Optional[object],
    pid: int = ENGINE_PID,
    process_name: str = "DES engine phases",
) -> List[Dict[str, object]]:
    """Sequential per-phase wall-clock events from one ``EngineStats``
    (setup / step / collect) on a single track."""
    if stats is None:
        return []
    events: List[Dict[str, object]] = [
        _metadata(pid, 0, "process_name", name=process_name)
    ]
    cursor = 0.0
    for phase, seconds in stats.phase_seconds.items():
        events.append(
            {
                "name": phase,
                "ph": "X",
                "ts": cursor * 1e6,
                "dur": seconds * 1e6,
                "pid": pid,
                "tid": 1,
                "cat": "engine",
                "args": {"events_dispatched": stats.events_dispatched},
            }
        )
        cursor += seconds
    return events


def _metadata(pid: int, tid: int, event: str, **args: object) -> Dict[str, object]:
    return {"name": event, "ph": "M", "pid": pid, "tid": tid, "args": dict(args)}


def write_chrome_trace(
    path: object,
    spans: Sequence[SpanRecord] = (),
    simulation_trace: Sequence[object] = (),
    engine_stats: Optional[object] = None,
) -> Dict[str, object]:
    """Assemble all tracks into one ``trace_event`` document and write it.

    Returns the document (callers embed it in reports or assert on it in
    tests without re-reading the file)."""
    events = chrome_trace_events(spans)
    events.extend(simulation_trace_events(simulation_trace))
    events.extend(engine_stats_events(engine_stats))
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry"},
    }
    Path(str(path)).write_text(
        json.dumps(document, sort_keys=True), encoding="utf-8"
    )
    return document


# -- exposition validation --------------------------------------------

_HELP_LINE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$"
)
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$"
)


def validate_exposition(text: str) -> int:
    """Validate Prometheus-text output; returns the number of samples.

    Checks the line grammar, that every sample belongs to a declared
    ``# TYPE`` family, and that histogram families expose the mandatory
    ``_bucket``/``_sum``/``_count`` series.  Raises
    :class:`~repro.exceptions.TelemetryError` on the first violation.
    """
    declared: Dict[str, str] = {}
    samples = 0
    seen_names: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            if not _HELP_LINE.match(line):
                raise TelemetryError(f"malformed HELP line {number}: {line!r}")
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_LINE.match(line)
            if not match:
                raise TelemetryError(f"malformed TYPE line {number}: {line!r}")
            declared[match.group(1)] = match.group(2)
            continue
        if line.startswith("#"):
            raise TelemetryError(f"unknown comment line {number}: {line!r}")
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise TelemetryError(f"malformed sample line {number}: {line!r}")
        name = match.group(1)
        family = _family_name(name, declared)
        if family is None:
            raise TelemetryError(
                f"sample {name!r} on line {number} has no # TYPE declaration"
            )
        seen_names.append(name)
        samples += 1
    for family, kind in declared.items():
        if kind == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                if family + suffix not in seen_names:
                    raise TelemetryError(
                        f"histogram {family!r} is missing {family + suffix}"
                    )
    return samples


def _family_name(sample: str, declared: Mapping[str, str]) -> Optional[str]:
    if sample in declared:
        return sample
    for suffix in ("_bucket", "_sum", "_count"):
        if sample.endswith(suffix):
            family = sample[: -len(suffix)]
            if declared.get(family) == "histogram":
                return family
    return None


# -- scrape endpoint ---------------------------------------------------


async def start_metrics_endpoint(
    render,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[asyncio.AbstractServer, Tuple[str, int]]:
    """Serve ``render()`` (a callable returning exposition text) over a
    minimal HTTP/1.0 responder.  Returns the asyncio server and its bound
    ``(host, port)`` — pass ``port=0`` to let the OS pick."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else ""
            if method not in ("GET", "HEAD") or path.split("?")[0] not in (
                "/metrics",
                "/",
            ):
                body = b"not found\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            else:
                body = render().encode("utf-8")
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            head = (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head if method == "HEAD" else head + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host=host, port=port)
    bound = server.sockets[0].getsockname()[:2]
    return server, (bound[0], bound[1])
