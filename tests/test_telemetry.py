"""Tests of the telemetry layer: registry, tracer, exporters, wiring.

Unit coverage uses private registry/tracer instances so nothing leaks
through the process-global singletons; the end-to-end classes spin a
real ``EstimationServer`` on an ephemeral TCP port (same harness as
``test_service.py``) and assert the observable contracts: trace ids
propagate through the JSON-lines protocol into server-side spans and
back out in responses without cross-contamination, the ``metrics`` verb
returns a valid exposition, the ``stats`` verb stays a byte-compatible
view over the same registry counters, and the scrape endpoint serves
the merged exposition over HTTP.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.conformance import _engine_profile_delta, _engine_profile_snapshot
from repro.exceptions import TelemetryError
from repro.runtime.service import GallerySpec
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.server import EstimationServer
from repro.simulation.engine import record_engine_stats
from repro.simulation.metrics import EngineStats
from repro.telemetry import (
    JsonLinesSpanSink,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    chrome_trace_events,
    engine_stats_events,
    get_registry,
    get_tracer,
    log_buckets,
    render_merged,
    set_enabled,
    simulation_trace_events,
    snapshot_merged,
    span_to_dict,
    start_metrics_endpoint,
    validate_exposition,
    write_chrome_trace,
    write_span_log,
)
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
)
from repro.telemetry.tracing import DEFAULT_MAX_SPANS

GALLERY = {"kind": "paper", "seed": 2007, "applications": 4}
SPEC = GallerySpec(kind="paper", seed=2007, application_count=4)


def names():
    return SPEC.application_names()


# ----------------------------------------------------------------------
# Buckets and bare instruments
# ----------------------------------------------------------------------
class TestBucketsAndInstruments:
    def test_log_buckets_cover_the_range(self):
        bounds = log_buckets(1e-3, 10.0, per_decade=1)
        assert bounds[0] <= 1e-3
        assert bounds[-1] >= 10.0
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_log_buckets_are_deterministic(self):
        assert log_buckets(1e-5, 10.0) == log_buckets(1e-5, 10.0)

    def test_log_buckets_reject_bad_ranges(self):
        for minimum, maximum, per_decade in [
            (0.0, 1.0, 4),
            (1.0, 1.0, 4),
            (1.0, 0.5, 4),
            (1e-3, 1.0, 0),
        ]:
            with pytest.raises(TelemetryError):
                log_buckets(minimum, maximum, per_decade)

    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(TelemetryError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0
        gauge.set_max(10.0)
        gauge.set_max(5.0)
        assert gauge.value == 10.0

    def test_histogram_counts_sum_and_mean(self):
        histogram = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(105.0)
        assert histogram.mean == pytest.approx(105.0 / 4)
        buckets = histogram.bucket_counts()
        assert buckets["1"] == 1
        assert buckets["2"] == 2
        assert buckets["4"] == 3
        assert buckets["+Inf"] == 4

    def test_histogram_quantiles_clamp_to_observed_extremes(self):
        histogram = Histogram((1.0, 10.0, 100.0))
        for value in (3.0, 4.0, 5.0):
            histogram.observe(value)
        # All samples share one bucket whose bound is 10; the clamp keeps
        # the answer inside [min, max].
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert histogram.quantile(0.0) >= 3.0
        assert histogram.quantile(1.0) == pytest.approx(5.0)
        with pytest.raises(TelemetryError):
            histogram.quantile(-0.1)

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram((1.0,)).quantile(0.5) == 0.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram(())
        with pytest.raises(TelemetryError):
            Histogram((2.0, 1.0))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_acquisition_is_idempotent_per_label_set(self):
        registry = MetricsRegistry(enabled=True)
        first = registry.counter("x_total", "x", flavour="a")
        again = registry.counter("x_total", "x", flavour="a")
        other = registry.counter("x_total", "x", flavour="b")
        assert first is again
        assert first is not other

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c_total") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h") is NULL_HISTOGRAM
        # Null instruments absorb writes and read as empty.
        NULL_COUNTER.inc()
        NULL_GAUGE.set(9)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0.0
        assert NULL_HISTOGRAM.bucket_counts() == {"+Inf": 0}
        assert registry.render_prometheus() == ""

    def test_always_instruments_stay_live_while_disabled(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("kept_total", "kept", always=True)
        counter.inc(3)
        assert registry.value("kept_total") == 3.0

    def test_kind_label_and_bucket_conflicts_are_refused(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c_total", "c")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("c_total")
        registry.gauge("g", "g", shard="0")
        with pytest.raises(TelemetryError, match="labels"):
            registry.gauge("g", "g", other="0")
        registry.histogram("h", "h", buckets=(1.0, 2.0))
        with pytest.raises(TelemetryError, match="buckets"):
            registry.histogram("h", "h", buckets=(1.0, 4.0))

    def test_invalid_names_are_refused(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(TelemetryError, match="metric name"):
            registry.counter("not a name")
        with pytest.raises(TelemetryError, match="label name"):
            registry.counter("ok_total", **{"bad-label": 1})

    def test_value_and_label_values(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("events_total", "e", flavour="numpy").inc(5)
        registry.counter("events_total", "e", flavour="python").inc(2)
        registry.histogram("lat", "l", buckets=(1.0,)).observe(0.5)
        assert registry.value("events_total", flavour="numpy") == 5.0
        assert registry.value("events_total", flavour="missing") is None
        assert registry.value("absent_total") is None
        assert registry.value("lat") is None  # histograms have no scalar
        assert registry.label_values("events_total", "flavour") == [
            "numpy",
            "python",
        ]
        assert registry.label_values("absent_total", "flavour") == []

    def test_exposition_round_trips_through_the_validator(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("req_total", "requests", op="estimate").inc(7)
        registry.gauge("depth", "queue depth").set(2.5)
        histogram = registry.histogram(
            "wait_seconds", "waits", buckets=(0.001, 0.1, 10.0)
        )
        histogram.observe(0.05)
        histogram.observe(2.0)
        text = registry.render_prometheus()
        assert validate_exposition(text) == len(
            [line for line in text.splitlines() if not line.startswith("#")]
        )
        assert 'req_total{op="estimate"} 7' in text
        assert "wait_seconds_count 2" in text

    def test_snapshot_shape(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c_total", "help text", kind="x").inc()
        registry.histogram("h", "hist", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c_total"]["type"] == "counter"
        assert snapshot["c_total"]["help"] == "help text"
        assert snapshot["c_total"]["samples"][0] == {
            "labels": {"kind": "x"},
            "value": 1.0,
        }
        sample = snapshot["h"]["samples"][0]
        assert sample["count"] == 1
        assert sample["mean"] == pytest.approx(0.5)
        assert sample["buckets"]["+Inf"] == 1
        json.dumps(snapshot)  # JSON-serialisable end to end

    def test_merged_views_let_the_earlier_registry_win(self):
        ours = MetricsRegistry(enabled=True)
        theirs = MetricsRegistry(enabled=True)
        ours.counter("shared_total", "ours").inc(1)
        theirs.counter("shared_total", "theirs").inc(9)
        theirs.counter("only_theirs_total", "t").inc(2)
        text = render_merged(ours, theirs)
        assert text.count("# TYPE shared_total") == 1
        assert "shared_total 1" in text
        assert "only_theirs_total 2" in text
        validate_exposition(text)
        merged = snapshot_merged(ours, theirs)
        assert merged["shared_total"]["help"] == "ours"
        assert "only_theirs_total" in merged

    def test_reset_drops_families(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("gone_total").inc()
        registry.reset()
        assert registry.value("gone_total") is None

    def test_global_toggle_flips_registry_and_tracer_together(self):
        registry_was = get_registry().enabled
        tracer_was = get_tracer().enabled
        try:
            set_enabled(False)
            assert get_registry().counter("tmp_toggle_total") is NULL_COUNTER
            assert get_tracer().span("tmp") is NULL_SPAN
        finally:
            set_enabled(True)
            get_registry().enabled = registry_was
            get_tracer().enabled = tracer_was


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_inherit_parent_and_trace_id(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", trace_id="t-1") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == "t-1"
        assert outer.parent_id is None
        spans = tracer.spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert all(span.duration >= 0.0 for span in spans)
        assert spans[0].end >= spans[0].start

    def test_trace_context_binds_the_current_thread(self):
        tracer = Tracer(enabled=True)
        assert tracer.current_trace_id() is None
        with tracer.trace("req-9"):
            assert tracer.current_trace_id() == "req-9"
            with tracer.span("work") as span:
                pass
        assert span.trace_id == "req-9"
        assert tracer.current_trace_id() is None

    def test_disabled_tracer_returns_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("ignored", anything=1)
        assert span is NULL_SPAN
        with span as entered:
            entered.set(more=2)  # all no-ops
        assert tracer.spans() == []

    def test_interleaved_exits_keep_parent_attribution_straight(self):
        # Async interleaving can exit an older span while a newer one is
        # still open; identity removal must not pop the newer span.
        tracer = Tracer(enabled=True)
        first = tracer.span("first").__enter__()
        second = tracer.span("second").__enter__()
        first.__exit__(None, None, None)
        with tracer.span("third") as third:
            pass
        second.__exit__(None, None, None)
        assert second.parent_id == first.span_id
        assert third.parent_id == second.span_id

    def test_concurrent_tasks_parent_spans_to_their_own_span(self):
        tracer = Tracer(enabled=True)

        async def request(name):
            with tracer.span(name) as outer:
                await asyncio.sleep(0)  # let the other task open its span
                with tracer.span(f"{name}.child") as child:
                    await asyncio.sleep(0)
            return outer, child

        async def scenario():
            return await asyncio.gather(request("a"), request("b"))

        for outer, child in asyncio.run(scenario()):
            assert outer.parent_id is None
            assert child.parent_id == outer.span_id

    def test_set_attaches_midspan_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("solve", gallery="g") as span:
            span.set(batch=16)
        assert span.attributes == {"gallery": "g", "batch": 16}

    def test_record_registers_a_retroactive_span(self):
        tracer = Tracer(enabled=True)
        tracer.record("queue_wait", start=5.0, duration=0.25, trace_id="t", n=1)
        (record,) = tracer.spans()
        assert record.name == "queue_wait"
        assert record.end == pytest.approx(5.25)
        assert record.trace_id == "t"
        assert record.attributes == {"n": 1}
        tracer.clear()
        assert tracer.spans() == []

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in tracer.spans()] == ["s2", "s3", "s4"]

    def test_default_ring_evicts_past_its_capacity(self):
        def fill(tracer, count):
            for index in range(count):
                tracer.record(f"s{index}", start=float(index), duration=0.0)
            return [span.name for span in tracer.spans()]

        kept = fill(Tracer(enabled=True), DEFAULT_MAX_SPANS + 2)
        assert DEFAULT_MAX_SPANS == 8192
        assert len(kept) == DEFAULT_MAX_SPANS
        assert kept[0] == "s2"
        assert kept[-1] == f"s{DEFAULT_MAX_SPANS + 1}"
        # An explicit bound still wins over the default.
        roomy = Tracer(enabled=True, max_spans=DEFAULT_MAX_SPANS + 1)
        assert len(fill(roomy, DEFAULT_MAX_SPANS + 2)) == DEFAULT_MAX_SPANS + 1

    def test_sink_streams_each_finished_span(self):
        seen = []
        tracer = Tracer(enabled=True, sink=seen.append)
        with tracer.span("a"):
            pass
        tracer.set_sink(None)
        with tracer.span("b"):
            pass
        assert [span.name for span in seen] == ["a"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def finished_span(tracer, name, trace_id=None, **attributes):
    with tracer.span(name, trace_id=trace_id, **attributes) as span:
        pass
    return span


class TestExporters:
    def test_span_to_dict_drops_empty_optionals(self):
        tracer = Tracer(enabled=True)
        bare = span_to_dict(finished_span(tracer, "bare"))
        assert "parent_id" not in bare
        assert "trace" not in bare
        assert "attributes" not in bare
        rich = span_to_dict(
            finished_span(
                tracer, "rich", trace_id="t", obj=object(), seq=(1, 2)
            )
        )
        assert rich["trace"] == "t"
        assert rich["attributes"]["seq"] == ["1", "2"]
        json.dumps(rich)  # non-JSON attribute values were stringified

    def test_write_span_log_and_sink_agree(self, tmp_path):
        tracer = Tracer(enabled=True)
        sink_path = tmp_path / "stream.jsonl"
        sink = JsonLinesSpanSink(sink_path)
        tracer.set_sink(sink)
        for index in range(3):
            finished_span(tracer, f"s{index}", trace_id=f"t{index}")
        sink.close()
        batch_path = tmp_path / "batch.jsonl"
        assert write_span_log(batch_path, tracer.spans()) == 3
        streamed = sink_path.read_text(encoding="utf-8")
        assert streamed == batch_path.read_text(encoding="utf-8")
        assert [json.loads(line)["trace"] for line in streamed.splitlines()] == [
            "t0",
            "t1",
            "t2",
        ]

    def test_chrome_trace_events_track_threads_and_relative_time(self):
        tracer = Tracer(enabled=True)
        spans = [
            finished_span(tracer, "one", trace_id="t-1", size=4),
            finished_span(tracer, "two"),
        ]
        events = chrome_trace_events(spans)
        metadata = [event for event in events if event["ph"] == "M"]
        complete = [event for event in events if event["ph"] == "X"]
        assert metadata[0]["args"]["name"] == "repro service"
        # Both spans came from this thread: one thread_name record.
        assert len(metadata) == 2
        assert len(complete) == 2
        assert complete[0]["tid"] == complete[1]["tid"]
        assert min(event["ts"] for event in complete) == 0.0
        assert complete[0]["args"] == {"size": 4, "trace": "t-1"}
        assert chrome_trace_events([]) == []

    def test_simulation_trace_events_group_by_processor(self):
        entries = [
            SimpleNamespace(
                processor="p0", application="A", actor="a0", start=0, end=5
            ),
            SimpleNamespace(
                processor="p1", application="B", actor="b0", start=2, end=3
            ),
        ]
        events = simulation_trace_events(entries)
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in complete} == {"A.a0", "B.b0"}
        assert complete[0]["tid"] != complete[1]["tid"]
        assert complete[0]["dur"] == pytest.approx(5e6)

    def test_engine_stats_events_lay_phases_end_to_end(self):
        stats = EngineStats(
            events_dispatched=10,
            stale_events=0,
            preemptions=0,
            phase_seconds={"setup": 0.5, "step": 1.5},
        )
        assert engine_stats_events(None) == []
        events = engine_stats_events(stats)
        complete = [event for event in events if event["ph"] == "X"]
        assert [event["name"] for event in complete] == ["setup", "step"]
        assert complete[1]["ts"] == pytest.approx(complete[0]["dur"])

    def test_write_chrome_trace_assembles_all_tracks(self, tmp_path):
        tracer = Tracer(enabled=True)
        finished_span(tracer, "solve")
        path = tmp_path / "trace.json"
        document = write_chrome_trace(
            path,
            spans=tracer.spans(),
            simulation_trace=[
                SimpleNamespace(
                    processor="p0", application="A", actor="a", start=0, end=1
                )
            ],
            engine_stats=EngineStats(
                events_dispatched=1,
                stale_events=0,
                preemptions=0,
                phase_seconds={"step": 0.1},
            ),
        )
        assert json.loads(path.read_text(encoding="utf-8")) == document
        pids = {event["pid"] for event in document["traceEvents"]}
        assert len(pids) == 3  # service + DES + engine tracks

    def test_validator_rejects_malformed_expositions(self):
        with pytest.raises(TelemetryError, match="TYPE declaration"):
            validate_exposition("orphan_total 1\n")
        with pytest.raises(TelemetryError, match="malformed sample"):
            validate_exposition(
                "# HELP x y\n# TYPE x counter\nx one\n"
            )
        with pytest.raises(TelemetryError, match="malformed TYPE"):
            validate_exposition("# TYPE x summary\n")
        with pytest.raises(TelemetryError, match="missing"):
            validate_exposition(
                "# HELP h y\n# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 1\nh_sum 1\n'
            )
        with pytest.raises(TelemetryError, match="unknown comment"):
            validate_exposition("# EOF\n")

    def test_validator_accepts_exponent_floats_and_infinities(self):
        assert (
            validate_exposition(
                "# HELP x y\n# TYPE x gauge\n"
                'x{kind="a"} 1e-06\nx{kind="b"} +Inf\nx{kind="c"} -2.5\n'
            )
            == 3
        )

    def test_scrape_endpoint_serves_and_404s(self):
        async def scenario():
            server, (host, port) = await start_metrics_endpoint(
                lambda: "# HELP x y\n# TYPE x counter\nx 1\n"
            )
            try:
                ok = await self._get(host, port, "/metrics")
                missing = await self._get(host, port, "/else")
            finally:
                server.close()
                await server.wait_closed()
            return ok, missing

        ok, missing = asyncio.run(scenario())
        assert "200 OK" in ok
        assert ok.endswith("x 1\n")
        assert "404" in missing

    @staticmethod
    async def _get(host, port, path):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        await writer.drain()
        body = await reader.read()
        writer.close()
        await writer.wait_closed()
        return body.decode("utf-8")


# ----------------------------------------------------------------------
# Engine profile plumbing (conformance --profile)
# ----------------------------------------------------------------------
class TestEngineProfile:
    def test_engine_stats_merge_accumulates(self):
        ours = EngineStats(
            events_dispatched=2,
            stale_events=1,
            preemptions=0,
            phase_seconds={"step": 0.5},
        )
        ours.merge(
            EngineStats(
                events_dispatched=3,
                stale_events=0,
                preemptions=2,
                phase_seconds={"step": 0.25, "setup": 0.1},
            )
        )
        assert ours.events_dispatched == 5
        assert ours.stale_events == 1
        assert ours.preemptions == 2
        assert ours.phase_seconds["step"] == pytest.approx(0.75)
        assert ours.phase_seconds["setup"] == pytest.approx(0.1)

    def test_profile_delta_scopes_registry_growth(self):
        before = EngineStats(
            events_dispatched=10,
            stale_events=1,
            preemptions=0,
            phase_seconds={"step": 1.0},
        )
        after = EngineStats(
            events_dispatched=15,
            stale_events=1,
            preemptions=2,
            phase_seconds={"step": 1.5, "setup": 0.0},
        )
        delta = _engine_profile_delta(before, after)
        assert delta.events_dispatched == 5
        assert delta.preemptions == 2
        assert delta.phase_seconds == {"step": pytest.approx(0.5)}
        # An idle window has no profile.
        assert _engine_profile_delta(after, after) is None

    def test_snapshot_reads_back_recorded_runs(self):
        before = _engine_profile_snapshot()
        record_engine_stats(
            EngineStats(
                events_dispatched=7,
                stale_events=2,
                preemptions=1,
                phase_seconds={"step": 0.125, "collect": 0.25},
            )
        )
        delta = _engine_profile_delta(before, _engine_profile_snapshot())
        assert delta.events_dispatched == 7
        assert delta.stale_events == 2
        assert delta.preemptions == 1
        assert delta.phase_seconds["step"] == pytest.approx(0.125)


# ----------------------------------------------------------------------
# End to end: trace propagation, metrics verb, stats parity, scrape
# ----------------------------------------------------------------------
def serve(coroutine_factory, **server_kwargs):
    """Run one async scenario against a fresh TCP server."""

    async def scenario():
        server = EstimationServer(
            registry=MetricsRegistry(enabled=True),
            tracer=Tracer(enabled=True),
            **server_kwargs,
        )
        host, port = await server.start()
        try:
            return await coroutine_factory(server, host, port)
        finally:
            await server.aclose()

    return asyncio.run(scenario())


class TestServiceTelemetry:
    def test_trace_id_is_echoed_and_stamped_on_spans(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                traced = await client.estimate(
                    [names()[0]], gallery=GALLERY, trace="req-42"
                )
                plain = await client.estimate([names()[1]], gallery=GALLERY)
            finally:
                await client.aclose()
            return traced, plain, server.tracer.spans()

        traced, plain, spans = serve(scenario)
        assert traced["trace"] == "req-42"
        assert "trace" not in plain
        stamped = {
            span.name for span in spans if span.trace_id == "req-42"
        }
        assert "service.request" in stamped
        assert "service.queue_wait" in stamped
        assert "service.solve" in stamped

    def test_pipelined_traces_never_cross_contaminate(self, held_batcher):
        count = 8

        async def scenario(server, host, port):
            clients = [await ServiceClient.connect(host, port) for _ in range(3)]
            try:
                async with held_batcher(server, count):
                    asked = asyncio.gather(
                        *[
                            clients[index % len(clients)].estimate(
                                [names()[index % 4]],
                                gallery=GALLERY,
                                trace=f"client-{index}",
                            )
                            for index in range(count)
                        ]
                    )
                results = await asked
            finally:
                for client in clients:
                    await client.aclose()
            return results, server.snapshot(), server.tracer.spans()

        results, stats, spans = serve(scenario, cache=ResultCache(0))
        # Every answer carries exactly the id its request sent, even
        # though the questions were batched, grouped and deduplicated.
        for index, result in enumerate(results):
            assert result["trace"] == f"client-{index}"
            assert result["use_case"] == [names()[index % 4]]
        assert stats["batches"] < count
        # A multi-trace solve span lists every contributing trace id
        # instead of picking one arbitrarily.
        solve_ids = [
            set(span.attributes.get("trace_ids", ()))
            for span in spans
            if span.name == "service.solve"
        ]
        flattened = set().union(*solve_ids)
        assert flattened == {f"client-{index}" for index in range(count)}

    def test_metrics_verb_and_stats_stay_one_registry(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                for index in range(3):
                    await client.estimate([names()[index]], gallery=GALLERY)
                metrics = await client.metrics()
                # stats goes last: it is the final counted request, so its
                # view matches the registry read after shutdown exactly.
                stats = await client.stats()
            finally:
                await client.aclose()
            return stats, metrics, server

        stats, metrics, server = serve(scenario)
        validate_exposition(metrics["exposition"])
        snapshot = metrics["snapshot"]
        assert "repro_service_requests_total" in metrics["exposition"]
        assert "repro_service_batch_size" in snapshot
        # The stats verb is a view over the same counters: every scalar
        # it reports equals the registry's value for the backing metric.
        registry = server.registry
        for field, metric in [
            ("requests", "repro_service_requests_total"),
            ("estimate_requests", "repro_service_estimate_requests_total"),
            ("solved_queries", "repro_service_solved_queries_total"),
            ("batches", "repro_service_batches_total"),
            ("batched_queries", "repro_service_batched_queries_total"),
            ("shed", "repro_service_shed_total"),
            ("evicted", "repro_service_evicted_total"),
            ("max_batch", "repro_service_max_batch"),
        ]:
            assert stats[field] == int(registry.value(metric) or 0)
        assert stats["estimate_requests"] == 3
        # The snapshot froze at metrics time: 3 estimates + the metrics
        # request itself; the later stats request is not in it.
        (sample,) = snapshot["repro_service_requests_total"]["samples"]
        assert sample["value"] == 4.0
        assert stats["requests"] == 5

    def test_scrape_endpoint_serves_the_merged_exposition(self):
        async def scenario(server, host, port):
            client = await ServiceClient.connect(host, port)
            endpoint, (mhost, mport) = await start_metrics_endpoint(
                server.render_metrics
            )
            try:
                await client.estimate([names()[0]], gallery=GALLERY)
                scraped = await TestExporters._get(mhost, mport, "/metrics")
            finally:
                endpoint.close()
                await endpoint.wait_closed()
                await client.aclose()
            return scraped

        scraped = serve(scenario)
        head, _, body = scraped.partition("\r\n\r\n")
        assert "200 OK" in head
        assert validate_exposition(body) > 0
        assert "repro_service_requests_total 1" in body  # the one estimate


# ----------------------------------------------------------------------
# CLI stdio: trace ids survive the subprocess framing too
# ----------------------------------------------------------------------
class TestStdioTrace:
    def test_stdio_session_propagates_trace_ids(self):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--stdio",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        requests = [
            {
                "id": 1,
                "op": "estimate",
                "gallery": GALLERY,
                "use_case": [names()[0]],
                "trace": "stdio-a",
            },
            {
                "id": 2,
                "op": "estimate",
                "gallery": GALLERY,
                "use_case": [names()[1]],
                "trace": "stdio-b",
            },
            {"id": 3, "op": "metrics"},
            {"id": 4, "op": "shutdown"},
        ]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        out, err = process.communicate(stdin, timeout=120)
        assert process.returncode == 0, err
        by_id = {
            response["id"]: response
            for response in map(json.loads, out.splitlines())
        }
        assert by_id[1]["result"]["trace"] == "stdio-a"
        assert by_id[2]["result"]["trace"] == "stdio-b"
        exposition = by_id[3]["result"]["exposition"]
        assert validate_exposition(exposition) > 0
        assert "repro_service_estimate_requests_total 2" in exposition
        assert by_id[4]["result"] == {"stopping": True}
