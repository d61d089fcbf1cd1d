"""Unit tests for actors, channels and the SDF graph container."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.sdf.actor import Actor
from repro.sdf.builder import GraphBuilder
from repro.sdf.channel import Channel
from repro.sdf.graph import SDFGraph


class TestActor:
    def test_attributes(self):
        actor = Actor("a0", 100)
        assert actor.name == "a0"
        assert actor.execution_time == 100
        assert actor.processor_type == "proc"

    def test_rejects_zero_execution_time(self):
        with pytest.raises(GraphError):
            Actor("a0", 0)

    def test_rejects_negative_execution_time(self):
        with pytest.raises(GraphError):
            Actor("a0", -5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_execution_time(self, bad):
        with pytest.raises(GraphError, match="must be finite"):
            Actor("a0", bad)

    def test_rejects_negative_infinity_as_non_positive(self):
        with pytest.raises(GraphError, match="must be positive"):
            Actor("a0", float("-inf"))

    def test_rejects_empty_name(self):
        with pytest.raises(GraphError):
            Actor("", 10)

    def test_with_execution_time_returns_new_actor(self):
        actor = Actor("a0", 100, processor_type="dsp")
        inflated = actor.with_execution_time(117)
        assert inflated.execution_time == 117
        assert inflated.name == "a0"
        assert inflated.processor_type == "dsp"
        assert actor.execution_time == 100

    def test_frozen(self):
        actor = Actor("a0", 100)
        with pytest.raises(AttributeError):
            actor.execution_time = 50  # type: ignore[misc]


class TestChannel:
    def test_defaults(self):
        channel = Channel("a", "b")
        assert channel.production_rate == 1
        assert channel.consumption_rate == 1
        assert channel.initial_tokens == 0
        assert channel.name == "a->b"

    def test_custom_name_preserved(self):
        channel = Channel("a", "b", name="data")
        assert channel.name == "data"

    def test_rejects_zero_production(self):
        with pytest.raises(GraphError):
            Channel("a", "b", production_rate=0)

    def test_rejects_zero_consumption(self):
        with pytest.raises(GraphError):
            Channel("a", "b", consumption_rate=0)

    def test_rejects_negative_tokens(self):
        with pytest.raises(GraphError):
            Channel("a", "b", initial_tokens=-1)

    def test_self_loop_detection(self):
        assert Channel("a", "a").is_self_loop
        assert not Channel("a", "b").is_self_loop


class TestSDFGraph:
    def _graph(self) -> SDFGraph:
        return SDFGraph(
            "G",
            [Actor("a", 10), Actor("b", 20), Actor("c", 30)],
            [
                Channel("a", "b"),
                Channel("b", "c"),
                Channel("c", "a", initial_tokens=1),
            ],
        )

    def test_actor_lookup(self):
        graph = self._graph()
        assert graph.actor("b").execution_time == 20
        assert graph.has_actor("a")
        assert not graph.has_actor("z")

    def test_unknown_actor_raises(self):
        with pytest.raises(GraphError):
            self._graph().actor("nope")

    def test_duplicate_actor_rejected(self):
        with pytest.raises(GraphError):
            SDFGraph("G", [Actor("a", 1), Actor("a", 2)], [])

    def test_dangling_channel_rejected(self):
        with pytest.raises(GraphError):
            SDFGraph("G", [Actor("a", 1)], [Channel("a", "ghost")])

    def test_edges(self):
        graph = self._graph()
        assert [c.target for c in graph.out_edges("a")] == ["b"]
        assert [c.source for c in graph.in_edges("a")] == ["c"]

    def test_successors_predecessors(self):
        graph = self._graph()
        assert graph.successors("a") == ("b",)
        assert graph.predecessors("a") == ("c",)

    def test_len_iter_contains(self):
        graph = self._graph()
        assert len(graph) == 3
        assert {a.name for a in graph} == {"a", "b", "c"}
        assert "a" in graph
        assert "z" not in graph

    def test_strongly_connected_ring(self):
        assert self._graph().is_strongly_connected()

    def test_not_strongly_connected_without_back_edge(self):
        graph = SDFGraph(
            "G",
            [Actor("a", 1), Actor("b", 1)],
            [Channel("a", "b")],
        )
        assert not graph.is_strongly_connected()

    def test_with_execution_times_copies(self):
        graph = self._graph()
        inflated = graph.with_execution_times({"a": 15.5})
        assert inflated.execution_time("a") == 15.5
        assert inflated.execution_time("b") == 20
        assert graph.execution_time("a") == 10

    def test_with_execution_times_preserves_channels(self):
        graph = self._graph()
        inflated = graph.with_execution_times({"a": 99})
        assert len(inflated.channels) == len(graph.channels)
        assert inflated.total_initial_tokens() == 1

    def test_renamed(self):
        renamed = self._graph().renamed("H")
        assert renamed.name == "H"
        assert len(renamed) == 3

    def test_execution_times_mapping(self):
        assert self._graph().execution_times() == {
            "a": 10,
            "b": 20,
            "c": 30,
        }


class TestGraphBuilder:
    def test_build_chain(self):
        graph = (
            GraphBuilder("G")
            .actor("x", 5)
            .actor("y", 6)
            .channel("x", "y", production=3, consumption=2)
            .build()
        )
        assert len(graph) == 2
        assert graph.channels[0].production_rate == 3

    def test_actors_shorthand(self):
        graph = GraphBuilder("G").actors(("x", 5), ("y", 6)).build()
        assert {a.name for a in graph} == {"x", "y"}

    def test_cycle_helper(self):
        graph = (
            GraphBuilder("G")
            .actor("a", 1)
            .actor("b", 2)
            .actor("c", 3)
            .cycle("a", "b", "c", initial_tokens_on_back_edge=2)
            .build()
        )
        back = [c for c in graph.channels if c.source == "c"][0]
        assert back.target == "a"
        assert back.initial_tokens == 2

    def test_cycle_needs_two_actors(self):
        with pytest.raises(GraphError):
            GraphBuilder("G").actor("a", 1).cycle("a")

    def test_single_build(self):
        builder = GraphBuilder("G").actor("a", 1)
        builder.build()
        with pytest.raises(GraphError):
            builder.build()
