"""Maximum cycle ratio tests: Howard vs Lawler vs brute force,
plus warm-start / incremental-solver parity."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import AnalysisError, DeadlockError
from repro.generation.random_sdf import GeneratorConfig, random_sdf_graph
from repro.sdf.builder import GraphBuilder
from repro.sdf.hsdf import to_hsdf
from repro.sdf.mcm import (
    IncrementalMCRSolver,
    RatioEdge,
    canonical_cycle_ratio,
    max_cycle_ratio,
    max_cycle_ratio_edges,
)


def ring_graph(times, tokens_on_back=1):
    builder = GraphBuilder("ring")
    names = [f"v{i}" for i in range(len(times))]
    for name, tau in zip(names, times):
        builder.actor(name, tau)
    builder.cycle(*names, initial_tokens_on_back_edge=tokens_on_back)
    return builder.build()


class TestOnSDFGraphs:
    def test_paper_graph_period(self, app_a):
        assert max_cycle_ratio(to_hsdf(app_a)).ratio == pytest.approx(300.0)

    def test_simple_ring(self):
        graph = ring_graph([10, 20, 30])
        assert max_cycle_ratio(to_hsdf(graph)).ratio == pytest.approx(60.0)

    def test_two_tokens_halve_the_period_with_auto_concurrency(self):
        graph = ring_graph([10, 20, 30], tokens_on_back=2)
        hsdf = to_hsdf(graph, auto_concurrency=True)
        assert max_cycle_ratio(hsdf).ratio == pytest.approx(30.0)

    def test_without_auto_concurrency_bottleneck_actor_binds(self):
        # Two tokens pipeline the ring, but each actor still serializes:
        # the slowest actor's self-cycle gives ratio 30/1.
        graph = ring_graph([10, 20, 30], tokens_on_back=2)
        hsdf = to_hsdf(graph)
        assert max_cycle_ratio(hsdf).ratio == pytest.approx(30.0)

    def test_all_methods_agree(self, app_a, app_b):
        for graph in (app_a, app_b):
            hsdf = to_hsdf(graph)
            howard = max_cycle_ratio(hsdf, method="howard").ratio
            lawler = max_cycle_ratio(hsdf, method="lawler").ratio
            brute = max_cycle_ratio(hsdf, method="brute").ratio
            assert howard == pytest.approx(brute, rel=1e-9)
            assert lawler == pytest.approx(brute, rel=1e-6)

    def test_zero_token_cycle_raises_deadlock(self):
        graph = ring_graph([10, 20], tokens_on_back=0)
        # Channels with no tokens anywhere on the cycle: remove... the
        # ring helper puts tokens on the back edge; 0 = deadlock.
        with pytest.raises(DeadlockError):
            max_cycle_ratio(to_hsdf(graph))

    def test_critical_cycle_is_reported(self, app_a):
        result = max_cycle_ratio(to_hsdf(app_a))
        assert len(result.cycle) >= 1


class TestOnRawEdges:
    def test_single_self_loop(self):
        result = max_cycle_ratio_edges(
            1, [RatioEdge(0, 0, weight=10.0, transit=2)]
        )
        assert result.ratio == pytest.approx(5.0)

    def test_picks_heavier_cycle(self):
        edges = [
            RatioEdge(0, 1, 10.0, 1),
            RatioEdge(1, 0, 10.0, 1),  # cycle ratio 10
            RatioEdge(0, 0, 50.0, 1),  # cycle ratio 50
        ]
        result = max_cycle_ratio_edges(2, edges)
        assert result.ratio == pytest.approx(50.0)
        assert tuple(result.cycle) == (0,)

    def test_transit_in_denominator(self):
        edges = [
            RatioEdge(0, 1, 30.0, 2),
            RatioEdge(1, 0, 30.0, 1),
        ]
        # (30 + 30) / (2 + 1) = 20.
        assert max_cycle_ratio_edges(2, edges).ratio == pytest.approx(20.0)

    def test_acyclic_graph_raises(self):
        edges = [RatioEdge(0, 1, 5.0, 1)]
        with pytest.raises(AnalysisError):
            max_cycle_ratio_edges(2, edges)

    def test_zero_transit_cycle_raises(self):
        edges = [
            RatioEdge(0, 1, 5.0, 0),
            RatioEdge(1, 0, 5.0, 0),
        ]
        with pytest.raises(DeadlockError):
            max_cycle_ratio_edges(2, edges)

    def test_multiple_sccs_max_taken(self):
        edges = [
            RatioEdge(0, 0, 10.0, 1),
            RatioEdge(1, 1, 99.0, 1),
            RatioEdge(0, 1, 1.0, 0),  # cross edge, not on a cycle
        ]
        assert max_cycle_ratio_edges(2, edges).ratio == pytest.approx(99.0)

    def test_parallel_edges_min_transit_binds(self):
        edges = [
            RatioEdge(0, 1, 10.0, 1),
            RatioEdge(0, 1, 10.0, 3),
            RatioEdge(1, 0, 10.0, 1),
        ]
        # The 1-transit parallel edge dominates: (10+10)/(1+1) = 10.
        for method in ("howard", "lawler", "brute"):
            assert max_cycle_ratio_edges(
                2, edges, method=method
            ).ratio == pytest.approx(10.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            max_cycle_ratio_edges(
                1, [RatioEdge(0, 0, 1.0, 1)], method="magic"
            )

    def test_methods_agree_on_dense_graph(self):
        import random

        rng = random.Random(7)
        n = 6
        edges = [
            RatioEdge(i, (i + 1) % n, float(rng.randint(1, 50)), 1)
            for i in range(n)
        ]
        for _ in range(8):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append(
                RatioEdge(
                    u, v, float(rng.randint(1, 50)), rng.randint(1, 3)
                )
            )
        howard = max_cycle_ratio_edges(n, edges, method="howard").ratio
        lawler = max_cycle_ratio_edges(n, edges, method="lawler").ratio
        brute = max_cycle_ratio_edges(n, edges, method="brute").ratio
        assert howard == pytest.approx(brute, rel=1e-9)
        assert lawler == pytest.approx(brute, rel=1e-6)


def _random_hsdf_problem(rng, n):
    """A random strongly-cyclic RatioEdge problem (ring + chords)."""
    edges = [
        RatioEdge(
            i,
            (i + 1) % n,
            float(rng.randint(1, 60)),
            1 if (i + 1) % n == 0 else rng.randint(0, 1),
        )
        for i in range(n)
    ]
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append(
            RatioEdge(
                u, v, float(rng.randint(1, 60)), rng.randint(1, 3)
            )
        )
    return edges


class TestWarmStart:
    """Warm-started Howard must match cold Howard, Lawler and brute."""

    def test_result_carries_policy_for_howard_only(self):
        edges = [RatioEdge(0, 1, 10.0, 1), RatioEdge(1, 0, 20.0, 1)]
        howard = max_cycle_ratio_edges(2, edges, method="howard")
        assert howard.policy is not None
        assert len(howard.policy) == 2
        assert all(index >= 0 for index in howard.policy)
        for method in ("lawler", "brute"):
            assert max_cycle_ratio_edges(2, edges, method=method).policy is None

    def test_policy_entries_are_valid_out_edges(self):
        rng = random.Random(11)
        edges = _random_hsdf_problem(rng, 7)
        result = max_cycle_ratio_edges(7, edges, method="howard")
        for vertex, edge_id in enumerate(result.policy):
            if edge_id >= 0:
                assert edges[edge_id].source == vertex

    def test_warm_start_is_identical_on_same_weights(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 7)
            edges = _random_hsdf_problem(rng, n)
            cold = max_cycle_ratio_edges(n, edges, method="howard")
            warm = max_cycle_ratio_edges(
                n, edges, method="howard", initial_policy=cold.policy
            )
            assert warm.ratio == cold.ratio

    def test_warm_start_matches_all_methods_after_weight_drift(self):
        """Property: reusing the previous policy under perturbed weights
        converges to the same maximum as cold Howard, Lawler and brute."""
        rng = random.Random(5)
        for trial in range(25):
            n = rng.randint(2, 6)
            edges = _random_hsdf_problem(rng, n)
            previous = max_cycle_ratio_edges(n, edges, method="howard")
            drifted = [
                RatioEdge(
                    e.source,
                    e.target,
                    e.weight * rng.uniform(0.3, 3.0),
                    e.transit,
                )
                for e in edges
            ]
            warm = max_cycle_ratio_edges(
                n,
                drifted,
                method="howard",
                initial_policy=previous.policy,
            )
            cold = max_cycle_ratio_edges(n, drifted, method="howard")
            lawler = max_cycle_ratio_edges(n, drifted, method="lawler")
            brute = max_cycle_ratio_edges(n, drifted, method="brute")
            assert warm.ratio == pytest.approx(cold.ratio, rel=1e-9), trial
            assert warm.ratio == pytest.approx(brute.ratio, rel=1e-9), trial
            assert warm.ratio == pytest.approx(lawler.ratio, rel=1e-6), trial

    def test_warm_start_on_randomized_sdf_expansions(self):
        """Warm policy from the base expansion, re-solved with inflated
        execution times, agrees with cold Howard and brute on real HSDF
        expansions of randomized SDF graphs."""
        config = GeneratorConfig(
            actor_count_range=(3, 5), repetition_range=(1, 2)
        )
        for seed in range(12):
            graph = random_sdf_graph(f"G{seed}", seed=seed, config=config)
            hsdf = to_hsdf(graph)
            base = max_cycle_ratio(hsdf)
            rng = random.Random(1000 + seed)
            inflated = graph.with_execution_times(
                {
                    actor.name: actor.execution_time
                    * rng.uniform(1.0, 2.5)
                    for actor in graph.actors
                }
            )
            inflated_hsdf = to_hsdf(inflated)
            warm = max_cycle_ratio(
                inflated_hsdf, initial_policy=base.policy
            )
            cold = max_cycle_ratio(inflated_hsdf)
            brute = max_cycle_ratio(inflated_hsdf, method="brute")
            assert warm.ratio == pytest.approx(cold.ratio, rel=1e-9)
            assert warm.ratio == pytest.approx(brute.ratio, rel=1e-9)


class TestIncrementalSolver:
    def test_solver_matches_cold_over_weight_sequences(self):
        """Property: a solver reused across randomized weight updates
        (warm-starting itself) stays identical to cold solves."""
        rng = random.Random(97)
        for trial in range(10):
            n = rng.randint(2, 6)
            edges = _random_hsdf_problem(rng, n)
            solver = IncrementalMCRSolver(n, edges, method="howard")
            for _ in range(8):
                weights = [
                    e.weight * rng.uniform(0.2, 4.0) for e in edges
                ]
                reweighted = [
                    RatioEdge(e.source, e.target, w, e.transit)
                    for e, w in zip(edges, weights)
                ]
                incremental = solver.solve(weights)
                cold = max_cycle_ratio_edges(n, reweighted)
                brute = max_cycle_ratio_edges(
                    n, reweighted, method="brute"
                )
                assert incremental.ratio == pytest.approx(
                    cold.ratio, rel=1e-9
                ), trial
                assert incremental.ratio == pytest.approx(
                    brute.ratio, rel=1e-9
                ), trial

    def test_solver_keeps_last_policy(self):
        edges = [RatioEdge(0, 1, 10.0, 1), RatioEdge(1, 0, 20.0, 1)]
        solver = IncrementalMCRSolver(2, edges)
        assert solver.policy is None
        solver.solve()
        assert solver.policy is not None
        assert solver.solve_count == 1

    def test_solver_rejects_bad_weight_count(self):
        solver = IncrementalMCRSolver(1, [RatioEdge(0, 0, 5.0, 1)])
        with pytest.raises(AnalysisError):
            solver.solve([1.0, 2.0])

    def test_solver_rejects_unknown_method(self):
        with pytest.raises(AnalysisError):
            IncrementalMCRSolver(
                1, [RatioEdge(0, 0, 5.0, 1)], method="magic"
            )

    def test_solver_detects_deadlock_at_construction(self):
        edges = [RatioEdge(0, 1, 5.0, 0), RatioEdge(1, 0, 5.0, 0)]
        with pytest.raises(DeadlockError):
            IncrementalMCRSolver(2, edges)

    def test_solver_raises_on_acyclic_graph(self):
        solver = IncrementalMCRSolver(2, [RatioEdge(0, 1, 5.0, 1)])
        with pytest.raises(AnalysisError):
            solver.solve()


# ----------------------------------------------------------------------
# Batched certification against the row-major reference kernel
# ----------------------------------------------------------------------
def _row_major_certify(solver, weights, candidates, xp):
    """Reference: the row-major Bellman-Ford certification kernel.

    A verbatim copy of the kernel ``IncrementalMCRSolver`` shipped
    before its state was held vertex-major (``(rows, edges + 1)``
    buffers, one strided gather per sweep), structure set-up included.
    The shipped kernel must return the identical mask.
    """
    inner = []
    for _, inner_ids in solver._components:
        inner.extend(inner_ids)
    vertices = sorted(
        {solver.edges[g].source for g in inner}
        | {solver.edges[g].target for g in inner}
    )
    local = {v: i for i, v in enumerate(vertices)}
    incoming = [[] for _ in vertices]
    for position, gid in enumerate(inner):
        incoming[local[solver.edges[gid].target]].append(position)
    sentinel = len(inner)
    width = max(len(rows) for rows in incoming)
    gather = xp.full((len(vertices), width), sentinel, dtype=int)
    for row, positions in enumerate(incoming):
        for slot, position in enumerate(positions):
            gather[row, slot] = position
    gids = xp.asarray(inner, dtype=int)
    sources = xp.asarray(
        [local[solver.edges[g].source] for g in inner], dtype=int
    )
    transits = xp.asarray(
        [solver.edges[g].transit for g in inner], dtype=float
    )
    count = len(vertices)

    reduced = weights[:, gids] - candidates[:, None] * transits
    rows = reduced.shape[0]
    edge_count = reduced.shape[1]
    distance = xp.zeros((rows, count))
    padded = xp.full((rows, edge_count + 1), -xp.inf)
    maximum = xp.maximum
    amax = xp.max
    for _ in range(count):
        padded[:, :edge_count] = distance[:, sources] + reduced
        distance = maximum(distance, amax(padded[:, gather], axis=2))
    tolerance = 1e-12 * maximum(1.0, amax(xp.abs(reduced), axis=1))
    padded[:, :edge_count] = distance[:, sources] + reduced
    relaxed = maximum(distance, amax(padded[:, gather], axis=2))
    return ~xp.any(relaxed > distance + tolerance[:, None], axis=1)


@st.composite
def _certification_problems(draw):
    """A RatioEdge graph of several SCCs (self-loops, parallel edges,
    chords, forward cross edges, an acyclic vertex) and its batch.

    Ring edges inside an SCC carry delay 0 except the closing one and
    every other edge inside an SCC carries delay >= 1, so no zero-delay
    cycle exists; cross edges only run from earlier SCCs to later ones,
    so the SCCs stay apart.
    """
    edges = []
    groups = []
    for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        start = sum(len(g) for g in groups)
        members = list(range(start, start + size))
        groups.append(members)
        if size == 1:
            edges.append(
                RatioEdge(members[0], members[0], 1.0, draw(st.integers(1, 2)))
            )
        for i in range(size if size > 1 else 0):
            closing = i == size - 1
            edges.append(
                RatioEdge(
                    members[i],
                    members[(i + 1) % size],
                    1.0,
                    1 if closing else draw(st.integers(0, 1)),
                )
            )
        for _ in range(draw(st.integers(0, size))):
            edges.append(
                RatioEdge(
                    draw(st.sampled_from(members)),
                    draw(st.sampled_from(members)),
                    1.0,
                    draw(st.integers(1, 3)),
                )
            )
    vertex_count = sum(len(g) for g in groups)
    for _ in range(draw(st.integers(0, 3))):
        # Parallel edge: same endpoints as an existing one, delay >= 1.
        twin = draw(st.sampled_from(edges))
        if any(twin.source in g and twin.target in g for g in groups):
            edges.append(
                RatioEdge(twin.source, twin.target, 1.0, twin.transit + 1)
            )
    for _ in range(draw(st.integers(0, 3)) if len(groups) > 1 else 0):
        low = draw(st.integers(0, len(groups) - 2))
        high = draw(st.integers(low + 1, len(groups) - 1))
        edges.append(
            RatioEdge(
                draw(st.sampled_from(groups[low])),
                draw(st.sampled_from(groups[high])),
                1.0,
                draw(st.integers(0, 2)),
            )
        )
    if draw(st.booleans()):
        # A vertex on no cycle, feeding the first SCC.
        edges.append(RatioEdge(vertex_count, 0, 1.0, 0))
        vertex_count += 1
    batch = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    integral = draw(st.booleans())
    return vertex_count, edges, batch, seed, integral


class TestVertexMajorCertification:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(problem=_certification_problems())
    def test_mask_matches_row_major_reference(self, problem):
        np = pytest.importorskip("numpy")
        vertex_count, edges, batch, seed, integral = problem
        rng = np.random.default_rng(seed)
        weights = rng.uniform(1.0, 100.0, (batch, len(edges)))
        if integral:
            # Integer weights tie cycles exactly.
            weights = np.round(weights)
        solver = IncrementalMCRSolver(vertex_count, edges)
        exact = np.array([solver.solve(list(row)).ratio for row in weights])
        # At the true MCR, one ulp either side, 0.1% either side, and
        # 1e-13..1e-11 below it, where the 1e-12 tolerance decides.
        kinds = rng.integers(0, 8, batch)
        candidates = np.select(
            [kinds == k for k in range(7)],
            [
                exact,
                np.nextafter(exact, np.inf),
                np.nextafter(exact, -np.inf),
                exact * (1 + 1e-3),
                exact * (1 - 1e-3),
                exact * (1 - 1e-13),
                exact * (1 - 1e-12),
            ],
            exact * (1 - 1e-11),
        )
        mask = solver._certify_batch(weights, candidates, np)
        reference = _row_major_certify(solver, weights, candidates, np)
        assert mask.dtype == bool and mask.shape == (batch,)
        assert mask.tolist() == reference.tolist()
        # Soundness both ways: comfortably above the optimum certifies,
        # comfortably below never does.
        assert mask[kinds == 3].all()
        assert not mask[kinds == 4].any()


class TestBatchInvariance:
    """A batched answer is the fresh scalar answer, bit for bit."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(problem=_certification_problems(), warm=st.booleans())
    def test_solve_many_rows_equal_a_fresh_solve(self, problem, warm):
        np = pytest.importorskip("numpy")
        vertex_count, edges, batch, seed, integral = problem
        rng = np.random.default_rng(seed)
        weights = rng.uniform(1.0, 100.0, (2 * batch, len(edges)))
        if integral:
            # Integer weights tie cycles exactly.
            weights = np.round(weights)
        history, weights = weights[:batch], weights[batch:]
        fresh = [
            IncrementalMCRSolver(vertex_count, edges).solve(list(row)).ratio
            for row in weights
        ]
        solver = IncrementalMCRSolver(vertex_count, edges)
        if warm:
            # Earlier batches leave remembered cycles and a policy.
            solver.solve_many(history, np)
        assert solver.solve_many(weights, np) == fresh
        reversed_order = IncrementalMCRSolver(vertex_count, edges)
        assert reversed_order.solve_many(weights[::-1], np) == fresh[::-1]

    def test_solve_is_independent_of_the_warm_start(self):
        # Ring 0 -> 1 -> 2 -> 0 is critical; vertex 3 feeds it through
        # 3 -> 0 or 3 -> 1, which tie exactly, so the converged policy
        # keeps whichever the start picked and policy evaluation enters
        # the ring at vertex 0 or 1.  Summed from 0 the ring weighs
        # 0.6000000000000001, from 1 it weighs 0.6; the answer must be
        # the canonical (sorted edge id) sum either way.
        edges = [
            RatioEdge(0, 1, 0.1, 0),
            RatioEdge(1, 2, 0.2, 0),
            RatioEdge(2, 0, 0.3, 1),
            RatioEdge(2, 3, 0.3, 1),
            RatioEdge(3, 0, 0.1, 1),
            RatioEdge(3, 1, 0.2, 1),
        ]
        canonical = canonical_cycle_ratio([e.weight for e in edges], (0, 1, 2), 1)
        assert canonical == (0.1 + 0.2) + 0.3
        for start in (None, (0, 1, 2, 4), (0, 1, 2, 5)):
            result = IncrementalMCRSolver(4, edges).solve(initial_policy=start)
            assert result.ratio == canonical
