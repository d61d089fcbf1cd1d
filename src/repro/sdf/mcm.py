"""Maximum cycle ratio (MCR) analysis.

The period of a consistent, live SDF graph equals the maximum over all
cycles ``C`` of its HSDF expansion of::

    ratio(C) = sum of execution times of vertices on C
             / sum of edge delays on C

(reference [4] of the paper — Dasdan's survey of optimum cycle ratio/mean
algorithms).  A cycle with zero total delay cannot execute — it is a
deadlock — and makes the ratio infinite.

Three algorithms are provided and cross-checked in the test suite:

* ``howard`` — policy iteration, the practical default (fast; linear
  number of iterations in practice, as observed by Dasdan).
* ``lawler`` — binary search on the ratio with a Bellman–Ford positive
  cycle test per probe; simple, robust, slower.
* ``brute`` — enumerate all simple cycles (Johnson's algorithm); only
  viable for small graphs, used as ground truth in tests.

All operate on a generic edge list so they are reusable beyond HSDF
graphs; :func:`max_cycle_ratio` adapts an :class:`~repro.sdf.hsdf.HSDFGraph`
(vertex weights become weights of outgoing edges).

Two features support *incremental* analysis, where the same graph
structure is solved many times with different weights (the probabilistic
estimator inflates execution times to response times once per
application, per fixed-point iteration, per use-case):

* Howard's algorithm accepts an ``initial_policy`` — the converged
  policy of a previous solve (exposed as
  :attr:`CycleRatioResult.policy`).  Policy iteration converges from any
  valid policy, and from a near-optimal one it typically terminates in
  one or two improvement rounds (Dasdan's survey observes the iteration
  count is small in practice and shrinks further with a good start).
  Potentials are re-derived from the policy on the first evaluation, so
  the policy alone carries the whole warm-start state.
* :class:`IncrementalMCRSolver` goes further and caches everything that
  depends only on *structure* — the zero-delay-cycle (deadlock) check,
  the SCC decomposition, and the per-component edge lists — so repeated
  :meth:`~IncrementalMCRSolver.solve` calls with fresh weights pay only
  for the (warm-started) policy iteration itself.

For *batches* of weight vectors over one structure (the vectorized
estimation pipeline solves one application's period for every use-case
of a sweep at once), :meth:`IncrementalMCRSolver.solve_many` goes one
step further than warm starting.  The period is a maximum of cycle
ratios, each linear in the weights, and across a sweep the *optimal*
cycle barely changes; the solver therefore

1. remembers every critical cycle a scalar Howard solve ever produced
   (as its sorted edge ids plus its total transit),
2. evaluates every remembered cycle's canonical ratio (below) for the
   whole weight batch — one element-wise add per edge position — and
   takes each vector's largest as its candidate (a lower bound — every
   candidate is a genuine cycle's ratio), and
3. *certifies* each candidate with a batched max-plus Bellman–Ford pass
   over the cyclic part of the graph: if relaxation under
   ``w - candidate * transit`` admits no positive cycle, no cycle beats
   the candidate and it *is* the maximum cycle ratio.  The pass holds
   its state vertex-major — one C-contiguous row per edge or vertex,
   one column per weight vector — with the edges grouped into
   in-degree layers, so a sweep is one row gather, one add and one
   slice-wise ``maximum`` per layer, whatever the batch size.

Vectors whose certification fails fall back to an ordinary warm-started
scalar solve, which also registers the newly critical cycle — so a
sweep pays a handful of scalar solves while the bulk of the batch is
answered by a few array operations.  Certification uses a relative
tolerance of ~1e-12, well inside the 1e-9 parity contract of the
vectorized pipeline (Howard's own convergence epsilon is 1e-10).

Every Howard answer, scalar or batched, is the *canonical ratio* of its
critical cycle (:func:`canonical_cycle_ratio`): the cycle's weights
added left to right in ascending edge-id order, divided by its transit.
Policy evaluation sums a cycle from wherever the policy enters it, and
a reduction such as a matrix product may order its sums by the batch
shape; the canonical order keeps both out of the answer, and the
batched path adds candidates element-wise in that same order.  A
weight vector's ratio therefore carries the same bits whether it is
solved alone, in any batch, or after any history of solves — unless
two cycles' ratios lie within the tolerances above, where which of the
two is reported may still depend on the remembered cycles and the warm
start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import AnalysisError, DeadlockError
from repro.sdf.hsdf import HSDFGraph


@dataclass(frozen=True)
class RatioEdge:
    """Generic MCR problem edge: weight gained, transit (delay) spent."""

    source: int
    target: int
    weight: float
    transit: int


@dataclass(frozen=True)
class CycleRatioResult:
    """Maximum cycle ratio plus one cycle that attains it.

    ``cycle`` lists vertex ids in order (first vertex repeated at the end
    is omitted).  ``ratio`` is ``-inf`` for an acyclic graph.

    ``policy`` (Howard only, ``None`` otherwise) records the converged
    policy: entry ``v`` is the index into the solved edge sequence of the
    outgoing edge vertex ``v`` selected, or ``-1`` for vertices outside
    every cyclic component.  Feed it back as ``initial_policy`` to
    warm-start the next solve of the same structure.
    """

    ratio: float
    cycle: Tuple[int, ...]
    policy: Optional[Tuple[int, ...]] = None


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def max_cycle_ratio(
    hsdf: HSDFGraph,
    method: str = "howard",
    initial_policy: Optional[Sequence[int]] = None,
) -> CycleRatioResult:
    """Maximum cycle ratio of an HSDF graph (its iteration period).

    ``initial_policy`` (Howard only) warm-starts policy iteration from a
    previously converged :attr:`CycleRatioResult.policy` — useful when
    the same expansion is re-solved with updated execution times.

    Raises
    ------
    DeadlockError
        If the graph contains a zero-delay cycle.
    AnalysisError
        If the graph has no cycle at all (period undefined: a DAG
        executes in finite time and has no steady-state period).
    """
    vertex_count, edges = hsdf_ratio_edges(hsdf)
    return max_cycle_ratio_edges(
        vertex_count, edges, method=method, initial_policy=initial_policy
    )


def hsdf_ratio_edges(hsdf: HSDFGraph) -> Tuple[int, List[RatioEdge]]:
    """Adapt an HSDF graph to the generic ratio problem.

    Vertex execution times become the weights of the vertex's *outgoing*
    edges; HSDF delays become transits.  Edge order follows
    ``hsdf.edges``, which is the weight/policy index space of
    :class:`IncrementalMCRSolver` built on the result — the single
    adapter shared by :func:`max_cycle_ratio` and the analysis engine.
    """
    index = hsdf.vertex_index()
    weights = {index[v.key]: v.execution_time for v in hsdf.vertices}
    edges = [
        RatioEdge(
            source=index[e.source],
            target=index[e.target],
            weight=weights[index[e.source]],
            transit=e.delay,
        )
        for e in hsdf.edges
    ]
    return len(hsdf.vertices), edges


def max_cycle_ratio_edges(
    vertex_count: int,
    edges: Sequence[RatioEdge],
    method: str = "howard",
    initial_policy: Optional[Sequence[int]] = None,
) -> CycleRatioResult:
    """Maximum cycle ratio of a generic edge-weighted graph.

    ``initial_policy`` warm-starts Howard's algorithm (ignored by the
    other methods): entry ``v`` names the edge index vertex ``v`` should
    initially select, as produced by a previous solve's
    :attr:`CycleRatioResult.policy`.
    """
    solver = IncrementalMCRSolver(vertex_count, edges, method=method)
    return solver.solve(initial_policy=initial_policy)


def canonical_cycle_ratio(
    weights: Sequence[float], key: Sequence[int], transit: int
) -> float:
    """Ratio of one cycle, summed in its canonical order.

    ``key`` lists the cycle's edge ids in ascending order and ``transit``
    is its total delay.  The weights are added left to right in that
    order, so the bits of the result depend only on the cycle and the
    weights — not on the vertex a traversal entered the cycle at, nor on
    a batch's shape.  Every MCR answer of :class:`IncrementalMCRSolver`
    (Howard) is this value for its critical cycle; ``solve_many``
    computes the same fold element-wise, which matches it bit for bit.
    """
    # Not ``sum()``: from Python 3.12 on it compensates float rounding
    # (Neumaier), which the element-wise fold of ``solve_many`` cannot
    # reproduce.
    total = 0.0
    for gid in key:
        total += weights[gid]
    return total / transit


class IncrementalMCRSolver:
    """Re-solvable MCR problem over one fixed graph structure.

    The constructor performs every computation that depends only on the
    *structure* — transit values, adjacency, SCC decomposition, and the
    zero-delay-cycle (deadlock) check.  :meth:`solve` then accepts fresh
    per-edge weights and, for Howard's method, warm-starts policy
    iteration from the previously converged policy, so a sequence of
    solves over the same graph with drifting weights costs a fraction of
    repeated cold solves.

    Parameters
    ----------
    vertex_count / edges:
        The MCR problem; the edge *order* is the weight order of
        :meth:`solve` and the index space of policies.
    method:
        ``"howard"`` (warm-startable), ``"lawler"`` or ``"brute"``.
    """

    def __init__(
        self,
        vertex_count: int,
        edges: Sequence[RatioEdge],
        method: str = "howard",
    ) -> None:
        self.vertex_count = vertex_count
        self.edges: Tuple[RatioEdge, ...] = tuple(edges)
        _assert_no_zero_delay_cycle(vertex_count, self.edges)
        if method not in ("howard", "lawler", "brute"):
            raise AnalysisError(f"unknown MCR method {method!r}")
        self.method = method
        self._base_weights: List[float] = [e.weight for e in self.edges]
        # Components and their member edge ids never change; compute once.
        self._components: List[Tuple[List[int], List[int]]] = []
        for component in _strongly_connected_components(
            vertex_count, self.edges
        ):
            component_set = set(component)
            inner_ids = [
                i
                for i, e in enumerate(self.edges)
                if e.source in component_set and e.target in component_set
            ]
            if inner_ids:
                self._components.append((component, inner_ids))
        # Howard additionally pre-factors each component into local
        # adjacency arrays so a solve touches no edge objects at all:
        # every out-entry is (edge id, local target, transit), with the
        # weight looked up by edge id in the solve's weight vector.
        self._howard_components: List[
            Tuple[List[int], List[List[Tuple[int, int, int]]]]
        ] = []
        if method == "howard":
            for component, inner_ids in self._components:
                nodes = list(component)
                local = {node: i for i, node in enumerate(nodes)}
                out: List[List[Tuple[int, int, int]]] = [
                    [] for _ in nodes
                ]
                for gid in inner_ids:
                    edge = self.edges[gid]
                    out[local[edge.source]].append(
                        (gid, local[edge.target], edge.transit)
                    )
                # Strong connectivity with >1 node guarantees out-degree
                # >= 1; a single node appears here only with a self-loop
                # (inner_ids is non-empty), so every row is populated.
                self._howard_components.append((nodes, out))
        self._policy: Optional[Tuple[int, ...]] = None
        self.solve_count = 0
        # Batched-solve state: critical cycles seen so far (sorted edge
        # ids -> transit), the padded index array derived from them, and
        # the Bellman-Ford arrays over the cyclic subgraph.
        # All lazy — a solver that never sees solve_many pays nothing.
        self._cycles: Dict[Tuple[int, ...], int] = {}
        self._cycle_index_cache: Optional[Tuple[object, object]] = None
        self._bf_cache: Optional[Tuple[object, ...]] = None
        self.batch_accepted = 0
        self.batch_fallbacks = 0

    @property
    def policy(self) -> Optional[Tuple[int, ...]]:
        """Converged policy of the last Howard solve (``None`` before)."""
        return self._policy

    def solve(
        self,
        weights: Optional[Sequence[float]] = None,
        initial_policy: Optional[Sequence[int]] = None,
    ) -> CycleRatioResult:
        """Solve with fresh ``weights`` (one per edge, constructor order).

        ``weights=None`` keeps the constructor's weights.  Howard starts
        from ``initial_policy`` when given, else from the policy of the
        previous solve, else from the classic highest-weight policy.
        """
        if weights is None:
            weight_vector: Sequence[float] = self._base_weights
        elif len(weights) != len(self.edges):
            raise AnalysisError(
                f"expected {len(self.edges)} weights, got {len(weights)}"
            )
        else:
            weight_vector = weights
        start = initial_policy if initial_policy is not None else self._policy

        best: Optional[CycleRatioResult] = None
        best_cycle: Optional[Tuple[Tuple[int, ...], int]] = None
        merged_policy = [-1] * self.vertex_count
        have_policy = False
        if self.method == "howard":
            for nodes, out in self._howard_components:
                result, fragment, cycle_edges = _solve_howard(
                    nodes, out, weight_vector, start
                )
                have_policy = True
                for vertex, edge_id in fragment.items():
                    merged_policy[vertex] = edge_id
                # Re-derive the ratio in the canonical order, so the
                # answer does not depend on where policy iteration
                # entered the cycle (i.e. on the warm-start history).
                key = tuple(sorted(cycle_edges))
                transit = sum(self.edges[gid].transit for gid in key)
                ratio = canonical_cycle_ratio(weight_vector, key, transit)
                if best is None or ratio > best.ratio:
                    best = CycleRatioResult(ratio=ratio, cycle=result.cycle)
                    best_cycle = (key, transit)
        else:
            solver = (
                _solve_lawler if self.method == "lawler" else _solve_brute
            )
            for component, inner_ids in self._components:
                if weights is None:
                    inner = [self.edges[i] for i in inner_ids]
                else:
                    inner = [
                        RatioEdge(
                            self.edges[i].source,
                            self.edges[i].target,
                            weight_vector[i],
                            self.edges[i].transit,
                        )
                        for i in inner_ids
                    ]
                result = solver(component, inner)
                if result is not None and (
                    best is None or result.ratio > best.ratio
                ):
                    best = result
        if best is None:
            raise AnalysisError(
                "graph has no cycle: the maximum cycle ratio (and hence "
                "the period) is undefined"
            )
        self.solve_count += 1
        if have_policy:
            self._policy = tuple(merged_policy)
            best = CycleRatioResult(
                ratio=best.ratio, cycle=best.cycle, policy=self._policy
            )
            if best_cycle is not None:
                self._register_cycle(*best_cycle)
        return best

    # ------------------------------------------------------------------
    # Batched solving (candidate cycles + Bellman-Ford certification)
    # ------------------------------------------------------------------
    def _register_cycle(self, key: Tuple[int, ...], transit: int) -> None:
        """Remember a critical cycle (sorted edge ids + total transit)."""
        if key not in self._cycles:
            self._cycles[key] = transit
            self._cycle_index_cache = None

    def _cycle_index(self, xp) -> Tuple[object, object]:
        """``(K, L)`` sorted edge ids + ``(K,)`` transits of the
        remembered cycles.

        Rows shorter than the longest cycle are padded with the edge
        count ``E``, the index of the zero row :meth:`solve_many`
        appends to its weight columns: adding ``0.0`` at the end of a
        fold is exact, so padding leaves every canonical sum unchanged.
        """
        if self._cycle_index_cache is None:
            width = max(len(key) for key in self._cycles)
            pad = len(self.edges)
            self._cycle_index_cache = (
                xp.asarray(
                    [
                        list(key) + [pad] * (width - len(key))
                        for key in self._cycles
                    ],
                    dtype=int,
                ),
                xp.asarray(
                    [float(transit) for transit in self._cycles.values()]
                ),
            )
        return self._cycle_index_cache

    def _bf_structure(self, xp) -> Tuple[object, ...]:
        """Arrays describing the cyclic subgraph for batched relaxation.

        Returns ``(gids, sources, layers, transits, vertex_count)`` with
        the cyclic vertices numbered by in-degree, highest first, and
        the inner edges grouped into *layers*: layer ``k`` holds the
        ``k``-th incoming edge of every vertex with more than ``k`` of
        them, in vertex order.  Each ``(start, size)`` in ``layers``
        therefore pairs the edge block ``[start, start + size)`` with
        the vertex prefix ``[0, size)``, so one relaxation folds a layer
        into the distances with a single slice-wise ``maximum``.  Every
        vertex of a cyclic component has an incoming inner edge, so
        layer 0 spans all of them.
        """
        if self._bf_cache is None:
            incoming: Dict[int, List[int]] = {}
            for _, inner_ids in self._components:
                for gid in inner_ids:
                    incoming.setdefault(self.edges[gid].target, []).append(
                        gid
                    )
            order = sorted(incoming, key=lambda v: (-len(incoming[v]), v))
            local = {v: i for i, v in enumerate(order)}
            gids: List[int] = []
            layers: List[Tuple[int, int]] = []
            while True:
                k = len(layers)
                layer = [incoming[v][k] for v in order if len(incoming[v]) > k]
                if not layer:
                    break
                layers.append((len(gids), len(layer)))
                gids.extend(layer)
            self._bf_cache = (
                xp.asarray(gids, dtype=int),
                xp.asarray(
                    [local[self.edges[g].source] for g in gids], dtype=int
                ),
                tuple(layers),
                xp.asarray(
                    [self.edges[g].transit for g in gids], dtype=float
                ),
                len(order),
            )
        return self._bf_cache

    def _certify_batch(self, weights, candidates, xp):
        """Which candidate ratios are certified maximal (boolean array).

        Max-plus Bellman-Ford over the cyclic subgraph with per-edge
        weight ``w - candidate * transit``: if a relaxation sweep after
        ``V`` warm-up sweeps no longer improves any distance (beyond a
        ~1e-12 relative tolerance), no cycle has a ratio above the
        candidate, so the candidate — itself a genuine cycle's ratio —
        is the maximum.  Soundness of the single final check: the
        max-plus relaxation operator is monotone and commutes with
        uniform shifts, so once one sweep gains at most ``tol``
        everywhere, every later sweep does too — a cycle whose ratio
        meaningfully exceeds the candidate cannot stall.  Rows that
        still improve are left uncertified and re-solved exactly by the
        caller.

        The state is vertex-major: reduced weights and relaxed edge
        values are C-contiguous ``(edges, rows)`` arrays and distances
        ``(vertices, rows)``, so the source gather copies whole rows and
        each in-degree layer (see :meth:`_bf_structure`) folds into a
        contiguous prefix of the distances.  Every sweep is Jacobi: all
        edge values come from the previous sweep's distances.  ``max``
        is exact, so the mask does not depend on the layout.
        """
        gids, sources, layers, transits, count = self._bf_structure(xp)
        reduced = weights.T[gids] - transits[:, None] * candidates
        distance = xp.zeros((count, reduced.shape[1]))
        offers = xp.empty_like(reduced)
        add = xp.add
        maximum = xp.maximum

        def relax(folds) -> None:
            add(distance[sources], reduced, out=offers)
            for best, offer in folds:
                maximum(best, offer, out=best)

        def folds_into(target):
            return [
                (target[:size], offers[start:start + size])
                for start, size in layers
            ]

        # Distances legitimately grow for up to ``V`` sweeps (longest
        # simple path), so a per-sweep stall check rarely fires and its
        # reduction + bool sync would dominate these small arrays; run
        # the warm-up sweeps unconditionally and test improvement once.
        in_place = folds_into(distance)
        for _ in range(count):
            relax(in_place)
        tolerance = 1e-12 * maximum(1.0, xp.max(xp.abs(reduced), axis=0))
        relaxed = distance.copy()
        relax(folds_into(relaxed))
        return ~xp.any(relaxed > distance + tolerance, axis=0)

    def solve_many(self, weights_matrix, xp=None) -> List[float]:
        """Maximum cycle ratios for a whole batch of weight vectors.

        ``weights_matrix`` holds one weight vector per row (constructor
        edge order, like :meth:`solve`).  With an array module ``xp``
        and the Howard method, candidates from remembered critical
        cycles are certified in batch (see the module docstring) and
        only uncertified rows pay a scalar warm-started solve; without
        ``xp`` every row runs the ordinary scalar path.  Either way each
        row's answer is the canonical ratio of its critical cycle,
        computed with the same additions as :meth:`solve`, so it equals
        a fresh solver's ``solve(row)`` bit for bit whatever the batch
        around it (see the module docstring for the near-tie caveat).

        Returns plain Python floats in row order.
        """
        if xp is None or self.method != "howard":
            return [
                float(self.solve(list(row)).ratio)
                for row in weights_matrix
            ]
        weights = xp.asarray(weights_matrix, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != len(self.edges):
            raise AnalysisError(
                f"expected a (batch, {len(self.edges)}) weight matrix, "
                f"got shape {tuple(weights.shape)!r}"
            )
        ratios = xp.empty(weights.shape[0])
        # Vertex-major weights plus a zero row, the pad of
        # :meth:`_cycle_index`: one gather reads the edge weights of
        # every remembered cycle for every row, position by position.
        columns = xp.zeros((len(self.edges) + 1, weights.shape[0]))
        columns[:-1] = weights.T

        def solve_scalar(row: int) -> None:
            ratios[row] = self.solve(weights[row].tolist()).ratio
            self.batch_fallbacks += 1

        pending = xp.arange(weights.shape[0])
        if not self._cycles and pending.size:
            # Seed the candidate set with one scalar solve.
            solve_scalar(0)
            pending = pending[1:]
        # Alternate certification rounds with exact straggler solves:
        # each round certifies every pending row whose optimum is
        # already a remembered cycle, then a few stragglers are solved
        # exactly — registering *their* critical cycles — and the
        # survivors get another chance against the grown candidate
        # set.  The straggler count doubles per round, so a sweep with
        # k distinct critical cycles costs ~k scalar solves after
        # O(log k) certification passes, while a pathologically
        # diverse batch (every row a different cycle) degrades to the
        # plain scalar cost plus only O(log batch) certification
        # passes instead of one per row.
        stragglers_per_round = 1
        while pending.size:
            index, transits = self._cycle_index(xp)
            rows = columns[:, pending]
            # Every remembered cycle's canonical ratio for every row:
            # the left fold of :func:`canonical_cycle_ratio`, one
            # element-wise add per sorted edge position, the same IEEE
            # additions as the scalar fold.
            sums = rows[index[:, 0]]
            for position in range(1, index.shape[1]):
                sums += rows[index[:, position]]
            # ``max`` is exact: on equal ratios any cycle gives the same
            # bits, so the remembered cycles' order does not matter.
            candidates = xp.max(sums / transits[:, None], axis=0)
            certified = self._certify_batch(rows[:-1].T, candidates, xp)
            accepted = xp.flatnonzero(certified)
            ratios[pending[accepted]] = candidates[accepted]
            self.batch_accepted += len(accepted)
            survivors = pending[~certified].tolist()
            if not survivors:
                break
            cycles_before = len(self._cycles)
            for _ in range(min(stragglers_per_round, len(survivors))):
                solve_scalar(survivors.pop(0))
            stragglers_per_round *= 2
            if len(self._cycles) == cycles_before:
                # The exact solves found no new cycle, so the next
                # certification round would be identical for every
                # survivor; finish them exactly instead of looping.
                for row in survivors:
                    solve_scalar(row)
                break
            pending = xp.asarray(survivors, dtype=int)
        return ratios.tolist()


# ----------------------------------------------------------------------
# Deadlock (zero-delay cycle) detection
# ----------------------------------------------------------------------
def _assert_no_zero_delay_cycle(
    vertex_count: int, edges: Sequence[RatioEdge]
) -> None:
    """A cycle of total delay zero must consist of delay-0 edges only."""
    adjacency: Dict[int, List[int]] = {}
    for edge in edges:
        if edge.transit == 0:
            adjacency.setdefault(edge.source, []).append(edge.target)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * vertex_count
    for root in adjacency:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, child_idx = stack[-1]
            children = adjacency.get(node, [])
            if child_idx < len(children):
                stack[-1] = (node, child_idx + 1)
                child = children[child_idx]
                if color[child] == GRAY:
                    raise DeadlockError(
                        "zero-delay cycle detected: the graph deadlocks "
                        f"(cycle passes through vertex {child})"
                    )
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()


# ----------------------------------------------------------------------
# Strongly connected components (Tarjan, iterative)
# ----------------------------------------------------------------------
def _strongly_connected_components(
    vertex_count: int, edges: Sequence[RatioEdge]
) -> List[List[int]]:
    adjacency: List[List[int]] = [[] for _ in range(vertex_count)]
    for edge in edges:
        adjacency[edge.source].append(edge.target)

    index_counter = 0
    indices = [-1] * vertex_count
    lowlink = [0] * vertex_count
    on_stack = [False] * vertex_count
    stack: List[int] = []
    components: List[List[int]] = []

    for root in range(vertex_count):
        if indices[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work[-1]
            if child_idx == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while child_idx < len(adjacency[node]):
                child = adjacency[node][child_idx]
                child_idx += 1
                if indices[child] == -1:
                    work[-1] = (node, child_idx)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], indices[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


# ----------------------------------------------------------------------
# Howard's policy iteration (per SCC)
# ----------------------------------------------------------------------
_EPS = 1e-10
_MAX_HOWARD_ITERATIONS = 10_000


def _solve_howard(
    nodes: Sequence[int],
    out: Sequence[Sequence[Tuple[int, int, int]]],
    weights: Sequence[float],
    initial_policy: Optional[Sequence[int]] = None,
) -> Tuple[CycleRatioResult, Dict[int, int], Tuple[int, ...]]:
    """Max cycle ratio of one strongly-connected component.

    Classic two-phase policy iteration: every vertex selects one outgoing
    edge (the *policy*); the single cycle of the policy graph yields a
    candidate ratio and vertex potentials; edges that would improve the
    potential switch the policy.  Terminates when no edge improves.

    Operates on the pre-factored component representation of
    :class:`IncrementalMCRSolver` (which only registers components that
    carry at least one inner edge, so every vertex here has an outgoing
    edge): ``out[i]`` lists the outgoing edges of
    the ``i``-th component vertex as ``(edge id, local target, transit)``
    and ``weights`` maps edge id to the current weight, so a solve
    allocates no edge objects.  ``initial_policy`` (entry per *global*
    vertex id, ``-1`` = no preference) seeds each vertex's selected edge
    when it names a valid outgoing edge of that vertex, falling back to
    the classic highest-weight initialization otherwise.  Returns the
    result plus the converged ``{global vertex id: edge id}`` policy.
    """
    n = len(nodes)

    # Initial policy: the warm-start edge where one is given and still
    # valid, else the highest-weight edge out of every vertex.
    policy: List[Tuple[int, int, int]] = []
    for i, node in enumerate(nodes):
        chosen: Optional[Tuple[int, int, int]] = None
        if initial_policy is not None and 0 <= node < len(initial_policy):
            wanted = initial_policy[node]
            if wanted >= 0:
                for entry in out[i]:
                    if entry[0] == wanted:
                        chosen = entry
                        break
        if chosen is None:
            chosen = max(out[i], key=lambda entry: weights[entry[0]])
        policy.append(chosen)

    ratio = [0.0] * n
    value = [0.0] * n

    for _ in range(_MAX_HOWARD_ITERATIONS):
        _evaluate_policy(n, policy, weights, ratio, value)
        improved = False
        for i in range(n):
            for entry in out[i]:
                gid, j, transit = entry
                if ratio[j] > ratio[i] + _EPS:
                    policy[i] = entry
                    improved = True
                elif abs(ratio[j] - ratio[i]) <= _EPS:
                    candidate = (
                        weights[gid] - ratio[i] * transit + value[j]
                    )
                    if candidate > value[i] + _EPS:
                        policy[i] = entry
                        improved = True
        if not improved:
            break
    else:  # pragma: no cover - safety net
        raise AnalysisError("Howard's algorithm failed to converge")

    best_i = max(range(n), key=lambda i: ratio[i])
    cycle, cycle_edges = _policy_cycle(nodes, policy, best_i)
    converged = {node: policy[i][0] for i, node in enumerate(nodes)}
    return (
        CycleRatioResult(ratio=ratio[best_i], cycle=tuple(cycle)),
        converged,
        cycle_edges,
    )


def _evaluate_policy(
    n: int,
    policy: List[Tuple[int, int, int]],
    weights: Sequence[float],
    ratio: List[float],
    value: List[float],
) -> None:
    """Compute per-vertex cycle ratio and potentials under ``policy``.

    The policy graph is functional (out-degree one), so every vertex leads
    into exactly one cycle.  Each cycle's ratio is computed exactly from
    its members; potentials propagate backwards from an anchor on the
    cycle.
    """
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        if state[start] != 0:
            continue
        path: List[int] = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = policy[node][1]
        if state[node] == 1:
            # Found a new cycle: path[k:] where path[k] == node.
            k = path.index(node)
            cycle_nodes = path[k:]
            total_weight = sum(weights[policy[i][0]] for i in cycle_nodes)
            total_transit = sum(policy[i][2] for i in cycle_nodes)
            if total_transit == 0:
                # Guarded earlier by the zero-delay cycle check, but a
                # policy cycle is an actual graph cycle, so be safe.
                raise DeadlockError(
                    "policy cycle with zero total delay: graph deadlocks"
                )
            cycle_ratio = total_weight / total_transit
            anchor = node
            ratio[anchor] = cycle_ratio
            value[anchor] = 0.0
            # Walk the cycle backwards to set potentials consistently:
            # v(u) = w(u,pi(u)) - ratio * t(u,pi(u)) + v(pi(u)).
            ordered = cycle_nodes[cycle_nodes.index(anchor):] + cycle_nodes[
                : cycle_nodes.index(anchor)
            ]
            for u in reversed(ordered[1:]):
                gid, succ, transit = policy[u]
                ratio[u] = cycle_ratio
                value[u] = (
                    weights[gid] - cycle_ratio * transit + value[succ]
                )
            for u in cycle_nodes:
                state[u] = 2
        # Tree vertices hanging off the (now solved) cycle/path suffix.
        for u in reversed(path):
            if state[u] == 2:
                continue
            gid, succ, transit = policy[u]
            ratio[u] = ratio[succ]
            value[u] = (
                weights[gid] - ratio[u] * transit + value[succ]
            )
            state[u] = 2


def _policy_cycle(
    nodes: Sequence[int],
    policy: List[Tuple[int, int, int]],
    start_local: int,
) -> Tuple[List[int], Tuple[int, ...]]:
    """The (global-id) cycle reached from ``start_local``.

    Returns the cycle's vertices in order plus the global edge ids the
    policy follows along it (the representation
    :meth:`IncrementalMCRSolver.solve_many` evaluates candidates with).
    """
    seen: Dict[int, int] = {}
    order: List[int] = []
    node = start_local
    while node not in seen:
        seen[node] = len(order)
        order.append(node)
        node = policy[node][1]
    cycle_local = order[seen[node]:]
    return (
        [nodes[i] for i in cycle_local],
        tuple(policy[i][0] for i in cycle_local),
    )


# ----------------------------------------------------------------------
# Lawler's binary search
# ----------------------------------------------------------------------
def _solve_lawler(
    component: Sequence[int], edges: Sequence[RatioEdge]
) -> Optional[CycleRatioResult]:
    """Binary search on the ratio; Bellman–Ford tests each probe.

    A probe ``lam`` asks: is there a cycle with
    ``sum(w) - lam * sum(t) > 0``?  If yes the true ratio exceeds
    ``lam``.  The search narrows until the interval is tight, then the
    critical cycle is recovered from the final positive-cycle detection.
    """
    nodes = list(component)
    if len(nodes) == 1 and not edges:
        return None
    total_weight = sum(abs(e.weight) for e in edges) + 1.0
    low, high = 0.0, total_weight
    # A valid upper bound: any cycle ratio <= sum of all weights (transit
    # of a cycle is >= 1 after the zero-delay check).
    cycle: Tuple[int, ...] = ()
    found_any = False
    for _ in range(200):
        mid = 0.5 * (low + high)
        probe = _positive_cycle(nodes, edges, mid)
        if probe is not None:
            low = mid
            cycle = probe
            found_any = True
        else:
            high = mid
        if high - low <= 1e-12 * max(1.0, high):
            break
    if not found_any:
        probe = _positive_cycle(nodes, edges, -1.0)
        if probe is None:
            return None
        cycle = probe
    ratio = _ratio_of_cycle(cycle, edges)
    return CycleRatioResult(ratio=ratio, cycle=cycle)


def _positive_cycle(
    nodes: Sequence[int], edges: Sequence[RatioEdge], lam: float
) -> Optional[Tuple[int, ...]]:
    """Bellman–Ford positive-cycle detection on w' = w - lam*t."""
    local = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    dist = [0.0] * n
    parent_edge: List[Optional[RatioEdge]] = [None] * n
    updated_vertex = -1
    for _ in range(n):
        updated_vertex = -1
        for edge in edges:
            u, v = local[edge.source], local[edge.target]
            candidate = dist[u] + edge.weight - lam * edge.transit
            if candidate > dist[v] + 1e-15:
                dist[v] = candidate
                parent_edge[v] = edge
                updated_vertex = v
        if updated_vertex == -1:
            return None
    # A vertex still updated after n rounds lies on / is reachable from a
    # positive cycle; walk parents n times to land inside the cycle.
    node = updated_vertex
    for _ in range(n):
        node = local[parent_edge[node].source]  # type: ignore[union-attr]
    cycle = []
    walk = node
    while True:
        cycle.append(nodes[walk])
        walk = local[parent_edge[walk].source]  # type: ignore[union-attr]
        if walk == node:
            break
    cycle.reverse()
    return tuple(cycle)


def _ratio_of_cycle(
    cycle: Sequence[int], edges: Sequence[RatioEdge]
) -> float:
    """Exact ratio of a specific vertex cycle (max over parallel edges
    is not needed: the cycle was produced edge-by-edge, so recover the
    best parallel edge between consecutive vertices)."""
    by_pair: Dict[Tuple[int, int], List[RatioEdge]] = {}
    for edge in edges:
        by_pair.setdefault((edge.source, edge.target), []).append(edge)
    weight = 0.0
    transit = 0
    m = len(cycle)
    for i in range(m):
        u, v = cycle[i], cycle[(i + 1) % m]
        candidates = by_pair.get((u, v))
        if not candidates:
            raise AnalysisError(f"cycle edge {u}->{v} not present in graph")
        # The binding parallel edge for a maximal cycle is the one with
        # the lowest transit (ties: highest weight).
        chosen = min(candidates, key=lambda e: (e.transit, -e.weight))
        weight += chosen.weight
        transit += chosen.transit
    if transit == 0:
        raise DeadlockError("cycle with zero total delay: graph deadlocks")
    return weight / transit


# ----------------------------------------------------------------------
# Brute force (Johnson's simple cycle enumeration)
# ----------------------------------------------------------------------
_BRUTE_FORCE_LIMIT = 200_000


def _solve_brute(
    component: Sequence[int], edges: Sequence[RatioEdge]
) -> Optional[CycleRatioResult]:
    """Enumerate every simple cycle and take the maximum ratio.

    Exponential; guarded by ``_BRUTE_FORCE_LIMIT`` enumerated cycles.
    Only intended as a test oracle for small graphs.
    """
    nodes = sorted(component)
    adjacency: Dict[int, List[RatioEdge]] = {node: [] for node in nodes}
    for edge in edges:
        adjacency[edge.source].append(edge)

    best_ratio = float("-inf")
    best_cycle: Tuple[int, ...] = ()
    count = 0

    # Simple DFS-based enumeration rooted at each vertex; cycles are only
    # reported when they return to the root and the root is the smallest
    # vertex on the cycle (canonical form, avoids duplicates).
    for root in nodes:
        stack: List[Tuple[int, float, int, Tuple[int, ...]]] = [
            (root, 0.0, 0, (root,))
        ]
        while stack:
            node, weight, transit, path = stack.pop()
            for edge in adjacency[node]:
                count += 1
                if count > _BRUTE_FORCE_LIMIT:
                    raise AnalysisError(
                        "brute-force cycle enumeration exceeded limit; "
                        "use method='howard' for graphs of this size"
                    )
                target = edge.target
                if target == root:
                    total_transit = transit + edge.transit
                    if total_transit == 0:
                        raise DeadlockError(
                            "cycle with zero total delay: graph deadlocks"
                        )
                    ratio = (weight + edge.weight) / total_transit
                    if ratio > best_ratio:
                        best_ratio = ratio
                        best_cycle = path
                elif target > root and target not in path:
                    stack.append(
                        (
                            target,
                            weight + edge.weight,
                            transit + edge.transit,
                            path + (target,),
                        )
                    )
    if best_cycle == () and best_ratio == float("-inf"):
        return None
    return CycleRatioResult(ratio=best_ratio, cycle=best_cycle)
