"""The estimation algorithm of the paper's Figure 4.

Given a use-case (set of concurrently active applications), a mapping, and
a waiting model, the estimator:

1. computes each application's *isolation* period analytically
   (Definition 3, via MCR analysis of the HSDF expansion);
2. derives every actor's blocking probability ``P`` and average blocking
   time ``mu`` from it (steps 2–4 of Fig. 4);
3. asks the waiting model for every actor's expected waiting time, given
   the other actors bound to the same processor (step 8);
4. inflates each actor's execution time to its *response time*
   ``tau + t_wait`` (step 9);
5. recomputes every application's period with the response times
   (step 11).

The paper runs this once.  ``iterations > 1`` enables the fixed-point
variant explored in the ablation benches: recompute ``P`` from the new
periods (contention lowers utilization, which lowers ``P``) and repeat.

Period analysis runs on one :class:`~repro.analysis_engine.AnalysisEngine`
per application: the HSDF expansion, SCC decomposition and converged
Howard policy are computed once at construction and every subsequent
period query — across fixed-point iterations *and* across the use-cases
of :meth:`ProbabilisticEstimator.estimate_many` /
:meth:`~ProbabilisticEstimator.sweep_all_sizes` — is a weight-only,
warm-started solve (memoized on the response-time vector).  Pass
``incremental=False`` to fall back to the stateless cold path; the two
paths agree to <= 1e-9 relative (equal floats in practice), which the
parity tests assert.
"""

from __future__ import annotations

import collections.abc
import operator
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

from repro.analysis_engine import AnalysisEngine, build_engines
from repro.backend import BATCH_MIN_ROWS, ArrayBackend, get_backend
from repro.core.blocking import (
    ActorProfile,
    ResidentVectors,
    build_profiles,
    resident_vectors,
)
from repro.core.waiting import (
    WaitingModel,
    make_waiting_model,
    supports_batch,
    supports_rowwise_batch,
)
from repro.exceptions import AnalysisError
from repro.platform.mapping import Mapping, index_mapping
from repro.platform.usecase import (
    DEFAULT_SWEEP_SEED,
    UseCase,
    sampled_use_cases_by_size,
)
from repro.sdf.analysis import (
    AnalysisMethod,
    period as analytical_period,
    period_with_response_times,
)
from repro.sdf.graph import SDFGraph
from repro.telemetry import COUNT_BUCKETS, get_registry, get_tracer


@dataclass
class EstimationResult:
    """Outcome of one estimation run for one use-case.

    A batched ``estimate_many`` builds its results when they are read:
    the batch's first read builds every row in one pass.  A built
    result is kept and is a plain instance.

    Attributes
    ----------
    use_case:
        The analysed use-case.
    model_name:
        ``name`` of the waiting model used.
    periods:
        Estimated per-application periods under contention.
    isolation_periods:
        Periods in isolation (the normalization basis of Figure 5).
    waiting_times / response_times:
        Per ``(application, actor)`` expected waiting and response times.
        The scalar loop returns plain dicts keyed processor by
        processor.  The batched kernels return lazy
        read-only mappings keyed in use-case order, then
        ``actor_names`` order, that build their dict on first read; they
        compare ``==`` to that dict and pickle, copy and ``dict(...)``
        as it.  Treat both as read-only.
    iterations_used:
        Number of Fig.-4 passes executed (1 = the paper's algorithm).
    analysis_seconds:
        Wall-clock cost of the estimate (used by the timing bench).
    """

    use_case: UseCase
    model_name: str
    periods: Dict[str, float]
    isolation_periods: Dict[str, float]
    waiting_times: TMapping[Tuple[str, str], float]
    response_times: TMapping[Tuple[str, str], float]
    iterations_used: int
    analysis_seconds: float

    def period_of(self, application: str) -> float:
        try:
            return self.periods[application]
        except KeyError:
            raise AnalysisError(
                f"no estimate for application {application!r}"
            ) from None

    def throughput_of(self, application: str) -> float:
        return 1.0 / self.period_of(application)

    def isolation_period_of(self, application: str) -> float:
        try:
            return self.isolation_periods[application]
        except KeyError:
            raise AnalysisError(
                f"no isolation period for application {application!r}"
            ) from None

    def normalized_period_of(self, application: str) -> float:
        """Estimated period over isolation period (Figure 5's y-axis)."""
        return self.period_of(application) / self.isolation_period_of(
            application
        )


class ProbabilisticEstimator:
    """Reusable estimator over a fixed application set and mapping.

    Parameters
    ----------
    graphs:
        All applications that may appear in use-cases.
    mapping:
        Actor-to-processor binding covering every graph; defaults to the
        paper's index mapping.
    waiting_model:
        A :class:`~repro.core.waiting.WaitingModel` or a specification
        string for :func:`~repro.core.waiting.make_waiting_model`.
    analysis_method:
        Period engine for isolation and response-time periods.
    include_same_application:
        When True (paper behaviour) an actor waits for *all* other actors
        on its node, including co-mapped actors of its own application.
    mus:
        Optional ``(application, actor) -> mu`` overrides for the
        stochastic execution-time extension.
    engines:
        Pre-built ``{application: AnalysisEngine}`` to share structural
        work (HSDF expansions, warm Howard policies, period memo caches)
        with other estimators, e.g. one per waiting model in a sweep.
        Must cover every graph and use ``analysis_method``.  The
        engines' ``mcr_algorithm`` is deliberately not constrained:
        Lawler/brute engines are correct, just slower (no warm start).
    incremental:
        When True (default) period analysis runs on the per-application
        engines; when False the estimator replicates the stateless cold
        path (re-expansion + cold solve per query).  Both produce
        identical results; the flag exists for parity tests and the
        ablation benches.
    backend:
        ``"python"`` (or a :class:`~repro.backend.PythonBackend`)
        forces the scalar reference loop at any batch size; tests and
        benchmarks compare against it.  The default (``None``,
        ``"auto"`` or ``"numpy"``) picks per call: a batch of at least
        :data:`~repro.backend.BATCH_MIN_ROWS` use-cases runs the
        batched pipeline when NumPy is importable — one waiting-kernel
        evaluation per processor covering every use-case, and one
        :meth:`AnalysisEngine.period_for` call per application, per
        fixed-point pass, with converged rows frozen when
        ``iterations > 1`` — and anything smaller runs the scalar loop,
        which is faster there.  Both give the same bits.  The cold path
        and waiting models without a batch kernel (or without a
        row-wise one, for ``iterations > 1``) always run the scalar
        loop.
    """

    def __init__(
        self,
        graphs: Sequence[SDFGraph],
        mapping: Optional[Mapping] = None,
        waiting_model: WaitingModel | str = "second_order",
        analysis_method: AnalysisMethod = AnalysisMethod.MCR,
        include_same_application: bool = True,
        mus: Optional[TMapping[Tuple[str, str], float]] = None,
        engines: Optional[Dict[str, AnalysisEngine]] = None,
        incremental: bool = True,
        backend: "Optional[str | ArrayBackend]" = None,
    ) -> None:
        if not graphs:
            raise AnalysisError("estimator needs at least one application")
        self.graphs: Dict[str, SDFGraph] = {g.name: g for g in graphs}
        if len(self.graphs) != len(graphs):
            raise AnalysisError("duplicate application names")
        self.mapping = (
            mapping if mapping is not None else index_mapping(graphs)
        )
        self.mapping.validate_against(graphs)
        if isinstance(waiting_model, str):
            waiting_model = make_waiting_model(waiting_model)
        self.waiting_model = waiting_model
        # Models carrying per-application parameters (e.g. WRR weights)
        # expose check_applications; validating against the actual
        # application set here catches typo'd or mis-cased names that
        # spec-level validation cannot see.
        check = getattr(self.waiting_model, "check_applications", None)
        if callable(check):
            check(tuple(g.name for g in graphs))
        self.analysis_method = analysis_method
        self.include_same_application = include_same_application
        self.mus = dict(mus) if mus is not None else None
        # Arbitration priorities ride on the mapping; profiles carry
        # them so priority-aware waiting models can read them.  The
        # common all-zero case passes None, keeping the established
        # profile-construction arithmetic untouched.
        priorities = self.mapping.priorities()
        self.priorities: Optional[Dict[Tuple[str, str], float]] = (
            priorities if priorities else None
        )
        self.incremental = incremental
        self.backend = get_backend(backend)
        self._batch_structure: Optional[_BatchStructure] = None
        if incremental:
            if engines is None:
                engines = build_engines(graphs, method=analysis_method)
            else:
                missing = [n for n in self.graphs if n not in engines]
                if missing:
                    raise AnalysisError(
                        f"shared engines missing applications: {missing!r}"
                    )
                mismatched = [
                    name
                    for name in self.graphs
                    if engines[name].method is not analysis_method
                ]
                if mismatched:
                    raise AnalysisError(
                        f"shared engines for {mismatched!r} use a "
                        f"different analysis method than "
                        f"{analysis_method!r}"
                    )
                for name, graph in self.graphs.items():
                    if not _same_analysis_graph(
                        engines[name].graph, graph
                    ):
                        raise AnalysisError(
                            f"shared engine for {name!r} was built "
                            "from a different graph (actor timings or "
                            "topology differ); rebuild the engines for "
                            "this application set"
                        )
            self.engines: Dict[str, AnalysisEngine] = engines
            # Isolation periods are use-case independent; compute once.
            self.isolation_periods: Dict[str, float] = {
                name: self.engines[name].period() for name in self.graphs
            }
            # P and mu depend only on tau, q and the period; with the
            # paper's single-pass algorithm the period is always the
            # isolation period, so these profiles serve every estimate.
            self._base_profiles: Dict[Tuple[str, str], ActorProfile] = (
                build_profiles(
                    list(self.graphs.values()),
                    periods=self.isolation_periods,
                    mus=self.mus,
                    priorities=self.priorities,
                )
            )
        else:
            if engines is not None:
                raise AnalysisError(
                    "engines were supplied together with "
                    "incremental=False; the cold path would silently "
                    "ignore them"
                )
            self.engines = {}
            self._base_profiles = {}
            self.isolation_periods = {
                name: analytical_period(graph, method=analysis_method)
                for name, graph in self.graphs.items()
            }

        # Telemetry instruments are bound once per estimator; the hot
        # loops pay a single no-op call when telemetry is disabled.
        registry = get_registry()
        self._tracer = get_tracer()
        self._metric_use_cases = registry.counter(
            "repro_estimator_use_cases_total",
            "Use-case estimates produced (scalar and batched paths)",
        )
        self._metric_passes = registry.counter(
            "repro_estimator_fixed_point_passes_total",
            "Fixed-point refinement passes across batched estimates",
        )
        self._metric_active_rows = registry.histogram(
            "repro_estimator_active_rows",
            "Unconverged rows entering each batched fixed-point pass",
            buckets=COUNT_BUCKETS,
        )

    # ------------------------------------------------------------------
    def _can_batch(self, iterations: int, rows: int) -> bool:
        """Whether a batch of ``rows`` use-cases runs on the kernels.

        The one dispatch rule: NumPy importable (and not forced off by
        ``backend="python"``) and at least
        :data:`~repro.backend.BATCH_MIN_ROWS` rows.  The batched path
        implements the paper's single-pass algorithm
        (``iterations == 1``) on the incremental engines, and — for
        waiting models whose batch kernels accept per-row probabilities
        (:func:`~repro.core.waiting.supports_rowwise_batch`; all
        builtins) — the fixed-point refinement as well, with a per-row
        convergence mask.  The stateless cold path, waiting models
        without a batch kernel, and fixed-point refinement of
        third-party models with 1-D-only kernels stay on the scalar
        loop.
        """
        if not (
            self.incremental
            and self.backend.vectorized
            and rows >= BATCH_MIN_ROWS
            and supports_batch(self.waiting_model)
        ):
            return False
        return iterations == 1 or supports_rowwise_batch(
            self.waiting_model
        )

    def estimate(
        self,
        use_case: Optional[UseCase] = None,
        iterations: int = 1,
        tolerance: float = 1e-6,
    ) -> EstimationResult:
        """Run Fig. 4 for ``use_case`` (default: all applications active).

        ``iterations`` bounds the fixed-point refinement; the loop stops
        early when the largest relative period change drops below
        ``tolerance``.
        """
        if use_case is None:
            use_case = UseCase(tuple(self.graphs.keys()))
        if iterations < 1:
            raise AnalysisError("iterations must be >= 1")
        if self._can_batch(iterations, 1):
            return self.estimate_many(
                [use_case], iterations=iterations, tolerance=tolerance
            )[0]
        active = use_case.select(list(self.graphs.values()))
        self._metric_use_cases.inc()
        started = _time.perf_counter()

        current_periods = {
            g.name: self.isolation_periods[g.name] for g in active
        }
        waiting: Dict[Tuple[str, str], float] = {}
        response: Dict[Tuple[str, str], float] = {}
        iterations_used = 0

        for _ in range(iterations):
            iterations_used += 1
            profiles = self._profiles_for(active, current_periods)
            waiting, response = self._waiting_and_response(
                use_case, profiles
            )
            new_periods = {}
            for graph in active:
                responses_of_app = {
                    actor: response[(graph.name, actor)]
                    for actor in graph.actor_names
                }
                if self.incremental:
                    new_periods[graph.name] = self.engines[
                        graph.name
                    ].period(responses_of_app)
                else:
                    new_periods[graph.name] = period_with_response_times(
                        graph,
                        responses_of_app,
                        method=self.analysis_method,
                    )
            converged = all(
                abs(new_periods[name] - current_periods[name])
                <= tolerance * max(1.0, abs(new_periods[name]))
                for name in new_periods
            )
            # The paper's P is derived from *isolation* periods on the
            # first pass; later passes re-derive it from the estimated
            # contended periods (fixed-point ablation).
            current_periods = new_periods
            if converged and iterations_used > 1:
                break

        elapsed = _time.perf_counter() - started
        return EstimationResult(
            use_case=use_case,
            model_name=self.waiting_model.name,
            periods=current_periods,
            isolation_periods={
                g.name: self.isolation_periods[g.name] for g in active
            },
            waiting_times=waiting,
            response_times=response,
            iterations_used=iterations_used,
            analysis_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    def estimate_many(
        self,
        use_cases: Sequence[UseCase],
        iterations: int = 1,
        tolerance: float = 1e-6,
    ) -> Sequence[EstimationResult]:
        """Batched Fig. 4 over many use-cases of one application set.

        All estimates share the per-application engines, so the HSDF
        expansions and solver structures are paid once for the whole
        batch, Howard warm-starts from the previous use-case's policy,
        and identical per-application response-time vectors (recurring
        whenever an application faces the same co-mapped contenders in
        several use-cases) are answered from the engine memo without
        solving.  This is the API behind the experiment runner's sweep
        and the ``repro sweep`` CLI.

        A batch of at least :data:`~repro.backend.BATCH_MIN_ROWS`
        use-cases runs through the array pipeline when NumPy is
        importable: one waiting-kernel evaluation per processor
        covering every use-case and one
        :meth:`AnalysisEngine.period_for` call per application — per
        fixed-point pass, when ``iterations > 1``, with converged rows
        frozen under a per-row mask so only still-moving rows pay for
        further refinement.  Smaller batches run the scalar loop per
        use-case.  Both give the same bits.

        The scalar loop returns a list.  The array pipeline returns a
        read-only sequence that holds the batch's matrices; its first
        read (an index, a slice or iteration) builds every result in
        one pass.  It compares ``==`` to the list of its rows, slices to
        a list, and pickles and copies as that list.
        """
        if iterations < 1:
            raise AnalysisError("iterations must be >= 1")
        batched = self._can_batch(iterations, len(use_cases))
        with self._tracer.span(
            "estimator.estimate_many",
            model=self.waiting_model.name,
            use_cases=len(use_cases),
            iterations=iterations,
            batched=batched,
        ) as span:
            if not batched:
                return [
                    self.estimate(
                        use_case, iterations=iterations, tolerance=tolerance
                    )
                    for use_case in use_cases
                ]
            results = self._run_batched(
                list(use_cases), iterations, tolerance
            )
            # The most passes of any row, without building a row.
            span.set(passes=int(results._passes.max()))
            return results

    def sweep_all_sizes(
        self,
        samples_per_size: Optional[int] = None,
        seed: int = DEFAULT_SWEEP_SEED,
        iterations: int = 1,
        tolerance: float = 1e-6,
    ) -> Sequence[EstimationResult]:
        """Estimate use-cases of every size 1..N (the paper's 2^N sweep).

        ``samples_per_size=None`` is exhaustive; otherwise each
        cardinality contributes a deterministic sample (the shared
        :func:`repro.platform.usecase.sampled_use_cases_by_size`
        convention, identical to the experiment runner's selection).
        """
        selected = sampled_use_cases_by_size(
            tuple(self.graphs.keys()),
            samples_per_size=samples_per_size,
            seed=seed,
        )
        return self.estimate_many(
            selected, iterations=iterations, tolerance=tolerance
        )

    # ------------------------------------------------------------------
    def _profiles_for(
        self,
        active: Sequence[SDFGraph],
        current_periods: TMapping[str, float],
    ) -> Dict[Tuple[str, str], ActorProfile]:
        """Steps 2–4 of Fig. 4: per-actor ``P`` and ``mu`` profiles.

        The incremental path reuses the profiles built at construction —
        ``tau``, ``q`` and ``mu`` never change, and with the paper's
        single-pass algorithm the period is always the isolation period;
        fixed-point iterations re-derive only the period-dependent
        fields.  The cold path rebuilds everything (repetition vectors
        included) exactly like the stateless implementation.
        """
        if not self.incremental:
            return build_profiles(
                active,
                periods=current_periods,
                mus=self.mus,
                priorities=self.priorities,
            )
        profiles: Dict[Tuple[str, str], ActorProfile] = {}
        for graph in active:
            period = current_periods[graph.name]
            for actor in graph.actor_names:
                base = self._base_profiles[(graph.name, actor)]
                profiles[(graph.name, actor)] = (
                    base
                    if base.period == period
                    else base.with_period(period)
                )
        return profiles

    # ------------------------------------------------------------------
    def _waiting_and_response(
        self,
        use_case: UseCase,
        profiles: Dict[Tuple[str, str], ActorProfile],
    ) -> Tuple[Dict[Tuple[str, str], float], Dict[Tuple[str, str], float]]:
        """Steps 7–10 of Fig. 4 for every actor of the use-case."""
        waiting: Dict[Tuple[str, str], float] = {}
        response: Dict[Tuple[str, str], float] = {}
        active_apps = tuple(use_case)
        for processor in self.mapping.platform.processor_names:
            residents = self.mapping.actors_on(processor, active_apps)
            for app, actor in residents:
                own = profiles[(app, actor)]
                others = [
                    profiles[(other_app, other_actor)]
                    for other_app, other_actor in residents
                    if (other_app, other_actor) != (app, actor)
                    and (
                        self.include_same_application or other_app != app
                    )
                ]
                t_wait = self.waiting_model.waiting_time(own, others)
                if t_wait < 0:
                    raise AnalysisError(
                        f"waiting model {self.waiting_model.name!r} "
                        f"returned negative waiting {t_wait} for "
                        f"{app}.{actor}"
                    )
                waiting[(app, actor)] = t_wait
                response[(app, actor)] = own.tau + t_wait
        return waiting, response

    # ------------------------------------------------------------------
    # Batched pipeline (NumPy kernels, at least BATCH_MIN_ROWS rows)
    # ------------------------------------------------------------------
    def _batch_structure_for(self) -> "_BatchStructure":
        """Lazy per-estimator arrays describing the contention layout.

        All of it depends only on the application set, the mapping and
        the isolation profiles — never on the use-case — so it is built
        once and reused by every batched call.
        """
        if self._batch_structure is not None:
            return self._batch_structure
        xp = self.backend.xp  # type: ignore[union-attr]
        app_columns = {
            name: column for column, name in enumerate(self.graphs)
        }
        # One wait-matrix column per (application, actor), application
        # by application in actor_names order: an application's actors
        # are the contiguous span spans[app] of every row.
        keys: List[Tuple[str, str]] = []
        spans: Dict[str, Tuple[int, int]] = {}
        for app, graph in self.graphs.items():
            low = len(keys)
            keys.extend((app, actor) for actor in graph.actor_names)
            spans[app] = (low, len(keys))
        wait_columns = {key: column for column, key in enumerate(keys)}
        taus = [self._base_profiles[key].tau for key in keys]
        processors: List[_ProcessorBatch] = []
        for processor in self.mapping.platform.processor_names:
            # The mapping may bind applications beyond this estimator's
            # set (a shared platform mapping); only our own actors can
            # ever be active, matching the scalar path's
            # ``actors_on(processor, active_apps)`` filter.
            residents = [
                key
                for key in self.mapping.actors_on(processor)
                if key[0] in self.graphs
            ]
            if len(residents) < 2:
                # A lone resident never waits: its wait-matrix column
                # stays at zero.
                continue
            profiles = [self._base_profiles[key] for key in residents]
            count = len(residents)
            apps = [app for app, _ in residents]
            other_ok = xp.ones((count, count)) - xp.eye(count)
            if not self.include_same_application:
                same = xp.asarray(
                    [
                        [
                            1.0 if apps[own] == apps[i] else 0.0
                            for i in range(count)
                        ]
                        for own in range(count)
                    ]
                )
                other_ok = other_ok * (1.0 - same)
            processors.append(
                _ProcessorBatch(
                    residents=list(residents),
                    vectors=resident_vectors(profiles, xp),
                    app_columns=xp.asarray(
                        [app_columns[app] for app in apps], dtype=int
                    ),
                    wait_columns=xp.asarray(
                        [wait_columns[key] for key in residents], dtype=int
                    ),
                    other_ok=other_ok,
                    # tau*q per resident (the numerator of Definition
                    # 4) — the only period-independent ingredient the
                    # fixed-point passes need to re-derive P.
                    tauq=xp.asarray(
                        [p.tau * p.repetitions for p in profiles],
                        dtype=float,
                    ),
                )
            )
        self._batch_structure = _BatchStructure(
            app_columns=app_columns,
            processors=processors,
            keys=keys,
            spans=spans,
            taus=taus,
            tau=xp.asarray(taus, dtype=float),
        )
        return self._batch_structure

    def _row_probabilities(
        self, processor: "_ProcessorBatch", row_periods, xp
    ):
        """Definition 4 per batch row: ``tau*q`` over the row's period.

        ``row_periods`` is the ``(u, A)`` slice of the current period
        matrix for the rows being refined; the result is the ``(u, n)``
        blocking-probability matrix of the processor's residents, with
        the same over-1 rejection (and clamp) as the scalar
        :func:`~repro.core.blocking.blocking_probability`.
        """
        period = row_periods[:, processor.app_columns]
        probability = processor.tauq[None, :] / period
        over = probability > 1.0 + 1e-9
        if bool(xp.any(over)):
            row, resident = (int(axis[0]) for axis in xp.nonzero(over))
            raise AnalysisError(
                f"blocking probability "
                f"{float(probability[row, resident]):.4f} exceeds 1: "
                f"actor busy time "
                f"tau*q={float(processor.tauq[resident]):g} exceeds "
                f"period {float(period[row, resident]):g}"
            )
        return xp.minimum(probability, 1.0)

    def _run_batched(
        self,
        use_cases: Sequence[UseCase],
        iterations: int = 1,
        tolerance: float = 1e-6,
    ) -> Sequence[EstimationResult]:
        """The array flavour of :meth:`estimate_many`.

        Produces the same :class:`EstimationResult` values as the scalar
        loop, bit for bit (asserted by the test suite), with
        ``analysis_seconds`` carrying the *amortized* per-use-case cost
        of the batch.

        Every waiting time lives in one ``(batch, actors)`` wait matrix
        whose columns follow :class:`_BatchStructure` (application by
        application, each in ``actor_names`` order).  Each processor's
        kernel output is scattered into its residents' columns, and an
        application's period input is the slice of its column span
        plus ``tau``.  The return value is a columnar
        :class:`_ResultBatch` over the period matrix, the wait matrix
        and the pass counts: no result is built here.  The batch's first
        read (an index, a slice or iteration) builds every
        :class:`EstimationResult` in one pass; the per-actor tables are
        :class:`_RowTable` views that convert their wait-matrix row on
        first read.

        ``iterations > 1`` runs the fixed-point refinement on the whole
        batch at once with a per-row convergence mask: each pass
        re-derives every still-active row's blocking probabilities from
        that row's current periods (``tau*q / period`` per resident),
        re-evaluates the waiting kernels for the active rows only, and
        pushes all their response vectors through one
        :meth:`AnalysisEngine.period_for` call per application (batch
        candidate certification via ``solve_many`` under the hood).
        Rows whose periods move less than ``tolerance`` relative freeze
        — keeping the wait-matrix row of their final pass, like the
        scalar loop's early break — while the remaining rows keep
        refining, so the wall-clock cost tracks the *slowest* row, not
        the batch size.
        """
        started = _time.perf_counter()
        self._metric_use_cases.inc(len(use_cases))
        xp = self.backend.xp  # type: ignore[union-attr]
        structure = self._batch_structure_for()
        app_columns = structure.app_columns
        batch = len(use_cases)
        known = frozenset(app_columns)
        mask_rows: List[int] = []
        mask_columns: List[int] = []
        for row, use_case in enumerate(use_cases):
            applications = use_case.applications
            if not known.issuperset(applications):
                # select() raises the scalar path's unknown-application
                # error (same type, same message).
                use_case.select(list(self.graphs.values()))
            mask_rows.extend([row] * len(applications))
            mask_columns.extend(map(app_columns.__getitem__, applications))
        mask = xp.zeros((batch, len(app_columns)))
        mask[mask_rows, mask_columns] = 1.0

        # Row-wise current periods, seeded with isolation (Definition
        # 3); entries of inactive applications are never refined (and
        # never read by the assembly below).
        periods = xp.ones((batch, 1)) * xp.asarray(
            [self.isolation_periods[app] for app in self.graphs],
            dtype=float,
        )[None, :]
        wait = xp.zeros((batch, len(structure.keys)))
        iterations_used = xp.ones(batch, dtype=int)
        active_rows = xp.ones(batch, dtype=bool)

        for pass_index in range(1, iterations + 1):
            rows = xp.nonzero(active_rows)[0]
            if int(rows.size) == 0:
                break
            # Convergence-mask shrinkage: each pass observes how many
            # rows are still refining, so the histogram shows the decay.
            self._metric_passes.inc()
            self._metric_active_rows.observe(int(rows.size))
            # While every row is active (passes 1 and 2) the whole
            # arrays are read and written: no gather, no scatter.
            if int(rows.size) == batch:
                rows = wait_rows = slice(None)
            else:
                wait_rows = rows[:, None]
            sub_mask = mask[rows]
            for processor in structure.processors:
                active = sub_mask[:, processor.app_columns]
                inc = active[:, None, :] * processor.other_ok[None, :, :]
                vectors = processor.vectors
                if pass_index > 1:
                    # Later passes re-derive P from the refined periods
                    # (steps 2-4 of Fig. 4 on the contended periods).
                    vectors = vectors.with_probability(
                        self._row_probabilities(
                            processor, periods[rows], xp
                        )
                    )
                waiting = self.waiting_model.waiting_times_batch(
                    vectors, inc, active, xp
                )
                negative = xp.logical_and(waiting < 0, active > 0)
                if bool(xp.any(negative)):
                    row, resident = (
                        int(axis[0]) for axis in xp.nonzero(negative)
                    )
                    app, actor = processor.residents[resident]
                    raise AnalysisError(
                        f"waiting model {self.waiting_model.name!r} "
                        f"returned negative waiting "
                        f"{float(waiting[row, resident])} for "
                        f"{app}.{actor}"
                    )
                # Only active rows are written: frozen rows keep the
                # waiting of their final pass.
                wait[wait_rows, processor.wait_columns] = waiting

            row_converged = xp.ones(batch, dtype=bool)
            for app, column in app_columns.items():
                rows_of_app = xp.nonzero(
                    active_rows & (mask[:, column] > 0)
                )[0]
                if int(rows_of_app.size) == 0:
                    continue
                low, high = structure.spans[app]
                responses = (
                    wait[rows_of_app, low:high] + structure.tau[low:high]
                )
                values = xp.asarray(
                    self.engines[app].period_for(
                        responses, self.backend
                    ),
                    dtype=float,
                )
                current = periods[rows_of_app, column]
                settled = xp.abs(values - current) <= (
                    tolerance * xp.maximum(1.0, xp.abs(values))
                )
                row_converged[rows_of_app] &= settled
                periods[rows_of_app, column] = values
            iterations_used[rows] = pass_index
            if pass_index > 1:
                # Mirror the scalar loop: the paper's first pass always
                # completes; convergence can stop refinement only from
                # the second pass on.
                active_rows = active_rows & ~row_converged

        return _ResultBatch(
            structure,
            use_cases,
            self.waiting_model.name,
            self.isolation_periods,
            (_time.perf_counter() - started) / batch,
            periods,
            wait,
            iterations_used,
        )


@dataclass
class _ProcessorBatch:
    """One shared processor's residents lowered into kernel arrays."""

    residents: List[Tuple[str, str]]
    vectors: ResidentVectors
    app_columns: object  # (n,) int array: resident -> mask column
    wait_columns: object  # (n,) int array: resident -> wait column
    other_ok: object  # (n, n) 0/1: who may delay whom
    tauq: object = None  # (n,) array: tau * q per resident (Def. 4)


@dataclass
class _BatchStructure:
    """Everything use-case independent about the batched pipeline.

    The wait matrix has one column per ``keys`` entry: every
    application's actors in ``actor_names`` order, application after
    application, so ``spans[app]`` is the ``(low, high)`` column range
    of one application.  ``tau`` (array) and ``taus`` (floats) hold
    each column's execution time.
    """

    app_columns: Dict[str, int]
    processors: List[_ProcessorBatch]
    keys: List[Tuple[str, str]]
    spans: Dict[str, Tuple[int, int]]
    taus: List[float]
    tau: object


@dataclass(eq=False, repr=False)
class _ResultBatch(collections.abc.Sequence):
    """The rows of one batched ``estimate_many``, built when read.

    Holds the batch's ``(batch, applications)`` period matrix,
    ``(batch, actors)`` wait matrix (columns as in
    :class:`_BatchStructure`) and per-row pass counts.  The first read
    of any kind (an index, a slice, iteration) builds every row in one
    pass from one ``tolist()`` of the period matrix and one of the pass
    counts, and keeps them.  A row's ``waiting_times`` /
    ``response_times`` are :class:`_RowTable` views of its wait-matrix
    row.  The batch compares ``==`` to the list of its rows, slices to
    a list, and pickles and copies as that list.
    """

    _structure: _BatchStructure
    _use_cases: List[UseCase]
    _model_name: str
    _isolation: Dict[str, float]
    _seconds: float  # amortized analysis_seconds of every row
    _periods: object  # (batch, applications) array
    _wait: object  # (batch, actors) array
    _passes: object  # (batch,) int array: iterations_used per row

    def __post_init__(self) -> None:
        self._built: Optional[List[EstimationResult]] = None

    def _rows(self) -> List[EstimationResult]:
        """Every row, built on the batch's first read."""
        if self._built is None:
            structure, isolation, wait = (
                self._structure, self._isolation, self._wait
            )
            columns, name, seconds = (
                structure.app_columns, self._model_name, self._seconds
            )
            self._built = [
                EstimationResult(
                    use_case,
                    name,
                    {
                        app: period_row[columns[app]]
                        for app in use_case.applications
                    },
                    {app: isolation[app] for app in use_case.applications},
                    _RowTable(structure, use_case, wait, index, False),
                    _RowTable(structure, use_case, wait, index, True),
                    used,
                    seconds,
                )
                for index, (use_case, period_row, used) in enumerate(
                    zip(
                        self._use_cases,
                        self._periods.tolist(),
                        self._passes.tolist(),
                    )
                )
            ]
        return self._built

    def __len__(self) -> int:
        return len(self._use_cases)

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self):
        return iter(self._rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _ResultBatch)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._rows())

    def __reduce__(self):
        return list, (self._rows(),)


class _RowTable(collections.abc.Mapping):
    """One batched row's per-actor table, built into a dict on first read.

    ``waiting_times`` / ``response_times`` of a batched result.  Until
    read it holds only the batch's wait matrix and its row index; the
    first read converts that row and builds the dict, keyed in use-case
    order, then ``actor_names`` order.  A response time is
    ``tau + wait``, the same IEEE add as the scalar path's.  The table
    compares ``==`` to its dict, and pickles and copies as it.
    """

    __slots__ = ("_source", "_table")

    def __init__(self, structure, use_case, wait, index, add_tau) -> None:
        self._source = (structure, use_case, wait, index, add_tau)
        self._table: Optional[Dict[Tuple[str, str], float]] = None

    def _dict(self) -> Dict[Tuple[str, str], float]:
        if self._table is None:
            structure, use_case, wait, index, add_tau = self._source
            wait_row = wait[index].tolist()
            table: Dict[Tuple[str, str], float] = {}
            for app in use_case:
                low, high = structure.spans[app]
                values = wait_row[low:high]
                if add_tau:
                    values = map(
                        operator.add, structure.taus[low:high], values
                    )
                table.update(zip(structure.keys[low:high], values))
            self._table = table
            self._source = None
        return self._table

    def __getitem__(self, key: Tuple[str, str]) -> float:
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __contains__(self, key: object) -> bool:
        return key in self._dict()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RowTable):
            other = other._dict()
        return self._dict() == other

    def __repr__(self) -> str:
        return repr(self._dict())

    def __getstate__(self) -> Dict[Tuple[str, str], float]:
        return self._dict()

    def __setstate__(self, table: Dict[Tuple[str, str], float]) -> None:
        self._source = None
        self._table = table


def _same_analysis_graph(first: SDFGraph, second: SDFGraph) -> bool:
    """Whether two graphs are interchangeable for period analysis.

    A shared engine built from a *different* design variant (same
    application name, scaled timings or re-wired channels) would
    silently answer for the wrong graph — compare the analysis-relevant
    content, not object identity, so re-deserialized but equal graphs
    stay accepted.
    """
    if first is second:
        return True
    if first.actor_names != second.actor_names:
        return False
    if first.execution_times() != second.execution_times():
        return False
    def channel_signature(graph: SDFGraph):
        return sorted(
            (
                c.source,
                c.target,
                c.production_rate,
                c.consumption_rate,
                c.initial_tokens,
            )
            for c in graph.channels
        )
    return channel_signature(first) == channel_signature(second)


def estimate_use_case(
    graphs: Sequence[SDFGraph],
    use_case: Optional[UseCase] = None,
    mapping: Optional[Mapping] = None,
    waiting_model: WaitingModel | str = "second_order",
    iterations: int = 1,
) -> EstimationResult:
    """One-shot convenience wrapper around :class:`ProbabilisticEstimator`."""
    estimator = ProbabilisticEstimator(
        graphs, mapping=mapping, waiting_model=waiting_model
    )
    return estimator.estimate(use_case=use_case, iterations=iterations)
