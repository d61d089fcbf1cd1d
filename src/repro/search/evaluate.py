"""Batched candidate evaluation: one strategy step, one vectorized solve.

The naive way to score ``k`` placement candidates is ``k`` independent
:class:`~repro.core.estimator.ProbabilisticEstimator` constructions and
``k`` scalar period solves per application — every candidate re-derives
the isolation periods, re-expands every HSDF graph and re-builds every
solver.  :class:`CandidateEvaluator` shares all of that across the
whole search:

* shared :class:`~repro.analysis_engine.AnalysisEngine` instances (one
  per application), so expansions and solver structures are paid once;
* isolation periods and contention profiles (``P``, ``mu`` — mapping-
  independent) computed once at construction;
* per candidate, only the cheap scalar waiting arithmetic runs — the
  exact loop of the estimator's ``_waiting_and_response`` (same
  processor order, same resident sets, same ``include_same_application``
  semantics) — producing one full per-actor response-time vector per
  application;
* then **one** :meth:`~repro.analysis_engine.AnalysisEngine.period_for`
  call per application covers *every candidate in the batch*: a batch of
  at least :data:`~repro.backend.BATCH_MIN_ROWS` candidates takes the
  ``solve_many`` batched-certification fast path when NumPy is
  importable; a smaller one runs memoized scalar solves, which give the
  same bits.

Feasibility and ranking reuse :func:`~repro.search.feasibility.
check_feasibility` and :func:`~repro.search.objective.rank_key`, so the
evaluator, the admission controller and the runtime manager agree on
what "fits" means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis_engine import AnalysisEngine, build_engines
from repro.core.blocking import ActorProfile, build_profiles
from repro.core.registry import create_waiting_model
from repro.exceptions import AnalysisError
from repro.sdf.analysis import AnalysisMethod
from repro.search.feasibility import check_feasibility
from repro.search.objective import Constraint, Objective, rank_key
from repro.search.space import Candidate, SearchSpace
from repro.telemetry import get_registry, get_tracer


@dataclass(frozen=True)
class EvaluatedCandidate:
    """A candidate with its predicted periods and rank."""

    candidate: Candidate
    model: str
    periods: Dict[str, float]
    feasible: bool
    violations: Dict[str, float]
    objective_value: float

    @property
    def rank(self) -> Tuple[int, float, str]:
        """The total order of :func:`repro.search.objective.rank_key`."""
        return rank_key(
            self.feasible,
            self.objective_value,
            self.violations,
            self.candidate.key,
        )

    @property
    def score(self) -> float:
        """The scalar a trace entry reports: objective when feasible,
        violation total otherwise."""
        return self.rank[1]


class CandidateEvaluator:
    """Score batches of candidates of one :class:`SearchSpace`.

    Parameters
    ----------
    space:
        The space whose candidates are evaluated.
    objective / constraint:
        What to minimize and what must hold (defaults: total period,
        no targets).
    method:
        Period-analysis method of the shared engines.
    engines:
        Pre-built shared engines (built on demand when omitted).
    """

    def __init__(
        self,
        space: SearchSpace,
        objective: Optional[Objective] = None,
        constraint: Optional[Constraint] = None,
        method: AnalysisMethod = AnalysisMethod.MCR,
        engines: Optional[Dict[str, AnalysisEngine]] = None,
    ) -> None:
        self.space = space
        self.objective = objective if objective is not None else Objective()
        self.constraint = (
            constraint if constraint is not None else Constraint()
        )
        self.method = method
        self.engines = (
            engines
            if engines is not None
            else build_engines(list(space.graphs), method=method)
        )
        missing = [
            g.name for g in space.graphs if g.name not in self.engines
        ]
        if missing:
            raise AnalysisError(
                f"no analysis engine for applications {missing!r}"
            )
        #: Isolation periods (Definition 3) via the shared engines.
        self.isolation_periods: Dict[str, float] = {
            graph.name: self.engines[graph.name].period()
            for graph in space.graphs
        }
        # P and mu depend only on tau, q and the isolation period —
        # never on the candidate's mapping/priorities/weights — so the
        # profiles are built once; candidates only override priority.
        self._base_profiles: Dict[Tuple[str, str], ActorProfile] = (
            build_profiles(
                list(space.graphs), periods=dict(self.isolation_periods)
            )
        )
        #: Waiting-model instances by spec (weight vectors recur across
        #: candidates, so the cache is small and hot).
        self._models: Dict[str, object] = {}
        self._tracer = get_tracer()
        registry = get_registry()
        self._metric_candidates = registry.counter(
            "repro_search_candidates_total",
            "Placement candidates evaluated",
        )
        self._metric_batches = registry.counter(
            "repro_search_batches_total",
            "Batched candidate evaluations",
        )

    # ------------------------------------------------------------------
    def _model_for(self, spec: str):
        model = self._models.get(spec)
        if model is None:
            model = create_waiting_model(spec)
            check = getattr(model, "check_applications", None)
            if callable(check):
                check(self.space.application_names)
            self._models[spec] = model
        return model

    def _responses(
        self, candidate: Candidate
    ) -> Dict[Tuple[str, str], float]:
        """The estimator's steps 7–10 for one candidate configuration."""
        mapping = self.space.mapping_of(candidate)
        model = self._model_for(self.space.model_of(candidate))
        priorities = mapping.priorities()
        responses: Dict[Tuple[str, str], float] = {}
        for processor in mapping.platform.processor_names:
            residents = mapping.actors_on(processor)
            for app, actor in residents:
                own = self._base_profiles[(app, actor)]
                if priorities:
                    own = replace(
                        own, priority=priorities.get((app, actor), 0.0)
                    )
                others = []
                for other_app, other_actor in residents:
                    if (other_app, other_actor) == (app, actor):
                        continue
                    profile = self._base_profiles[(other_app, other_actor)]
                    if priorities:
                        profile = replace(
                            profile,
                            priority=priorities.get(
                                (other_app, other_actor), 0.0
                            ),
                        )
                    others.append(profile)
                t_wait = model.waiting_time(own, others)
                if t_wait < 0:
                    raise AnalysisError(
                        f"waiting model {getattr(model, 'name', '?')!r} "
                        f"returned negative waiting {t_wait} for "
                        f"{app}.{actor}"
                    )
                responses[(app, actor)] = own.tau + t_wait
        return responses

    # ------------------------------------------------------------------
    def evaluate(
        self, candidates: Sequence[Candidate]
    ) -> List[EvaluatedCandidate]:
        """Score a batch; returns one entry per candidate, in order."""
        candidates = list(candidates)
        if not candidates:
            return []
        with self._tracer.span(
            "search.evaluate", candidates=len(candidates)
        ):
            specs = [self.space.model_of(c) for c in candidates]
            rows: Dict[str, List[List[float]]] = {
                graph.name: [] for graph in self.space.graphs
            }
            for candidate in candidates:
                responses = self._responses(candidate)
                for graph in self.space.graphs:
                    rows[graph.name].append(
                        [
                            responses[(graph.name, actor)]
                            for actor in graph.actor_names
                        ]
                    )
            # The batched fast path: one period_for call per
            # application spans the whole candidate batch.
            periods_by_app = {
                name: self.engines[name].period_for(vectors)
                for name, vectors in rows.items()
            }
        self._metric_candidates.inc(len(candidates))
        self._metric_batches.inc()
        evaluated: List[EvaluatedCandidate] = []
        targets = dict(self.constraint.targets)
        for position, candidate in enumerate(candidates):
            periods = {
                name: float(periods_by_app[name][position])
                for name in periods_by_app
            }
            feasible, violations = check_feasibility(periods, targets)
            evaluated.append(
                EvaluatedCandidate(
                    candidate=candidate,
                    model=specs[position],
                    periods=periods,
                    feasible=feasible,
                    violations=violations,
                    objective_value=self.objective.value(periods),
                )
            )
        return evaluated

    def evaluate_one(self, candidate: Candidate) -> EvaluatedCandidate:
        return self.evaluate([candidate])[0]
