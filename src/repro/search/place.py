"""The high-level placement API: gallery + targets in, best config out.

:func:`place` is what ``repro place`` and the fleet's ``place`` verb
call: it assembles the :class:`~repro.search.space.SearchSpace`, the
:class:`~repro.search.evaluate.CandidateEvaluator` and the requested
strategy, and packages the winner as a JSON-serializable
:class:`~repro.search.result.PlacementResult`.

Targets may be given explicitly (``targets={"A": 120.0}``) or derived
from a slack factor exactly like the runtime gallery's requirements
(:func:`~repro.runtime.manager.gallery_from_graphs`): each
application's target is ``slack`` times its isolation period.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis_engine import AnalysisEngine, build_engines
from repro.exceptions import AnalysisError
from repro.platform.platform import Platform
from repro.sdf.analysis import AnalysisMethod
from repro.sdf.graph import SDFGraph
from repro.search.evaluate import CandidateEvaluator
from repro.search.objective import Constraint, Objective
from repro.search.result import ChosenPlacement, PlacementResult
from repro.search.space import DEFAULT_MAPPINGS, SearchSpace
from repro.search.strategies import StrategyOptions, run_strategy

#: Default slack factor of derived targets (mirrors the runtime
#: gallery's requirement derivation).
DEFAULT_SLACK = 2.5

#: Default WRR slice weights the space searches over.
DEFAULT_WEIGHT_CHOICES: Tuple[int, ...] = (1, 2)


def derive_targets(
    graphs: Sequence[SDFGraph],
    engines: Optional[Dict[str, AnalysisEngine]] = None,
    slack: float = DEFAULT_SLACK,
) -> Dict[str, Optional[float]]:
    """``slack`` × isolation period per application."""
    if slack <= 1.0:
        raise AnalysisError(
            f"slack must exceed 1.0 (isolation is the floor), got {slack}"
        )
    if engines is None:
        engines = build_engines(list(graphs), AnalysisMethod.MCR)
    return {
        graph.name: engines[graph.name].period() * slack
        for graph in graphs
    }


def place(
    graphs: Sequence[SDFGraph],
    platform: Optional[Platform] = None,
    targets: Optional[Dict[str, Optional[float]]] = None,
    slack: float = DEFAULT_SLACK,
    strategy: str = "greedy",
    model: str = "wrr",
    method: AnalysisMethod = AnalysisMethod.MCR,
    objective: str = "total_period",
    seed: Optional[int] = 0,
    mappings: Sequence[str] = DEFAULT_MAPPINGS,
    weight_choices: Optional[Sequence[int]] = DEFAULT_WEIGHT_CHOICES,
    priority_levels: Optional[Sequence[float]] = None,
    engines: Optional[Dict[str, AnalysisEngine]] = None,
    options: Optional[StrategyOptions] = None,
) -> PlacementResult:
    """Search the placement space of ``graphs`` for the best feasible
    configuration.

    Parameters
    ----------
    graphs:
        The application gallery.
    platform:
        Target platform (default: homogeneous, wide enough).
    targets:
        Explicit per-application period targets; derived from
        ``slack`` × isolation period when omitted.
    slack:
        Slack factor of derived targets (ignored when ``targets``
        given).
    strategy:
        One of :data:`~repro.search.strategies.STRATEGIES`.
    model:
        Waiting-model spec; a bare weights-capable name when
        ``weight_choices`` is set (the space appends weight vectors).
    objective:
        ``total_period``, ``makespan`` or ``feasible``.
    seed:
        Seed of the stochastic strategies; same seed, same gallery,
        same space ⇒ byte-identical result JSON.
    mappings / weight_choices / priority_levels:
        The space's axes (see :class:`SearchSpace`).
    engines:
        Shared analysis engines for the batched evaluator.
    options:
        Extra strategy knobs; ``seed`` here overrides the option's.
    """
    space = SearchSpace(
        graphs,
        platform=platform,
        mappings=mappings,
        model=model,
        weight_choices=weight_choices,
        priority_levels=priority_levels,
    )
    if engines is None:
        engines = build_engines(list(space.graphs), method=method)
    if targets is None:
        targets = derive_targets(space.graphs, engines, slack)
    else:
        unknown = sorted(set(targets) - set(space.application_names))
        if unknown:
            raise AnalysisError(
                f"targets name unknown applications {unknown!r}; "
                f"gallery: {sorted(space.application_names)}"
            )
    objective_value = Objective(objective)
    constraint = Constraint(dict(targets))
    evaluator = CandidateEvaluator(
        space,
        objective=objective_value,
        constraint=constraint,
        method=method,
        engines=engines,
    )
    if options is None:
        options = StrategyOptions(seed=seed)
    elif options.seed != seed:
        from dataclasses import replace as _replace

        options = _replace(options, seed=seed)
    outcome = run_strategy(strategy, space, evaluator, options)
    best = outcome.best
    return PlacementResult(
        strategy=strategy,
        model=model,
        method=method.value,
        objective=objective,
        seed=seed,
        applications=space.application_names,
        targets=dict(targets),
        space=space.summary(),
        feasible=best.feasible,
        best=ChosenPlacement(
            candidate=best.candidate.key,
            mapping=best.candidate.mapping,
            priorities={
                app: level for app, level in best.candidate.priorities
            },
            weights={app: weight for app, weight in best.candidate.weights},
            model=best.model,
            periods=dict(best.periods),
            objective_value=best.objective_value,
            violations=dict(best.violations),
        ),
        evaluated=outcome.evaluated,
        steps=outcome.steps,
        trace=outcome.trace,
    )
