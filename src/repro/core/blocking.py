"""Blocking probability and average blocking time (Definitions 4 and 5).

For an actor ``a`` of application ``A`` executing in isolation with period
``Per(A)``:

* ``P(a) = tau(a) * q(a) / Per(A)`` — the probability that, at a random
  instant, the processor hosting ``a`` is busy executing ``a``
  (Definition 4).  ``a`` runs ``q(a)`` times per iteration for ``tau(a)``
  each, so it occupies the node for ``tau*q`` out of every ``Per(A)`` time
  units.
* ``mu(a) = tau(a) / 2`` — the expected *remaining* execution time when an
  independent observer arrives and finds ``a`` running (Definition 5):
  the arrival instant is uniform over the execution interval (Eq. 1–2).
  For stochastic execution times ``mu`` generalizes to the mean residual
  life ``E[X^2] / (2 E[X])`` — see :mod:`repro.core.distributions`.

:func:`build_profiles` assembles these quantities for every actor of every
application of a use-case, which is what every waiting model consumes.

For the batched estimation pipeline, :func:`resident_vectors` lowers
the profiles of one processor's residents into parallel arrays
(probability, ``mu``, ``tau``, ``mu * P``) — the representation the
batched waiting kernels consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import AnalysisError
from repro.sdf.analysis import period as analytical_period
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


@dataclass(frozen=True)
class ActorProfile:
    """Everything the contention formulas need to know about one actor.

    Attributes
    ----------
    application / actor:
        Identity of the actor instance.
    tau:
        Execution time on its node (``tau(a)``).
    repetitions:
        Repetition-vector entry ``q(a)``.
    period:
        Period of the owning application used when computing ``P``
        (isolation period in the paper's single-pass algorithm; updated
        periods in the fixed-point variant).
    probability:
        Blocking probability ``P(a)``.
    mu:
        Average blocking time ``mu(a)``.
    priority:
        Static arbitration priority (larger = more urgent), populated
        from the :class:`~repro.platform.mapping.Mapping`; only
        priority-aware waiting models read it (default 0 everywhere, in
        which case those models degrade to their FCFS behaviour).
    """

    application: str
    actor: str
    tau: float
    repetitions: int
    period: float
    probability: float
    mu: float
    priority: float = 0.0

    @property
    def waiting_product(self) -> float:
        """``mu(a) * P(a)`` — the actor's expected-delay contribution."""
        return self.mu * self.probability

    def with_period(self, period: float) -> "ActorProfile":
        """Profile re-derived for a different application period."""
        return build_profile(
            application=self.application,
            actor=self.actor,
            tau=self.tau,
            repetitions=self.repetitions,
            period=period,
            mu=self.mu,
            priority=self.priority,
        )


def blocking_probability(
    tau: float, repetitions: int, period: float
) -> float:
    """``P(a) = tau(a) . q(a) / Per(A)`` (Definition 4).

    The utilization of the node by this actor; values above 1 are
    impossible for a feasible application and rejected.
    """
    if period <= 0:
        raise AnalysisError(f"period must be positive, got {period}")
    if tau < 0 or repetitions < 1:
        raise AnalysisError(
            f"invalid actor timing: tau={tau}, q={repetitions}"
        )
    probability = tau * repetitions / period
    if probability > 1.0 + 1e-9:
        raise AnalysisError(
            f"blocking probability {probability:.4f} exceeds 1: actor "
            f"busy time tau*q={tau * repetitions:g} exceeds period "
            f"{period:g}"
        )
    return min(probability, 1.0)


def average_blocking_time(tau: float) -> float:
    """``mu(a) = tau(a) / 2`` for a constant execution time (Eq. 2)."""
    if tau <= 0:
        raise AnalysisError(f"execution time must be positive, got {tau}")
    return tau / 2.0


def build_profile(
    application: str,
    actor: str,
    tau: float,
    repetitions: int,
    period: float,
    mu: Optional[float] = None,
    priority: float = 0.0,
) -> ActorProfile:
    """Assemble one :class:`ActorProfile`; ``mu`` defaults to ``tau/2``."""
    return ActorProfile(
        application=application,
        actor=actor,
        tau=tau,
        repetitions=repetitions,
        period=period,
        probability=blocking_probability(tau, repetitions, period),
        mu=mu if mu is not None else average_blocking_time(tau),
        priority=priority,
    )


def build_profiles(
    graphs: Sequence[SDFGraph],
    periods: Optional[Mapping[str, float]] = None,
    mus: Optional[Mapping[Tuple[str, str], float]] = None,
    priorities: Optional[Mapping[Tuple[str, str], float]] = None,
) -> Dict[Tuple[str, str], ActorProfile]:
    """Profiles for every actor of every application.

    Parameters
    ----------
    graphs:
        The applications of the use-case.
    periods:
        Per-application periods to use for ``P``; computed analytically
        (isolation periods, Definition 3) when omitted.
    mus:
        Optional ``(application, actor) -> mu`` overrides, used by the
        stochastic-execution-time extension where ``mu`` is the mean
        residual life rather than ``tau/2``.
    priorities:
        Optional ``(application, actor) -> priority`` values (from the
        mapping); absent keys default to 0.

    Returns
    -------
    dict
        ``(application, actor) -> ActorProfile``.
    """
    profiles: Dict[Tuple[str, str], ActorProfile] = {}
    for graph in graphs:
        if periods is not None and graph.name in periods:
            app_period = periods[graph.name]
        else:
            app_period = analytical_period(graph)
        q = repetition_vector(graph)
        for actor in graph.actors:
            key = (graph.name, actor.name)
            profiles[key] = build_profile(
                application=graph.name,
                actor=actor.name,
                tau=actor.execution_time,
                repetitions=q[actor.name],
                period=app_period,
                mu=mus.get(key) if mus is not None else None,
                priority=(
                    priorities.get(key, 0.0)
                    if priorities is not None
                    else 0.0
                ),
            )
    return profiles


@dataclass(frozen=True)
class ResidentVectors:
    """One processor's resident profiles as parallel arrays.

    The layout consumed by the batched waiting kernels: entry ``i`` of
    every array describes the ``i``-th resident of the processor, in the
    deterministic resident order of
    :meth:`~repro.platform.mapping.Mapping.actors_on` (which is also the
    fold order of the scalar composability model).
    """

    probability: object  # (n,) array — or (U, n) per-row (fixed point)
    mu: object  # (n,) array
    tau: object  # (n,) array
    waiting_product: object  # mu * probability, same shape as probability
    priority: object = None  # (n,) array (0.0 where unset)
    applications: Tuple[str, ...] = ()  # owning application per resident

    def with_probability(self, probability) -> "ResidentVectors":
        """Same residents with replaced blocking probabilities.

        ``probability`` may be ``(n,)`` or per-batch-row ``(U, n)``;
        ``waiting_product`` is re-derived (``mu`` is period-independent,
        so it carries over).  This is how the fixed-point estimator
        re-derives the period-dependent fields each refinement pass
        without rebuilding the whole structure.
        """
        return ResidentVectors(
            probability=probability,
            mu=self.mu,
            tau=self.tau,
            waiting_product=self.mu * probability,
            priority=self.priority,
            applications=self.applications,
        )


def resident_vectors(
    profiles: Sequence[ActorProfile], xp
) -> ResidentVectors:
    """Lower resident profiles into :class:`ResidentVectors` arrays."""
    probability = xp.asarray(
        [p.probability for p in profiles], dtype=float
    )
    mu = xp.asarray([p.mu for p in profiles], dtype=float)
    tau = xp.asarray([p.tau for p in profiles], dtype=float)
    return ResidentVectors(
        probability=probability,
        mu=mu,
        tau=tau,
        waiting_product=mu * probability,
        priority=xp.asarray(
            [p.priority for p in profiles], dtype=float
        ),
        applications=tuple(p.application for p in profiles),
    )
