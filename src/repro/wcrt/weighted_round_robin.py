"""Worst-case response time under non-preemptive *weighted* round-robin.

Generalizes the reference-[6] round-robin bound
(:mod:`repro.wcrt.round_robin`): the arbiter still rotates over the
co-mapped actors, but member ``b`` may receive up to ``w(b)`` grants per
visit before the rotation advances (``w`` is assigned per application —
the bandwidth knob a platform integrator actually turns).  In the worst
case actor ``a``'s request arrives just as its own slot passed, so every
other member spends its *full* weighted allocation first::

    t_wait(a)     = sum_{b != a on node} w(app(b)) * tau(b)
    t_response(a) = tau(a) + t_wait(a)

With all weights 1 this is exactly the reference-[6] bound.  Soundness
argument (mirrors the unweighted case): after ``a`` requests, the
rotation reaches ``a`` after finishing the in-flight grant (residual
``<= tau``, part of that member's allocation) and giving every member
between the arbiter position and ``a`` at most its remaining allocation
— in total at most ``w(b) * tau(b)`` per other member ``b``.  The
matching DES policy is ``weighted_round_robin``
(:class:`~repro.simulation.arbiter.WeightedRoundRobinArbiter`); the
conformance harness checks the analytic period upper-bounds the
simulated one under seeded per-application weights.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.blocking import ActorProfile, ResidentVectors
from repro.core.specs import parse_weight_argument
from repro.exceptions import AnalysisError
from repro.wcrt.round_robin import fold_charges


def parse_weights(argument: Optional[str]) -> "dict[str, int]":
    """Parse a ``"A=2,B=1"`` weights specification (CLI model argument).

    The pair grammar itself lives in
    :func:`repro.core.specs.parse_weight_argument` (shared with the
    placement search's spec formatting); this wrapper applies the
    positive-integer weight rule on top.
    """
    return validate_weights(parse_weight_argument(argument))


def validate_weights(
    weights: Mapping[object, int],
    error: type = AnalysisError,
) -> dict:
    """Check every weight is a positive integer slice count.

    The single source of the weight rule for all three consumers — this
    model, the DES arbiter/engine (which pass their layer's ``error``
    type), and the spec parser.
    """
    for owner, weight in weights.items():
        if (
            not isinstance(weight, int)
            or isinstance(weight, bool)
            or weight < 1
        ):
            raise error(
                f"weight of {owner!r} must be an integer >= 1, "
                f"got {weight!r}"
            )
    return dict(weights)


def weighted_rr_response_time(
    own_tau: float,
    other_weighted_taus: Sequence[float],
) -> float:
    """``tau(a) + sum of every other member's weighted allocation``."""
    return own_tau + sum(other_weighted_taus)


class WeightedRRWaitingModel:
    """Weighted round-robin WCRT as a waiting model.

    Parameters
    ----------
    weights:
        Per-application slice weights; applications not listed get
        ``default_weight``.  All-defaults reduces to the reference-[6]
        round-robin bound (:class:`~repro.wcrt.round_robin.
        WorstCaseRRWaitingModel`).
    default_weight:
        Weight of unlisted applications (>= 1).
    """

    name = "weighted-rr"
    complexity = "O(n)"
    #: The bound reads only tau and weights, never the blocking
    #: probabilities, so the kernel is trivially safe per-row.
    batch_rowwise = True

    def __init__(
        self,
        weights: Optional[Mapping[str, int]] = None,
        default_weight: int = 1,
    ) -> None:
        self.weights = validate_weights(weights or {})
        self.default_weight = validate_weights(
            {"<default>": default_weight}
        )["<default>"]

    def weight_of(self, application: str) -> int:
        """Slice weight of one application."""
        return self.weights.get(application, self.default_weight)

    def check_applications(self, applications) -> None:
        """Reject weights naming applications outside the set.

        Called by the estimator (which knows the application set) so a
        typo like ``wrr:a=2`` on an A/B/C gallery fails loudly instead
        of silently producing the unweighted bound — mirroring the DES
        engine's check on ``arbitration_params['weights']``.
        """
        known = set(applications)
        unknown = sorted(set(self.weights) - known)
        if unknown:
            raise AnalysisError(
                f"weighted round-robin weights name unknown "
                f"applications {unknown!r}; known: {sorted(known)}"
            )

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        total = 0.0
        for other in others:
            total = total + self.weight_of(other.application) * other.tau
        return total

    def waiting_times_batch(
        self, vectors: ResidentVectors, inc, own_active, xp
    ):
        """Batched bound: weighted-``tau`` sum of active contenders,
        folded like the scalar loop (:func:`fold_charges`)."""
        allocations = [
            self.weight_of(application) * float(tau)
            for application, tau in zip(vectors.applications, vectors.tau)
        ]
        return fold_charges(inc, allocations, xp)
