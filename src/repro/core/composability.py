"""The composability algebra (Eq. 6–9, Section 4.2).

Two actors ``a`` and ``b`` sharing a node can be merged into a single
aggregate actor whose blocking probability and expected-delay contribution
approximate theirs combined::

    P_ab          = P_a (+) P_b = P_a + P_b - P_a P_b            (Eq. 6)
    mu_ab P_ab    = mu_a P_a (x) mu_b P_b
                  = mu_a P_a (1 + P_b/2) + mu_b P_b (1 + P_a/2)  (Eq. 7)

``(+)`` is exact and associative (it is the union of independent events);
``(x)`` is associative only up to second order, so the fold order is fixed
(left to right in deterministic actor order) for reproducibility.  The
inverses

    P_rest        = (P_total - P_b) / (1 - P_b)                  (Eq. 8)
    mu_rest P_rest = (mu_total P_total
                      - mu_b P_b (1 + P_rest/2)) / (1 + P_b/2)   (Eq. 9)

remove one actor from an aggregate, enabling the O(n) analysis and the
O(1) incremental updates used for run-time admission control: keep one
aggregate per processor, and derive any actor's waiting time by removing
just that actor from the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.blocking import ActorProfile, ResidentVectors
from repro.exceptions import AnalysisError

_PROBABILITY_CEILING = 1.0 - 1e-12
_SATURATED = (
    "cannot decompose an actor with blocking probability 1 "
    "(Eq. 8 requires P_b != 1)"
)


@dataclass(frozen=True)
class Composite:
    """An aggregate pseudo-actor: ``P`` and ``mu*P`` of a set of actors."""

    probability: float
    waiting_product: float

    @classmethod
    def empty(cls) -> "Composite":
        """Aggregate of no actors: never blocks, causes no waiting."""
        return cls(probability=0.0, waiting_product=0.0)

    @classmethod
    def of_profile(cls, profile: ActorProfile) -> "Composite":
        return cls(
            probability=profile.probability,
            waiting_product=profile.mu * profile.probability,
        )

    @property
    def mu(self) -> float:
        """Average blocking time of the aggregate (``mu = muP / P``)."""
        if self.probability == 0.0:
            return 0.0
        return self.waiting_product / self.probability


def prob_compose(pa: float, pb: float) -> float:
    """``P_a (+) P_b`` (Eq. 6): probability that *either* actor blocks."""
    return pa + pb - pa * pb


def prob_decompose(p_total: float, pb: float) -> float:
    """Inverse of :func:`prob_compose` (Eq. 8): remove ``pb`` from the
    aggregate.  Undefined for ``pb = 1`` (the paper notes the same
    restriction)."""
    if pb >= _PROBABILITY_CEILING:
        raise AnalysisError(_SATURATED)
    return (p_total - pb) / (1.0 - pb)


def compose(x: Composite, y: Composite) -> Composite:
    """``(x, y) -> x (+)/(x) y`` — merge two aggregates (Eq. 6 and 7)."""
    return Composite(
        probability=prob_compose(x.probability, y.probability),
        waiting_product=(
            x.waiting_product * (1.0 + y.probability / 2.0)
            + y.waiting_product * (1.0 + x.probability / 2.0)
        ),
    )


def decompose(total: Composite, y: Composite) -> Composite:
    """Remove aggregate ``y`` from ``total`` (Eq. 8 and 9).

    ``decompose(compose(x, y), y)`` returns ``x`` exactly (up to floating
    point), a property the test suite verifies.
    """
    rest_probability = prob_decompose(total.probability, y.probability)
    rest_waiting = (
        total.waiting_product
        - y.waiting_product * (1.0 + rest_probability / 2.0)
    ) / (1.0 + y.probability / 2.0)
    return Composite(
        probability=rest_probability, waiting_product=rest_waiting
    )


def compose_all(
    items: Iterable[ActorProfile | Composite],
) -> Composite:
    """Left-fold of :func:`compose` over profiles/aggregates."""
    result = Composite.empty()
    for item in items:
        if isinstance(item, ActorProfile):
            item = Composite.of_profile(item)
        result = compose(result, item)
    return result


def batched_waiting_composition(
    vectors: ResidentVectors, inc, xp
):
    """Eq. 6/7 folds for every ``(use-case, own actor)`` pair at once.

    ``inc[u, o, i] = 1`` iff resident ``i`` is an active contender of
    resident ``o`` in batch row ``u``.  The fold walks the residents in
    processor order — exactly the scalar ``compose_all`` order — and
    each step applies :func:`compose`'s arithmetic elementwise, leaving
    the entries that exclude the resident unchanged, so every ``(u, o)``
    entry reproduces the scalar left fold of
    :class:`CompositionWaitingModel` bit for bit, for both variants.

    Returns an array of shape ``(U, n)`` of ``mu.P`` waiting products.

    Each step runs in place in preallocated ``(U, n)`` arrays.  Instead
    of a select, an excluded resident enters the step with ``P = 0``
    and ``mu.P = 0`` (``inc`` times its values): the step then computes
    ``waiting * 1.0 + 0.0`` and ``probability + 0.0 - 0.0``, which leave
    both folds' bits unchanged, while an included resident runs
    :func:`compose`'s expressions in their order.  Halving is a
    multiplication by 0.5, the same correctly rounded value.
    """
    U, n, _ = inc.shape
    rowwise = getattr(vectors.probability, "ndim", 1) > 1
    waiting = xp.zeros((U, n))
    probability = xp.zeros((U, n))
    p_k, wp_k, scratch = (xp.empty((U, n)) for _ in range(3))
    for k in range(n):
        for values, masked in (
            (vectors.probability, p_k),
            (vectors.waiting_product, wp_k),
        ):
            # Per-row values: a (U, 1) column broadcast over the owner
            # axis, same fold arithmetic per row.
            value = values[:, k, None] if rowwise else float(values[k])
            xp.multiply(inc[:, :, k], value, out=masked)
        # waiting * (1 + p_k/2) + wp_k * (1 + probability/2)
        xp.multiply(p_k, 0.5, out=scratch)
        xp.add(scratch, 1.0, out=scratch)
        xp.multiply(waiting, scratch, out=waiting)
        xp.multiply(probability, 0.5, out=scratch)
        xp.add(scratch, 1.0, out=scratch)
        xp.multiply(wp_k, scratch, out=scratch)
        xp.add(waiting, scratch, out=waiting)
        if k + 1 < n:  # the last probability is never read
            # probability + p_k - probability * p_k
            xp.multiply(probability, p_k, out=scratch)
            xp.add(probability, p_k, out=probability)
            xp.subtract(probability, scratch, out=probability)
    return waiting


class CompositionWaitingModel:
    """Composability-based waiting model (Section 4.2).

    Both variants compose the *other* actors directly with the Eq. 6/7
    left fold (O(n) per actor, O(n^2) per node), the arithmetic of the
    batched kernel, so the scalar loop and the kernel give the same
    bits.  ``incremental=True`` keeps the inverse formulation's domain:
    it refuses an actor with blocking probability 1 that has
    contenders, since Eq. 8 cannot decompose it out of its node's
    aggregate.  The inverse operators themselves (:func:`decompose`)
    serve the admission controller's O(1) updates.
    """

    complexity = "O(n)"
    #: The batch kernel accepts per-row (U, n) blocking probabilities.
    batch_rowwise = True

    def __init__(self, incremental: bool = False) -> None:
        self.incremental = incremental
        self.name = "composability" + ("-incremental" if incremental else "")

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        if not others:
            return 0.0
        if self.incremental and own.probability >= _PROBABILITY_CEILING:
            raise AnalysisError(_SATURATED)
        return compose_all(others).waiting_product

    def waiting_times_batch(
        self, vectors: ResidentVectors, inc, own_active, xp
    ):
        """Batched Eq. 6/7 fold (shared by both variants — see
        :func:`batched_waiting_composition`).

        The incremental variant enforces the scalar loop's Eq. 8
        restriction first: an *active* actor with blocking probability
        1 and at least one active contender cannot be decomposed out of
        its aggregate, so the batch raises exactly where the scalar
        loop would.
        """
        if self.incremental and bool(
            xp.any(vectors.probability >= _PROBABILITY_CEILING)
        ):
            at_ceiling = vectors.probability >= _PROBABILITY_CEILING
            if getattr(at_ceiling, "ndim", 1) == 1:
                at_ceiling = at_ceiling[None, :]
            affected = (
                (own_active > 0) & at_ceiling & (inc.sum(axis=2) > 0)
            )
            if bool(xp.any(affected)):
                raise AnalysisError(_SATURATED)
        return batched_waiting_composition(vectors, inc, xp)
