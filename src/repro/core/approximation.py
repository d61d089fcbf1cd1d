"""m-th order approximations of the exact formula (Eq. 5, Section 4.1).

The elementary-symmetric series of Eq. 4 is a sum of products of blocking
probabilities; higher-order products are small, so truncating the series
at order ``m - 1`` yields the paper's *m-th order approximation* with
complexity ``O(n^m)`` (for the naive expansion; this implementation uses
the leave-one-out recurrence and costs ``O(n*m)`` per actor).  The paper
evaluates the second order

    mu.P ~= sum_i mu_i P_i (1 + (1/2) sum_{j != i} P_j)          (Eq. 5)

and the fourth order (terms up to ``e_3``).  For ``m >= n`` the
approximation coincides with Eq. 4 exactly — a property the test suite
exploits.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.blocking import ActorProfile, ResidentVectors
from repro.core.symmetric import (
    elementary_symmetric_all,
    elementary_symmetric_batch,
    leave_one_out,
)
from repro.exceptions import AnalysisError


def waiting_time_order_m(
    others: Sequence[ActorProfile], order: int
) -> float:
    """Expected waiting caused by ``others``, series truncated at
    ``e_{order-1}``.

    ``order=2`` reproduces Eq. 5; ``order=4`` the paper's fourth-order
    variant; ``order >= len(others)`` equals :func:`waiting_time_exact`.
    """
    if order < 1:
        raise AnalysisError(f"approximation order must be >= 1, got {order}")
    n = len(others)
    if n == 0:
        return 0.0
    highest = min(order - 1, n - 1)
    probabilities = [p.probability for p in others]
    full = elementary_symmetric_all(probabilities, max_order=highest)
    total = 0.0
    for own in others:
        loo = leave_one_out(full, own.probability, max_order=highest)
        series = 1.0
        sign = 1.0
        for j in range(1, highest + 1):
            series += sign * loo[j] / (j + 1)
            sign = -sign
        total += own.mu * own.probability * series
    return total


def batched_waiting_series(
    vectors: ResidentVectors,
    inc,
    order: Optional[int],
    xp,
):
    """Eq. 4/5 for every ``(use-case, own actor)`` pair in one pass.

    Parameters
    ----------
    vectors:
        The processor's residents as parallel arrays.  ``probability``
        and ``waiting_product`` are ``(n,)`` — shared by all batch rows
        — or ``(U, n)`` with one row per batch entry (the fixed-point
        pipeline, where each use-case row carries its own periods).
    inc:
        0/1 array of shape ``(U, n, n)``; ``inc[u, o, i] = 1`` iff
        resident ``i`` is an active contender of resident ``o`` in batch
        row ``u`` (never the diagonal).
    order:
        Truncation order ``m`` of Eq. 5, or ``None`` for the full Eq. 4
        series.
    xp:
        The array module (NumPy).

    Returns
    -------
    array of shape ``(U, n)`` — expected waiting time of each resident
    per batch row (0 wherever a resident has no contenders).

    The computation runs the scalar pipeline's exact recurrences with
    the batch dimensions in front: full coefficients via the product
    recurrence (:func:`elementary_symmetric_batch`), leave-one-out
    values via synthetic division, then the alternating series.  The
    series is truncated at the *processor-wide* highest order; for batch
    entries whose active multiset is smaller, the extra coefficients are
    mathematically zero (a sub-multiset's ``e_j`` vanishes beyond its
    size), and their round-off residues fall below the series' rounding
    step, so the result has the bits of the scalar per-pair truncation
    (:func:`waiting_time_order_m`, which ``exact`` runs at order ``n``;
    the parity tests assert ``==``).
    Each row is computed with the same element-wise operations whatever
    the batch, so a row's bits do not depend on the batch it is
    evaluated in.
    """
    U, n, _ = inc.shape
    if n == 0 or U == 0:
        return xp.zeros((U, n))
    highest = n - 1 if order is None else min(order - 1, n - 1)
    probability = vectors.probability
    rowwise = getattr(probability, "ndim", 1) > 1
    # e_0..e_highest of each (u, own) pair's active-contender multiset.
    full = elementary_symmetric_batch(probability, inc, highest, xp)
    probability_i = (
        probability[:, None, :] if rowwise else probability[None, None, :]
    )
    series = xp.ones((U, n, n))
    loo = xp.ones((U, n, n))
    sign = 1.0
    for j in range(1, highest + 1):
        loo = full[..., j][:, :, None] - probability_i * loo
        series = series + sign * loo / (j + 1)
        sign = -sign
    product = vectors.waiting_product
    terms = inc * series
    terms *= product[:, None, :] if rowwise else product
    # Sum over contenders ``i`` as a left fold from 0.0, like the scalar
    # loop, not as an ``einsum``: a contraction's summation order may
    # change with the batch shape, and a row's bits must not depend on
    # the batch it rode in.
    waiting = terms[..., 0] + 0.0
    for i in range(1, n):
        waiting += terms[..., i]
    return waiting


class OrderMWaitingModel:
    """Eq. 5 (generalized to any order) as a waiting model."""

    #: The batch kernel accepts per-row (U, n) blocking probabilities.
    batch_rowwise = True

    def __init__(self, order: int) -> None:
        if order < 1:
            raise AnalysisError(
                f"approximation order must be >= 1, got {order}"
            )
        self.order = order
        self.name = f"order-{order}"
        self.complexity = f"O(n^{order})"

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        return waiting_time_order_m(others, self.order)

    def waiting_times_batch(
        self, vectors: ResidentVectors, inc, own_active, xp
    ):
        """Batched Eq. 5 over ``(use-case, actor)`` pairs."""
        return batched_waiting_series(vectors, inc, self.order, xp)
