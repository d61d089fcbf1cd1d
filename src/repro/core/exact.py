"""The exact n-actor waiting-time formula (Eq. 4 of the paper).

``waiting_time_exact(others)`` answers: *when an actor arrives at its
processor, how long does it expect to wait for the actors in ``others``?*
Underlying queueing model (Section 3.2):

* each other actor ``a_i`` independently occupies the node with its
  blocking probability ``P_i``;
* among the actors present, every arrival order is equally likely, so
  each is at the head of the queue with equal probability;
* the head actor is half-way through on average (``mu = tau/2``), every
  queued actor still needs its full ``tau = 2 mu``.

Eq. 4 is the closed form of that model::

    mu.P(a1..an) = sum_i mu_i P_i (1 + sum_{j=1}^{n-1} (-1)^(j+1)/(j+1)
                                       e_j(P_1..P_{i-1}, P_{i+1}..P_n))

with ``e_j`` the elementary symmetric polynomials.  The module also ships
:func:`waiting_time_enumeration`, a direct ``O(2^n)`` evaluation of the
queueing model, kept as an independent oracle: the test suite checks both
agree to machine precision, standing in for the proofs in the paper's
unavailable technical report [8].
"""

from __future__ import annotations

from typing import Sequence

from repro.core.approximation import (
    batched_waiting_series,
    waiting_time_order_m,
)
from repro.core.blocking import ActorProfile, ResidentVectors


def waiting_time_exact(others: Sequence[ActorProfile]) -> float:
    """Expected waiting time caused by ``others`` sharing the node (Eq. 4).

    The untruncated series: :func:`waiting_time_order_m` at order ``n``,
    whose leave-one-out recurrence costs ``O(n^2)`` arithmetic
    operations (the paper quotes ``O(n.n^n)`` for a naive expansion;
    the combinatorics are identical).  It is the same arithmetic as the
    batched kernel's, so both give the same bits.
    """
    if not others:
        return 0.0
    return waiting_time_order_m(others, len(others))


def waiting_time_enumeration(others: Sequence[ActorProfile]) -> float:
    """Direct evaluation of the queueing model behind Eq. 4 (test oracle).

    Enumerates every subset ``S`` of present actors; the arriving actor
    waits for the head's residual time plus the full execution time of
    everyone queued behind the head::

        E[wait] = sum_S  P(S present) * (1/|S|) *
                  sum_{head in S} ( mu_head + sum_{s != head} tau_s )

    Exponential in ``len(others)``; use only for validation.
    """
    n = len(others)
    if n == 0:
        return 0.0
    total = 0.0
    for mask in range(1, 2**n):
        present = [
            others[i] for i in range(n) if mask & (1 << i)
        ]
        probability = 1.0
        for i in range(n):
            if mask & (1 << i):
                probability *= others[i].probability
            else:
                probability *= 1.0 - others[i].probability
        if probability == 0.0:
            continue
        size = len(present)
        scenario_wait = 0.0
        sum_tau = sum(p.tau for p in present)
        for head in present:
            scenario_wait += head.mu + (sum_tau - head.tau)
        total += probability * scenario_wait / size
    return total


class ExactWaitingModel:
    """Eq. 4 as a :class:`~repro.core.waiting.WaitingModel`."""

    name = "exact"
    complexity = "O(n^2) per actor"
    #: The batch kernel accepts per-row (U, n) blocking probabilities
    #: (fixed-point refinement); see supports_rowwise_batch.
    batch_rowwise = True

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        """Expected waiting of ``own`` given co-mapped ``others``."""
        return waiting_time_exact(others)

    def waiting_times_batch(
        self, vectors: ResidentVectors, inc, own_active, xp
    ):
        """Batched Eq. 4: the untruncated series for every pair."""
        return batched_waiting_series(vectors, inc, None, xp)
