"""Worst-case response time under non-preemptive round-robin arbitration.

Reference [6] of the paper (Hoes, "Predictable Dynamic Behavior in
NoC-based MPSoC").  Under round-robin, between any two consecutive grants
to actor ``a`` every other actor sharing the processor is served at most
once; in the worst case actor ``a``'s request arrives just as its slot
passed, so it waits the *full* execution time of every other actor::

    t_wait(a)     = sum_{b != a on node} tau(b)
    t_response(a) = tau(a) + t_wait(a)

The bound is safe for non-preemptive systems and needs only the same
limited information as the probabilistic approach (the co-mapped actors'
execution times) — but it grows linearly with the number of co-mapped
actors regardless of how rarely they actually run, which is exactly the
pessimism the paper's Figures 5 and 6 exhibit.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.blocking import ActorProfile, ResidentVectors


def worst_case_response_time(
    own_tau: float, other_taus: Sequence[float]
) -> float:
    """``tau(a) + sum of all co-mapped execution times``."""
    return own_tau + sum(other_taus)


def fold_charges(inc, charges: Sequence[float], xp):
    """``sum_i inc[u, o, i] * charges[i]`` for every ``(u, o)`` pair.

    Accumulates resident by resident in processor order from 0.0, the
    additions of the scalar loops in their order (an inactive contender
    adds an exact ``0.0``), so the round-robin kernels give the scalar
    bits.  An ``einsum`` would choose its own summation order.
    """
    U, n, _ = inc.shape
    waiting = xp.zeros((U, n))
    charge = xp.empty((U, n))
    for i in range(n):
        xp.multiply(inc[:, :, i], charges[i], out=charge)
        waiting += charge
    return waiting


class WorstCaseRRWaitingModel:
    """Reference-[6] bound as a waiting model (for the shared pipeline).

    Note the model ignores blocking probabilities entirely: the
    worst case assumes every other actor requests just before ``own``
    every single time.
    """

    name = "worst-case"
    complexity = "O(n)"
    #: The bound reads only tau, never the blocking probabilities, so
    #: the kernel is trivially safe under per-row probabilities.
    batch_rowwise = True

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        # A written-out left fold: builtin sum() compensates from
        # Python 3.12 on, and the kernel adds plainly.
        total = 0.0
        for other in others:
            total = total + other.tau
        return total

    def waiting_times_batch(
        self, vectors: ResidentVectors, inc, own_active, xp
    ):
        """Batched bound: sum of every active contender's ``tau``."""
        return fold_charges(inc, [float(tau) for tau in vectors.tau], xp)
