"""Worst-case response time under TDMA arbitration.

Reference [3] of the paper (Bekooij et al.) analyses dataflow graphs on
processors shared through a TDMA wheel: each co-mapped actor owns a fixed
slice of a repeating frame, so an actor only progresses during its own
slice and execution is effectively preemptive at slice boundaries.

For an actor with execution time ``tau`` and slice ``s`` in a wheel of
total length ``W = R * s`` (one slice per each of the ``R`` resident
actors here), the worst case arrival just misses its slice::

    full_slices   = ceil(tau / s)
    t_wait        = full_slices * s * (R - 1)     (= full_slices * (W - s))
    t_response    = tau + t_wait

i.e. the actor pays the foreign part of the wheel once per slice it
needs.  This is even more conservative than the round-robin bound when
utilizations are low, and it *requires preemption* — the paper uses this
to argue its probabilistic technique fits non-preemptive platforms where
TDMA analysis does not apply.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.blocking import ActorProfile, ResidentVectors
from repro.exceptions import AnalysisError


def tdma_waiting_time(
    own_tau: float,
    resident_count: int,
    slice_length: float,
) -> float:
    """Worst-case wait on a TDMA wheel: ``ceil(tau / s) * s * (R - 1)``.

    The actor pays the ``R - 1`` foreign slices of the wheel once per
    slice it needs.  Parameters as for :func:`tdma_response_time`; the
    batched kernel evaluates the same expression.
    """
    if resident_count < 1:
        raise AnalysisError("TDMA wheel needs at least one resident")
    if slice_length <= 0:
        raise AnalysisError("TDMA slice length must be positive")
    full_slices = math.ceil(own_tau / slice_length)
    return full_slices * slice_length * (resident_count - 1)


def tdma_response_time(
    own_tau: float,
    resident_count: int,
    slice_length: float,
) -> float:
    """Worst-case response time on a TDMA wheel.

    Parameters
    ----------
    own_tau:
        Execution time needing to be served.
    resident_count:
        Number of actors sharing the wheel (including the owner); each
        owns one slice.
    slice_length:
        Length of each slice.
    """
    return own_tau + tdma_waiting_time(
        own_tau, resident_count, slice_length
    )


class TDMAWaitingModel:
    """Reference-[3] TDMA bound as a waiting model.

    ``slice_length`` defaults to the owner's execution time, which is the
    most favourable wheel for the owner (a single foreign rotation).
    """

    name = "tdma"
    complexity = "O(n)"
    #: The bound reads only tau, never the blocking probabilities, so
    #: the kernel is trivially safe under per-row probabilities.
    batch_rowwise = True

    def __init__(self, slice_length: float | None = None) -> None:
        self.slice_length = slice_length

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        if not others:
            return 0.0
        slice_length = (
            self.slice_length if self.slice_length is not None else own.tau
        )
        return tdma_waiting_time(own.tau, len(others) + 1, slice_length)

    def waiting_times_batch(
        self, vectors: ResidentVectors, inc, own_active, xp
    ):
        """Batched TDMA bound.

        With ``contenders[u, o]`` active others, the wheel has
        ``contenders + 1`` slices and the waiting is
        ``ceil(tau / s) * s * contenders``, the expression of
        :func:`tdma_waiting_time` — zero when alone, matching the
        scalar early-outs.  A zero default slice (an active
        zero-``tau`` owner sharing its wheel) is rejected exactly where
        :func:`tdma_waiting_time` rejects it on the scalar path,
        instead of propagating NaN.
        """
        contenders = inc.sum(axis=2)
        if self.slice_length is not None:
            if self.slice_length <= 0:
                raise AnalysisError(
                    "TDMA slice length must be positive"
                )
            slices = xp.full_like(vectors.tau, float(self.slice_length))
        else:
            slices = vectors.tau
            bad_slice = (slices <= 0)[None, :]
            if bool(
                xp.any(
                    (own_active > 0) & bad_slice & (contenders > 0)
                )
            ):
                raise AnalysisError(
                    "TDMA slice length must be positive"
                )
        full_slices = xp.ceil(
            xp.divide(
                vectors.tau,
                slices,
                out=xp.ones_like(slices),
                where=slices > 0,
            )
        )
        return (full_slices * slices)[None, :] * contenders
