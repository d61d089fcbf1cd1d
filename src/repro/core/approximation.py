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


#: Rows per block of :func:`batched_waiting_series`.  At ten residents
#: its six ``(n, block, n)`` work arrays take 1.2 MB together and stay
#: in a core's L2 cache (2 MiB per core on the Xeon host of the recorded
#: numbers), where whole-batch arrays, 800 KB each at 1023 rows, ran
#: out of it on every pass.
ROW_BLOCK = 256


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

    The computation runs the scalar pipeline's recurrences with the
    batch dimensions in front: full coefficients via the product
    recurrence (:func:`elementary_symmetric_batch`), leave-one-out
    values via synthetic division, then the alternating series.  Each
    pair's series is truncated at its own order, ``e_{min(m, c) - 1}``
    for ``c`` active contenders, exactly where
    :func:`waiting_time_order_m` stops (``exact`` runs it at order
    ``c``): a term past it is only *mathematically* zero, so it is not
    added.  The kernel therefore performs the scalar loop's operations
    on every pair and gives its bits (the parity tests assert ``==``).
    The scalar loop's ``x * 1.0`` and ``-1.0 * x`` steps are left out;
    they are exact in IEEE arithmetic.

    Rows are processed in blocks of :data:`ROW_BLOCK`, in place in work
    arrays allocated once per call and laid out contender-major
    (``[i, u, o]``), so per-pair and per-contender operands broadcast
    over whole contiguous slices.  Every operation is element-wise per
    row, so a row's bits do not depend on the batch it is evaluated in,
    nor on the block it falls into.
    """
    U, n, _ = inc.shape
    waiting = xp.zeros((U, n))
    if n == 0 or U == 0:
        return waiting
    highest = n - 1 if order is None else min(order - 1, n - 1)
    probability = vectors.probability
    product = vectors.waiting_product
    rowwise = getattr(probability, "ndim", 1) > 1
    # e_0..e_highest of each (u, own) pair's active-contender multiset.
    full = elementary_symmetric_batch(probability, inc, highest, xp)
    shape = (n, min(U, ROW_BLOCK), n)
    buffers = [xp.empty(shape) for _ in range(6)]
    # Each contender's P and mu.P spread over whole blocks: broadcasting
    # an (n, 1, 1) column instead runs about three times slower.
    probability_tile, product_tile = buffers[4:]
    if not rowwise:
        probability_tile[...] = probability[:, None, None]
        product_tile[...] = product[:, None, None]
    for low in range(0, U, ROW_BLOCK):
        block = slice(low, low + ROW_BLOCK)
        rows = min(U - low, ROW_BLOCK)
        included, loo, term, series, probability_i, product_i = (
            buffer[:, :rows] for buffer in buffers
        )
        xp.copyto(included, inc[block].transpose(2, 0, 1))
        if rowwise:
            xp.copyto(probability_i, probability[block].T[:, :, None])
            xp.copyto(product_i, product[block].T[:, :, None])
        counts = included.sum(axis=0)
        series.fill(1.0)
        for j in range(1, highest + 1):
            if j == 1:  # loo_0 is 1.0
                xp.subtract(full[block, :, 1], probability_i, out=loo)
            else:
                xp.multiply(probability_i, loo, out=loo)
                xp.subtract(full[block, :, j], loo, out=loo)
            xp.divide(loo, j + 1, out=term)
            step = xp.add if j % 2 else xp.subtract
            # The e_1 term needs no cut: a pair without contenders is
            # zeroed by ``included`` below, and with one contender e_1
            # is that contender's P exactly, so its leave-one-out e_1
            # and its term are an exact 0.0.
            step(series, term, out=series, where=True if j == 1 else counts > j)
        xp.multiply(series, included, out=series)
        xp.multiply(series, product_i, out=series)
        # Sum over contenders ``i`` as a left fold from 0.0, like the
        # scalar loop, not as an ``einsum``: a contraction's summation
        # order may change with the batch shape, and a row's bits must
        # not depend on the batch it rode in.
        block_waiting = waiting[block]
        for i in range(n):
            block_waiting += series[i]
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
