"""Elementary symmetric polynomials.

The exact waiting-time formula (Eq. 4 of the paper) weighs each actor's
contribution with elementary symmetric polynomials ``e_j`` of the *other*
actors' blocking probabilities (reference [17] of the paper)::

    e_0(x1..xn) = 1
    e_1(x1..xn) = x1 + x2 + ... + xn
    e_2(x1..xn) = sum_{i<j} xi xj
    ...
    e_n(x1..xn) = x1 x2 ... xn

Evaluating all ``e_j`` naively costs ``O(2^n)``; the product recurrence

    E_k(x1..xi) = E_k(x1..x{i-1}) + xi * E_{k-1}(x1..x{i-1})

computes the first ``m`` of them in ``O(n*m)``.  The leave-one-out values
needed by Eq. 4 (symmetric polynomials of all probabilities *except*
``x_i``) follow from the synthetic-division recurrence

    e_j^{(-i)} = e_j - x_i * e_{j-1}^{(-i)}

in ``O(m)`` per excluded element — this is the "clever implementation"
that brings the m-th order approximation to ``O(n*m)`` per actor and
``O(n^m)`` overall complexity quoted in Section 4.1.

:func:`elementary_symmetric_batch` is the array flavour of the product
recurrence used by the vectorized waiting kernels: the element loop is
unchanged, but the coefficients are arrays over arbitrary leading batch
dimensions (use-cases x actors in practice) and each element carries a
0/1 inclusion weight per batch entry.  An excluded element contributes
``x = 0`` and the update ``e_k += 0 * e_{k-1}`` is an exact no-op, so
every batch entry runs precisely the scalar recurrence over its own
sub-multiset.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import AnalysisError


def elementary_symmetric_all(
    values: Sequence[float], max_order: int | None = None
) -> List[float]:
    """``[e_0, e_1, ..., e_m]`` of ``values`` via the product recurrence.

    ``max_order`` defaults to ``len(values)``; orders above ``len(values)``
    are identically zero and not returned.
    """
    n = len(values)
    m = n if max_order is None else min(max_order, n)
    if m < 0:
        raise AnalysisError(f"max_order must be >= 0, got {max_order}")
    coefficients = [0.0] * (m + 1)
    coefficients[0] = 1.0
    filled = 0
    for value in values:
        filled = min(filled + 1, m)
        for k in range(filled, 0, -1):
            coefficients[k] += value * coefficients[k - 1]
    return coefficients


def elementary_symmetric(values: Sequence[float], order: int) -> float:
    """``e_order(values)``; zero when ``order`` exceeds ``len(values)``."""
    if order < 0:
        raise AnalysisError(f"order must be >= 0, got {order}")
    if order > len(values):
        return 0.0
    return elementary_symmetric_all(values, max_order=order)[order]


def leave_one_out(
    coefficients: Sequence[float],
    excluded: float,
    max_order: int | None = None,
) -> List[float]:
    """Symmetric polynomials of the multiset with ``excluded`` removed.

    ``coefficients`` must be ``[e_0..e_m]`` of the *full* multiset (from
    :func:`elementary_symmetric_all`).  Uses the synthetic-division
    recurrence ``e_j' = e_j - excluded * e_{j-1}'``, which is numerically
    benign for probabilities in ``[0, 1)``.

    Only sound when ``excluded`` is genuinely one of the roots used to
    build ``coefficients`` — callers (the approximation models) guarantee
    this by construction.
    """
    m = len(coefficients) - 1 if max_order is None else max_order
    if m >= len(coefficients):
        raise AnalysisError(
            "cannot derive leave-one-out values beyond the order of the "
            "full polynomial"
        )
    result = [0.0] * (m + 1)
    result[0] = 1.0
    for j in range(1, m + 1):
        result[j] = coefficients[j] - excluded * result[j - 1]
    return result


def elementary_symmetric_batch(values, include, max_order: int, xp):
    """Batched ``[e_0..e_m]`` of per-entry sub-multisets of ``values``.

    Parameters
    ----------
    values:
        Array of shape ``(n,)`` — the candidate elements (blocking
        probabilities of the residents of one processor) — or
        ``(U, n)`` with one value row per leading batch entry (the
        fixed-point pipeline, where every use-case row carries its own
        periods and therefore its own probabilities).
    include:
        0/1 array of shape ``(..., n)``: which elements belong to each
        batch entry's multiset.
    max_order:
        Highest order ``m`` to compute (clipped to ``n``).
    xp:
        The array module (NumPy).

    Returns
    -------
    array of shape ``(..., m + 1)`` with entry ``[..., j] = e_j`` of the
    selected sub-multiset — the same product recurrence as
    :func:`elementary_symmetric_all`, run once over the element axis for
    every batch entry simultaneously.  The result is an order-major
    array viewed with the order axis last, so each ``[..., j]`` is
    contiguous.  Each element's ``x`` and every ``x * e_{j-1}`` are
    computed in place in two work arrays; the ``e_1`` update is a plain
    ``e_1 += x``, as ``x * e_0`` is ``x * 1.0``.
    """
    n = int(values.shape[-1])
    m = min(max_order, n)
    if m < 0:
        raise AnalysisError(f"max_order must be >= 0, got {max_order}")
    rowwise = getattr(values, "ndim", 1) > 1
    coefficients = xp.zeros((m + 1,) + include.shape[:-1])
    coefficients[0] = 1.0
    x = xp.empty(include.shape[:-1])
    product = xp.empty_like(x)
    for k in range(n):
        # A (U,) value column broadcasts over the owner axis of
        # ``include[..., k]`` (shape (U, n)).
        value = values[..., k][..., None] if rowwise else values[k]
        xp.multiply(value, include[..., k], out=x)
        # Descending j: each update reads e_{j-1} before it changes.
        for j in range(min(k + 1, m), 1, -1):
            xp.multiply(x, coefficients[j - 1], out=product)
            coefficients[j] += product
        if m >= 1:
            coefficients[1] += x
    return xp.moveaxis(coefficients, 0, -1)
