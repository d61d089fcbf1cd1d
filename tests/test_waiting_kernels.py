"""The batched waiting kernels against the scalar per-pair functions.

:func:`~repro.core.approximation.batched_waiting_series` (Eq. 4/5) and
:func:`~repro.core.composability.batched_waiting_composition` (Eq. 6/7)
must give, for every ``(row, owner)`` pair, the bits of the scalar
function on that pair's active contenders: ``waiting_time_order_m`` at
the model's order (``exact`` is order ``c`` for ``c`` contenders) and
the ``compose_all`` left fold.  Inputs are fractional blocking
probabilities and mean blocking times, shared by all rows or given per
row, at batch sizes around the kernels' row block.

The kernels were rewritten to work in place and in row blocks.  A
verbatim copy of the earlier kernels (docstrings dropped) is kept below:
on every input where an earlier kernel already matched the scalar loop,
the rewritten one must give the same bits.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import numpy_available
from repro.core.approximation import (
    ROW_BLOCK,
    batched_waiting_series,
    waiting_time_order_m,
)
from repro.core.blocking import ActorProfile, ResidentVectors, resident_vectors
from repro.core.composability import batched_waiting_composition, compose_all
from repro.core.exact import waiting_time_exact
from repro.exceptions import AnalysisError

np = pytest.importorskip("numpy")

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

#: Batch sizes: one row, both sides of one row block, several blocks.
ROWS = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 1023)

#: Series orders: first, Eq. 5's second and fourth, Eq. 4 (``None``).
ORDERS = (1, 2, 4, None)


def _inputs(seed: int, rows: int, residents: int, rowwise: bool):
    """Random fractional profiles and a random contender mask."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 60.0, residents)
    probability = rng.uniform(
        0.0, 0.95, (rows, residents) if rowwise else residents
    )
    # A per-row activity density, so rows range from alone to crowded.
    density = rng.uniform(0.0, 1.0, (rows, 1))
    active = (rng.uniform(size=(rows, residents)) < density).astype(float)
    others = np.ones((residents, residents)) - np.eye(residents)
    inc = active[:, None, :] * others[None, :, :]
    vectors = resident_vectors(
        [
            ActorProfile(f"A{i}", "a", 2.0 * mu[i], 1, 1.0, 0.5, mu[i])
            for i in range(residents)
        ],
        np,
    ).with_probability(probability)
    return vectors, inc


def _contenders(vectors, inc, row: int, owner: int):
    """The scalar loop's ``others`` of one pair, in resident order."""
    probability = vectors.probability
    if probability.ndim > 1:
        probability = probability[row]
    return [
        ActorProfile(
            f"A{i}",
            "a",
            float(vectors.tau[i]),
            1,
            1.0,
            float(probability[i]),
            float(vectors.mu[i]),
        )
        for i in np.nonzero(inc[row, owner])[0]
    ]


def _scalar(vectors, inc, pair_function):
    """``pair_function`` of every pair's contenders, as a (U, n) array."""
    rows, residents, _ = inc.shape
    memo = {}
    result = np.zeros((rows, residents))
    rowwise = vectors.probability.ndim > 1
    for row in range(rows):
        for owner in range(residents):
            key = (rowwise and row, owner, inc[row, owner].tobytes())
            if key not in memo:
                others = _contenders(vectors, inc, row, owner)
                memo[key] = pair_function(others)
            result[row, owner] = memo[key]
    return result


def _order_m(order):
    if order is None:
        return waiting_time_exact
    return lambda others: waiting_time_order_m(others, order)


def _compose(others):
    return compose_all(others).waiting_product


def _check(new, scalar, parent):
    assert np.array_equal(new, scalar)
    agreed = parent == scalar
    assert np.array_equal(new[agreed], parent[agreed])


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("rowwise", [False, True], ids=["shared", "rowwise"])
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), residents=st.integers(2, 10))
def test_series_kernel_equals_scalar_per_pair(rows, rowwise, seed, residents):
    vectors, inc = _inputs(seed, rows, residents, rowwise)
    for order in ORDERS:
        _check(
            batched_waiting_series(vectors, inc, order, np),
            _scalar(vectors, inc, _order_m(order)),
            _parent_batched_waiting_series(vectors, inc, order, np),
        )


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("rowwise", [False, True], ids=["shared", "rowwise"])
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), residents=st.integers(2, 10))
def test_composition_kernel_equals_scalar_per_pair(
    rows, rowwise, seed, residents
):
    vectors, inc = _inputs(seed, rows, residents, rowwise)
    _check(
        batched_waiting_composition(vectors, inc, np),
        _scalar(vectors, inc, _compose),
        _parent_batched_waiting_composition(vectors, inc, np),
    )


# -- The kernels before the rewrite, verbatim ---------------------------


def _parent_elementary_symmetric_batch(values, include, max_order: int, xp):
    n = int(values.shape[-1])
    m = min(max_order, n)
    if m < 0:
        raise AnalysisError(f"max_order must be >= 0, got {max_order}")
    rowwise = getattr(values, "ndim", 1) > 1
    coefficients = xp.zeros(include.shape[:-1] + (m + 1,))
    coefficients[..., 0] = 1.0
    for k in range(n):
        if rowwise:
            # (U,) value column broadcast over the owner axis of
            # ``include[..., k]`` (shape (U, n)).
            x = values[..., k][..., None] * include[..., k]
        else:
            x = values[k] * include[..., k]
        for j in range(min(k + 1, m), 0, -1):
            coefficients[..., j] += x * coefficients[..., j - 1]
    return coefficients


def _parent_batched_waiting_series(
    vectors: ResidentVectors,
    inc,
    order: Optional[int],
    xp,
):
    U, n, _ = inc.shape
    if n == 0 or U == 0:
        return xp.zeros((U, n))
    highest = n - 1 if order is None else min(order - 1, n - 1)
    probability = vectors.probability
    rowwise = getattr(probability, "ndim", 1) > 1
    # e_0..e_highest of each (u, own) pair's active-contender multiset.
    full = _parent_elementary_symmetric_batch(probability, inc, highest, xp)
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


def _parent_batched_waiting_composition(
    vectors: ResidentVectors, inc, xp
):
    U, n, _ = inc.shape
    rowwise = getattr(vectors.probability, "ndim", 1) > 1
    waiting = xp.zeros((U, n))
    probability = xp.zeros((U, n))
    for k in range(n):
        included = inc[:, :, k] > 0
        if rowwise:
            # Per-row probabilities: (U, 1) columns broadcast over the
            # owner axis, same fold arithmetic per row.
            p_k = vectors.probability[:, k][:, None]
            wp_k = vectors.waiting_product[:, k][:, None]
        else:
            p_k = float(vectors.probability[k])
            wp_k = float(vectors.waiting_product[k])
        waiting = xp.where(
            included,
            waiting * (1.0 + p_k / 2.0)
            + wp_k * (1.0 + probability / 2.0),
            waiting,
        )
        probability = xp.where(
            included,
            probability + p_k - probability * p_k,
            probability,
        )
    return waiting
