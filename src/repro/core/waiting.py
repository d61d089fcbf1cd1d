"""Uniform interface over waiting-time models.

Every estimation technique the paper evaluates — exact Eq. 4, the m-th
order approximations, the composability algebra, and the worst-case
baselines — answers the same question: *given the other actors bound to my
processor, how long do I expect to wait per firing?*  A
:class:`WaitingModel` is anything with a ``waiting_time(own, others)``
method (plus ``name``/``complexity`` attributes for reporting).

Model selection goes through the
:data:`~repro.core.registry.WAITING_MODELS` registry: every builtin
technique is registered here under its historical specification string
(with semantics/batch/arbiter metadata — see
:mod:`repro.core.registry`), and :func:`make_waiting_model` is the
long-standing convenience wrapper over
:func:`repro.core.registry.create_waiting_model`.  Third-party models
register their own :class:`~repro.core.registry.WaitingModelInfo` and
become selectable everywhere a model name is accepted — the estimator,
``repro sweep``/``repro estimate``, the sweep service, the estimation
server and ``repro conformance``.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.core.approximation import OrderMWaitingModel
from repro.core.blocking import ActorProfile
from repro.core.composability import CompositionWaitingModel
from repro.core.exact import ExactWaitingModel
from repro.core.priority import PriorityWaitingModel
from repro.core.registry import (
    WAITING_MODELS,
    WaitingModelInfo,
    create_waiting_model,
)
from repro.exceptions import AnalysisError


@runtime_checkable
class WaitingModel(Protocol):
    """Protocol implemented by all estimation techniques."""

    name: str
    complexity: str

    def waiting_time(
        self, own: ActorProfile, others: Sequence[ActorProfile]
    ) -> float:
        """Expected waiting time of ``own`` per firing, given that
        ``others`` are bound to the same processor."""


def supports_batch(model: WaitingModel) -> bool:
    """Whether ``model`` offers the vectorized batch entry point.

    Batch-capable models additionally implement
    ``waiting_times_batch(vectors, inc, own_active, xp)`` — see
    :func:`repro.core.approximation.batched_waiting_series` for the
    array contract (``own_active`` is the ``(U, n)`` activity mask of
    the *owning* resident, which lets kernels reproduce scalar-path
    errors exactly — e.g. the Eq. 8 ``P != 1`` restriction).  All
    built-in techniques do; the helper exists so the estimator can fall
    back to the scalar loop for third-party models that only implement
    the scalar protocol.
    """
    return callable(getattr(model, "waiting_times_batch", None))


def supports_rowwise_batch(model: WaitingModel) -> bool:
    """Whether ``model``'s batch kernel accepts per-row probabilities.

    The fixed-point estimator re-derives every use-case row's blocking
    probabilities from that row's refined periods, so its kernels see a
    ``(U, n)`` ``vectors.probability`` instead of the shared ``(n,)``
    vector.  Models opt in with a truthy ``batch_rowwise`` class
    attribute (all builtins do; the WCRT bounds never read probabilities
    and are trivially safe).  Third-party models that only handle the
    1-D layout keep the flag unset and the estimator falls back to the
    scalar fixed-point loop for them.
    """
    return supports_batch(model) and bool(
        getattr(model, "batch_rowwise", False)
    )


def make_waiting_model(specification: str) -> WaitingModel:
    """Build a registered waiting model from a specification string.

    Built-in specifications:

    * ``"exact"`` — Eq. 4;
    * ``"second_order"`` / ``"fourth_order"`` — Eq. 5 at m=2 / m=4;
    * ``"order:M"`` — Eq. 5 at any order M >= 1;
    * ``"composability"`` — Eq. 6/7 (direct composition);
    * ``"composability_incremental"`` — Eq. 6/7 on Eq. 8's domain;
    * ``"priority_preemptive"`` — preemptive static priority, expected
      delay (priorities from the mapping);
    * ``"worst_case"`` — the non-preemptive round-robin WCRT baseline
      (reference [6] of the paper);
    * ``"weighted_round_robin"`` (alias ``"wrr"``) — weighted
      round-robin WCRT, optionally ``wrr:A=2,B=1`` per-app weights;
    * ``"tdma"`` — the TDMA WCRT baseline (reference [3]).

    Unknown names raise :class:`~repro.exceptions.AnalysisError`
    listing every registered model.  The full catalogue (including any
    third-party registrations) is ``repro models`` /
    :func:`repro.core.registry.render_model_table`.
    """
    return create_waiting_model(specification)


def _make_order(argument: Optional[str]) -> OrderMWaitingModel:
    try:
        order = int(argument) if argument is not None else None
    except ValueError:
        order = None
    if order is None:
        raise AnalysisError(
            f"bad order specification {('order:' + str(argument))!r}; "
            "expected 'order:M' with integer M"
        )
    return OrderMWaitingModel(order)


def _make_worst_case():
    # Imported lazily: repro.wcrt depends on repro.core for the
    # profile type, so a module-level import would be circular.
    from repro.wcrt.round_robin import WorstCaseRRWaitingModel

    return WorstCaseRRWaitingModel()


def _make_tdma():
    from repro.wcrt.tdma import TDMAWaitingModel

    return TDMAWaitingModel()


def _make_weighted_rr(argument: Optional[str] = None):
    from repro.wcrt.weighted_round_robin import (
        WeightedRRWaitingModel,
        parse_weights,
    )

    return WeightedRRWaitingModel(weights=parse_weights(argument))


#: Conformance band of the paper's mean estimators: the DAC-2007
#: evaluation reports ~10-20% period error across use-cases; the band
#: leaves headroom for the scaled-down seeded galleries (cf. the 0.40
#: integration-test bound against the 5-app suite).
_MEAN_TOLERANCE = 0.45

_BUILTIN_MODELS = (
    WaitingModelInfo(
        name="exact",
        factory=ExactWaitingModel,
        summary="Eq. 4 exact expected waiting (FCFS service)",
        semantics="mean",
        tolerance=_MEAN_TOLERANCE,
        arbiter="fcfs",
    ),
    WaitingModelInfo(
        name="second_order",
        factory=lambda: OrderMWaitingModel(2),
        summary="Eq. 5 second-order truncation of Eq. 4",
        semantics="mean",
        tolerance=_MEAN_TOLERANCE,
        arbiter="fcfs",
    ),
    WaitingModelInfo(
        name="fourth_order",
        factory=lambda: OrderMWaitingModel(4),
        summary="Eq. 5 fourth-order truncation of Eq. 4",
        semantics="mean",
        tolerance=_MEAN_TOLERANCE,
        arbiter="fcfs",
    ),
    WaitingModelInfo(
        name="order",
        factory=_make_order,
        summary="Eq. 5 truncated at any order M",
        semantics="mean",
        tolerance=_MEAN_TOLERANCE,
        arbiter="fcfs",
        parameters={"M": "truncation order, an integer >= 1"},
        takes_argument=True,
        requires_argument=True,
    ),
    WaitingModelInfo(
        name="composability",
        factory=lambda: CompositionWaitingModel(incremental=False),
        summary="Eq. 6/7 composition algebra (direct fold)",
        semantics="mean",
        tolerance=_MEAN_TOLERANCE,
        arbiter="fcfs",
    ),
    WaitingModelInfo(
        name="composability_incremental",
        factory=lambda: CompositionWaitingModel(incremental=True),
        summary="Eq. 6/7 composition algebra, Eq. 8 domain (P < 1)",
        semantics="mean",
        tolerance=_MEAN_TOLERANCE,
        arbiter="fcfs",
    ),
    WaitingModelInfo(
        name="priority_preemptive",
        factory=PriorityWaitingModel,
        summary=(
            "preemptive static priority, expected delay "
            "(priorities from the mapping)"
        ),
        semantics="mean",
        # Preemption couples the supposedly independent arrivals harder
        # than FCFS does (a low-priority actor's backlog compounds), so
        # the declared band is wider than the FCFS techniques'.
        tolerance=0.60,
        arbiter="priority_preemptive",
    ),
    WaitingModelInfo(
        name="worst_case",
        factory=_make_worst_case,
        summary="round-robin WCRT bound (reference [6])",
        semantics="conservative",
        arbiter="round_robin",
    ),
    WaitingModelInfo(
        name="weighted_round_robin",
        factory=_make_weighted_rr,
        summary="weighted round-robin WCRT bound (per-app weights)",
        semantics="conservative",
        arbiter="weighted_round_robin",
        parameters={
            "weights": (
                "per-application slice weights, e.g. "
                "'weighted_round_robin:A=2,B=1' (default 1)"
            )
        },
        takes_argument=True,
        aliases=("wrr",),
    ),
    WaitingModelInfo(
        name="tdma",
        factory=_make_tdma,
        summary="TDMA WCRT bound (reference [3]); needs preemption",
        semantics="conservative",
        # The DES engine is non-preemptive; TDMA's slicing cannot be
        # simulated, so the bound has no conformance reference.
        arbiter=None,
    ),
)

for _info in _BUILTIN_MODELS:
    if _info.name not in WAITING_MODELS:
        WAITING_MODELS.register(_info)
del _info
