"""The two flavours of the estimation arithmetic, and the rule between them.

The estimation kernels — waiting-time formulas and the MCR period
queries — come in two flavours that give the same bits:

* **scalar** — the pure-Python reference loop, one use-case at a time,
  dependency-free;
* **batched** — NumPy kernels over whole batches (arrays shaped
  ``(use_cases, actors)``) instead of loops per ``(actor, resource)``
  pair.

The code picks the flavour from what it can observe.  A batch runs on
the kernels when NumPy is importable and it has at least
:data:`BATCH_MIN_ROWS` rows; anything smaller runs the scalar loop,
which is faster there.  Both flavours fold every sum in the same fixed
order, so the choice changes no bit of an answer.  One caveat: where
two cycles' ratios lie within the MCR certification tolerance
(~1e-12 relative, see :mod:`repro.sdf.mcm`), a certified batch row may
report the other cycle of the near-tie.

:class:`~repro.core.estimator.ProbabilisticEstimator` and
:meth:`~repro.analysis_engine.AnalysisEngine.period_for` take
``backend="python"`` to force the scalar reference loop at any batch
size; tests and benchmarks compare the kernels against it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.exceptions import AnalysisError

#: Fewest batch rows that run on the NumPy kernels; smaller batches run
#: the scalar loop.  Measured on a 2-CPU x86 host (Python 3.11, NumPy
#: 2.4): ``estimate_many`` on ``paper`` galleries of seed 2007 with 6, 8
#: and 10 apps, ``second_order`` and ``composability``, 2 to 16 distinct
#: random use-cases per call, memo cleared before each call, median of
#: 21 calls, with this constant set to T for both the estimator and
#: ``period_for``.  Summed over those 48 cells: T=3 172.6 ms, T=4
#: 166.2, T=5 174.8, T=6 182.9.  At 3 rows the scalar loop won or tied
#: in all 6 (gallery, model) pairs (``second_order`` 6 apps 1.65 vs
#: 2.15 ms); at 4 rows the kernels won in 5 of 6 (``second_order`` 10
#: apps 2.67 vs 3.21 ms, ``composability`` 10 apps 4.16 vs 5.79 ms).
#: ``period_for`` alone crosses over at 3-4 rows (a 9-actor graph:
#: 0.36 vs 0.38 ms at 3, 0.46 vs 0.40 ms at 4).  At 1 row the scalar
#: loop takes a third to a fifth of the batched time.
#:
#: ``benchmarks/record.py``'s ``rows_curve`` re-checks this with every
#: row's periods read: the same 6 pairs, the scalar loop vs. the
#: estimator's threshold forced to 1 row (``period_for`` keeps this
#: constant).  Five runs, summed, scalar vs. kernels: at 3 rows 14.7 vs
#: 14.6, 17.0 vs 15.7, 15.6 vs 15.0, 17.0 vs 16.2, 19.2 vs 21.6 ms; at
#: 4 rows the kernels won all five (18.8 vs 18.5 to 22.8 vs 20.2 ms);
#: crossovers 3, 3, 3, 3 and 4.  With T set for both and every row
#: read (2-16 rows, 10 alternating runs), T=4 beat T=5 in all 10:
#: median sum 338.1 vs 341.1 ms, at 4 rows 18.9 vs 20.2 ms.
BATCH_MIN_ROWS = 4

#: Names accepted by :func:`get_backend`.
BACKEND_NAMES: Tuple[str, ...] = ("auto", "numpy", "python")


class ArrayBackend:
    """Which flavour of the estimation arithmetic a component may use.

    Attributes
    ----------
    name:
        ``"numpy"`` or ``"python"``.
    vectorized:
        Whether batches of :data:`BATCH_MIN_ROWS` or more rows may run
        on the NumPy kernels (``True`` only for NumPy).
    """

    name: str = "abstract"
    vectorized: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PythonBackend(ArrayBackend):
    """The scalar reference loop, whatever the batch size."""

    name = "python"
    vectorized = False


class NumpyBackend(ArrayBackend):
    """NumPy kernels for large batches; carries the module handle."""

    name = "numpy"
    vectorized = True

    def __init__(self) -> None:
        import numpy

        self.xp = numpy


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - depends on environment
        return False
    return True


_INSTANCES: Dict[str, ArrayBackend] = {}


def get_backend(
    selection: "Optional[str | ArrayBackend]" = None,
) -> ArrayBackend:
    """Resolve a backend selection to an :class:`ArrayBackend` instance.

    ``selection`` may be an instance (returned as-is), one of the names
    in :data:`BACKEND_NAMES`, or ``None`` (``auto``): NumPy when
    importable, the Python backend otherwise.  ``numpy`` raises
    :class:`~repro.exceptions.AnalysisError` when NumPy is not
    importable.
    """
    if isinstance(selection, ArrayBackend):
        return selection
    name = (selection or "auto").strip().lower()
    if name not in BACKEND_NAMES:
        raise AnalysisError(
            f"unknown array backend {selection!r}; choose from "
            f"{', '.join(BACKEND_NAMES)}"
        )
    # One availability answer per call: ``auto`` builds from the answer
    # it resolved with, and only an explicit ``numpy`` asks (and fails).
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    elif name == "numpy" and name not in _INSTANCES and not numpy_available():
        raise AnalysisError(
            "backend 'numpy' requested but numpy is not installed; "
            "install the 'numpy' extra or use backend='python'"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = (
            NumpyBackend() if name == "numpy" else PythonBackend()
        )
    return instance
