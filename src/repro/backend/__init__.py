"""The scalar and batched flavours of the estimation arithmetic.

See :mod:`repro.backend.array` for the dispatch rule (NumPy present and
at least :data:`BATCH_MIN_ROWS` rows) and the same-bits contract
between the two flavours.
"""

from repro.backend.array import (
    BACKEND_NAMES,
    BATCH_MIN_ROWS,
    ArrayBackend,
    NumpyBackend,
    PythonBackend,
    get_backend,
    numpy_available,
)

__all__ = [
    "BACKEND_NAMES",
    "BATCH_MIN_ROWS",
    "ArrayBackend",
    "NumpyBackend",
    "PythonBackend",
    "get_backend",
    "numpy_available",
]
