"""Actor model for SDF graphs.

An actor (Definition 1 of the paper) is a task with a fixed execution time
``tau`` on the node it is mapped to.  The optional ``execution_time_model``
hook supports the paper's future-work extension to stochastic execution
times; the deterministic case simply stores an integer/float constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import GraphError


@dataclass(frozen=True)
class Actor:
    """A vertex of an SDF graph.

    Parameters
    ----------
    name:
        Identifier, unique within its graph (e.g. ``"a0"``).
    execution_time:
        Time needed to complete one firing on the node the actor is
        mapped to (``tau(a)``, Definition 1).  Must be positive and
        finite (NaN and infinity are rejected); zero is rejected because
        the probabilistic model divides by periods that would degenerate,
        and the DES engine would livelock on zero-length firings.
    processor_type:
        Free-form label used by heterogeneous platforms to restrict which
        processors can host the actor (``"risc"``, ``"dsp"``, ``"ip"`` ...).
        Purely informative for the analysis; the mapping layer checks it.
    """

    name: str
    execution_time: float
    processor_type: str = "proc"

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("actor name must be a non-empty string")
        if self.execution_time <= 0:
            raise GraphError(
                f"actor {self.name!r}: execution time must be positive, "
                f"got {self.execution_time!r}"
            )
        if not self.execution_time < math.inf:
            raise GraphError(
                f"actor {self.name!r}: execution time must be finite, "
                f"got {self.execution_time!r}"
            )

    def with_execution_time(self, execution_time: float) -> "Actor":
        """Return a copy of this actor with a different execution time.

        Used by the estimator to build *response-time* variants of a graph
        without mutating the original (waiting time + execution time).
        """
        return Actor(
            name=self.name,
            execution_time=execution_time,
            processor_type=self.processor_type,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(tau={self.execution_time:g})"
