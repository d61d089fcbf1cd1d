"""Stochastic execution times (the paper's "varying execution times"
extension, Sections 2 and 6).

The probabilistic framework only needs two moments of an actor's execution
time ``X``:

* ``P(a)`` uses the mean: the actor occupies its node for
  ``E[X] * q / Per`` of the time;
* ``mu(a)`` generalizes from ``tau/2`` to the *mean residual life*
  ``E[X^2] / (2 E[X])`` — when an observer arrives while the actor runs,
  longer executions are proportionally more likely to be hit (the
  inspection paradox), so the expected remaining time is not ``E[X]/2``.
  For a constant ``tau`` this reduces to exactly ``tau/2`` (Eq. 2).

Each distribution also plugs into the simulator through
:class:`DistributionTimeModel`, so estimate and simulation stay
comparable under the same randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.exceptions import AnalysisError
from repro.simulation.engine import TimeModel


class ExecutionTimeDistribution:
    """Interface: a positive random execution time."""

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def mean_residual(self) -> float:
        """``E[X^2] / (2 E[X])`` — the generalized ``mu`` of Definition 5."""
        return self.second_moment() / (2.0 * self.mean())


@dataclass(frozen=True)
class FixedTime(ExecutionTimeDistribution):
    """Deterministic execution time (the paper's base assumption)."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise AnalysisError(f"execution time must be > 0, got {self.value}")

    def mean(self) -> float:
        return self.value

    def second_moment(self) -> float:
        return self.value * self.value

    def sample(self, rng: random.Random) -> float:
        return self.value


@dataclass(frozen=True)
class UniformTime(ExecutionTimeDistribution):
    """Uniform on ``[low, high]`` — e.g. data-dependent decoding times."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise AnalysisError(
                f"need 0 < low <= high, got [{self.low}, {self.high}]"
            )

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def second_moment(self) -> float:
        # E[X^2] = Var + mean^2 = (high-low)^2/12 + mean^2
        spread = self.high - self.low
        return spread * spread / 12.0 + self.mean() ** 2

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class NormalTime(ExecutionTimeDistribution):
    """Truncated normal (resampled below ``minimum``).

    Moments are computed for the *untruncated* normal; keep
    ``minimum`` a few standard deviations below the mean so the
    truncation bias is negligible (asserted at construction).
    """

    mean_value: float
    std: float
    minimum: float = 1e-9

    def __post_init__(self) -> None:
        if self.mean_value <= 0 or self.std < 0:
            raise AnalysisError(
                f"need mean > 0 and std >= 0, got mean={self.mean_value}, "
                f"std={self.std}"
            )
        if self.std > 0 and self.mean_value - 3 * self.std < self.minimum:
            raise AnalysisError(
                "mean - 3*std falls below the minimum; truncation would "
                "bias the moments. Use a smaller std."
            )

    def mean(self) -> float:
        return self.mean_value

    def second_moment(self) -> float:
        return self.std * self.std + self.mean_value * self.mean_value

    def sample(self, rng: random.Random) -> float:
        for _ in range(64):
            value = rng.gauss(self.mean_value, self.std)
            if value >= self.minimum:
                return value
        raise AnalysisError(
            "NormalTime: 64 consecutive samples below minimum; "
            "distribution is badly parameterized"
        )


@dataclass(frozen=True)
class DiscreteTime(ExecutionTimeDistribution):
    """Finite support: e.g. I/P/B-frame decode times with frequencies.

    Every weight must be a *strictly positive* frequency/probability
    mass — a zero or negative weight is always a modelling mistake (the
    value either cannot occur and should be dropped, or the input was
    mangled), and silently accepting it would skew the normalization.
    """

    values: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights) or not self.values:
            raise AnalysisError(
                "values and weights must be equal-length and non-empty"
            )
        if any(v <= 0 for v in self.values):
            raise AnalysisError("all execution times must be positive")
        for index, weight in enumerate(self.weights):
            if not weight > 0:
                raise AnalysisError(
                    f"DiscreteTime weights must be strictly positive "
                    f"probabilities; weight {weight!r} for value "
                    f"{self.values[index]!r} (index {index}) is not"
                )
        total = sum(self.weights)
        # The distribution is frozen, so normalization and the moments
        # are computed once here instead of on every mean() /
        # second_moment() call (the estimator queries them per actor per
        # estimate).  object.__setattr__ is the sanctioned backdoor for
        # frozen-dataclass caches.
        normalized = tuple(w / total for w in self.weights)
        mean = sum(v * w for v, w in zip(self.values, normalized))
        second = sum(v * v * w for v, w in zip(self.values, normalized))
        object.__setattr__(self, "_normalized_weights", normalized)
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_second_moment", second)

    @classmethod
    def of(cls, pairs: Sequence[Tuple[float, float]]) -> "DiscreteTime":
        """Build from ``(value, weight)`` pairs.

        Raises :class:`~repro.exceptions.AnalysisError` when any weight
        is zero or negative (see the class docstring).
        """
        return cls(
            values=tuple(v for v, _ in pairs),
            weights=tuple(w for _, w in pairs),
        )

    def _normalized(self) -> Tuple[float, ...]:
        return self._normalized_weights  # type: ignore[attr-defined]

    def mean(self) -> float:
        return self._mean  # type: ignore[attr-defined]

    def second_moment(self) -> float:
        return self._second_moment  # type: ignore[attr-defined]

    def sample(self, rng: random.Random) -> float:
        return rng.choices(self.values, weights=self.weights, k=1)[0]


class DistributionTimeModel(TimeModel):
    """Simulator time model drawing from per-actor distributions.

    Actors without an assigned distribution run at their nominal fixed
    execution time.
    """

    def __init__(
        self,
        distributions: Mapping[Tuple[str, str], ExecutionTimeDistribution],
    ) -> None:
        self.distributions: Dict[
            Tuple[str, str], ExecutionTimeDistribution
        ] = dict(distributions)

    def sample(
        self, application: str, actor: str, nominal: float, rng: random.Random
    ) -> float:
        distribution = self.distributions.get((application, actor))
        if distribution is None:
            return nominal
        return distribution.sample(rng)

    def mus(self) -> Dict[Tuple[str, str], float]:
        """``(app, actor) -> mean residual`` overrides for the estimator."""
        return {
            key: dist.mean_residual()
            for key, dist in self.distributions.items()
        }

    def mean_times(self) -> Dict[Tuple[str, str], float]:
        """``(app, actor) -> E[X]`` — what ``tau`` should be set to in the
        analysed graph so that ``P`` uses the mean execution time."""
        return {
            key: dist.mean() for key, dist in self.distributions.items()
        }
