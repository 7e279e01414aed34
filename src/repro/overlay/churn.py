"""Peer churn: Poisson arrivals and exponential lifespans.

Sec. VI-E of the paper studies dynamic overlays under three regimes:

1. fixed expected overlay size, ``arrival rate × lifespan = size``;
2. fixed mean lifespan with varying arrival rate;
3. fixed arrival rate with varying mean lifespan.

:class:`ChurnConfig` parameterises all three; both tick simulators apply it
round by round (see :func:`repro.p2psim.slots.apply_round_churn`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

__all__ = ["ChurnConfig"]


@dataclass(frozen=True)
class ChurnConfig:
    """Churn parameters.

    Attributes
    ----------
    arrival_rate:
        Expected peer arrivals per second (Poisson process).
    mean_lifespan:
        Expected peer lifetime in seconds (exponential distribution).  Peers
        present at simulation start draw lifetimes from the same
        distribution as arrivals.
    """

    arrival_rate: float
    mean_lifespan: float

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.mean_lifespan, "mean_lifespan")

    @property
    def expected_population(self) -> float:
        """Little's-law expected steady-state population (arrival rate × lifespan)."""
        return self.arrival_rate * self.mean_lifespan

    @classmethod
    def for_population(cls, population: float, mean_lifespan: float) -> "ChurnConfig":
        """Build a config whose steady-state population equals ``population``."""
        check_positive(population, "population")
        check_positive(mean_lifespan, "mean_lifespan")
        return cls(
            arrival_rate=population / mean_lifespan,
            mean_lifespan=mean_lifespan,
        )
