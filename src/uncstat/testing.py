"""Single-population test machinery.

A two-sided test at level ``alpha`` checks how many observations fall outside
the acceptance interval ``[quantile(alpha/2), quantile(1 - alpha/2)]`` of a
hypothesised distribution.  The null is rejected when strictly more than
``alpha * m`` points fall outside, i.e. when the outlier count reaches
``floor(alpha * m) + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .udist import NormalUncertain, check_level, fit_moments, quantile

__all__ = [
    "PopulationSample",
    "AcceptanceInterval",
    "TestDecision",
    "acceptance_interval",
    "count_outliers",
    "rejection_threshold",
    "test_against_interval",
    "single_test",
    "fit_and_verify",
]


@dataclass(frozen=True)
class PopulationSample:
    """Observed data for one population, with optional pinned parameters."""

    id: str
    values: tuple[float, ...]
    known_e: float | None = None
    known_sigma: float | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("population id must be non-empty")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError(f"population {self.id!r} has no observations")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"population {self.id!r} contains non-finite values")
        if self.known_sigma is not None and not self.known_sigma > 0.0:
            raise ValueError(
                f"population {self.id!r}: known scale must be > 0, got {self.known_sigma!r}"
            )

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AcceptanceInterval:
    """Per-point acceptance band ``[lower, upper]`` of the distribution
    ``(source_e, source_sigma)`` at level ``alpha``.

    The endpoints are the quantiles at ``alpha/2`` and ``1 - alpha/2``,
    computed once here; they are plain attributes because outlier counting
    reads them for every observation.
    """

    source_e: float
    source_sigma: float
    alpha: float
    lower: float = field(init=False)
    upper: float = field(init=False)

    def __post_init__(self) -> None:
        check_level(self.alpha)
        source = NormalUncertain(self.source_e, self.source_sigma)
        lower = quantile(source, self.alpha / 2.0)
        upper = quantile(source, 1.0 - self.alpha / 2.0)
        if not lower < upper:
            raise ValueError(f"empty interval: [{lower!r}, {upper!r}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, z: float) -> bool:
        """Boundary values count as inside: the defining inequalities are strict."""
        return self.lower <= z <= self.upper


@dataclass(frozen=True)
class TestDecision:
    """Outcome of checking ``sample_size`` observations against one acceptance
    interval; the threshold and verdict follow from the outlier positions."""

    interval: AcceptanceInterval
    outlier_indices: tuple[int, ...]
    sample_size: int
    threshold: int = field(init=False)
    rejected: bool = field(init=False)

    def __post_init__(self) -> None:
        threshold = rejection_threshold(self.sample_size, self.interval.alpha)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "rejected", len(self.outlier_indices) >= threshold)

    @property
    def outlier_count(self) -> int:
        return len(self.outlier_indices)

    @property
    def verdict(self) -> str:
        return "rejected" if self.rejected else "cannot be rejected"


def acceptance_interval(d: NormalUncertain, alpha: float) -> AcceptanceInterval:
    """Acceptance band of ``d`` at level ``alpha``."""
    return AcceptanceInterval(d.e, d.sigma, alpha)


def count_outliers(sample: PopulationSample, interval: AcceptanceInterval) -> tuple[int, ...]:
    """1-based positions of observations strictly outside ``interval``, ascending."""
    return tuple(
        p
        for p, z in enumerate(sample.values, start=1)
        if z < interval.lower or z > interval.upper
    )


def rejection_threshold(m: int, alpha: float) -> int:
    """Smallest outlier count that rejects: the least integer > ``alpha * m``.

    ``alpha * m`` is snapped to the nearest integer when within 1e-9 of one
    before flooring, so decisions do not depend on the last bits of the
    product (0.29 * 100 evaluates to 28.999...96 in binary floating point).
    """
    if m < 1:
        raise ValueError(f"sample size must be positive, got {m!r}")
    check_level(alpha)
    x = alpha * m
    nearest = round(x)
    if abs(x - nearest) <= 1e-9:
        x = nearest
    return math.floor(x) + 1


def test_against_interval(sample: PopulationSample, interval: AcceptanceInterval) -> TestDecision:
    """Decide the test of ``sample`` against an already-built acceptance band."""
    return TestDecision(interval, count_outliers(sample, interval), sample.size)


def single_test(sample: PopulationSample, d0: NormalUncertain, alpha: float) -> TestDecision:
    """Two-sided test of whether ``sample`` is consistent with ``d0`` at level ``alpha``."""
    return test_against_interval(sample, acceptance_interval(d0, alpha))


def fit_and_verify(
    sample: PopulationSample, alpha: float
) -> tuple[NormalUncertain, TestDecision]:
    """Fit a distribution to ``sample`` by moments, then test the sample against it.

    Pinned parameters on the sample are respected by the fit.  A rejected
    self-test flags the population as not adequately modelled by a normal
    uncertainty distribution.
    """
    fitted = fit_moments(sample.values, sample.known_e, sample.known_sigma)
    return fitted, single_test(sample, fitted, alpha)
