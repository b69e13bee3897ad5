"""Single-population test machinery.

A two-sided test at level ``alpha`` checks how many observations fall outside
the acceptance interval ``[quantile(alpha/2), quantile(1 - alpha/2)]`` of a
hypothesised distribution.  The null is rejected when strictly more than
``alpha * m`` points fall outside, i.e. when the outlier count reaches
``floor(alpha * m) + 1``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import NumericError
from .udist import NormalUncertain, check_level, check_parameters, fit_moments, std_quantile

if TYPE_CHECKING:
    from .pooling import MergedSample

__all__ = [
    "PopulationSample",
    "AcceptanceInterval",
    "TestDecision",
    "band_quantiles",
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
        values = tuple(self.values)
        if not set(map(type, values)) <= {float}:  # plain floats need no second pass
            for v in values:
                if type(v) is not int and not isinstance(v, float):  # bool subclasses int
                    raise TypeError(
                        f"population {self.id!r}: values must be int or float, "
                        f"got {type(v).__name__} {v!r}"
                    )
            try:
                values = tuple(map(float, values))
            except OverflowError:  # an int beyond the largest double, as for a pin
                raise ValueError(f"population {self.id!r} contains non-finite values") from None
        object.__setattr__(self, "values", values)
        if not self.values:
            raise ValueError(f"population {self.id!r} has no observations")
        # The sum of finite values is finite unless it overflows on its own;
        # only then, or when a value is not finite, is each value looked at.
        if not math.isfinite(sum(self.values)) and not all(map(math.isfinite, self.values)):
            raise ValueError(f"population {self.id!r} contains non-finite values")
        for name in ("known_e", "known_sigma"):
            object.__setattr__(self, name, _checked_pin(self.id, name, getattr(self, name)))

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def pins(self) -> tuple[bool, bool]:
        """Whether the location and the scale are pinned."""
        return self.known_e is not None, self.known_sigma is not None


def _checked_pin(pid: str, name: str, pin: object) -> float | None:
    """Population ``pid``'s pin ``name`` as a float, or None if not pinned:
    an int or float but not a bool, finite as a double, and a scale above 0.
    Raises TypeError or ValueError naming the population and the pin."""
    if pin is None:
        return None
    if type(pin) is not int and not isinstance(pin, float):
        raise TypeError(
            f"population {pid!r}: {name} must be int or float, got {type(pin).__name__} {pin!r}"
        )
    try:
        value = float(pin)
    except OverflowError:  # an int beyond the largest double
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"population {pid!r}: {name} must be finite, got {value!r}")
    if name == "known_sigma" and not value > 0.0:
        raise ValueError(f"population {pid!r}: known scale must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class AcceptanceInterval:
    """Per-point acceptance band ``[lower, upper]`` of the distribution
    ``(source_e, source_sigma)`` at level ``alpha``.

    The endpoints are the quantiles at ``alpha/2`` and ``1 - alpha/2``,
    computed once here from the standard quantiles of the level
    (:func:`band_quantiles`); they are plain attributes because outlier
    counting reads them for every observation.

    Raises :class:`~uncstat.errors.NumericError` when the band is empty
    (the scale is below the spacing of doubles at the location) or an
    endpoint overflows double precision.
    """

    source_e: float
    source_sigma: float
    alpha: float
    lower: float = field(init=False)
    upper: float = field(init=False)

    def __post_init__(self) -> None:
        q_lower, q_upper = band_quantiles(self.alpha)
        check_parameters(self.source_e, self.source_sigma)
        # quantile(source, p) by definition: e + sigma * std_quantile(p)
        lower = self.source_e + self.source_sigma * q_lower
        upper = self.source_e + self.source_sigma * q_upper
        finite = math.isfinite(lower) and math.isfinite(upper)
        if not (finite and lower < upper):
            problem = "empty" if finite else "not finite"
            raise NumericError(
                f"acceptance band of the reference (e={self.source_e!r}, "
                f"sigma={self.source_sigma!r}) at level {self.alpha!r} is {problem} "
                f"in double precision: [{lower!r}, {upper!r}]; rescale the data"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


class Record(tuple):
    """Base of the per-test records: immutable tuples with named fields, equal
    only to a record of the same type with the same values."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class TestDecision(
    namedtuple("TestDecision", "interval outlier_indices sample_size threshold rejected"), Record
):
    """Outcome of checking ``sample_size`` observations against one acceptance
    interval; the threshold and verdict follow from the outlier positions."""

    __slots__ = ()

    def __new__(
        cls, interval: AcceptanceInterval, outlier_indices: tuple[int, ...], sample_size: int
    ) -> TestDecision:
        threshold = rejection_threshold(sample_size, interval.alpha)
        rejected = len(outlier_indices) >= threshold
        return tuple.__new__(cls, (interval, outlier_indices, sample_size, threshold, rejected))

    def __getnewargs__(self) -> tuple:
        return self[:3]

    @property
    def outlier_count(self) -> int:
        return len(self.outlier_indices)

    @property
    def verdict(self) -> str:
        return "rejected" if self.rejected else "cannot be rejected"


@lru_cache(maxsize=64)
def band_quantiles(alpha: float) -> tuple[float, float]:
    """Standard quantiles at ``alpha/2`` and ``1 - alpha/2``, computed once per level.

    Raises ValueError unless ``alpha`` is a level whose upper tail point
    ``1 - alpha/2`` is still below 1 in double precision.
    """
    check_level(alpha)
    if not 1.0 - alpha / 2.0 < 1.0:
        raise ValueError(
            f"belief level {alpha!r} is too small: 1 - alpha/2 rounds to 1 "
            "in double precision, so the acceptance band has no upper end"
        )
    return std_quantile(alpha / 2.0), std_quantile(1.0 - alpha / 2.0)


def acceptance_interval(d: NormalUncertain, alpha: float) -> AcceptanceInterval:
    """Acceptance band of ``d`` at level ``alpha``."""
    return AcceptanceInterval(d.e, d.sigma, alpha)


def count_outliers(
    sample: PopulationSample | MergedSample, interval: AcceptanceInterval
) -> tuple[int, ...]:
    """1-based positions of observations strictly outside ``interval``, ascending."""
    lower, upper = interval.lower, interval.upper
    return tuple([p for p, z in enumerate(sample.values, start=1) if z < lower or z > upper])


@lru_cache(maxsize=1024)
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


def test_against_interval(
    sample: PopulationSample | MergedSample, interval: AcceptanceInterval
) -> TestDecision:
    """Decide the test of ``sample`` against an already-built acceptance band."""
    return TestDecision(interval, count_outliers(sample, interval), len(sample.values))


def single_test(
    sample: PopulationSample | MergedSample, d0: NormalUncertain, alpha: float
) -> TestDecision:
    """Two-sided test of whether ``sample`` is consistent with ``d0`` at level ``alpha``."""
    return test_against_interval(sample, acceptance_interval(d0, alpha))


def fit_and_verify(
    sample: PopulationSample, alpha: float
) -> tuple[NormalUncertain, TestDecision]:
    """Fit a distribution to ``sample`` by moments, then test the sample against it.

    Pinned parameters on the sample are respected by the fit.  A rejected
    self-test flags the population as not adequately modelled by a normal
    uncertainty distribution.

    A :class:`~uncstat.errors.NumericError` from the fit or the band is
    raised again with the population's id in front of its message.
    """
    try:
        fitted = fit_moments(sample.values, sample.known_e, sample.known_sigma)
        return fitted, single_test(sample, fitted, alpha)
    except NumericError as exc:
        raise type(exc)(f"population {sample.id!r}: {exc}") from None
