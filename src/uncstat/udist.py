"""Normal uncertainty distribution core.

The belief that a population does not exceed ``z`` follows the logistic-shaped
curve ``Phi(z) = (1 + exp(pi*(e - z)/(sqrt(3)*sigma)))**-1`` with location
``e`` and scale ``sigma``.  This module provides that belief function, its
inverse (quantile) function, the standard quantile, and moment estimation
from observed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateSampleError, NumericError

__all__ = [
    "NormalUncertain",
    "check_level",
    "check_parameters",
    "cdf",
    "quantile",
    "std_quantile",
    "fit_moments",
]

_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


def check_level(alpha: float) -> float:
    """Validate a belief level, returning it unchanged.

    Raises ValueError unless ``0 < alpha < 1``.
    """
    if not isinstance(alpha, (int, float)) or not math.isfinite(alpha):
        raise ValueError(f"belief level must be a finite number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"belief level must lie strictly in (0, 1), got {alpha!r}")
    return float(alpha)


def check_parameters(e: float, sigma: float) -> None:
    """Raise ValueError unless ``e`` is a finite location and ``sigma`` a
    finite scale > 0."""
    if not isinstance(e, (int, float)) or not math.isfinite(e):
        raise ValueError(f"location must be finite, got {e!r}")
    if not isinstance(sigma, (int, float)) or not math.isfinite(sigma) or not sigma > 0.0:
        raise ValueError(f"scale must be finite and > 0, got {sigma!r}")


@dataclass(frozen=True)
class NormalUncertain:
    """Normal uncertainty distribution with location ``e`` and scale ``sigma``."""

    e: float
    sigma: float

    def __post_init__(self) -> None:
        check_parameters(self.e, self.sigma)


def cdf(d: NormalUncertain, z: float) -> float:
    """Belief degree that the population described by ``d`` does not exceed ``z``.

    Strictly increasing in ``z``.  The result is strictly inside (0, 1) until
    ``|z - e|`` exceeds roughly 36 scales, where the correctly rounded value
    reaches the boundary of double precision.
    """
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")
    t = math.pi * (d.e - z) / (math.sqrt(3.0) * d.sigma)
    # Evaluate 1/(1 + e^t) through e^-|t| so large |t| cannot overflow.
    if t >= 0.0:
        w = math.exp(-t)
        return w / (1.0 + w)
    return 1.0 / (1.0 + math.exp(t))


def std_quantile(alpha: float) -> float:
    """Quantile of the standard distribution (location 0, scale 1).

    Antisymmetric about ``alpha = 0.5``, where it is exactly zero.
    """
    check_level(alpha)
    return _SQRT3_OVER_PI * math.log(alpha / (1.0 - alpha))


def quantile(d: NormalUncertain, alpha: float) -> float:
    """Inverse of :func:`cdf`: the value whose belief degree is ``alpha``.

    Equals ``d.e + d.sigma * std_quantile(alpha)`` by definition, so
    ``quantile(d, 0.5) == d.e`` exactly.
    """
    return d.e + d.sigma * std_quantile(alpha)


def _mean(terms: Iterable[float], m: int) -> float:
    """``fsum(terms) / m``, or :class:`NumericError` if it leaves the double range.

    ``terms`` is read to its end even when the sum overflows first, so an
    error that reading it raises comes before this one."""
    terms = iter(terms)
    try:
        mean = math.fsum(terms) / m
    except OverflowError:
        for _ in terms:
            pass
        mean = math.inf
    if not math.isfinite(mean):
        raise NumericError("the sample's moments overflow double precision; rescale the data")
    return mean


def fit_moments(
    values: Sequence[float],
    known_e: float | None = None,
    known_sigma: float | None = None,
) -> NormalUncertain:
    """Fit a :class:`NormalUncertain` to observed data by matched moments.

    The location is the arithmetic mean unless ``known_e`` pins it; the scale
    is the root mean square deviation about the (possibly pinned) location,
    with population normalisation (divisor ``m``, not ``m - 1``), unless
    ``known_sigma`` pins it.

    Raises ValueError for an empty sample,
    :class:`~uncstat.errors.DegenerateSampleError` when every value coincides
    with the location and no scale was supplied, and
    :class:`~uncstat.errors.NumericError` when a moment overflows double
    precision.  ``values`` is used as given, so it holds floats already.
    """
    m = len(values)
    if not m:
        raise ValueError("cannot fit an empty sample")
    e = float(known_e) if known_e is not None else _mean(values, m)
    if known_sigma is not None:
        sigma = float(known_sigma)
        if not sigma > 0.0:
            raise ValueError(f"known scale must be > 0, got {known_sigma!r}")
    else:
        # d * d, not d ** 2: libm's pow does not always round a square correctly.
        sigma = math.sqrt(_mean(((v - e) * (v - e) for v in values), m))
        first = values[0]
        # The mean of equal values can round away from them, leaving a spread of ulps.
        if sigma == 0.0 or (known_e is None and all(v == first for v in values)):
            raise DegenerateSampleError(
                "sample has zero spread about its location; supply a scale "
                "or provide data with at least two distinct values"
            )
    return NormalUncertain(e, sigma)
