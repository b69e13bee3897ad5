"""Normal uncertainty distribution core.

The belief that a population does not exceed ``z`` follows the logistic-shaped
curve ``Phi(z) = (1 + exp(pi*(e - z)/(sqrt(3)*sigma)))**-1`` with location
``e`` and scale ``sigma``.  This module provides that belief function, its
inverse (quantile) function, the standard quantile, moment estimation from
observed data, and a numeric witness for the nonembeddedness of one quantile
envelope in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DegenerateSampleError, NumericError

__all__ = [
    "NormalUncertain",
    "check_level",
    "check_parameters",
    "cdf",
    "quantile",
    "std_quantile",
    "fit_moments",
    "nonembedded_check",
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
    """``fsum(terms) / m``, or :class:`NumericError` if it leaves the double range."""
    try:
        mean = math.fsum(terms) / m
    except OverflowError:
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
        sigma = math.sqrt(_mean(((v - e) ** 2 for v in values), m))
        # The mean of equal values can round away from them, leaving a spread of ulps.
        if sigma == 0.0 or (known_e is None and all(v == values[0] for v in values)):
            raise DegenerateSampleError(
                "sample has zero spread about its location; supply a scale "
                "or provide data with at least two distinct values"
            )
    return NormalUncertain(e, sigma)


def nonembedded_check(
    inv_null: Callable[[float], float],
    inv_alt: Callable[[float], float],
    alpha: float,
    grid_size: int = 100,
) -> bool:
    """Numeric witness that ``inv_alt`` escapes the quantile envelope of ``inv_null``.

    Evaluates the two strict inequalities

        ``inv_null(b) > inv_alt(b)``  or  ``inv_alt(1 - b) > inv_null(1 - b)``

    on the equispaced grid ``b_k = (k / grid_size) * (alpha / 2)`` for
    ``k = 1..grid_size`` and reports whether any grid point satisfies either.
    A True result exhibits a concrete witness; a False result is only a
    failure to find one on this grid, not a proof that none exists.

    For the normal family the property always holds, so this predicate is a
    diagnostic; the test pipeline does not gate on it.
    """
    check_level(alpha)
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size!r}")
    half = alpha / 2.0
    for k in range(1, grid_size + 1):
        beta = (k / grid_size) * half
        if inv_null(beta) > inv_alt(beta) or inv_alt(1.0 - beta) > inv_null(1.0 - beta):
            return True
    return False
