"""Pooled (common) tests on a homogeneous group.

When several populations share their unknown parameters, their data can be
pooled into one sample and tested against a fixed reference distribution.
The group's pins decide what is pooled, as they decide the parameter case
(:func:`~uncstat.multi.resolve_case`): populations that pin their scales
are rescaled to unit scale and pool their locations, populations that pin
their locations are shifted to location 0 and pool their scales, and the
data of populations that pin nothing is merged raw and pools both.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .errors import NumericError
from .multi import CASE_PINS, FittedGroup, ParameterCase, resolve_case
from .testing import TestDecision, single_test
from .udist import NormalUncertain, check_level, fit_moments

__all__ = [
    "MergedSample",
    "CommonTestResult",
    "unify_scale",
    "unify_location",
    "merge",
    "merge_group",
    "common_test",
]

# Relative drift of the merged location above which the uncentred scale
# estimate visibly differs from the centred one.
_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class MergedSample:
    """Pooled data with provenance: ``parts`` holds each contributing
    population's id and size in merge order, so merged position ``k`` maps
    back to (population id, original index) without a record per point."""

    values: tuple[float, ...]
    parts: tuple[tuple[str, int], ...]
    _ends: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("merged sample is empty")
        if any(size < 1 for _, size in self.parts):
            raise ValueError("every part must hold at least one point")
        ends = list(accumulate(size for _, size in self.parts))
        if not ends or ends[-1] != len(self.values):
            raise ValueError("part sizes must add up to the number of values")
        object.__setattr__(self, "_ends", ends)

    @property
    def n(self) -> int:
        return len(self.values)

    def origin_of(self, merged_index: int) -> tuple[str, int]:
        """Map a 1-based merged position back to its source data point."""
        if not 1 <= merged_index <= self.n:
            raise IndexError(f"merged position {merged_index} outside 1..{self.n}")
        part = bisect_left(self._ends, merged_index)
        start = self._ends[part - 1] if part else 0
        return self.parts[part][0], merged_index - start


@dataclass(frozen=True)
class CommonTestResult:
    """Outcome of a pooled test: the reference used and the decision on it."""

    case: ParameterCase
    theta0: NormalUncertain
    decision: TestDecision
    merged: MergedSample
    diagnostics: tuple[str, ...] = ()

    @property
    def outlier_origins(self) -> tuple[tuple[str, int], ...]:
        return tuple(self.merged.origin_of(p) for p in self.decision.outlier_indices)


def unify_scale(values: Sequence[float], center: float, scale: float) -> tuple[float, ...]:
    """Rescale spread about ``center`` to 1 without moving the center:
    ``(z - center) / scale + center``."""
    if not scale > 0.0:
        raise ValueError(f"scale must be > 0, got {scale!r}")
    return tuple([(v - center) / scale + center for v in values])


def unify_location(values: Sequence[float], center: float) -> tuple[float, ...]:
    """Shift ``center`` to 0 without changing spread: ``z - center``."""
    return tuple([v - center for v in values])


def merge(parts: Sequence[tuple[str, Sequence[float]]]) -> MergedSample:
    """Concatenate per-population data in the given order, recording each
    population's id and size."""
    if not parts:
        raise ValueError("cannot merge an empty group")
    values: list[float] = []
    sizes: list[tuple[str, int]] = []
    for pid, vals in parts:
        if not vals:
            raise ValueError(f"population {pid!r} contributes no data")
        values.extend(vals)
        sizes.append((pid, len(vals)))
    return MergedSample(tuple(values), tuple(sizes))


def merge_group(group: FittedGroup) -> MergedSample:
    """Adjust each population with its own fitted (or pinned) parameters as
    the group's pins decide (see :func:`common_test`), and merge the
    adjusted data in group order.

    Raises :class:`~uncstat.errors.ConfigurationError`, naming populations,
    when the pins are no one case's, and :class:`~uncstat.errors.NumericError`,
    naming the population, when rescaling to unit scale takes a value out of
    double precision."""
    return _merge(group, *CASE_PINS[resolve_case([s for s, _ in group])])


def _merge(group: FittedGroup, located: bool, scaled: bool) -> MergedSample:
    """:func:`merge_group` for a group that pins its locations and/or scales."""
    parts = []
    for s, f in group:
        values = s.values
        if scaled:
            values = unify_scale(values, f.e, f.sigma)
            # The sum of finite values is finite unless it overflows on its
            # own; only then is each value looked at.
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise NumericError(
                    f"population {s.id!r}: its values rescaled to unit scale "
                    f"(sigma={f.sigma!r}) overflow double precision"
                )
        if located:
            values = unify_location(values, f.e)
        parts.append((s.id, values))
    return merge(parts)


def common_test(
    group: FittedGroup, alpha: float, theta0: NormalUncertain | None = None
) -> CommonTestResult:
    """Pooled test that the group's shared unknown parameters equal a constant.

    The case is the one :func:`~uncstat.multi.resolve_case` derives from the
    pins, and the merged sample of :func:`merge_group` is tested against
    ``theta0``.  By default ``theta0`` is estimated from the merged data
    itself, pinning what the parts pin, so the test is a self-consistency
    check:

    * means-unknown  -- spreads unified to 1; reference ``(merged mean, 1)``.
    * sigmas-unknown -- locations unified to 0; reference ``(0, rms of
      merged)``, where the root mean square is deliberately taken about 0,
      not about the merged mean.  A diagnostic is recorded when the merged
      location drifts enough for that distinction to matter.
    * both-unknown   -- merged raw; reference fitted by moments from the pool.

    Pass ``theta0`` to test the pooled data against an external constant
    instead of the merged estimate.
    """
    check_level(alpha)
    if not group:
        raise ValueError("cannot run a pooled test on an empty group")
    case = resolve_case([s for s, _ in group])
    located, scaled = CASE_PINS[case]
    merged = _merge(group, located, scaled)
    fitted = fit_moments(merged.values, 0.0 if located else None, 1.0 if scaled else None)
    diagnostics = []
    if located:
        drift = math.fsum(merged.values) / merged.n
        if abs(drift) > _DRIFT_TOL * fitted.sigma:
            diagnostics.append(
                f"merged location drifts from 0 by {drift:.6g}; the scale "
                "estimate is taken about 0, not about the merged mean"
            )

    reference = theta0 if theta0 is not None else fitted
    # The merged values are counted as they are: each population's values
    # were checked when it was built, and a value the adjustment takes out of
    # double precision fails merge_group or the fit above.
    return CommonTestResult(
        case=case,
        theta0=reference,
        decision=single_test(merged, reference, alpha),
        merged=merged,
        diagnostics=tuple(diagnostics),
    )
