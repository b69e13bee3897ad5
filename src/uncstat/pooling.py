"""Pooled (common) tests on a homogeneous group.

When several populations share their unknown parameters, their data can be
pooled into one sample and tested against a fixed reference distribution.
Populations whose pinned parameters differ are first transformed onto a
shared footing: scales are unified to 1 when only locations are shared,
locations are unified to 0 when only scales are shared, and data is merged
raw when both parameters are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .testing import PopulationSample, TestDecision, single_test
from .udist import NormalUncertain, check_level, fit_moments

__all__ = [
    "CommonCase",
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


class CommonCase(Enum):
    """Which shared parameter the pooled test targets."""

    MEAN = "mean"
    SIGMA = "sigma"
    BOTH = "both"


@dataclass(frozen=True)
class MergedSample:
    """Pooled data with provenance back to (population id, original index)."""

    values: tuple[float, ...]
    origins: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.origins):
            raise ValueError("values and origins must be parallel")
        if not self.values:
            raise ValueError("merged sample is empty")

    @property
    def n(self) -> int:
        return len(self.values)

    def origin_of(self, merged_index: int) -> tuple[str, int]:
        """Map a 1-based merged position back to its source data point."""
        if not 1 <= merged_index <= len(self.origins):
            raise IndexError(f"merged position {merged_index} outside 1..{len(self.origins)}")
        return self.origins[merged_index - 1]


@dataclass(frozen=True)
class CommonTestResult:
    """Outcome of a pooled test: the reference used and the decision on it."""

    case: CommonCase
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
    return tuple((v - center) / scale + center for v in values)


def unify_location(values: Sequence[float], center: float) -> tuple[float, ...]:
    """Shift ``center`` to 0 without changing spread: ``z - center``."""
    return tuple(v - center for v in values)


def merge(parts: Sequence[tuple[str, Sequence[float]]]) -> MergedSample:
    """Concatenate per-population data in the given order, recording origins."""
    if not parts:
        raise ValueError("cannot merge an empty group")
    values: list[float] = []
    origins: list[tuple[str, int]] = []
    for pid, vals in parts:
        if not vals:
            raise ValueError(f"population {pid!r} contributes no data")
        for idx, v in enumerate(vals, start=1):
            values.append(float(v))
            origins.append((pid, idx))
    return MergedSample(tuple(values), tuple(origins))


def merge_group(
    case: CommonCase, group: Sequence[tuple[PopulationSample, NormalUncertain]]
) -> MergedSample:
    """Adjust each population with its own fitted (or pinned) parameters for
    the pooled ``case`` and merge the adjusted data in group order."""
    if case is CommonCase.MEAN:
        return merge([(s.id, unify_scale(s.values, f.e, f.sigma)) for s, f in group])
    if case is CommonCase.SIGMA:
        return merge([(s.id, unify_location(s.values, f.e)) for s, f in group])
    return merge([(s.id, s.values) for s, _ in group])


def common_test(
    case: CommonCase,
    group: Sequence[tuple[PopulationSample, NormalUncertain]],
    alpha: float,
    theta0: NormalUncertain | None = None,
) -> CommonTestResult:
    """Pooled test that the group's shared unknown parameter equals a constant.

    The group is adjusted and merged by :func:`merge_group`, and the merged
    sample is tested against ``theta0``.  By default ``theta0`` is estimated
    from the merged data itself, making the test a self-consistency check:

    * ``MEAN``  -- spreads unified to 1; reference ``(merged mean, 1)``.
    * ``SIGMA`` -- locations unified to 0; reference ``(0, rms of merged)``,
      where the root mean square is deliberately taken about 0, not about the
      merged mean.  A diagnostic is recorded when the merged location drifts
      enough for that distinction to matter.
    * ``BOTH``  -- merged raw; reference fitted by moments from the pool.

    Pass ``theta0`` to test the pooled data against an external constant
    instead of the merged estimate.
    """
    check_level(alpha)
    if not group:
        raise ValueError("cannot run a pooled test on an empty group")
    diagnostics: list[str] = []

    merged = merge_group(case, group)
    if case is CommonCase.MEAN:
        fitted = fit_moments(merged.values, known_sigma=1.0)
    elif case is CommonCase.SIGMA:
        fitted = fit_moments(merged.values, known_e=0.0)
        drift = math.fsum(merged.values) / merged.n
        if abs(drift) > _DRIFT_TOL * fitted.sigma:
            diagnostics.append(
                f"merged location drifts from 0 by {drift:.6g}; the scale "
                "estimate is taken about 0, not about the merged mean"
            )
    else:
        fitted = fit_moments(merged.values)

    reference = theta0 if theta0 is not None else fitted
    pooled = PopulationSample(id="+".join(s.id for s, _ in group), values=merged.values)
    decision = single_test(pooled, reference, alpha)
    return CommonTestResult(
        case=case,
        theta0=reference,
        decision=decision,
        merged=merged,
        diagnostics=tuple(diagnostics),
    )
