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
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain

from .errors import NumericError
from .multi import CASE_PINS, FittedGroup, resolve_case
from .testing import AcceptanceInterval, PopulationSample, TestDecision, acceptance_interval
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
    back to (population id, original index) without a record per point.

    ``values`` is a tuple from :func:`merge` and :func:`merge_group`; a
    pooled test's is a read-only sequence, made when it is read, that equals
    that tuple."""

    values: Sequence[float]
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
    """Outcome of a pooled test: the reference used and the decision on it.
    The pooled ids are those of ``merged.parts``; their pins decide the case."""

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

    Raises ValueError for an empty group or a repeated id,
    :class:`~uncstat.errors.ConfigurationError`, naming populations, when
    the pins are no one case's, and :class:`~uncstat.errors.NumericError`,
    naming the population, when rescaling to unit scale takes a value out of
    double precision."""
    pooled = _PooledValues(group)
    return MergedSample(tuple(pooled), pooled.parts)


_Map = Callable[[float], float]


class _PooledValues(Sequence):
    """The values of a group pooled as its pins decide (see
    :func:`common_test`), in group order, each part adjusted when it is read.

    It keeps no adjusted value: iterating makes one part at a time, with
    :func:`unify_scale` and :func:`unify_location`, and an index makes one
    value.  Every read of a rescaled part checks it for overflow.  It equals,
    and hashes like, the tuple of its values, and it pickles and copies as
    that tuple.

    Raises ValueError for an empty group or a repeated id, and
    :class:`~uncstat.errors.ConfigurationError` when the pins are no one
    case's.
    """

    __slots__ = ("_group", "_ends", "located", "scaled")

    def __init__(self, group: FittedGroup) -> None:
        if not group:
            raise ValueError("cannot pool an empty group")
        if len({s.id for s, _ in group}) != len(group):
            raise ValueError("population ids must be unique")
        self.located, self.scaled = CASE_PINS[resolve_case([s for s, _ in group])]
        self._group = tuple(group)
        self._ends = list(accumulate(s.size for s, _ in self._group))

    @property
    def parts(self) -> tuple[tuple[str, int], ...]:
        return tuple((s.id, s.size) for s, _ in self._group)

    def _adjusted(
        self, s: PopulationSample, f: NormalUncertain, values: Sequence[float]
    ) -> Sequence[float]:
        """``values`` of ``s``, fitted by ``f``, as the pool holds them."""
        if self.scaled:
            values = unify_scale(values, f.e, f.sigma)
            # The sum of finite values is finite unless it overflows on its
            # own; only then is each value looked at.
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise NumericError(
                    f"population {s.id!r}: its values rescaled to unit scale "
                    f"(sigma={f.sigma!r}) overflow double precision"
                )
        if self.located:
            values = unify_location(values, f.e)
        return values

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, index: int | slice) -> float | tuple[float, ...]:
        if isinstance(index, slice):
            return tuple(self)[index]
        t = operator.index(index)
        t = t + len(self) if t < 0 else t
        if not 0 <= t < len(self):
            raise IndexError("merged index out of range")
        part = bisect_right(self._ends, t)
        s, f = self._group[part]
        return self._adjusted(s, f, (s.values[t - (self._ends[part - 1] if part else 0)],))[0]

    def __iter__(self) -> Iterator[float]:
        return chain.from_iterable(self._adjusted(s, f, s.values) for s, f in self._group)

    def outliers(self, interval: AcceptanceInterval) -> tuple[int, ...]:
        """1-based positions of the values strictly outside ``interval``,
        ascending, as :func:`~uncstat.testing.count_outliers` finds them, but
        read from each part's raw values.

        Each part's adjustment is monotone non-decreasing in floating point,
        so every raw value between two raw ends that it maps into the band
        is inside too; only the values outside those ends are adjusted.
        """
        lower, upper = interval.lower, interval.upper
        found: list[int] = []
        for start, (s, f) in zip(chain((0,), self._ends), self._group):
            adjust, inverse = self._maps(f)
            a, b = _raw_band(adjust, inverse, lower, upper)
            found += [
                p
                for p, v in enumerate(s.values, start + 1)
                if (v < a or v > b) and ((z := adjust(v)) < lower or z > upper)
            ]
        return tuple(found)

    def _maps(self, f: NormalUncertain) -> tuple[_Map, _Map]:
        """One value's adjustment with fit ``f``, as :meth:`_adjusted` makes
        it, and an approximate inverse of it."""
        c, sd = f.e, f.sigma
        if self.scaled:
            return (lambda v: (v - c) / sd + c), (lambda z: (z - c) * sd + c)
        if self.located:
            return (lambda v: v - c), (lambda z: z + c)
        return (lambda v: v), (lambda z: z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _PooledValues)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self) -> tuple:
        return tuple, (tuple(self),)

    def __repr__(self) -> str:
        return repr(tuple(self))


# The raw ends of a part's band move at most this many doubles inward from
# the inverse images of the band's ends.
_END_STEPS = 4


def _raw_band(adjust: _Map, inverse: _Map, lower: float, upper: float) -> tuple[float, float]:
    """Raw ends ``[a, b]`` that the monotone ``adjust`` maps into ``[lower,
    upper]``, found from the inverse images of the ends; ``(inf, -inf)``,
    which holds no value, when an end is not finite, the ends cross or the
    steps run out."""
    a, b = inverse(lower), inverse(upper)
    for _ in range(_END_STEPS + 1):
        if not (math.isfinite(a) and math.isfinite(b) and a <= b):
            break
        below, above = adjust(a) < lower, adjust(b) > upper
        if not (below or above):
            return a, b
        if below:
            a = math.nextafter(a, math.inf)
        if above:
            b = math.nextafter(b, -math.inf)
    return math.inf, -math.inf


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
    pooled = _PooledValues(group)
    # One pass, which raises the overflow of the first part that overflows.
    fitted = fit_moments(pooled, 0.0 if pooled.located else None, 1.0 if pooled.scaled else None)
    diagnostics = []
    if pooled.located:
        drift = math.fsum(pooled) / len(pooled)
        if abs(drift) > _DRIFT_TOL * fitted.sigma:
            diagnostics.append(
                f"merged location drifts from 0 by {drift:.6g}; the scale "
                "estimate is taken about 0, not about the merged mean"
            )

    reference = theta0 if theta0 is not None else fitted
    interval = acceptance_interval(reference, alpha)
    return CommonTestResult(
        theta0=reference,
        decision=TestDecision(interval, pooled.outliers(interval), len(pooled)),
        merged=MergedSample(pooled, pooled.parts),
        diagnostics=tuple(diagnostics),
    )
