"""Multi-population layer: simultaneous error rate, pairwise cross-tests,
homogeneity testing and homogeneous-subgroup discovery.

Homogeneity of ``n`` populations is decided by running every unordered pair
through a symmetric cross-test: the data of each population is checked
against the acceptance band built from the other population's fitted
parameters.  One rejected direction makes the pair heterogeneous, and one
heterogeneous pair rejects overall homogeneity.  Because the worst-case
belief degree of a union of independent wrong rejections is the maximum of
the component levels, all component tests run at the same level as the
overall test.

The pairwise stage shares its work across pairs (:class:`CrossTests`): each
band is built once per reference distribution, and every ordered pair of a
group is decided when the table is built, one row per population.  A row
sorts the population's candidates, the values outside the intersection of
the bands it meets, once, and counts each band by bisecting them alone.
Homogeneous groups are enumerated on neighbour bitsets by a clique search
with a fixed work budget (:data:`CLIQUE_BUDGET`), on a run and on a reload
alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import ConfigurationError, NumericError
from .testing import (
    AcceptanceInterval,
    PopulationSample,
    Record,
    TestDecision,
    acceptance_interval,
    test_against_interval,
)
# Unused since homogeneity_test takes fits, but bench/spans.py still wraps
# ``uncstat.multi.fit_and_verify`` by name, so the name stays importable here.
from .testing import fit_and_verify  # noqa: F401
from .udist import NormalUncertain, check_level

__all__ = [
    "ParameterCase",
    "CASE_PINS",
    "PairwiseDecision",
    "HomogeneityResult",
    "ufwer",
    "cross_interval",
    "CrossTests",
    "pairwise_test",
    "homogeneity_test",
    "homogeneous_groups",
    "CLIQUE_BUDGET",
]


class ParameterCase(Enum):
    """Which population parameters are unknown (the tested ones).

    MEANS_UNKNOWN   -- locations unknown, every population has a pinned scale.
    SIGMAS_UNKNOWN  -- scales unknown, every population has a pinned location.
    BOTH_UNKNOWN    -- nothing pinned; locations and scales are both tested.
    """

    MEANS_UNKNOWN = "means-unknown"
    SIGMAS_UNKNOWN = "sigmas-unknown"
    BOTH_UNKNOWN = "both-unknown"


# What every population pins in each case, as (location pinned, scale
# pinned).  A cross-test keeps these parameters of the tested data and takes
# the others from the other population's fit.
CASE_PINS = {
    ParameterCase.MEANS_UNKNOWN: (False, True),
    ParameterCase.SIGMAS_UNKNOWN: (True, False),
    ParameterCase.BOTH_UNKNOWN: (False, False),
}

# Populations with their fits, as the pairwise stage takes them.
FittedGroup = Sequence[tuple[PopulationSample, NormalUncertain]]

# Nodes the clique search may expand before homogeneous_groups gives up.  A
# graph on n vertices can have 3**(n/3) maximal cliques (Moon & Moser 1965),
# and the pivoted search expands O(3**(n/3)) nodes (Tomita et al. 2006).
CLIQUE_BUDGET = 100_000


def describe_pins(pins: tuple[bool, bool]) -> str:
    """Name the parameters a (location pinned, scale pinned) pattern pins."""
    return " and ".join(n for n, p in zip(("the location", "the scale"), pins) if p) or "nothing"


def check_case(case: ParameterCase, samples: Iterable[PopulationSample]) -> None:
    """Raise ConfigurationError unless every sample pins what ``case`` pins.

    The three cases are homogeneous across populations: pinning a parameter
    for some populations but not others has no defined cross-test.
    """
    pins = CASE_PINS[case]
    for s in samples:
        if s.pins != pins:
            raise ConfigurationError(
                f"population {s.id!r} pins {describe_pins(s.pins)}, but in the "
                f"{case.value} case every population pins {describe_pins(pins)}"
            )


class PairwiseDecision(
    namedtuple("PairwiseDecision", "i j decision_i_vs_j decision_j_vs_i homogeneous"), Record
):
    """Cross-test of two populations; homogeneous iff neither direction rejects."""

    __slots__ = ()

    def __new__(
        cls, i: str, j: str, decision_i_vs_j: TestDecision, decision_j_vs_i: TestDecision
    ) -> PairwiseDecision:
        homogeneous = not (decision_i_vs_j.rejected or decision_j_vs_i.rejected)
        return tuple.__new__(cls, (i, j, decision_i_vs_j, decision_j_vs_i, homogeneous))

    @classmethod
    def batch(
        cls, pairs: Iterable[tuple[str, str, TestDecision, TestDecision]]
    ) -> list[PairwiseDecision]:
        """``[cls(*p) for p in pairs]``: the rule of ``__new__`` with no Python
        call per record."""
        new = tuple.__new__
        return [new(cls, (i, j, a, b, not (a.rejected or b.rejected))) for i, j, a, b in pairs]

    def __getnewargs__(self) -> tuple:
        return self[:4]


@dataclass(frozen=True)
class HomogeneityResult:
    """Pairwise cross-tests and the homogeneous subgroups they imply."""

    case: ParameterCase
    alpha: float
    pairwise: tuple[PairwiseDecision, ...]
    groups: tuple[frozenset[str], ...]

    @property
    def rejected(self) -> bool:
        """One heterogeneous pair rejects overall homogeneity."""
        return not all(p.homogeneous for p in self.pairwise)


def ufwer(alphas: Sequence[float]) -> float:
    """Worst-case belief degree of at least one wrong rejection.

    For independent component tests this is the maximum of the individual
    levels, so simultaneous testing needs no per-test level reduction.
    """
    if not alphas:
        raise ValueError("at least one component level is required")
    return max(check_level(a) for a in alphas)


def _pinned(pins: tuple[bool, bool], pop: PopulationSample) -> tuple[float | None, float | None]:
    """The location and scale of ``pop`` that ``pins`` (a :data:`CASE_PINS`
    pattern) marks, None for a parameter taken from the other population's fit."""
    e = pop.known_e if pins[0] else None
    sigma = pop.known_sigma if pins[1] else None
    if pins[0] and e is None or pins[1] and sigma is None:
        raise ConfigurationError(f"population {pop.id!r} lacks a parameter its case pins")
    return e, sigma


def _reference(
    pins: tuple[bool, bool], pop_i: PopulationSample, fit_j: NormalUncertain
) -> tuple[float, float]:
    """Reference ``pop_i``'s data is tested against: the parameters ``pins``
    marks from ``pop_i``, the others from ``fit_j``."""
    e, sigma = _pinned(pins, pop_i)
    return fit_j.e if e is None else e, fit_j.sigma if sigma is None else sigma


def cross_interval(
    case: ParameterCase,
    pop_i: PopulationSample,
    fit_j: NormalUncertain,
    alpha: float,
) -> AcceptanceInterval:
    """Acceptance band for ``pop_i``'s data built from population j's fit.

    The band is centred on the case-dependent composite distribution: the
    tested parameter comes from ``fit_j`` while any pinned parameter of
    ``pop_i`` is kept, so only the hypothesised equality is under test.
    """
    return acceptance_interval(NormalUncertain(*_reference(CASE_PINS[case], pop_i, fit_j)), alpha)


class CrossTests:
    """Cross-test decisions of one group of populations at one level.

    Bands are kept in a table keyed by their reference distribution, so each
    is built once: in the both-unknown case i's data against j's fit uses
    j's own band, and ``n`` bands serve all ``n(n-1)`` cross-tests.

    ``group`` holds ``(sample, fit)`` pairs, and every ordered pair of
    members is decided when the object is built, one row per member: its
    decisions against every other member's fit.  A member meets one band per
    other member, and a value inside their intersection ``[lo, hi]`` is
    inside every one of them; so a row scans its member's values once for
    the candidates, the values outside ``[lo, hi]``, sorted with their
    1-based positions.  Each band contains ``[lo, hi]``, so it is counted by
    two bisections over the candidates, and bands that cut the candidates at
    the same place share one outlier tuple.

    :meth:`decide` finds a member by the identity of its sample and another
    member by the identity of its fit, and looks their decision up; any
    other pair, a member's own fit included, is counted by the linear scan
    of :func:`~uncstat.testing.count_outliers`, the reference definition.
    Decisions equal ``test_against_interval(pop_i, cross_interval(...))``.

    A :class:`~uncstat.errors.NumericError` from a member's band is raised
    again with both populations' ids in front of its message.
    """

    def __init__(self, case: ParameterCase, alpha: float, group: FittedGroup = ()) -> None:
        self.case = case
        self.alpha = check_level(alpha)
        self._pins = CASE_PINS[case]
        self._bands: dict[tuple[float, float], AcceptanceInterval] = {}
        # Rows and columns are found by object identity; the table holds the
        # members, so no other object can take one of those identities while
        # it lives.  A repeated sample or fit finds its last member.
        self._members = tuple(group)
        self._row_of = {id(sample): k for k, (sample, _) in enumerate(self._members)}
        self._column_of = {id(fit): j for j, (_, fit) in enumerate(self._members)}
        self._rows = [self._decide_row(k) for k in range(len(self._members))]

    def _decide_row(self, k: int) -> list[TestDecision | None]:
        """Member ``k``'s decisions against each member's fit, None against its own."""
        members = self._members
        sample = members[k][0]
        # The row's pins are bound once; each key is _reference(sample, fit).
        e, sigma = _pinned(self._pins, sample)
        table, bands = self._bands, []
        lo, hi = -math.inf, math.inf
        for source, fit in members[:k] + members[k + 1 :]:
            key = fit.e if e is None else e, fit.sigma if sigma is None else sigma
            band = table.get(key)
            if band is None:
                try:
                    band = self._band_at(key)
                except NumericError as exc:
                    raise type(exc)(
                        f"population {sample.id!r} against the fit of {source.id!r}: {exc}"
                    ) from None
            bands.append(band)
            lo = band.lower if band.lower > lo else lo
            hi = band.upper if band.upper < hi else hi
        # Indices of the candidates, sorted by value.
        values = sample.values
        outside = [i for i, z in enumerate(values) if z < lo or z > hi]
        outside.sort(key=values.__getitem__)
        candidates = [values[i] for i in outside]
        positions = [i + 1 for i in outside]
        shared: dict[tuple[int, int], tuple[int, ...]] = {}
        outlier_sets = []
        for band in bands:
            # An endpoint value is inside: bisect_left stops before it at the
            # lower end, bisect_right passes it at the upper end.
            cut = bisect_left(candidates, band.lower), bisect_right(candidates, band.upper)
            outliers = shared.get(cut)
            if outliers is None:
                outliers = shared[cut] = tuple(sorted(positions[: cut[0]] + positions[cut[1] :]))
            outlier_sets.append(outliers)
        row: list[TestDecision | None] = TestDecision.batch(bands, outlier_sets, len(values))
        row.insert(k, None)
        return row

    def band(self, pop_i: PopulationSample, fit_j: NormalUncertain) -> AcceptanceInterval:
        """The band :func:`cross_interval` gives, built on first use."""
        return self._band_at(_reference(self._pins, pop_i, fit_j))

    def _band_at(self, key: tuple[float, float]) -> AcceptanceInterval:
        """The band of the reference ``(e, sigma)``, built on first use."""
        band = self._bands.get(key)
        if band is None:
            band = self._bands[key] = acceptance_interval(NormalUncertain(*key), self.alpha)
        return band

    def decide(self, pop_i: PopulationSample, fit_j: NormalUncertain) -> TestDecision:
        """Test ``pop_i``'s data against the band built from ``fit_j``."""
        k = self._row_of.get(id(pop_i))
        j = self._column_of.get(id(fit_j))
        if k is None or j is None or j == k:  # not a member against another member's fit
            return test_against_interval(pop_i, self.band(pop_i, fit_j))
        return self._rows[k][j]

    def pairwise(self) -> tuple[PairwiseDecision, ...]:
        """Every pair of members, both directions, in :func:`itertools.combinations` order."""
        rows, ids = self._rows, [sample.id for sample, _ in self._members]
        return tuple(
            PairwiseDecision.batch(
                (ids[a], ids[b], rows[a][b], rows[b][a])
                for a, b in combinations(range(len(ids)), 2)
            )
        )


def pairwise_test(
    tests: CrossTests,
    pop_i: PopulationSample,
    pop_j: PopulationSample,
    fit_i: NormalUncertain,
    fit_j: NormalUncertain,
) -> PairwiseDecision:
    """Symmetric cross-test of a pair: i's data against j's fit and vice versa.

    ``tests`` carries the case and level, and the decisions of a group's
    members are looked up in its table.  The per-population self-tests are not
    repeated here; they are run once per population by
    :func:`~uncstat.testing.fit_and_verify`.
    """
    return PairwiseDecision(
        pop_i.id, pop_j.id, tests.decide(pop_i, fit_j), tests.decide(pop_j, fit_i)
    )


def homogeneity_test(group: FittedGroup, case: ParameterCase, alpha: float) -> HomogeneityResult:
    """Test whether the unknown parameters of all populations are equal.

    Takes each population with its fit (pinned parameters respected, as
    :func:`~uncstat.testing.fit_and_verify` returns it), cross-tests every
    unordered pair, and reports maximal homogeneous subgroups.  A population
    that failed its own self-test stays in the pairwise stage; callers
    should surface the failed self-test as a model-adequacy warning.
    """
    if len(group) < 2:
        raise ValueError("homogeneity requires at least two populations")
    check_case(case, (s for s, _ in group))

    tests = CrossTests(case, alpha, group)  # validates the level
    pairwise = tuple(
        pairwise_test(tests, a, b, fit_a, fit_b)
        for (a, fit_a), (b, fit_b) in combinations(group, 2)
    )
    # homogeneous_groups rejects repeated ids.  Every component test runs at
    # alpha, so by ufwer the family-wise level is alpha too.
    groups = homogeneous_groups([s.id for s, _ in group], pairwise)
    return HomogeneityResult(case=case, alpha=alpha, pairwise=pairwise, groups=groups)


def homogeneous_groups(
    ids: Sequence[str],
    pairwise: Sequence[PairwiseDecision],
) -> tuple[frozenset[str], ...]:
    """Maximal cliques of the pairwise-homogeneity graph.

    Cliques (not connected components) are required: a chain of pairwise
    compatible populations whose endpoints differ must not be merged into one
    group.  The result is sorted by descending size, ties broken by the
    lexicographically smallest member, and isolated populations appear as
    singletons.
    """
    id_list = list(ids)
    neighbours = _graph(id_list, pairwise)
    cliques = [sorted(id_list[v] for v in _bits(c)) for c in _maximal_cliques(neighbours)]
    return tuple(frozenset(c) for c in sorted(cliques, key=_group_order))


def _group_order(members: list[str]) -> tuple[int, list[str]]:
    """Sort key of a group with sorted members: descending size, then members."""
    return -len(members), members


def _graph(ids: Sequence[str], pairwise: Sequence[PairwiseDecision]) -> list[int]:
    """Neighbour bitsets of the pairwise-homogeneity graph on the positions
    of ``ids``: bit ``b`` of ``neighbours[a]`` is set when populations ``a``
    and ``b`` are homogeneous.

    Raises ValueError unless the ids are unique and ``pairwise`` holds one
    decision for each pair of them.
    """
    n = len(ids)
    index = {pid: k for k, pid in enumerate(ids)}
    if len(index) != n:
        raise ValueError("population ids must be unique")
    seen: set[tuple[int, int]] = set()
    neighbours = [0] * n
    for p in pairwise:
        a, b = index.get(p.i), index.get(p.j)
        if a is None or b is None or a == b:
            raise ValueError(f"pairwise decision {p.i!r}/{p.j!r} does not match the id list")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ValueError(f"duplicate pairwise decision for {p.i!r}/{p.j!r}")
        seen.add(key)
        if p.homogeneous:
            neighbours[a] |= 1 << b
            neighbours[b] |= 1 << a
    # seen holds distinct pairs of ids, so it covers them all iff its size matches.
    if len(seen) != n * (n - 1) // 2:
        pairs = combinations(range(n), 2)
        missing = sorted(tuple(sorted(ids[k] for k in ab)) for ab in pairs if ab not in seen)
        raise ValueError(f"pairwise decisions missing for pairs: {missing}")
    return neighbours


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(neighbours: Sequence[int]) -> list[int]:
    """Every maximal clique, as a bitset, of the graph on ``0..n-1`` whose
    neighbour bitsets are ``neighbours``: Bron–Kerbosch with Tomita's pivot
    (most neighbours among the candidates) lists each exactly once.

    The search tree's nodes, ``(clique, candidates, excluded)`` bitsets, wait
    on an explicit stack, so the depth of a clique is not limited by the
    recursion limit.  Raises ConfigurationError when the search would expand
    more than :data:`CLIQUE_BUDGET` nodes.
    """
    cliques: list[int] = []
    # The empty graph's one maximal clique is empty, which is no group.
    stack = [(0, (1 << len(neighbours)) - 1, 0)] if neighbours else []
    expansions = 0
    while stack:
        expansions += 1
        if expansions > CLIQUE_BUDGET:
            raise ConfigurationError(
                f"the homogeneous groups are too many to list: {len(cliques)} found before "
                f"the clique search reached its budget of {CLIQUE_BUDGET} steps; test a "
                "chosen group with --mode common and --group instead"
            )
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(clique)
            continue
        pivot = max(
            _bits(candidates | excluded), key=lambda v: (neighbours[v] & candidates).bit_count()
        )
        for v in _bits(candidates & ~neighbours[pivot]):
            bit = 1 << v
            stack.append((clique | bit, candidates & neighbours[v], excluded & neighbours[v]))
            candidates &= ~bit
            excluded |= bit
    return cliques
