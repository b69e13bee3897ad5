"""Multi-population layer: simultaneous error rate, pairwise cross-tests,
homogeneity testing and homogeneous-subgroup discovery.

Homogeneity of ``n`` populations is decided by running every unordered pair
through a symmetric cross-test: the data of each population is checked
against the acceptance band built from its own pins and the other
population's fit; those pins alone decide the case (:func:`resolve_case`).
One rejected direction makes the pair heterogeneous, and one heterogeneous
pair rejects overall homogeneity.  Because the worst-case belief degree of
a union of independent wrong rejections is the maximum of the component
levels, all component tests run at the same level as the overall test.

The pairwise stage shares its work across pairs (:class:`CrossTests`): each
band is built once per reference distribution, and every ordered pair of a
group is decided when the table is built, one row per population.  A row
sorts the population's candidates, the values outside the intersection of
the bands it meets, once, and keeps two cut indices into them per band,
found by bisection.  So a decision is two cuts and a comparison, and no
record is built until one is read: :meth:`CrossTests.decide` builds the one
it is asked for, and :meth:`CrossTests.pairwise` is a read-only sequence
that builds each pair when it is read, both through one reader that shares
a row's outlier tuples by cut.  The table holds at most :data:`PAIR_BUDGET`
pairs.  Homogeneous groups are enumerated on neighbour bitsets by a clique
search with a fixed work budget (:data:`CLIQUE_BUDGET`); a run builds the
bitsets from its records, a reload from the table's cuts.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, compress, islice, repeat, starmap
from typing import Iterator

from .errors import ConfigurationError, NumericError
from .testing import (
    AcceptanceInterval,
    PopulationSample,
    Record,
    TestDecision,
    acceptance_interval,
    rejection_threshold,
    test_against_interval,
)
# Unused since homogeneity_test takes fits, but bench/spans.py still wraps
# ``uncstat.multi.fit_and_verify`` by name, so the name stays importable here.
from .testing import fit_and_verify  # noqa: F401
from .udist import NormalUncertain, check_level

__all__ = [
    "ParameterCase",
    "CASE_PINS",
    "resolve_case",
    "PairwiseDecision",
    "HomogeneityResult",
    "ufwer",
    "cross_interval",
    "CrossTests",
    "pairwise_test",
    "homogeneity_test",
    "homogeneous_groups",
    "CLIQUE_BUDGET",
    "PAIR_BUDGET",
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

# Pairs of populations a CrossTests table may hold (1,414 populations).  A
# run keeps a record of every pair, so this bounds its time and memory: see
# README, "Cost of the pairwise stage".
PAIR_BUDGET = 1_000_000


def describe_pins(pins: tuple[bool, bool]) -> str:
    """Name the parameters a (location pinned, scale pinned) pattern pins."""
    return " and ".join(n for n, p in zip(("the location", "the scale"), pins) if p) or "nothing"


def resolve_case(samples: Sequence[PopulationSample]) -> ParameterCase:
    """The one case whose pins every sample shares.  Otherwise the error
    names two populations that pin different parameters, or one whose pins
    are no case's."""
    first: dict[tuple[bool, bool], PopulationSample] = {}
    for s in samples:
        first.setdefault(s.pins, s)
    if len(first) == 1:
        for case, pins in CASE_PINS.items():
            if pins in first:
                return case
    found = [f"population {s.id!r} pins {describe_pins(p)}" for p, s in islice(first.items(), 2)]
    rule = "the same parameters, one of" if len(found) > 1 else "one of"
    raise ConfigurationError(
        f"cannot infer the parameter case: {', but '.join(found) or 'no populations'}; "
        f"every population must pin {rule}: "
        + ", ".join(f"{describe_pins(p)} ({c.value})" for c, p in CASE_PINS.items())
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

    def __getnewargs__(self) -> tuple:
        return self[:4]


@dataclass(frozen=True)
class HomogeneityResult:
    """Pairwise cross-tests and the homogeneous subgroups they imply.

    ``pairwise`` is a tuple on a run and the table-backed sequence of
    :meth:`CrossTests.pairwise` on a reload; the two are equal under ``==``.
    """

    case: ParameterCase
    alpha: float
    pairwise: Sequence[PairwiseDecision]
    groups: tuple[frozenset[str], ...]

    @property
    def rejected(self) -> bool:
        """One heterogeneous pair rejects overall homogeneity.  On two or more
        populations the graph is complete exactly when it has one group, so
        no record is read."""
        return len(self.groups) > 1


def ufwer(alphas: Sequence[float]) -> float:
    """Worst-case belief degree of at least one wrong rejection.

    For independent component tests this is the maximum of the individual
    levels, so simultaneous testing needs no per-test level reduction.
    """
    if not alphas:
        raise ValueError("at least one component level is required")
    return max(check_level(a) for a in alphas)


def _pinned(pop: PopulationSample) -> tuple[float | None, float | None]:
    """The location and scale ``pop`` pins, None for a parameter taken from
    the other population's fit.  Raises if it pins both: nothing is tested."""
    if pop.known_e is not None and pop.known_sigma is not None:
        raise ConfigurationError(f"population {pop.id!r} pins both parameters; nothing is tested")
    return pop.known_e, pop.known_sigma


def _reference(pop_i: PopulationSample, fit_j: NormalUncertain) -> tuple[float, float]:
    """Reference ``pop_i``'s data is tested against: the parameters ``pop_i``
    pins, the others from ``fit_j``."""
    e, sigma = _pinned(pop_i)
    return fit_j.e if e is None else e, fit_j.sigma if sigma is None else sigma


def cross_interval(
    pop_i: PopulationSample, fit_j: NormalUncertain, alpha: float
) -> AcceptanceInterval:
    """Acceptance band for ``pop_i``'s data built from population j's fit.

    The band is centred on the composite distribution: the parameters
    ``pop_i`` pins are kept and the others come from ``fit_j``, so only the
    hypothesised equality is under test.
    """
    return acceptance_interval(NormalUncertain(*_reference(pop_i, fit_j)), alpha)


# One row of a CrossTests table: the member's candidates (the values outside
# the intersection of its bands) as 1-based positions sorted by value, each
# column's two cuts of them, each column's band, the sample size, the
# rejection threshold, and the outlier tuples its records share, by cut.
_Row = namedtuple("_Row", "positions lows highs bands size threshold shared")

# Maps the bytes 0 and 1 to the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class CrossTests:
    """Cross-test decisions of one group of populations at one level.

    It carries the level only; each sample's pins decide its reference, as
    in :func:`cross_interval`.  Bands are kept in a table keyed by their
    reference distribution, so each is built once: in the both-unknown case
    i's data against j's fit uses j's own band, and ``n`` bands serve all
    ``n(n-1)`` cross-tests.

    ``group`` holds ``(sample, fit)`` pairs, and every ordered pair of
    members is decided when the object is built, one row per member: its
    decisions against every other member's fit.  A member meets one band per
    other member, and a value inside their intersection ``[lo, hi]`` is
    inside every one of them; so a row scans its member's values once for
    the candidates, the values outside ``[lo, hi]``, sorted by value.  Each
    band contains ``[lo, hi]``, so its outliers are the candidates below the
    cut ``bisect_left`` finds at its lower end and from the cut
    ``bisect_right`` finds at its upper end on.  A row keeps only its
    candidates' positions and two cuts per column, and members with the same
    pins share one list of bands; a column rejects when the cuts leave at
    least the threshold outside.  No record is built until one is read, and
    a row keeps the outlier tuples its records share, by cut.

    :meth:`decide` finds a member by the identity of its sample and another
    member by the identity of its fit, and reads their decision as
    :meth:`pairwise` does; any other pair, a member's own fit included, is
    counted by the linear scan of :func:`~uncstat.testing.count_outliers`,
    the reference definition.  Decisions equal ``test_against_interval(pop_i,
    cross_interval(...))``.

    A group with more than :data:`PAIR_BUDGET` pairs is a
    :class:`~uncstat.errors.ConfigurationError`, raised before any row is
    built, and so is a sample that pins both parameters, as it has nothing
    to test.  A :class:`~uncstat.errors.NumericError` from a member's band
    is raised again with both populations' ids in front of its message.
    """

    def __init__(self, alpha: float, group: FittedGroup = ()) -> None:
        self.alpha = check_level(alpha)
        self._bands: dict[tuple[float, float], AcceptanceInterval] = {}
        self._members = tuple(group)
        n = len(self._members)
        if n * (n - 1) // 2 > PAIR_BUDGET:
            raise ConfigurationError(
                f"{n} populations make {n * (n - 1) // 2} pairs to cross-test, more than "
                f"the budget of {PAIR_BUDGET} pairs; fit each population with --mode fit, "
                "or test a chosen group with --mode common and --group"
            )
        # Rows and columns are found by object identity; the table holds the
        # members, so no other object can take one of those identities while
        # it lives.  A repeated sample or fit finds its last member.
        self._row_of = {id(sample): k for k, (sample, _) in enumerate(self._members)}
        self._column_of = {id(fit): j for j, (_, fit) in enumerate(self._members)}
        # Per pinned (e, sigma): each column's band, lower and upper end, the
        # ends infinite until a row needs the band.
        by_pins: dict[tuple[float | None, float | None], tuple[list, list, list]] = {}
        self._rows = [self._build_row(k, by_pins) for k in range(n)]

    def _build_row(self, k: int, by_pins: dict[tuple, tuple[list, list, list]]) -> _Row:
        """Member ``k``'s row against every other member's fit."""
        members = self._members
        n = len(members)
        sample = members[k][0]
        e, sigma = pins = _pinned(sample)
        columns = by_pins.get(pins)
        if columns is None:
            columns = by_pins[pins] = [None] * n, [-math.inf] * n, [math.inf] * n
        bands, lowers, uppers = columns
        # After the first row of a pin pattern, at most that row's own column is missing.
        for j in compress(range(n), map(operator.is_, bands, repeat(None))):
            if j == k:
                continue
            source, fit = members[j]
            key = fit.e if e is None else e, fit.sigma if sigma is None else sigma
            try:
                band = self._band_at(key)
            except NumericError as exc:
                raise type(exc)(
                    f"population {sample.id!r} against the fit of {source.id!r}: {exc}"
                ) from None
            bands[j], lowers[j], uppers[j] = band, band.lower, band.upper
        # The intersection of the other columns' bands: the row's own column
        # is set to the whole line while the ends are taken.
        own = lowers[k], uppers[k]
        lowers[k], uppers[k] = -math.inf, math.inf
        lo, hi = max(lowers), min(uppers)
        lowers[k], uppers[k] = own
        values = sample.values
        outside = [i for i, z in enumerate(values) if z < lo or z > hi]
        outside.sort(key=values.__getitem__)
        candidates = [values[i] for i in outside]
        # An endpoint value is inside: bisect_left stops before it at the
        # lower end, bisect_right passes it at the upper end.  A missing
        # band's infinite ends cut nothing off.
        lows = array("I", map(bisect_left, repeat(candidates, n), lowers))
        highs = array("I", map(bisect_right, repeat(candidates, n), uppers))
        threshold = rejection_threshold(len(values), self.alpha)
        return _Row([i + 1 for i in outside], lows, highs, bands, len(values), threshold, {})

    def band(self, pop_i: PopulationSample, fit_j: NormalUncertain) -> AcceptanceInterval:
        """The band :func:`cross_interval` gives, built on first use."""
        return self._band_at(_reference(pop_i, fit_j))

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
        return self._decision(k, j)

    def _decision(self, k: int, j: int) -> TestDecision:
        """Member ``k``'s decision against member ``j``'s fit, the one reader
        of the table; records of a row share outlier tuples by cut."""
        positions, lows, highs, bands, size, threshold, shared = self._rows[k]
        low, high = lows[j], highs[j]
        if not low and high == len(positions):
            outliers = ()
        elif (outliers := shared.get((low, high))) is None:
            outliers = positions[:low]
            outliers += positions[high:]
            outliers.sort()
            outliers = shared[low, high] = tuple(outliers)
        return tuple.__new__(
            TestDecision, (bands[j], outliers, size, threshold, len(outliers) >= threshold)
        )

    def _pair(self, a: int, b: int) -> PairwiseDecision:
        """The decision of members ``a`` and ``b``, both directions."""
        ij, ji = self._decision(a, b), self._decision(b, a)
        i, j = self._members[a][0].id, self._members[b][0].id
        return tuple.__new__(PairwiseDecision, (i, j, ij, ji, not (ij.rejected or ji.rejected)))

    def pairwise(self) -> Sequence[PairwiseDecision]:
        """Every pair of members, both directions, in :func:`itertools.combinations`
        order: a read-only sequence that builds each pair when it is read."""
        return _Pairs(self)

    def _neighbours(self) -> list[int]:
        """Neighbour bitsets of the homogeneity graph on the members: bit ``b``
        of entry ``a`` is set when neither row rejects the other's column."""
        rows, n = self._rows, len(self._rows)
        # Row k rejects column j when lows[j] + (c - highs[j]) >= threshold,
        # for c candidates: one binary digit per column, column j at digit j,
        # so that column a of every row is every n-th digit from a.
        digits = []
        for row in rows:
            rejected = map(operator.sub, row.lows, row.highs)
            rejected = map(operator.ge, rejected, repeat(row.threshold - len(row.positions)))
            digits.append(bytes(rejected).translate(_DIGITS))
        text = b"".join(digits)
        everyone = (1 << n) - 1
        return [
            everyone & ~(int(own[::-1], 2) | int(text[a::n][::-1], 2) | 1 << a)
            for a, own in enumerate(digits)
        ]


class _Pairs(Sequence):
    """The pairs of a :class:`CrossTests` table, in ``combinations`` order,
    each built when it is read.

    It equals, and hashes like, the tuple of the same records, and it
    pickles and copies as that tuple.
    """

    __slots__ = ("_tests",)

    def __init__(self, tests: CrossTests) -> None:
        self._tests = tests

    def __len__(self) -> int:
        n = len(self._tests._rows)
        return n * (n - 1) // 2

    def __getitem__(self, index: int | slice) -> PairwiseDecision | tuple[PairwiseDecision, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        t = operator.index(index)
        t = t + len(self) if t < 0 else t
        if not 0 <= t < len(self):
            raise IndexError("pair index out of range")
        # Row a's pairs start at a * (u - a) / 2 with u = 2n - 1: take the
        # largest such start not above t.
        u = 2 * len(self._tests._rows) - 1
        a = (u - math.isqrt(u * u - 8 * t)) // 2
        if a * (u - a) // 2 > t:
            a -= 1
        return self._tests._pair(a, t - a * (u - a) // 2 + a + 1)

    def __iter__(self) -> Iterator[PairwiseDecision]:
        return starmap(self._tests._pair, combinations(range(len(self._tests._rows)), 2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Pairs)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self) -> tuple:
        return tuple, (tuple(self),)

    def __repr__(self) -> str:
        return repr(tuple(self))


def pairwise_test(
    tests: CrossTests,
    pop_i: PopulationSample,
    pop_j: PopulationSample,
    fit_i: NormalUncertain,
    fit_j: NormalUncertain,
) -> PairwiseDecision:
    """Symmetric cross-test of a pair: i's data against j's fit and vice versa.

    ``tests`` carries the level, each sample's pins decide its reference,
    and the decisions of a group's members are looked up in its table.  The
    per-population self-tests are not repeated here; they are run once per
    population by :func:`~uncstat.testing.fit_and_verify`.
    """
    return PairwiseDecision(
        pop_i.id, pop_j.id, tests.decide(pop_i, fit_j), tests.decide(pop_j, fit_i)
    )


def homogeneity_test(group: FittedGroup, alpha: float) -> HomogeneityResult:
    """Test whether the unknown parameters of all populations are equal.

    Takes each population with its fit (pinned parameters respected, as
    :func:`~uncstat.testing.fit_and_verify` returns it), cross-tests every
    unordered pair, and reports maximal homogeneous subgroups.  A population
    that failed its own self-test stays in the pairwise stage; callers
    should surface the failed self-test as a model-adequacy warning.  The
    case is the one :func:`resolve_case` derives from the pins.
    """
    if len(group) < 2:
        raise ValueError("homogeneity requires at least two populations")
    case = resolve_case([s for s, _ in group])

    tests = CrossTests(alpha, group)  # validates the level
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
    return _groups(id_list, _graph(id_list, pairwise))


def _groups(ids: Sequence[str], neighbours: Sequence[int]) -> tuple[frozenset[str], ...]:
    """The maximal cliques of the graph ``neighbours`` on the positions of
    ``ids``, as sets of ids in the order of :func:`homogeneous_groups`."""
    cliques = [sorted(ids[v] for v in _bits(c)) for c in _maximal_cliques(neighbours)]
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
    # Bit b of seen[a], a < b, is set once a decision for the pair was read.
    seen = [0] * n
    neighbours = [0] * n
    for p in pairwise:
        a, b = index.get(p.i), index.get(p.j)
        if a is None or b is None or a == b:
            raise ValueError(f"pairwise decision {p.i!r}/{p.j!r} does not match the id list")
        if a > b:
            a, b = b, a
        if seen[a] >> b & 1:
            raise ValueError(f"duplicate pairwise decision for {p.i!r}/{p.j!r}")
        seen[a] |= 1 << b
        if p.homogeneous:
            neighbours[a] |= 1 << b
            neighbours[b] |= 1 << a
    # seen holds distinct pairs, so it covers them all iff its count matches.
    if sum(map(int.bit_count, seen)) != n * (n - 1) // 2:
        pairs = combinations(range(n), 2)
        missing = sorted(tuple(sorted((ids[a], ids[b]))) for a, b in pairs if not seen[a] >> b & 1)
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
