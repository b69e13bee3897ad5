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
band is built once per reference distribution, and a population that meets
more bands than log2 of its size is sorted once and counted by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError
from .testing import (
    AcceptanceInterval,
    PopulationSample,
    SortedSample,
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


@dataclass(frozen=True)
class PairwiseDecision:
    """Cross-test of two populations; homogeneous iff neither direction rejects."""

    i: str
    j: str
    decision_i_vs_j: TestDecision
    decision_j_vs_i: TestDecision

    @property
    def homogeneous(self) -> bool:
        return not (self.decision_i_vs_j.rejected or self.decision_j_vs_i.rejected)


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


def _reference(
    pins: tuple[bool, bool], pop_i: PopulationSample, fit_j: NormalUncertain
) -> tuple[float, float]:
    """Reference ``pop_i``'s data is tested against: the parameters ``pins``
    marks (a :data:`CASE_PINS` pattern) from ``pop_i``, the others from ``fit_j``."""
    e = pop_i.known_e if pins[0] else fit_j.e
    sigma = pop_i.known_sigma if pins[1] else fit_j.sigma
    if e is None or sigma is None:
        raise ConfigurationError(f"population {pop_i.id!r} lacks a parameter its case pins")
    return e, sigma


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
    j's own band, and ``n`` bands serve all ``n(n-1)`` cross-tests.  Each
    population of ``group`` meets ``n - 1`` bands; one that meets more than
    ``log2`` of its size is sorted once and counted by bisection
    (:class:`~uncstat.testing.SortedSample`), the others by the linear scan
    of :func:`~uncstat.testing.count_outliers`, which costs less for them;
    any sample that is not one of ``group`` is scanned.  Decisions equal
    ``test_against_interval(pop_i, cross_interval(...))``.
    """

    def __init__(
        self, case: ParameterCase, alpha: float, group: Sequence[PopulationSample] = ()
    ) -> None:
        self.case = case
        self.alpha = check_level(alpha)
        self._pins = CASE_PINS[case]
        self._bands: dict[tuple[float, float], AcceptanceInterval] = {}
        meets = len(group) - 1
        # Keyed by object identity; each entry holds its sample, so no other
        # sample can take that identity while the table lives.
        self._sorted = {id(s): (s, SortedSample(s)) for s in group if meets > math.log2(s.size)}

    def band(self, pop_i: PopulationSample, fit_j: NormalUncertain) -> AcceptanceInterval:
        """The band :func:`cross_interval` gives, built on first use."""
        key = _reference(self._pins, pop_i, fit_j)
        band = self._bands.get(key)
        if band is None:
            band = self._bands[key] = acceptance_interval(NormalUncertain(*key), self.alpha)
        return band

    def decide(self, pop_i: PopulationSample, fit_j: NormalUncertain) -> TestDecision:
        """Test ``pop_i``'s data against the band built from ``fit_j``."""
        band = self.band(pop_i, fit_j)
        entry = self._sorted.get(id(pop_i))
        if entry is None:
            return test_against_interval(pop_i, band)
        return TestDecision(band, entry[1].outliers(band), pop_i.size)


def pairwise_test(
    tests: CrossTests,
    pop_i: PopulationSample,
    pop_j: PopulationSample,
    fit_i: NormalUncertain,
    fit_j: NormalUncertain,
) -> PairwiseDecision:
    """Symmetric cross-test of a pair: i's data against j's fit and vice versa.

    ``tests`` carries the case and level and shares bands and sorted samples
    across the pairs of one group.  The per-population self-tests are not
    repeated here; they are run once per population by
    :func:`~uncstat.testing.fit_and_verify`.
    """
    return PairwiseDecision(
        i=pop_i.id,
        j=pop_j.id,
        decision_i_vs_j=tests.decide(pop_i, fit_j),
        decision_j_vs_i=tests.decide(pop_j, fit_i),
    )


def homogeneity_test(
    group: Sequence[tuple[PopulationSample, NormalUncertain]],
    case: ParameterCase,
    alpha: float,
) -> HomogeneityResult:
    """Test whether the unknown parameters of all populations are equal.

    Takes each population with its fit (pinned parameters respected, as
    :func:`~uncstat.testing.fit_and_verify` returns it), cross-tests every
    unordered pair, and reports maximal homogeneous subgroups.  A population
    that failed its own self-test stays in the pairwise stage; callers
    should surface the failed self-test as a model-adequacy warning.
    """
    if len(group) < 2:
        raise ValueError("homogeneity requires at least two populations")
    ids = [s.id for s, _ in group]
    if len(set(ids)) != len(ids):
        raise ValueError("population ids must be unique")
    check_case(case, (s for s, _ in group))

    tests = CrossTests(case, alpha, [s for s, _ in group])  # validates the level
    pairwise = tuple(
        pairwise_test(tests, a, b, fit_a, fit_b)
        for (a, fit_a), (b, fit_b) in combinations(group, 2)
    )
    # Every component test runs at alpha, so by ufwer the family-wise level
    # is alpha too.
    return HomogeneityResult(
        case=case, alpha=alpha, pairwise=pairwise, groups=homogeneous_groups(ids, pairwise)
    )


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
    id_set = set(id_list)
    if len(id_set) != len(id_list):
        raise ValueError("population ids must be unique")
    seen: set[frozenset[str]] = set()
    adjacency: dict[str, set[str]] = {i: set() for i in id_list}
    for p in pairwise:
        key = frozenset((p.i, p.j))
        if len(key) != 2 or not key <= id_set:
            raise ValueError(f"pairwise decision {p.i!r}/{p.j!r} does not match the id list")
        if key in seen:
            raise ValueError(f"duplicate pairwise decision for {p.i!r}/{p.j!r}")
        seen.add(key)
        if p.homogeneous:
            adjacency[p.i].add(p.j)
            adjacency[p.j].add(p.i)
    # seen holds distinct pairs of ids, so it covers them all iff its size matches.
    n = len(id_list)
    if len(seen) != n * (n - 1) // 2:
        wanted = {frozenset(p) for p in combinations(id_list, 2)}
        missing = sorted(tuple(sorted(k)) for k in wanted - seen)
        raise ValueError(f"pairwise decisions missing for pairs: {missing}")

    cliques = _maximal_cliques(adjacency)
    return tuple(
        frozenset(c) for c in sorted(cliques, key=lambda c: (-len(c), sorted(c)))
    )


def _maximal_cliques(adjacency: Mapping[str, set[str]]) -> list[list[str]]:
    """All maximal cliques, via pivoted recursive expansion, deterministically."""
    cliques: list[list[str]] = []

    def expand(partial: list[str], candidates: set[str], excluded: set[str]) -> None:
        if not candidates and not excluded:
            cliques.append(sorted(partial))
            return
        pivot = max(sorted(candidates | excluded), key=lambda v: len(adjacency[v] & candidates))
        for v in sorted(candidates - adjacency[pivot]):
            expand(partial + [v], candidates & adjacency[v], excluded & adjacency[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand([], set(adjacency), set())
    return cliques
