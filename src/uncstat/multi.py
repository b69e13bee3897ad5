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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError
from .testing import (
    AcceptanceInterval,
    PopulationSample,
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
    "PairwiseDecision",
    "HomogeneityResult",
    "ufwer",
    "cross_interval",
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


def check_case(case: ParameterCase, samples: Iterable[PopulationSample]) -> None:
    """Raise ConfigurationError unless every sample matches ``case``.

    The three cases are homogeneous across populations: pinning a parameter
    for some populations but not others has no defined cross-test.
    """
    for s in samples:
        if case is ParameterCase.MEANS_UNKNOWN:
            if s.known_sigma is None:
                raise ConfigurationError(
                    f"population {s.id!r}: testing locations requires a known scale"
                )
            if s.known_e is not None:
                raise ConfigurationError(
                    f"population {s.id!r}: location is pinned but declared unknown"
                )
        elif case is ParameterCase.SIGMAS_UNKNOWN:
            if s.known_e is None:
                raise ConfigurationError(
                    f"population {s.id!r}: testing scales requires a known location"
                )
            if s.known_sigma is not None:
                raise ConfigurationError(
                    f"population {s.id!r}: scale is pinned but declared unknown"
                )
        else:
            if s.known_e is not None or s.known_sigma is not None:
                raise ConfigurationError(
                    f"population {s.id!r}: no parameter may be pinned when both are tested"
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
    if case is ParameterCase.MEANS_UNKNOWN:
        if pop_i.known_sigma is None:
            raise ConfigurationError(
                f"population {pop_i.id!r}: cross-testing locations requires its known scale"
            )
        reference = NormalUncertain(fit_j.e, pop_i.known_sigma)
    elif case is ParameterCase.SIGMAS_UNKNOWN:
        if pop_i.known_e is None:
            raise ConfigurationError(
                f"population {pop_i.id!r}: cross-testing scales requires its known location"
            )
        reference = NormalUncertain(pop_i.known_e, fit_j.sigma)
    else:
        reference = fit_j
    return acceptance_interval(reference, alpha)


def pairwise_test(
    case: ParameterCase,
    pop_i: PopulationSample,
    pop_j: PopulationSample,
    fit_i: NormalUncertain,
    fit_j: NormalUncertain,
    alpha: float,
) -> PairwiseDecision:
    """Symmetric cross-test of a pair: i's data against j's fit and vice versa.

    The per-population self-tests are not repeated here; they are run once
    per population by :func:`~uncstat.testing.fit_and_verify`.
    """
    return PairwiseDecision(
        i=pop_i.id,
        j=pop_j.id,
        decision_i_vs_j=test_against_interval(pop_i, cross_interval(case, pop_i, fit_j, alpha)),
        decision_j_vs_i=test_against_interval(pop_j, cross_interval(case, pop_j, fit_i, alpha)),
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
    alpha = check_level(alpha)
    if len(group) < 2:
        raise ValueError("homogeneity requires at least two populations")
    ids = [s.id for s, _ in group]
    if len(set(ids)) != len(ids):
        raise ValueError("population ids must be unique")
    check_case(case, (s for s, _ in group))

    pairwise = tuple(
        pairwise_test(case, a, b, fit_a, fit_b, alpha)
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
    if len(set(id_list)) != len(id_list):
        raise ValueError("population ids must be unique")
    wanted = {frozenset(p) for p in combinations(id_list, 2)}
    seen: set[frozenset[str]] = set()
    adjacency: dict[str, set[str]] = {i: set() for i in id_list}
    for p in pairwise:
        key = frozenset((p.i, p.j))
        if len(key) != 2 or not key <= set(id_list):
            raise ValueError(f"pairwise decision {p.i!r}/{p.j!r} does not match the id list")
        if key in seen:
            raise ValueError(f"duplicate pairwise decision for {p.i!r}/{p.j!r}")
        seen.add(key)
        if p.homogeneous:
            adjacency[p.i].add(p.j)
            adjacency[p.j].add(p.i)
    if seen != wanted:
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
