from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncstat import (
    ConfigurationError,
    NormalUncertain,
    PairwiseDecision,
    ParameterCase,
    PopulationSample,
    TestDecision,
    acceptance_interval,
    cross_interval,
    fit_and_verify,
    fit_moments,
    homogeneity_test,
    homogeneous_groups,
    pairwise_test,
    single_test,
    ufwer,
)


def grid_values(min_size=3, max_size=12):
    """Distinct values on a 0.001 grid: non-degenerate and underflow-free."""
    return st.lists(
        st.integers(-10000, 10000), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda xs: tuple(x / 1000.0 for x in xs))


def make_pairwise(i, j, homogeneous):
    """Synthetic pairwise decision with the requested verdict."""

    def decision(rejected):
        interval = acceptance_interval(NormalUncertain(0.0, 1.0), 0.05)
        # threshold at alpha 0.05 and 10 points is 1, so one outlier rejects
        return TestDecision(
            interval=interval,
            outlier_indices=(1,) if rejected else (),
            sample_size=10,
        )

    return PairwiseDecision(
        i=i, j=j, decision_i_vs_j=decision(not homogeneous), decision_j_vs_i=decision(False)
    )


def fitted(samples, alpha=0.05):
    """(sample, fit) pairs as the pipeline passes them to homogeneity_test."""
    return [(s, fit_and_verify(s, alpha)[0]) for s in samples]


def brute_force_maximal_cliques(ids, edges):
    """Oracle: enumerate every subset, keep complete ones, drop non-maximal."""
    complete = []
    for r in range(1, len(ids) + 1):
        for combo in combinations(ids, r):
            if all(frozenset(p) in edges for p in combinations(combo, 2)):
                complete.append(frozenset(combo))
    return {c for c in complete if not any(c < d for d in complete)}


class TestUfwer:
    def test_equal_levels(self):
        assert ufwer([0.05, 0.05, 0.05, 0.05]) == 0.05

    def test_singleton(self):
        assert ufwer([0.01]) == 0.01

    def test_maximum(self):
        assert ufwer([0.01, 0.05, 0.02]) == 0.05

    def test_empty(self):
        with pytest.raises(ValueError):
            ufwer([])

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            ufwer([0.05, 1.2])


class TestCrossInterval:
    def test_scales_unknown_uses_own_location(self, example1):
        samples, _ = example1
        band = cross_interval(
            ParameterCase.SIGMAS_UNKNOWN, samples[1], NormalUncertain(9.9, 1.420), 0.05
        )
        assert band.lower == pytest.approx(2.132, abs=1e-3)
        assert band.upper == pytest.approx(7.868, abs=1e-3)

    def test_locations_unknown_uses_own_scale(self, example2):
        samples, _ = example2
        band = cross_interval(
            ParameterCase.MEANS_UNKNOWN, samples[2], NormalUncertain(4.948, 9.9), 0.05
        )
        assert band.lower == pytest.approx(0.909, abs=1e-3)
        assert band.upper == pytest.approx(8.988, abs=1e-3)

    def test_both_unknown_ignores_own_parameters(self, toothmarks):
        samples, _ = toothmarks
        fit = NormalUncertain(2.6, 0.076)
        band = cross_interval(ParameterCase.BOTH_UNKNOWN, samples[0], fit, 0.05)
        assert band == acceptance_interval(fit, 0.05)

    def test_missing_required_parameter(self, toothmarks):
        samples, _ = toothmarks
        fit = NormalUncertain(2.6, 0.076)
        with pytest.raises(ConfigurationError):
            cross_interval(ParameterCase.MEANS_UNKNOWN, samples[0], fit, 0.05)
        with pytest.raises(ConfigurationError):
            cross_interval(ParameterCase.SIGMAS_UNKNOWN, samples[0], fit, 0.05)


class TestPairwiseTest:
    def test_example2_pair_1_2_differs(self, example2):
        samples, _ = example2
        fits = [fit_moments(s.values, s.known_e, s.known_sigma) for s in samples]
        pair = pairwise_test(
            ParameterCase.MEANS_UNKNOWN, samples[0], samples[1], fits[0], fits[1], 0.05
        )
        assert pair.decision_i_vs_j.interval.lower == pytest.approx(3.232, abs=2e-3)
        assert pair.decision_i_vs_j.interval.upper == pytest.approx(7.271, abs=2e-3)
        assert pair.decision_i_vs_j.outlier_indices == (5, 16, 18)
        assert pair.decision_i_vs_j.threshold == 3
        assert pair.decision_i_vs_j.rejected
        assert not pair.homogeneous

    def test_example1_pair_2_3_is_compatible(self, example1):
        samples, _ = example1
        fits = [fit_moments(s.values, s.known_e, s.known_sigma) for s in samples]
        pair = pairwise_test(
            ParameterCase.SIGMAS_UNKNOWN, samples[1], samples[2], fits[1], fits[2], 0.05
        )
        assert pair.decision_i_vs_j.outlier_count == 2
        assert pair.decision_i_vs_j.threshold == 3
        assert pair.decision_j_vs_i.outlier_count == 3
        assert pair.decision_j_vs_i.threshold == 4
        assert pair.homogeneous

    def test_population_against_itself(self, toothmarks):
        samples, _ = toothmarks
        s = samples[0]
        fit = fit_moments(s.values)
        pair = pairwise_test(ParameterCase.BOTH_UNKNOWN, s, s, fit, fit, 0.05)
        self_ok = not single_test(s, fit, 0.05).rejected
        assert pair.homogeneous == self_ok

    @given(
        a_vals=grid_values(max_size=20),
        b_vals=grid_values(max_size=20),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_swapping_arguments_swaps_decisions(self, a_vals, b_vals, alpha):
        a = PopulationSample("a", a_vals)
        b = PopulationSample("b", b_vals)
        fa, fb = fit_moments(a.values), fit_moments(b.values)
        fwd = pairwise_test(ParameterCase.BOTH_UNKNOWN, a, b, fa, fb, alpha)
        rev = pairwise_test(ParameterCase.BOTH_UNKNOWN, b, a, fb, fa, alpha)
        assert fwd.decision_i_vs_j == rev.decision_j_vs_i
        assert fwd.decision_j_vs_i == rev.decision_i_vs_j
        assert fwd.homogeneous == rev.homogeneous


class TestHomogeneityTest:
    def test_example1(self, example1):
        samples, _ = example1
        group = fitted(samples)
        result = homogeneity_test(group, ParameterCase.SIGMAS_UNKNOWN, 0.05)
        assert result.alpha == 0.05
        sigmas = [fit.sigma for _, fit in group]
        assert sigmas == pytest.approx([1.420, 1.348, 1.434], abs=5e-3)
        assert not result.rejected
        assert result.groups == (frozenset({"1", "2", "3"}),)

    def test_example2(self, example2):
        samples, _ = example2
        group = fitted(samples)
        result = homogeneity_test(group, ParameterCase.MEANS_UNKNOWN, 0.05)
        means = [fit.e for _, fit in group]
        assert means == pytest.approx([4.948, 5.251, 5.082], abs=2e-3)
        assert result.rejected
        assert frozenset({"2", "3"}) in result.groups

    def test_field_study(self, toothmarks):
        samples, _ = toothmarks
        result = homogeneity_test(fitted(samples), ParameterCase.BOTH_UNKNOWN, 0.05)
        assert result.rejected
        assert result.groups == (
            frozenset({"3", "4", "5", "6"}),
            frozenset({"1"}),
            frozenset({"2"}),
        )
        assert all(not fit_and_verify(s, 0.05)[1].rejected for s in samples)

    def test_requires_two_populations(self, toothmarks):
        samples, _ = toothmarks
        with pytest.raises(ValueError):
            homogeneity_test(fitted(samples[:1]), ParameterCase.BOTH_UNKNOWN, 0.05)

    def test_rejects_mismatched_case(self, example1):
        samples, _ = example1  # locations pinned
        with pytest.raises(ConfigurationError):
            homogeneity_test(fitted(samples), ParameterCase.MEANS_UNKNOWN, 0.05)
        with pytest.raises(ConfigurationError):
            homogeneity_test(fitted(samples), ParameterCase.BOTH_UNKNOWN, 0.05)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_invariance(self, data):
        n = data.draw(st.integers(3, 6))
        pops = []
        for k in range(n):
            vals = data.draw(grid_values(min_size=4))
            pops.append(PopulationSample(f"p{k + 1}", vals))
        perm = data.draw(st.permutations(range(n)))
        group = fitted(pops)
        base = homogeneity_test(group, ParameterCase.BOTH_UNKNOWN, 0.05)
        shuffled = homogeneity_test([group[k] for k in perm], ParameterCase.BOTH_UNKNOWN, 0.05)

        assert base.rejected == shuffled.rejected
        assert base.groups == shuffled.groups
        verdict = lambda r: {frozenset((p.i, p.j)): p.homogeneous for p in r.pairwise}
        assert verdict(base) == verdict(shuffled)
        # with all self-tests passing, rejection and grouping must agree
        if all(not fit_and_verify(p, 0.05)[1].rejected for p in pops):
            whole = (frozenset(p.id for p in pops),)
            assert base.rejected == (base.groups != whole)


class TestHomogeneousGroups:
    def test_complete_graph(self):
        ids = ["1", "2", "3"]
        pairwise = [make_pairwise(i, j, True) for i, j in combinations(ids, 2)]
        assert homogeneous_groups(ids, pairwise) == (frozenset({"1", "2", "3"}),)

    def test_single_edge(self):
        ids = ["1", "2", "3"]
        pairwise = [make_pairwise(i, j, (i, j) == ("2", "3")) for i, j in combinations(ids, 2)]
        assert homogeneous_groups(ids, pairwise) == (
            frozenset({"2", "3"}),
            frozenset({"1"}),
        )

    def test_four_clique_with_isolated_vertices(self):
        ids = ["1", "2", "3", "4", "5", "6"]
        inner = {"3", "4", "5", "6"}
        pairwise = [
            make_pairwise(i, j, i in inner and j in inner) for i, j in combinations(ids, 2)
        ]
        assert homogeneous_groups(ids, pairwise) == (
            frozenset(inner),
            frozenset({"1"}),
            frozenset({"2"}),
        )

    def test_tie_break_is_by_smallest_member(self):
        ids = ["a", "b", "c", "d"]
        edges = {("a", "b"), ("c", "d")}
        pairwise = [make_pairwise(i, j, (i, j) in edges) for i, j in combinations(ids, 2)]
        assert homogeneous_groups(ids, pairwise) == (
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
        )

    def test_incomplete_coverage(self):
        ids = ["1", "2", "3"]
        pairwise = [make_pairwise("1", "2", True)]
        with pytest.raises(ValueError):
            homogeneous_groups(ids, pairwise)

    def test_duplicate_pair(self):
        ids = ["1", "2"]
        pairwise = [make_pairwise("1", "2", True), make_pairwise("2", "1", True)]
        with pytest.raises(ValueError):
            homogeneous_groups(ids, pairwise)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 8))
        ids = [str(k) for k in range(1, n + 1)]
        pairs = list(combinations(ids, 2))
        flags = [data.draw(st.booleans()) for _ in pairs]
        pairwise = [make_pairwise(i, j, f) for (i, j), f in zip(pairs, flags)]
        got = homogeneous_groups(ids, pairwise)
        edges = {frozenset(p) for p, f in zip(pairs, flags) if f}
        assert set(got) == brute_force_maximal_cliques(ids, edges)
        assert len(set(got)) == len(got)
        sizes = [len(g) for g in got]
        assert sizes == sorted(sizes, reverse=True)
        # equal-size cliques are ordered by their sorted member lists, which
        # starts with the smallest member id
        keys = [sorted(g) for g in got]
        for ka, kb, ga, gb in zip(keys, keys[1:], got, got[1:]):
            if len(ga) == len(gb):
                assert ka < kb
