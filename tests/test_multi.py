import copy
import pickle
import re
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncstat.multi
import uncstat.testing
from uncstat import (
    ConfigurationError,
    CrossTests,
    NormalUncertain,
    NumericError,
    PairwiseDecision,
    ParameterCase,
    PopulationSample,
    RunConfig,
    TestDecision,
    acceptance_interval,
    cross_interval,
    emit_report,
    fit_and_verify,
    fit_moments,
    homogeneity_test,
    homogeneous_groups,
    pairwise_test,
    parse_report,
    run_pipeline,
    single_test,
    ufwer,
)
from uncstat.multi import (
    CLIQUE_BUDGET,
    HomogeneityResult,
    _graph,
    _groups,
    _maximal_cliques,
    check_case,
)


def grid_values(min_size=3, max_size=12):
    """Distinct values on a 0.001 grid: non-degenerate and underflow-free."""
    return st.lists(
        st.integers(-10000, 10000), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda xs: tuple(x / 1000.0 for x in xs))


# Every pin pattern a population can have, and the one each case asks of all
# populations: the tested parameters are unpinned, the others pinned.
PIN_PATTERNS = {
    "none": {},
    "location": {"known_e": 0.5},
    "scale": {"known_sigma": 2.0},
    "both": {"known_e": 0.5, "known_sigma": 2.0},
}
CASE_PATTERN = {
    ParameterCase.MEANS_UNKNOWN: "scale",
    ParameterCase.SIGMAS_UNKNOWN: "location",
    ParameterCase.BOTH_UNKNOWN: "none",
}


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


class TestCaseTable:
    @pytest.mark.parametrize("pattern", list(PIN_PATTERNS))
    @pytest.mark.parametrize("case", list(ParameterCase))
    def test_check_case_rejects_exactly_the_other_patterns(self, case, pattern):
        matching = PopulationSample("m", (1.0, 2.0, 4.0), **PIN_PATTERNS[CASE_PATTERN[case]])
        sample = PopulationSample("s", (1.0, 2.0, 4.0), **PIN_PATTERNS[pattern])
        if pattern == CASE_PATTERN[case]:
            check_case(case, [matching, sample])
            return
        with pytest.raises(ConfigurationError, match="population 's'") as raised:
            check_case(case, [matching, sample])
        assert case.value in str(raised.value)

    # The reference of a cross-test, written out case by case.
    REFERENCE = {
        ParameterCase.MEANS_UNKNOWN: lambda pop, fit: (fit.e, pop.known_sigma),
        ParameterCase.SIGMAS_UNKNOWN: lambda pop, fit: (pop.known_e, fit.sigma),
        ParameterCase.BOTH_UNKNOWN: lambda pop, fit: (fit.e, fit.sigma),
    }

    @pytest.mark.parametrize("pattern", list(PIN_PATTERNS))
    @pytest.mark.parametrize("case", list(ParameterCase))
    def test_cross_interval_is_the_composite_reference(self, case, pattern):
        pop = PopulationSample("p", (1.0, 2.0, 4.0), **PIN_PATTERNS[pattern])
        fit = NormalUncertain(-3.0, 0.25)
        e, sigma = self.REFERENCE[case](pop, fit)
        if e is None or sigma is None:
            with pytest.raises(ConfigurationError, match="population 'p'"):
                cross_interval(case, pop, fit, 0.05)
            return
        band = acceptance_interval(NormalUncertain(e, sigma), 0.05)
        assert cross_interval(case, pop, fit, 0.05) == band
        assert CrossTests(case, 0.05).band(pop, fit) == band


class TestPairwiseTest:
    def test_example2_pair_1_2_differs(self, example2):
        samples, _ = example2
        fits = [fit_moments(s.values, s.known_e, s.known_sigma) for s in samples]
        pair = pairwise_test(
            CrossTests(ParameterCase.MEANS_UNKNOWN, 0.05), samples[0], samples[1], fits[0], fits[1]
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
            CrossTests(ParameterCase.SIGMAS_UNKNOWN, 0.05), samples[1], samples[2], fits[1], fits[2]
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
        pair = pairwise_test(CrossTests(ParameterCase.BOTH_UNKNOWN, 0.05), s, s, fit, fit)
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
        tests = lambda: CrossTests(ParameterCase.BOTH_UNKNOWN, alpha)
        fwd = pairwise_test(tests(), a, b, fa, fb)
        rev = pairwise_test(tests(), b, a, fb, fa)
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


class Counting:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class TestCrossTests:
    PINNED = {
        ParameterCase.MEANS_UNKNOWN: lambda k: {"known_sigma": 0.5 + k / 4},
        ParameterCase.SIGMAS_UNKNOWN: lambda k: {"known_e": k / 10 - 0.2},
        ParameterCase.BOTH_UNKNOWN: lambda k: {},
    }

    @classmethod
    def draw_group(cls, data, case, alpha, locations):
        """(sample, fit) pairs, one fit per location with a drawn scale.

        Values come from a coarse grid and from the endpoints of every band
        the sample meets, so they tie with each other and with the bands.
        """
        fits = [NormalUncertain(e, data.draw(st.integers(1, 20)) / 10) for e in locations]
        group = []
        for k, fit in enumerate(fits):
            probe = PopulationSample(f"p{k}", (0.0,), **cls.PINNED[case](k))
            bands = [cross_interval(case, probe, f, alpha) for m, f in enumerate(fits) if m != k]
            ends = [x for b in bands for x in (b.lower, b.upper)]
            grid = st.integers(-30, 30).map(lambda x: x / 10)
            values = data.draw(st.lists(grid | st.sampled_from(ends), min_size=1, max_size=60))
            group.append((PopulationSample(probe.id, tuple(values), **cls.PINNED[case](k)), fit))
        return group

    @staticmethod
    def intersection(case, alpha, group, k):
        """``[lo, hi]`` of the bands member ``k`` meets, by the definition."""
        sample = group[k][0]
        bands = [cross_interval(case, sample, f, alpha) for m, (_, f) in enumerate(group) if m != k]
        return max(b.lower for b in bands), min(b.upper for b in bands)

    @staticmethod
    def assert_matches_the_definition(group, case, alpha):
        scans = Counting(uncstat.testing.count_outliers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uncstat.testing, "count_outliers", scans)
            result = homogeneity_test(group, case, alpha)
        assert scans.calls == 0  # every member is counted over its candidates

        pairs = list(combinations(group, 2))
        assert len(result.pairwise) == len(pairs)
        for pair, ((a, fit_a), (b, fit_b)) in zip(result.pairwise, pairs):
            assert (pair.i, pair.j) == (a.id, b.id)
            assert pair.decision_i_vs_j == uncstat.testing.test_against_interval(
                a, cross_interval(case, a, fit_b, alpha)
            )
            assert pair.decision_j_vs_i == uncstat.testing.test_against_interval(
                b, cross_interval(case, b, fit_a, alpha)
            )

    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_matches_the_per_pair_definition(self, case, data):
        alpha = data.draw(st.sampled_from([0.05, 0.2]))
        n = data.draw(st.integers(2, 9))
        # Locations 0.1 apart give overlapping bands, 10 apart disjoint ones.
        spread = data.draw(st.sampled_from([0.1, 1.0, 10.0]))
        locations = [data.draw(st.integers(-3, 3)) * spread for _ in range(n)]
        self.assert_matches_the_definition(
            self.draw_group(data, case, alpha, locations), case, alpha
        )

    # In the sigmas-unknown case every band a sample meets is centred on its
    # pinned location, so the bands nest and their intersection is never empty.
    @pytest.mark.parametrize("case", [ParameterCase.MEANS_UNKNOWN, ParameterCase.BOTH_UNKNOWN])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_empty_intersection_makes_every_value_a_candidate(self, case, data):
        alpha = data.draw(st.sampled_from([0.05, 0.2]))
        n = data.draw(st.integers(3, 9))
        group = self.draw_group(data, case, alpha, [20.0 * k for k in range(n)])
        for k in range(n):
            lo, hi = self.intersection(case, alpha, group, k)
            assert lo > hi
        self.assert_matches_the_definition(group, case, alpha)

    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_fit_from_outside_the_group_is_scanned(self, case, data):
        alpha = 0.05
        n = data.draw(st.integers(2, 6))
        locations = [data.draw(st.integers(-3, 3)) / 2 for _ in range(n)]
        group = self.draw_group(data, case, alpha, locations)
        tests = CrossTests(case, alpha, group)
        k = data.draw(st.integers(0, n - 1))
        sample = group[k][0]
        far = NormalUncertain(10.0, 0.05)  # narrower than every member band, or beyond them
        drawn = NormalUncertain(
            data.draw(st.integers(-40, 40)) / 10, data.draw(st.integers(1, 30)) / 10
        )
        # A member's own fit is not another member's fit either.
        for foreign in (far, drawn, group[k][1]):
            band = cross_interval(case, sample, foreign, alpha)
            scans = Counting(uncstat.testing.count_outliers)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(uncstat.testing, "count_outliers", scans)
                decision = tests.decide(sample, foreign)
            assert scans.calls == 1
            assert decision == uncstat.testing.test_against_interval(sample, band)

    @staticmethod
    def assert_table_matches_the_definition(group, case, alpha):
        """``pairwise()`` and ``decide`` on every (member sample, member fit)
        pair equal the scan of the definition; returns the table."""

        def definition(sample, fit):
            band = cross_interval(case, sample, fit, alpha)
            return uncstat.testing.test_against_interval(sample, band)

        tests = CrossTests(case, alpha, group)
        assert tests.pairwise() == tuple(
            PairwiseDecision(a.id, b.id, definition(a, fit_b), definition(b, fit_a))
            for (a, fit_a), (b, fit_b) in combinations(group, 2)
        )
        for sample, _ in group:
            for _, fit in group:
                assert tests.decide(sample, fit) == definition(sample, fit)
        return tests

    # The table builds its records from its cuts, pairwise_test its pairs with
    # the constructor; in the means-unknown case every member pins its own
    # scale, so band keys mix the row's pin with the column's fit.
    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batched_records_equal_the_constructed_ones(self, case, data):
        alpha = data.draw(st.sampled_from([0.05, 0.2]))
        n = data.draw(st.integers(2, 6))
        locations = [data.draw(st.integers(-3, 3)) / 10 for _ in range(n)]
        group = self.draw_group(data, case, alpha, locations)
        tests = CrossTests(case, alpha, group)
        for pairs in (tests.pairwise(), homogeneity_test(group, case, alpha).pairwise):
            for pair in pairs:
                decisions = [
                    TestDecision(d.interval, d.outlier_indices, d.sample_size) for d in pair[2:4]
                ]
                assert decisions == list(pair[2:4])
                expected = PairwiseDecision(pair.i, pair.j, *decisions)
                for record in (pair, copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
                    assert record == expected
                    assert type(record) is PairwiseDecision
                    assert [type(d) for d in record[2:4]] == [TestDecision, TestDecision]
                    assert record.homogeneous == expected.homogeneous

    # The table finds members by the identity of their sample and of their
    # fit; these groups make one identity name two members, or none.
    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_members_that_share_one_fit_object(self, case, data):
        alpha = data.draw(st.sampled_from([0.05, 0.2]))
        n = data.draw(st.integers(2, 6))
        locations = [data.draw(st.integers(-3, 3)) / 10 for _ in range(n)]
        group = self.draw_group(data, case, alpha, locations)
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        group[b] = (group[b][0], group[a][1])
        tests = self.assert_table_matches_the_definition(group, case, alpha)
        assert tests.pairwise() == homogeneity_test(group, case, alpha).pairwise

    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_one_sample_object_twice_in_a_group(self, case, data):
        alpha = data.draw(st.sampled_from([0.05, 0.2]))
        n = data.draw(st.integers(2, 6))
        locations = [data.draw(st.integers(-3, 3)) / 10 for _ in range(n)]
        group = self.draw_group(data, case, alpha, locations)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n))
        e, sigma = data.draw(st.integers(-3, 3)) / 10, data.draw(st.integers(1, 20)) / 10
        group.insert(b, (group[a][0], NormalUncertain(e, sigma)))
        tests = self.assert_table_matches_the_definition(group, case, alpha)
        # The pairs homogeneity_test decides; the repeated id then fails its grouping.
        assert tests.pairwise() == tuple(
            pairwise_test(tests, x, y, fit_x, fit_y)
            for (x, fit_x), (y, fit_y) in combinations(group, 2)
        )
        with pytest.raises(ValueError, match="ids must be unique"):
            homogeneity_test(group, case, alpha)

    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_a_group_of_one(self, case, data):
        sample = PopulationSample("p0", data.draw(grid_values(1, 30)), **self.PINNED[case](0))
        group = [(sample, NormalUncertain(0.0, data.draw(st.integers(1, 20)) / 10))]
        assert self.assert_table_matches_the_definition(group, case, 0.05).pairwise() == ()
        with pytest.raises(ValueError, match="at least two"):
            homogeneity_test(group, case, 0.05)

    # Ties, values equal to a band's ends, repeated fits, and groups 20 apart
    # whose rows meet bands that share no point (not in the sigmas-unknown
    # case, whose bands nest).
    @pytest.mark.parametrize("case", list(ParameterCase))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_table_backed_pairs_equal_the_constructed_records(self, case, data):
        alpha = data.draw(st.sampled_from([0.05, 0.2]))
        n = data.draw(st.integers(2, 7))
        spread = data.draw(st.sampled_from([0.1, 1.0, 20.0]))
        locations = [data.draw(st.integers(-3, 3)) * spread for _ in range(n)]
        if spread == 20.0:
            locations = [spread * k for k in range(n)]
        group = self.draw_group(data, case, alpha, locations)
        if data.draw(st.booleans()):
            a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            group[b] = (group[b][0], group[a][1])

        def definition(sample, fit):
            return uncstat.testing.test_against_interval(
                sample, cross_interval(case, sample, fit, alpha)
            )

        tests = CrossTests(case, alpha, group)
        pairs = tests.pairwise()
        expected = tuple(
            PairwiseDecision(a.id, b.id, definition(a, fit_b), definition(b, fit_a))
            for (a, fit_a), (b, fit_b) in combinations(group, 2)
        )
        assert pairs == expected and expected == pairs and not pairs != expected
        assert hash(pairs) == hash(expected) and repr(pairs) == repr(expected)
        assert tuple(pairs) == expected and len(pairs) == len(expected)
        for copied in (pickle.loads(pickle.dumps(pairs)), copy.deepcopy(pairs), copy.copy(pairs)):
            assert type(copied) is tuple and copied == expected
        for k in range(-len(expected), len(expected)):
            assert pairs[k] == expected[k]
        for k in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                pairs[k]
        ends = st.none() | st.integers(-len(expected) - 2, len(expected) + 2)
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        cut = slice(data.draw(ends), data.draw(ends), step)
        assert pairs[cut] == expected[cut]

        ids = [s.id for s, _ in group]
        neighbours = tests._neighbours()
        assert neighbours == _graph(ids, tuple(pairs))
        result = HomogeneityResult(case, alpha, pairs, _groups(ids, neighbours))
        assert result.rejected == (not all(p.homogeneous for p in pairs))
        assert result == homogeneity_test(group, case, alpha)

        # A reloaded report equals the run's, and hashes, pickles and copies
        # as it does.
        try:
            report = run_pipeline(
                [s for s, _ in group], RunConfig(alpha=alpha), mode="homogeneity"
            )
        except NumericError:  # a sample with no spread
            return
        parsed = parse_report(emit_report(report, "structured"))
        assert isinstance(report.homogeneity.pairwise, tuple)
        assert not isinstance(parsed.homogeneity.pairwise, tuple)
        for reloaded in (parsed, pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed)):
            assert reloaded == report and report == reloaded and hash(reloaded) == hash(report)
            hom = reloaded.homogeneity
            assert hom.rejected == (not all(p.homogeneous for p in hom.pairwise))

    def test_a_group_past_the_pair_budget_builds_no_row(self, monkeypatch):
        group = fitted([PopulationSample(pid, (1.0, 2.0, 3.0, 4.0)) for pid in "abcde"])
        rows, build_row = [], CrossTests._build_row

        def counted(self, k, *args):
            rows.append(k)
            return build_row(self, k, *args)

        monkeypatch.setattr(CrossTests, "_build_row", counted)
        monkeypatch.setattr(uncstat.multi, "PAIR_BUDGET", 9)
        with pytest.raises(ConfigurationError, match="5 populations make 10 pairs"):
            CrossTests(ParameterCase.BOTH_UNKNOWN, 0.05, group)
        assert rows == []
        monkeypatch.setattr(uncstat.multi, "PAIR_BUDGET", 10)
        assert len(CrossTests(ParameterCase.BOTH_UNKNOWN, 0.05, group).pairwise()) == 10
        assert rows == [0, 1, 2, 3, 4]

    def test_both_unknown_builds_one_band_per_population(self, toothmarks):
        samples, _ = toothmarks
        builds = Counting(uncstat.multi.acceptance_interval)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uncstat.multi, "acceptance_interval", builds)
            homogeneity_test(fitted(samples), ParameterCase.BOTH_UNKNOWN, 0.05)
        assert builds.calls == len(samples)

    def test_band_equals_cross_interval(self, example2):
        samples, _ = example2
        tests = CrossTests(ParameterCase.MEANS_UNKNOWN, 0.05)
        fit = NormalUncertain(4.948, 9.9)
        band = tests.band(samples[2], fit)
        assert band == cross_interval(ParameterCase.MEANS_UNKNOWN, samples[2], fit, 0.05)
        assert tests.band(samples[2], fit) is band

    def test_homogeneity_calls_pairwise_test_once_per_pair(self, toothmarks):
        samples, _ = toothmarks
        calls = Counting(uncstat.multi.pairwise_test)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uncstat.multi, "pairwise_test", calls)
            homogeneity_test(fitted(samples), ParameterCase.BOTH_UNKNOWN, 0.05)
        assert calls.calls == comb(len(samples), 2)

    def test_decide_and_pairwise_share_one_reader(self):
        # Overlapping clusters, so rows have candidates and columns cut them.
        samples = [
            PopulationSample(f"p{k}", tuple(k / 2 + x / 4 for x in range(-8, 9))) for k in range(5)
        ]
        group = fitted(samples)
        tests = CrossTests(ParameterCase.BOTH_UNKNOWN, 0.05, group)

        def cells(pairs):
            return [d for pair in pairs for d in pair[2:4]]

        first = cells(tests.pairwise())
        assert all(d.outlier_indices for d in first)  # none is the shared empty tuple
        made = [
            d
            for (a, fit_a), (b, fit_b) in combinations(group, 2)
            for d in (tests.decide(a, fit_b), tests.decide(b, fit_a))
        ]
        indexed = cells(tests.pairwise()[t] for t in range(-len(tests.pairwise()), 0))
        for walk in (cells(tests.pairwise()), indexed, made):
            assert walk == first
            assert all(d.outlier_indices is e.outlier_indices for d, e in zip(walk, first))

    def test_a_sample_outside_the_group_is_scanned(self):
        group = fitted([PopulationSample(pid, (1.0, 2.0, 3.0, 4.0)) for pid in "abcd"])
        case = ParameterCase.BOTH_UNKNOWN
        tests = CrossTests(case, 0.05, group)
        stranger = PopulationSample("a", (5.0, 9.0, 7.0, 8.0))  # a's id, other values
        fit_b = group[1][1]
        scans = Counting(uncstat.testing.count_outliers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uncstat.testing, "count_outliers", scans)
            decision = tests.decide(stranger, fit_b)
        assert scans.calls == 1
        assert decision.outlier_indices == (1, 2, 3, 4)
        assert decision == uncstat.testing.test_against_interval(
            stranger, cross_interval(case, stranger, fit_b, 0.05)
        )


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

    def test_no_populations_make_no_groups(self):
        assert homogeneous_groups([], []) == ()
        assert _maximal_cliques([]) == []
        with pytest.raises(ValueError, match="does not match the id list"):
            homogeneous_groups([], [make_pairwise("1", "2", True)])

    def test_incomplete_coverage(self):
        ids = ["1", "2", "3"]
        pairwise = [make_pairwise("1", "2", True)]
        with pytest.raises(ValueError, match=r"missing for pairs: \[\('1', '3'\), \('2', '3'\)\]"):
            homogeneous_groups(ids, pairwise)

    def test_duplicate_pair(self):
        ids = ["1", "2"]
        pairwise = [make_pairwise("1", "2", True), make_pairwise("2", "1", True)]
        with pytest.raises(ValueError):
            homogeneous_groups(ids, pairwise)

    # The checks of the bitsets against the set of index pairs they replaced:
    # the same first error, and missing pairs listed sorted.
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_coverage_checks_match_a_set_of_pairs(self, data):
        ids = data.draw(st.permutations(["a", "b", "c", "d", "e"][: data.draw(st.integers(0, 5))]))
        n = len(ids)
        pairs = list(combinations(range(n), 2))
        drawn = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
        drawn = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in drawn]
        pairwise = [make_pairwise(ids[a], ids[b], True) for a, b in drawn]

        seen, expected = set(), None
        for a, b in drawn:
            key = tuple(sorted((a, b)))
            if key in seen:
                expected = f"duplicate pairwise decision for {ids[a]!r}/{ids[b]!r}"
                break
            seen.add(key)
        else:
            missing = [tuple(sorted((ids[a], ids[b]))) for a, b in pairs if (a, b) not in seen]
            missing.sort()
            if missing:
                expected = f"pairwise decisions missing for pairs: {missing}"
        if expected is None:
            assert len(_graph(ids, pairwise)) == n
        else:
            with pytest.raises(ValueError) as raised:
                _graph(ids, pairwise)
            assert str(raised.value) == expected

    @pytest.mark.parametrize("k", range(2, 7))
    def test_moon_moser_graphs(self, k):
        # The complement of k disjoint triangles has 3**k maximal cliques,
        # one vertex from each triangle: the most any graph on 3k vertices
        # has (Moon & Moser 1965).
        ids = [f"v{v:02d}" for v in range(3 * k)]
        pairs = list(combinations(range(3 * k), 2))
        linked = [u // 3 != v // 3 for u, v in pairs]
        pairwise = [make_pairwise(ids[u], ids[v], f) for (u, v), f in zip(pairs, linked)]
        got = homogeneous_groups(ids, pairwise)
        assert len(got) == len(set(got)) == 3**k
        assert all(sorted(int(v[1:]) // 3 for v in g) == list(range(k)) for g in got)
        if k <= 4:
            edges = {frozenset((ids[u], ids[v])) for (u, v), f in zip(pairs, linked) if f}
            assert set(got) == brute_force_maximal_cliques(ids, edges)

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

    def test_search_past_its_budget_is_a_configuration_error(self):
        # Moon-Moser with k = 11 expands (3**12 - 1) / 2 = 265,720 nodes of
        # the search tree to list its 3**11 cliques.
        assert (3**12 - 1) // 2 > CLIQUE_BUDGET
        ids = [f"v{v:02d}" for v in range(33)]
        pairwise = [make_pairwise(ids[u], ids[v], u // 3 != v // 3)
                    for u, v in combinations(range(33), 2)]
        with pytest.raises(ConfigurationError, match="--mode common and --group") as raised:
            homogeneous_groups(ids, pairwise)
        found = re.search(r"(\d+) found before .* budget of (\d+) steps", str(raised.value))
        assert 0 < int(found[1]) < 3**11 and int(found[2]) == CLIQUE_BUDGET

    def test_a_clique_deeper_than_the_recursion_limit(self):
        n = 1500
        everyone = (1 << n) - 1
        assert n > sys.getrecursionlimit()
        assert _maximal_cliques([everyone & ~(1 << v) for v in range(n)]) == [everyone]


class TestRecords:
    @staticmethod
    def decision(outliers):
        return TestDecision(acceptance_interval(NormalUncertain(0.0, 1.0), 0.05), outliers, 10)

    def test_compare_by_value_and_type(self):
        d = self.decision((1,))
        assert d == self.decision((1,)) and hash(d) == hash(self.decision((1,)))
        assert d != self.decision(())
        pair = make_pairwise("a", "b", True)
        assert pair == make_pairwise("a", "b", True)
        assert pair != make_pairwise("a", "b", False)
        for record in (d, pair):
            plain = tuple(record)
            assert record != plain and plain != record
            assert not record == plain and not plain == record
        assert d != pair

    def test_attributes_cannot_be_assigned(self):
        d, pair = self.decision((1,)), make_pairwise("a", "b", True)
        for record, names in (
            (d, ["interval", "outlier_indices", "sample_size", "threshold", "rejected"]),
            (pair, ["i", "j", "decision_i_vs_j", "decision_j_vs_i", "homogeneous"]),
        ):
            for name in names + ["note"]:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_homogeneous_cannot_be_supplied(self):
        d = self.decision(())
        with pytest.raises(TypeError):
            PairwiseDecision("a", "b", d, d, homogeneous=False)

    def test_copy_and_pickle_keep_the_value(self):
        pair = PairwiseDecision("a", "b", self.decision((1,)), self.decision(()))
        for clone in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
            assert clone == pair and type(clone) is PairwiseDecision
