import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncstat import (
    CommonTestResult,
    ConfigurationError,
    MergedSample,
    NormalUncertain,
    NumericError,
    ParameterCase,
    PopulationSample,
    common_test,
    fit_and_verify,
    fit_moments,
    merge,
    resolve_case,
    single_test,
    unify_location,
    unify_scale,
)
from uncstat.pooling import merge_group
from test_multi import PIN_PATTERNS


class TestUnifyScale:
    def test_example_point(self):
        adjusted = unify_scale([5.79], center=5.251, scale=1.5)
        assert adjusted[0] == pytest.approx(5.610, abs=1e-3)

    def test_unit_scale_is_identity(self):
        values = (1.0, 2.5, -3.0)
        assert unify_scale(values, center=0.7, scale=1.0) == values

    def test_constant_sample_at_center_is_unchanged(self):
        assert unify_scale((4.0, 4.0, 4.0), center=4.0, scale=2.5) == (4.0, 4.0, 4.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            unify_scale((1.0,), center=0.0, scale=0.0)

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        scale=st.floats(0.01, 100),
    )
    def test_preserves_the_mean_it_is_centred_on(self, values, scale):
        center = math.fsum(values) / len(values)
        adjusted = unify_scale(values, center, scale)
        new_mean = math.fsum(adjusted) / len(adjusted)
        assert abs(new_mean - center) <= 1e-12 * max(1.0, abs(center), max(map(abs, values)))


class TestUnifyLocation:
    def test_example_point(self):
        assert unify_location([0.01], center=4.5)[0] == pytest.approx(-4.49)

    def test_zero_center_is_identity(self):
        values = (1.0, -2.0, 3.5)
        assert unify_location(values, center=0.0) == values

    def test_constant_sample_maps_to_zeros(self):
        assert unify_location((2.0, 2.0), center=2.0) == (0.0, 0.0)

    @given(values=st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_centred_data_has_zero_mean(self, values):
        center = math.fsum(values) / len(values)
        adjusted = unify_location(values, center)
        assert abs(math.fsum(adjusted) / len(adjusted)) <= 1e-12 * max(1.0, max(map(abs, values)))


class TestMerge:
    def test_concatenation_order_and_origins(self, example1):
        samples, _ = example1
        merged = merge([(s.id, s.values) for s in samples])
        assert merged.n == 144
        assert merged.origin_of(43) == ("2", 7)
        assert merged.origin_of(1) == ("1", 1)
        assert merged.origin_of(144) == ("3", 60)

    def test_single_population(self):
        merged = merge([("a", (1.0, 2.0))])
        assert merged.values == (1.0, 2.0)

    def test_two_population_sizes(self, example2):
        samples, _ = example2
        merged = merge([(s.id, s.values) for s in samples if s.id in ("2", "3")])
        assert merged.n == 96

    def test_empty_group(self):
        with pytest.raises(ValueError):
            merge([])

    def test_empty_part(self):
        with pytest.raises(ValueError):
            merge([("a", ())])

    def test_parts_record_ids_and_sizes(self, example2):
        samples, _ = example2
        merged = merge([(s.id, s.values) for s in samples])
        assert merged.parts == tuple((s.id, s.size) for s in samples)
        assert merged.values == tuple(v for s in samples for v in s.values)

    def test_rescale_overflow_names_the_population(self):
        group = [(PopulationSample("a", (-1.0, 1.0), known_sigma=1.0), NormalUncertain(0.0, 1.0)),
                 (PopulationSample("b", (-1.0, 1.0), known_sigma=1e-320),
                  NormalUncertain(0.0, 1e-320))]
        with pytest.raises(NumericError, match="population 'b'"):
            merge_group(group)

    def test_finite_values_whose_sum_overflows_are_merged(self):
        values = (1e308, 1.5e308, -1e308)
        sample = PopulationSample("a", values, known_sigma=1.0)
        merged = merge_group([(sample, NormalUncertain(0.0, 1.0))])
        assert merged.values == values


class TestMergedSample:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    def test_origins_follow_from_part_sizes(self, sizes):
        parts = tuple((f"p{k}", size) for k, size in enumerate(sizes))
        n = sum(sizes)
        merged = MergedSample(tuple(float(k) for k in range(n)), parts)
        explicit = []
        for pid, size in parts:
            explicit += [(pid, idx) for idx in range(1, size + 1)]
        assert [merged.origin_of(k) for k in range(1, n + 1)] == explicit
        for outside in (0, n + 1):
            with pytest.raises(IndexError):
                merged.origin_of(outside)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.sampled_from([-1, 1]))
    def test_parts_must_cover_the_values(self, sizes, off):
        parts = tuple((f"p{k}", size) for k, size in enumerate(sizes))
        n = sum(sizes) + off
        if n > 0:
            with pytest.raises(ValueError, match="add up"):
                MergedSample(tuple(1.0 for _ in range(n)), parts)

    @pytest.mark.parametrize(
        "values,parts",
        [((), ()), ((1.0,), ()), ((1.0,), (("a", 1), ("b", 0))), ((1.0, 2.0), (("a", 3), ("b", -1)))],
        ids=["empty", "no-parts", "empty-part", "negative-part"],
    )
    def test_rejects_malformed_parts(self, values, parts):
        with pytest.raises(ValueError):
            MergedSample(values, parts)


class TestCommonTest:
    def test_sigma_case_on_three_pinned_location_populations(self, example1):
        samples, _ = example1
        fits = [fit_moments(s.values, s.known_e, s.known_sigma) for s in samples]
        result = common_test(list(zip(samples, fits)), 0.05)
        assert result.case is ParameterCase.SIGMAS_UNKNOWN
        assert result.theta0.e == 0.0
        assert result.theta0.sigma == pytest.approx(1.404, abs=2e-3)
        assert result.decision.interval.lower == pytest.approx(-2.836, abs=2e-3)
        assert result.decision.interval.upper == pytest.approx(2.836, abs=2e-3)
        assert result.decision.outlier_indices == (3, 43, 69, 95, 97, 116)
        assert result.decision.threshold == 8
        assert not result.decision.rejected
        # locations were pinned constants, so the pooled location drifts and
        # the uncentred scale estimate deserves a diagnostic
        assert result.diagnostics

    def test_mean_case_on_homogeneous_pair(self, example2):
        samples, _ = example2
        group = [s for s in samples if s.id in ("2", "3")]
        fits = [fit_moments(s.values, s.known_e, s.known_sigma) for s in group]
        result = common_test(list(zip(group, fits)), 0.05)
        assert result.case is ParameterCase.MEANS_UNKNOWN
        assert result.theta0.sigma == 1.0
        assert result.theta0.e == pytest.approx(5.146, abs=2e-3)
        assert result.decision.interval.lower == pytest.approx(3.126, abs=2e-3)
        assert result.decision.interval.upper == pytest.approx(7.166, abs=2e-3)
        assert result.decision.outlier_indices == (81,)
        assert result.outlier_origins == (("3", 45),)
        assert result.decision.threshold == 5
        assert not result.decision.rejected
        assert not result.diagnostics

    def test_both_case_on_field_subgroup(self, toothmarks):
        samples, _ = toothmarks
        group = [s for s in samples if s.id in ("3", "4", "5", "6")]
        fits = [fit_moments(s.values) for s in group]
        result = common_test(list(zip(group, fits)), 0.05)
        assert result.case is ParameterCase.BOTH_UNKNOWN
        assert result.theta0.e == pytest.approx(2.516, abs=2e-3)
        assert result.theta0.sigma == pytest.approx(0.083, abs=2e-3)
        assert result.decision.interval.lower == pytest.approx(2.348, abs=2e-3)
        assert result.decision.interval.upper == pytest.approx(2.684, abs=2e-3)
        assert result.decision.outlier_count == 0
        assert result.decision.threshold == 2
        assert not result.decision.rejected

    def test_threshold_uses_pooled_size(self, toothmarks):
        samples, _ = toothmarks
        group = [s for s in samples if s.id in ("3", "4", "5", "6")]
        fits = [fit_moments(s.values) for s in group]
        result = common_test(list(zip(group, fits)), 0.05)
        assert result.decision.sample_size == 25
        assert result.merged.n == 25

    def test_reference_override(self, toothmarks):
        samples, _ = toothmarks
        group = [s for s in samples if s.id in ("3", "4")]
        fits = [fit_moments(s.values) for s in group]
        override = NormalUncertain(10.0, 0.5)
        result = common_test(list(zip(group, fits)), 0.05, theta0=override)
        assert result.theta0 == override
        assert result.decision.rejected  # all data far below 10

    def test_empty_group(self):
        with pytest.raises(ValueError):
            common_test([], 0.05)

    def test_single_population_reduces_to_self_verification(self, toothmarks):
        samples, _ = toothmarks
        s = samples[2]
        fit, self_decision = fit_and_verify(s, 0.05)
        result = common_test([(s, fit)], 0.05)
        assert result.theta0 == fit
        assert result.decision == self_decision

    def test_scale_estimators_agree_when_centres_are_sample_means(self, example3):
        samples, _ = example3
        # Each location pinned at the sample's own mean: the pooled scale is
        # then taken about a merged location of 0.
        samples = [
            PopulationSample(s.id, s.values, known_e=math.fsum(s.values) / s.size) for s in samples
        ]
        fits = [fit_moments(s.values, s.known_e) for s in samples]
        result = common_test(list(zip(samples, fits)), 0.05)
        assert result.case is ParameterCase.SIGMAS_UNKNOWN
        merged = result.merged.values
        mean = math.fsum(merged) / len(merged)
        assert abs(mean) <= 1e-12 * max(map(abs, merged))
        uncentred = math.sqrt(math.fsum(v * v for v in merged) / len(merged))
        centred = math.sqrt(math.fsum((v - mean) ** 2 for v in merged) / len(merged))
        assert uncentred == pytest.approx(centred, abs=1e-10)
        assert result.theta0.sigma == uncentred
        assert not result.diagnostics

    @given(data=st.data(), case=st.sampled_from(list(ParameterCase)))
    @settings(max_examples=60, deadline=None)
    def test_group_order_never_changes_the_outcome(self, data, case):
        n = data.draw(st.integers(2, 4))
        group = []
        for k in range(n):
            ints = data.draw(
                st.lists(st.integers(-10000, 10000), min_size=3, max_size=12, unique=True)
            )
            sample = PopulationSample(f"p{k + 1}", tuple(x / 1000.0 for x in ints),
                                      **data.draw(case_pins(case)))
            group.append((sample, fit_moments(sample.values, sample.known_e, sample.known_sigma)))
        perm = data.draw(st.permutations(range(n)))
        base = common_test(group, 0.05)
        shuffled = common_test([group[k] for k in perm], 0.05)
        assert shuffled.case is base.case is case
        assert shuffled.theta0 == base.theta0
        assert shuffled.decision.rejected == base.decision.rejected
        assert shuffled.decision.threshold == base.decision.threshold
        assert sorted(shuffled.outlier_origins) == sorted(base.outlier_origins)

    @given(data=st.data(), case=st.sampled_from(list(ParameterCase)),
           alpha=st.sampled_from([0.05, 0.1, 0.3]),
           theta0=st.none() | st.builds(NormalUncertain, st.integers(-8, 8).map(lambda k: k / 4),
                                        st.integers(1, 12).map(lambda k: k / 4)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_definition_by_case(self, data, case, alpha, theta0):
        # Values on a quarter grid, so a sample and the pool hold ties.
        values = st.lists(st.integers(-24, 24), min_size=2, max_size=10).filter(
            lambda ints: len(set(ints)) > 1
        )
        group = []
        for k in range(data.draw(st.integers(1, 4))):
            sample = PopulationSample(f"p{k}", tuple(x / 4 for x in data.draw(values)),
                                      **data.draw(case_pins(case)))
            group.append((sample, fit_moments(sample.values, sample.known_e, sample.known_sigma)))
        assert common_test(group, alpha, theta0) == reference_common_test(group, alpha, theta0)


def case_pins(case):
    """Pins a sample of ``case`` may hold, drawn from a grid the values meet."""
    grid = st.integers(-12, 12).map(lambda k: k / 3)
    if case is ParameterCase.MEANS_UNKNOWN:
        return st.fixed_dictionaries({"known_sigma": st.integers(1, 12).map(lambda k: k / 3)})
    if case is ParameterCase.SIGMAS_UNKNOWN:
        return st.fixed_dictionaries({"known_e": grid})
    return st.just({})


def reference_common_test(group, alpha, theta0=None):
    """The pooled test as defined when the caller named its target: the case
    the pins decide selects one of three branches."""
    case = resolve_case([s for s, _ in group])
    diagnostics = []
    if case is ParameterCase.MEANS_UNKNOWN:
        merged = merge([(s.id, unify_scale(s.values, f.e, f.sigma)) for s, f in group])
        fitted = fit_moments(merged.values, known_sigma=1.0)
    elif case is ParameterCase.SIGMAS_UNKNOWN:
        merged = merge([(s.id, unify_location(s.values, f.e)) for s, f in group])
        fitted = fit_moments(merged.values, known_e=0.0)
        drift = math.fsum(merged.values) / merged.n
        if abs(drift) > 1e-9 * fitted.sigma:
            diagnostics.append(
                f"merged location drifts from 0 by {drift:.6g}; the scale "
                "estimate is taken about 0, not about the merged mean"
            )
    else:
        merged = merge([(s.id, s.values) for s, _ in group])
        fitted = fit_moments(merged.values)
    reference = theta0 if theta0 is not None else fitted
    return CommonTestResult(case, reference, single_test(merged, reference, alpha), merged,
                            tuple(diagnostics))


class TestPinsDecideThePool:
    # The pooled test takes its case from the pins, as homogeneity_test
    # does, so a group whose pins fit no case is refused by name.
    @pytest.mark.parametrize("entry", ["common_test", "merge_group"])
    def test_mixed_pins_are_refused_by_name(self, entry):
        fit = NormalUncertain(2.0, 1.0)
        group = [(PopulationSample("m", (1.0, 2.0, 4.0), known_sigma=2.0), fit),
                 (PopulationSample("s", (1.0, 2.5, 3.0)), fit)]
        call = {"common_test": lambda: common_test(group, 0.05),
                "merge_group": lambda: merge_group(group)}[entry]
        with pytest.raises(ConfigurationError) as raised:
            call()
        message = str(raised.value)
        assert message.startswith(
            "cannot infer the parameter case: population 'm' pins the scale, "
            "but population 's' pins nothing;"
        )

    @pytest.mark.parametrize("entry", ["common_test", "merge_group"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_a_sample_that_pins_both_parameters_is_refused_by_name(self, entry, size):
        fit = NormalUncertain(0.5, 2.0)
        group = [(PopulationSample(f"b{k}", (1.0, 2.0, 4.0), **PIN_PATTERNS["both"]), fit)
                 for k in range(size)]
        call = {"common_test": lambda: common_test(group, 0.05),
                "merge_group": lambda: merge_group(group)}[entry]
        with pytest.raises(ConfigurationError) as raised:
            call()
        assert "population 'b0' pins the location and the scale" in str(raised.value)

    # One enum names the case in the run, its homogeneity and its pooled test.
    @pytest.mark.parametrize("study", ["example1", "example2", "example3", "toothmarks"])
    def test_the_run_and_its_pooled_test_name_one_case(self, request, study):
        report = request.getfixturevalue(f"{study}_report")
        assert report.common.case is report.homogeneity.case is report.case
