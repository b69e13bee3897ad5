import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncstat import (
    CommonCase,
    MergedSample,
    NormalUncertain,
    NumericError,
    PopulationSample,
    common_test,
    fit_and_verify,
    fit_moments,
    merge,
    unify_location,
    unify_scale,
)
from uncstat.pooling import merge_group


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
        group = [(PopulationSample("a", (-1.0, 1.0)), NormalUncertain(0.0, 1.0)),
                 (PopulationSample("b", (-1.0, 1.0)), NormalUncertain(0.0, 1e-320))]
        with pytest.raises(NumericError, match="population 'b'"):
            merge_group(CommonCase.MEAN, group)

    def test_finite_values_whose_sum_overflows_are_merged(self):
        values = (1e308, 1.5e308, -1e308)
        merged = merge_group(CommonCase.MEAN, [(PopulationSample("a", values), NormalUncertain(0.0, 1.0))])
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
        result = common_test(CommonCase.SIGMA, list(zip(samples, fits)), 0.05)
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
        result = common_test(CommonCase.MEAN, list(zip(group, fits)), 0.05)
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
        result = common_test(CommonCase.BOTH, list(zip(group, fits)), 0.05)
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
        result = common_test(CommonCase.BOTH, list(zip(group, fits)), 0.05)
        assert result.decision.sample_size == 25
        assert result.merged.n == 25

    def test_reference_override(self, toothmarks):
        samples, _ = toothmarks
        group = [s for s in samples if s.id in ("3", "4")]
        fits = [fit_moments(s.values) for s in group]
        override = NormalUncertain(10.0, 0.5)
        result = common_test(CommonCase.BOTH, list(zip(group, fits)), 0.05, theta0=override)
        assert result.theta0 == override
        assert result.decision.rejected  # all data far below 10

    def test_empty_group(self):
        with pytest.raises(ValueError):
            common_test(CommonCase.BOTH, [], 0.05)

    def test_single_population_reduces_to_self_verification(self, toothmarks):
        samples, _ = toothmarks
        s = samples[2]
        fit, self_decision = fit_and_verify(s, 0.05)
        result = common_test(CommonCase.BOTH, [(s, fit)], 0.05)
        assert result.theta0 == fit
        assert result.decision == self_decision

    def test_scale_estimators_agree_when_centres_are_sample_means(self, example3):
        samples, _ = example3
        fits = [fit_moments(s.values) for s in samples]
        result = common_test(CommonCase.SIGMA, list(zip(samples, fits)), 0.05)
        merged = result.merged.values
        mean = math.fsum(merged) / len(merged)
        assert abs(mean) <= 1e-12 * max(map(abs, merged))
        uncentred = math.sqrt(math.fsum(v * v for v in merged) / len(merged))
        centred = math.sqrt(math.fsum((v - mean) ** 2 for v in merged) / len(merged))
        assert uncentred == pytest.approx(centred, abs=1e-10)
        assert result.theta0.sigma == uncentred
        assert not result.diagnostics

    @given(data=st.data(), case=st.sampled_from(list(CommonCase)))
    @settings(max_examples=60, deadline=None)
    def test_group_order_never_changes_the_outcome(self, data, case):
        n = data.draw(st.integers(2, 4))
        group = []
        for k in range(n):
            ints = data.draw(
                st.lists(st.integers(-10000, 10000), min_size=3, max_size=12, unique=True)
            )
            sample = PopulationSample(f"p{k + 1}", tuple(x / 1000.0 for x in ints))
            group.append((sample, fit_moments(sample.values)))
        perm = data.draw(st.permutations(range(n)))
        base = common_test(case, group, 0.05)
        shuffled = common_test(case, [group[k] for k in perm], 0.05)
        assert shuffled.theta0 == base.theta0
        assert shuffled.decision.rejected == base.decision.rejected
        assert shuffled.decision.threshold == base.decision.threshold
        assert sorted(shuffled.outlier_origins) == sorted(base.outlier_origins)
