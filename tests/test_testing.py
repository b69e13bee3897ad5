import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from uncstat import (
    AcceptanceInterval,
    NormalUncertain,
    PopulationSample,
    TestDecision,
    acceptance_interval,
    count_outliers,
    fit_and_verify,
    quantile,
    rejection_threshold,
    single_test,
)


def brute_force_outside(values, lower, upper):
    """Independent oracle: positions not inside [lower, upper]."""
    positions = []
    for k in range(len(values)):
        v = values[k]
        inside = (lower <= v) and (v <= upper)
        if not inside:
            positions.append(k + 1)
    return positions


class TestPopulationSample:
    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            PopulationSample("a", ())

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            PopulationSample("a", (1.0, math.nan))

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            PopulationSample("", (1.0,))

    def test_rejects_bad_known_scale(self):
        with pytest.raises(ValueError):
            PopulationSample("a", (1.0,), known_sigma=-2.0)


class TestAcceptanceInterval:
    def test_field_study_band(self):
        iv = acceptance_interval(NormalUncertain(2.516, 0.083), 0.05)
        assert iv.lower == pytest.approx(2.348, abs=1e-3)
        assert iv.upper == pytest.approx(2.684, abs=1e-3)

    def test_centred_band(self):
        iv = acceptance_interval(NormalUncertain(0.0, 1.404), 0.05)
        assert iv.lower == pytest.approx(-2.836, abs=1e-3)
        assert iv.upper == pytest.approx(2.836, abs=1e-3)

    def test_wider_alpha_shrinks_band(self):
        d = NormalUncertain(5.0, 1.0)
        narrow = acceptance_interval(d, 0.1)
        wide = acceptance_interval(d, 0.05)
        assert wide.lower < narrow.lower < narrow.upper < wide.upper

    def test_source_parameters_are_recorded(self):
        iv = acceptance_interval(NormalUncertain(1.5, 2.5), 0.05)
        assert (iv.source_e, iv.source_sigma, iv.alpha) == (1.5, 2.5, 0.05)

    def test_rejects_inconsistent_endpoints(self):
        # endpoints are derived from the source, so none can be supplied
        with pytest.raises(TypeError):
            AcceptanceInterval(lower=-1.0, upper=1.0, alpha=0.05, source_e=0.0, source_sigma=1.0)
        d = NormalUncertain(1.5, 2.5)
        iv = AcceptanceInterval(1.5, 2.5, 0.05)
        assert (iv.lower, iv.upper) == (quantile(d, 0.025), quantile(d, 0.975))


class TestCountOutliers:
    def test_example1_population1_against_wider_band(self, example1):
        samples, _ = example1
        iv = acceptance_interval(NormalUncertain(4.5, 1.348), 0.05)
        assert iv.lower == pytest.approx(1.778, abs=1e-3)
        assert count_outliers(samples[0], iv) == (3,)

    def test_example1_population2(self, example1):
        samples, _ = example1
        iv = acceptance_interval(NormalUncertain(5.0, 1.420), 0.05)
        assert (iv.lower, iv.upper) == (pytest.approx(2.132, abs=1e-3), pytest.approx(7.868, abs=1e-3))
        assert count_outliers(samples[1], iv) == (7, 33)

    def test_all_inside_wide_band(self, example1):
        samples, _ = example1
        iv = acceptance_interval(NormalUncertain(5.0, 1e6), 0.05)
        assert count_outliers(samples[2], iv) == ()

    def test_boundary_values_are_not_outliers(self):
        iv = acceptance_interval(NormalUncertain(0.0, 1.0), 0.05)
        sample = PopulationSample("b", (iv.lower, iv.upper, 0.0))
        assert count_outliers(sample, iv) == ()

    @given(
        values=st.lists(st.floats(-10, 10), min_size=1, max_size=50),
        e=st.floats(-5, 5),
        sigma=st.floats(0.01, 5),
        alpha=st.floats(0.01, 0.5),
    )
    def test_agrees_with_brute_force(self, values, e, sigma, alpha):
        sample = PopulationSample("x", tuple(values))
        iv = acceptance_interval(NormalUncertain(e, sigma), alpha)
        assert list(count_outliers(sample, iv)) == brute_force_outside(values, iv.lower, iv.upper)


class TestRejectionThreshold:
    @pytest.mark.parametrize(
        "m,alpha,expected",
        [
            (144, 0.05, 8),
            (96, 0.05, 5),
            (60, 0.05, 4),
            (48, 0.05, 3),
            (36, 0.05, 2),
            (25, 0.05, 2),
            (7, 0.05, 1),
            (6, 0.05, 1),
        ],
    )
    def test_known_instances(self, m, alpha, expected):
        assert rejection_threshold(m, alpha) == expected

    def test_float_guard(self):
        # 0.29 * 100 evaluates below 29 in binary floating point; the snapped
        # product must still yield the least integer strictly above 29.
        assert 0.29 * 100 < 29.0
        assert rejection_threshold(100, 0.29) == 30

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            rejection_threshold(0, 0.05)

    @given(m=st.integers(1, 2000), alpha=st.sampled_from([0.01, 0.025, 0.05, 0.1, 0.2, 0.5]))
    def test_strictly_above_alpha_m(self, m, alpha):
        t = rejection_threshold(m, alpha)
        # exact arithmetic via fractions of the decimal levels
        from fractions import Fraction

        exact = Fraction(str(alpha)) * m
        assert t - 1 <= exact < t

    @given(m=st.integers(1, 1000), alpha=st.sampled_from([0.01, 0.05, 0.1, 0.25]))
    def test_monotone_in_size(self, m, alpha):
        assert rejection_threshold(m, alpha) <= rejection_threshold(m + 1, alpha)

    @given(m=st.integers(1, 1000), pair=st.sampled_from([(0.01, 0.05), (0.05, 0.1), (0.1, 0.25)]))
    def test_monotone_in_level(self, m, pair):
        low, high = pair
        assert rejection_threshold(m, low) <= rejection_threshold(m, high)


class TestSingleTest:
    def test_field_sample_accepts_its_published_fit(self, toothmarks):
        samples, _ = toothmarks
        decision = single_test(samples[0], NormalUncertain(2.883, 0.069), 0.05)
        assert decision.outlier_count == 0
        assert decision.threshold == 1
        assert not decision.rejected

    def test_merged_adjusted_data_against_pooled_scale(self, example1):
        samples, _ = example1
        known_e = {"1": 4.5, "2": 5.0, "3": 5.5}
        merged = tuple(v - known_e[s.id] for s in samples for v in s.values)
        decision = single_test(PopulationSample("m", merged), NormalUncertain(0.0, 1.404), 0.05)
        assert decision.outlier_indices == (3, 43, 69, 95, 97, 116)
        assert decision.threshold == 8
        assert not decision.rejected

    def test_constant_sample_at_median(self):
        sample = PopulationSample("c", (5.0,) * 12)
        decision = single_test(sample, NormalUncertain(5.0, 1.0), 0.05)
        assert decision.outlier_count == 0
        assert not decision.rejected

    def test_decision_invariant_validation(self):
        iv = acceptance_interval(NormalUncertain(0.0, 1.0), 0.05)
        # threshold and verdict are derived, so no inconsistent pair can be supplied
        with pytest.raises(TypeError):
            TestDecision(interval=iv, outlier_indices=(1, 2), threshold=1, sample_size=5, rejected=False)
        decision = TestDecision(interval=iv, outlier_indices=(1, 2), sample_size=5)
        assert (decision.threshold, decision.rejected) == (1, True)
        with pytest.raises(ValueError):
            TestDecision(interval=iv, outlier_indices=(), sample_size=0)

    @given(
        seedvals=st.lists(st.floats(-8, 8), min_size=2, max_size=40),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_permutation_invariance(self, seedvals, alpha):
        d0 = NormalUncertain(0.0, 2.0)
        forward = single_test(PopulationSample("f", tuple(seedvals)), d0, alpha)
        backward = single_test(PopulationSample("b", tuple(reversed(seedvals))), d0, alpha)
        assert forward.rejected == backward.rejected
        assert forward.outlier_count == backward.outlier_count
        m = len(seedvals)
        assert sorted(m + 1 - p for p in backward.outlier_indices) == list(forward.outlier_indices)

    @given(
        e=st.floats(-50, 50),
        sigma=st.floats(0.1, 10),
        a=st.floats(0.1, 10),
        b=st.floats(-50, 50),
        us=st.lists(st.floats(0.002, 0.998), min_size=1, max_size=40),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
    )
    def test_affine_equivariance(self, e, sigma, a, b, us, alpha):
        # keep generated points away from the band edges so a one-ulp
        # perturbation cannot flip a classification
        assume(all(abs(u - alpha / 2) > 1e-4 and abs(u - (1 - alpha / 2)) > 1e-4 for u in us))
        d0 = NormalUncertain(e, sigma)
        zs = [quantile(d0, u) for u in us]
        base = single_test(PopulationSample("p", tuple(zs)), d0, alpha)
        mapped = single_test(
            PopulationSample("q", tuple(a * z + b for z in zs)),
            NormalUncertain(a * e + b, a * sigma),
            alpha,
        )
        assert mapped.outlier_indices == base.outlier_indices
        assert mapped.threshold == base.threshold
        assert mapped.rejected == base.rejected


class TestFitAndVerify:
    @pytest.mark.parametrize(
        "index,expected_fit,expected_band",
        [
            (2, (2.517, 0.090), (2.335, 2.698)),
            (5, (2.514, 0.083), (2.346, 2.683)),
        ],
    )
    def test_field_rows(self, toothmarks, index, expected_fit, expected_band):
        samples, _ = toothmarks
        fitted, decision = fit_and_verify(samples[index], 0.05)
        assert fitted.e == pytest.approx(expected_fit[0], abs=1e-3)
        assert fitted.sigma == pytest.approx(expected_fit[1], abs=1e-3)
        assert decision.interval.lower == pytest.approx(expected_band[0], abs=1e-3)
        assert decision.interval.upper == pytest.approx(expected_band[1], abs=1e-3)
        assert decision.outlier_count == 0
        assert not decision.rejected

    def test_two_point_sample(self):
        fitted, decision = fit_and_verify(PopulationSample("t", (-1.0, 1.0)), 0.05)
        assert (fitted.e, fitted.sigma) == (0.0, 1.0)
        assert decision.threshold == 1
        assert decision.outlier_count == 0
        assert not decision.rejected

    def test_respects_pinned_parameters(self):
        sample = PopulationSample("p", (1.0, 3.0), known_e=0.0, known_sigma=None)
        fitted, _ = fit_and_verify(sample, 0.05)
        assert fitted.e == 0.0
        assert fitted.sigma == pytest.approx(math.sqrt(5.0), rel=1e-12)
