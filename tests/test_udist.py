import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uncstat import (
    DegenerateSampleError,
    NormalUncertain,
    NumericError,
    cdf,
    fit_moments,
    nonembedded_check,
    quantile,
    std_quantile,
)

locations = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
scales = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
levels = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


class TestNormalUncertain:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            NormalUncertain(0.0, 0.0)
        with pytest.raises(ValueError):
            NormalUncertain(0.0, -1.0)

    def test_rejects_non_finite_fields(self):
        with pytest.raises(ValueError):
            NormalUncertain(math.nan, 1.0)
        with pytest.raises(ValueError):
            NormalUncertain(0.0, math.inf)


class TestCdf:
    def test_location_is_median(self):
        assert cdf(NormalUncertain(4.5, 1.420), 4.5) == pytest.approx(0.5)

    def test_inverts_upper_band_endpoint_of_field_fit(self):
        # Fit of the first tooth-mark sample; the 0.975 quantile is the upper
        # endpoint of its acceptance band and must invert back exactly.
        d = fit_moments([2.8, 2.8, 2.9, 2.9, 2.9, 3.0])
        z = quantile(d, 0.975)
        assert z == pytest.approx(3.022, abs=1e-3)
        assert cdf(d, z) == pytest.approx(0.975, abs=1e-6)

    def test_monotone_toward_one(self):
        d = NormalUncertain(0.0, 1.0)
        values = [cdf(d, z) for z in (0.0, 1.0, 5.0, 10.0, 19.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ValueError):
            cdf(NormalUncertain(0.0, 1.0), math.inf)

    def test_no_overflow_far_in_the_tails(self):
        d = NormalUncertain(0.0, 1.0)
        assert cdf(d, -400.0) >= 0.0
        assert cdf(d, 400.0) <= 1.0


class TestQuantile:
    def test_table_values(self):
        assert quantile(NormalUncertain(4.5, 1.420), 0.025) == pytest.approx(1.632, abs=1e-3)
        assert quantile(NormalUncertain(5.146, 1.0), 0.975) == pytest.approx(7.166, abs=1e-3)

    def test_median_is_location_exactly(self):
        assert quantile(NormalUncertain(7.0, 3.0), 0.5) == 7.0

    def test_rejects_out_of_range_level(self):
        d = NormalUncertain(0.0, 1.0)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                quantile(d, bad)

    @given(e=locations, sigma=scales, alpha=levels)
    def test_inverts_cdf(self, e, sigma, alpha):
        d = NormalUncertain(e, sigma)
        assert abs(cdf(d, quantile(d, alpha)) - alpha) < 1e-10

    @given(e=locations, sigma=scales, alpha=levels)
    def test_matches_standard_quantile_exactly(self, e, sigma, alpha):
        d = NormalUncertain(e, sigma)
        assert quantile(d, alpha) == e + sigma * std_quantile(alpha)

    @given(e1=locations, e2=locations, sigma=scales, alpha=levels)
    def test_antisymmetric_pair_sums_to_locations(self, e1, e2, sigma, alpha):
        d1, d2 = NormalUncertain(e1, sigma), NormalUncertain(e2, sigma)
        total = quantile(d1, alpha) + quantile(d2, 1.0 - alpha)
        assert total == pytest.approx(e1 + e2, abs=1e-9 * max(1.0, sigma))


class TestStdQuantile:
    def test_zero_at_half(self):
        assert std_quantile(0.5) == 0.0

    def test_two_sided_band_width(self):
        assert std_quantile(0.975) == pytest.approx(2.0199, abs=5e-4)
        assert std_quantile(0.025) == pytest.approx(-2.0199, abs=5e-4)

    @given(alpha=levels)
    def test_antisymmetry(self, alpha):
        assert std_quantile(alpha) == pytest.approx(-std_quantile(1.0 - alpha), abs=1e-9)

    @given(alpha=st.floats(min_value=1e-6, max_value=0.5 - 1e-7))
    def test_strictly_increasing(self, alpha):
        assert std_quantile(alpha) < std_quantile(alpha + 1e-7)


class TestFitMoments:
    def test_field_sample(self):
        d = fit_moments([2.8, 2.8, 2.9, 2.9, 2.9, 3.0])
        assert d.e == pytest.approx(2.883, abs=1e-3)
        assert d.sigma == pytest.approx(0.069, abs=1e-3)

    def test_known_location_centres_second_moment(self, example1):
        samples, _ = example1
        d = fit_moments(samples[0].values, known_e=4.5)
        assert d.e == 4.5
        assert d.sigma == pytest.approx(1.420, abs=5e-3)

    def test_known_scale_with_constant_sample(self):
        d = fit_moments([3.0, 3.0, 3.0], known_sigma=1.0)
        assert (d.e, d.sigma) == (3.0, 1.0)

    def test_population_divisor(self):
        # divisor m, not m-1: sqrt(((1)^2 + (-1)^2) / 2) = 1
        assert fit_moments([0.0, 2.0]).sigma == 1.0

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            fit_moments([])

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_moments([5.0, 5.0, 5.0])
        # The mean of three copies of this value rounds off it.
        with pytest.raises(DegenerateSampleError):
            fit_moments([58.253465754211035] * 3)

    def test_equal_values_off_a_pinned_location_fit(self):
        assert fit_moments([5.0, 5.0, 5.0], known_e=4.0).sigma == 1.0

    @pytest.mark.parametrize(
        "values",
        [
            [1e200, 2e200, 3e200],  # squared deviations overflow
            [1.7e308, 1.7e308],  # the sum overflows
            [1.7e308, 1.7e308, -1.7e308],  # a deviation overflows to infinity
        ],
    )
    def test_overflow_is_a_numeric_error(self, values):
        with pytest.raises(NumericError, match="overflow"):
            fit_moments(values)

    def test_large_values_in_range_still_fit(self):
        d = fit_moments([1e150, 2e150, 3e150])
        assert d.e == 2e150
        assert d.sigma == pytest.approx(math.sqrt(2 / 3) * 1e150, rel=1e-12)

    def test_degenerate_sample_is_a_numeric_error(self):
        assert issubclass(DegenerateSampleError, NumericError)

    def test_invalid_known_scale(self):
        with pytest.raises(ValueError):
            fit_moments([1.0, 2.0], known_sigma=0.0)

    @given(
        values=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
        shift=st.floats(min_value=-50, max_value=50),
    )
    def test_translation_equivariance(self, values, shift):
        # either side may be exactly degenerate when the sample is constant
        # up to rounding; the property only applies off that boundary
        try:
            base = fit_moments(values)
            moved = fit_moments([v + shift for v in values])
        except DegenerateSampleError:
            return
        assert moved.e == pytest.approx(base.e + shift, abs=1e-9)
        assert moved.sigma == pytest.approx(base.sigma, abs=1e-9)

    @given(
        values=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
        factor=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_equivariance(self, values, factor):
        try:
            base = fit_moments(values)
            scaled = fit_moments([v * factor for v in values])
        except DegenerateSampleError:
            return
        assert scaled.e == pytest.approx(base.e * factor, rel=1e-9, abs=1e-9)
        assert scaled.sigma == pytest.approx(base.sigma * factor, rel=1e-9)


class TestNonembeddedCheck:
    def test_detects_scale_difference(self):
        inv_null = lambda a: quantile(NormalUncertain(0.0, 1.0), a)
        inv_alt = lambda a: quantile(NormalUncertain(0.0, 2.0), a)
        assert nonembedded_check(inv_null, inv_alt, 0.05, grid_size=100)

    def test_detects_location_shift_on_coarse_grid(self):
        inv_null = lambda a: quantile(NormalUncertain(1.0, 1.0), a)
        inv_alt = lambda a: quantile(NormalUncertain(0.0, 1.0), a)
        assert nonembedded_check(inv_null, inv_alt, 0.05, grid_size=10)

    def test_identical_distributions_have_no_witness(self):
        inv = lambda a: quantile(NormalUncertain(0.0, 1.0), a)
        assert not nonembedded_check(inv, inv, 0.05)
        assert not nonembedded_check(inv, inv, 0.2)

    def test_rejects_tiny_grid(self):
        inv = lambda a: a
        with pytest.raises(ValueError):
            nonembedded_check(inv, inv, 0.05, grid_size=1)
