"""Tests for the shared containers and unit conversions."""

import math

import numpy as np
import pytest

from gammasep.signal_core import (
    MultiChannelSignal,
    TimeWindow,
    ms_to_samples,
    oscillation_duration_ms,
    require_positive,
)


class TestRequirePositive:
    @pytest.mark.parametrize("good", [1e-320, 1, 512.0, 1.7976931348623157e308])
    def test_accepts_positive_finite_values(self, good):
        require_positive("rate", good)

    @pytest.mark.parametrize(
        "bad", [0, -0.0, -1.0, math.nan, math.inf, -math.inf, np.nan, np.float32(np.inf)]
    )
    def test_refuses_naming_the_argument(self, bad):
        with pytest.raises(ValueError) as info:
            require_positive("rate", bad)
        assert str(info.value) == f"rate must be positive and finite, got {bad}"

    @pytest.mark.parametrize("huge", [10**400, -(10**400)])
    def test_refuses_an_integer_too_large_for_a_float_naming_it(self, huge):
        # 10**400 compares below math.inf, but float() of it overflows
        with pytest.raises(ValueError, match="^x must be positive and finite, got "
                           "an integer too large for a float$"):
            require_positive("x", huge)


class TestMsToSamples:
    def test_exact_conversion(self):
        assert ms_to_samples(1000.0, 512.0) == 512

    def test_rounds_to_nearest(self):
        assert ms_to_samples(200.0, 512.0) == 102  # 102.4 rounds down
        assert ms_to_samples(150.0, 512.0) == 77  # 76.8 rounds up

    def test_subsample_duration_gives_zero(self):
        assert ms_to_samples(0.5, 512.0) == 0

    @pytest.mark.parametrize("bad_ms", [0.0, -5.0])
    def test_rejects_nonpositive_duration(self, bad_ms):
        with pytest.raises(ValueError):
            ms_to_samples(bad_ms, 512.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ms_to_samples(10.0, 0.0)

    @pytest.mark.parametrize("bad_ms", [math.nan, math.inf])
    def test_rejects_non_finite_duration(self, bad_ms):
        with pytest.raises(ValueError, match="duration_ms must be positive and finite"):
            ms_to_samples(bad_ms, 512.0)

    @pytest.mark.parametrize("bad_rate", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, bad_rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            ms_to_samples(150.0, bad_rate)

    def test_rejects_a_duration_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="duration_ms must be positive and finite"):
            ms_to_samples(10**400, 512.0)

    def test_rejects_an_overflowing_sample_count(self):
        # 150 * 1e308 is inf, which round() cannot make an int of
        with pytest.raises(ValueError, match="overflows the sample count"):
            ms_to_samples(150.0, 1e308)


class TestOscillationDuration:
    def test_standard_targets(self):
        assert oscillation_duration_ms(45.0) == 200.0
        assert oscillation_duration_ms(55.0) == 180.0
        assert oscillation_duration_ms(85.0) == 150.0

    def test_other_frequencies_get_nine_cycles(self):
        assert oscillation_duration_ms(60.0) == pytest.approx(9000.0 / 60.0)
        assert oscillation_duration_ms(100.0) == pytest.approx(90.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            oscillation_duration_ms(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="freq_hz must be positive and finite"):
            oscillation_duration_ms(bad)

    def test_rejects_a_frequency_whose_nine_cycles_overflow(self):
        with pytest.raises(ValueError, match="too low"):
            oscillation_duration_ms(1e-310)


class TestTimeWindow:
    def test_end_sample(self):
        assert TimeWindow(10, 5).end_sample == 15

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TimeWindow(-1, 5)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            TimeWindow(0, 0)

    @pytest.mark.parametrize("start, length", [(0.5, 3), (True, 3), (2, 3.0), (2, "3")])
    def test_rejects_a_bound_that_is_not_an_integer(self, start, length):
        with pytest.raises(TypeError, match="must be an integer"):
            TimeWindow(start, length)

    def test_accepts_numpy_integers(self):
        assert TimeWindow(np.int64(2), np.int32(3)).end_sample == 5

    def test_check_within(self):
        TimeWindow(0, 10).check_within(10)
        with pytest.raises(ValueError):
            TimeWindow(5, 6).check_within(10)


class TestMultiChannelSignal:
    def test_shape_properties(self, rng):
        sig = MultiChannelSignal(512.0, ("a", "b"), rng.standard_normal((2, 30)))
        assert sig.n_channels == 2
        assert sig.n_samples == 30

    def test_data_is_frozen_copy(self, rng):
        src = rng.standard_normal((1, 10))
        sig = MultiChannelSignal(512.0, ("a",), src)
        src[0, 0] = 99.0
        assert sig.data[0, 0] != 99.0
        with pytest.raises(ValueError):
            sig.data[0, 0] = 1.0

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(ValueError, match="2-D"):
            MultiChannelSignal(512.0, ("a",), np.zeros(10))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            MultiChannelSignal(512.0, ("a", "b"), np.zeros((3, 10)))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            MultiChannelSignal(0.0, ("a",), np.zeros((1, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            MultiChannelSignal(bad, ("a",), np.zeros((1, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        data = np.zeros((2, 10))
        data[1, 7] = bad
        with pytest.raises(ValueError, match="channel index 1, sample 7"):
            MultiChannelSignal(512.0, ("a", "b"), data)

    def test_refuses_complex_samples_naming_them(self):
        # numpy's cast would keep the real part and only warn
        with pytest.raises(ValueError, match="^data must be real, got a complex"):
            MultiChannelSignal(512.0, ("a",), np.ones((1, 10)) + 0j)

    def test_labels_coerced_to_strings(self):
        sig = MultiChannelSignal(512.0, (1, 2), np.zeros((2, 4)))
        assert sig.channel_labels == ("1", "2")

