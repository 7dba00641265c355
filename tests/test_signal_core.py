"""Tests for the shared containers and unit conversions."""

import numpy as np
import pytest

from gammasep.signal_core import (
    MultiChannelSignal,
    TimeWindow,
    ms_to_samples,
    oscillation_duration_ms,
)


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


class TestTimeWindow:
    def test_end_sample(self):
        assert TimeWindow(10, 5).end_sample == 15

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TimeWindow(-1, 5)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            TimeWindow(0, 0)

    def test_check_within(self):
        TimeWindow(0, 10).check_within(10)
        with pytest.raises(ValueError):
            TimeWindow(5, 6).check_within(10)

    def test_overlap(self):
        a = TimeWindow(0, 10)
        assert a.overlap(TimeWindow(5, 10)) == 5
        assert a.overlap(TimeWindow(10, 4)) == 0
        assert a.overlap(TimeWindow(2, 3)) == 3


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

    def test_labels_coerced_to_strings(self):
        sig = MultiChannelSignal(512.0, (1, 2), np.zeros((2, 4)))
        assert sig.channel_labels == ("1", "2")

