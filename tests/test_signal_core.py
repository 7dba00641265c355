"""Tests for the shared containers, unit conversions and argument checks."""

import math
import re

import numpy as np
import pytest

from gammasep.backends import centered_conv, centered_conv_complex, circular_conv
from gammasep.cli import RunConfig
from gammasep.despike import separate
from gammasep.signal_core import (
    MultiChannelSignal,
    TimeWindow,
    ms_to_samples,
    oscillation_duration_ms,
    require_positive,
)
from gammasep.simulate import SimConfig, gen_gamma_burst
from gammasep.swt import (
    FilterPair,
    WaveletCoefficients,
    level_for_frequency,
    swt_decompose,
    wavelet_filters,
)
from gammasep.tfmap import (
    MorletParams,
    bandpass,
    bandpass_taps,
    envelope_smooth,
    map_row,
    morlet_transform,
    normalize_by_low_band,
    scales_for_band,
    spatiotemporal_map,
)
from gammasep.tickmodel import run_mapping_pipeline, run_pipeline

FS = 512.0
BAND = (80.0, 90.0)


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



# every public entry that takes a channel row, the argument that holds the
# row, and a call of the entry with that row; a new entry is one more line
ROW_ENTRIES = {
    "circular_conv": ("x", lambda x: circular_conv(x, np.ones(2), 1)),
    "centered_conv": ("x", lambda x: centered_conv(x, np.ones(3))),
    "centered_conv_complex": (
        "x", lambda x: centered_conv_complex(x, np.ones(3, dtype=complex))
    ),
    "FilterPair": ("scaling", lambda x: FilterPair("bad", x)),
    "WaveletCoefficients": (
        "approximation",
        lambda x: WaveletCoefficients(approximation=x, details=(np.zeros(64),)),
    ),
    "swt_decompose": ("x", lambda x: swt_decompose(x, wavelet_filters(), 1)),
    "separate": ("x", lambda x: separate(x, 85.0, FS)),
    "morlet_transform": (
        "x", lambda x: morlet_transform(x, MorletParams.for_band(BAND, FS))
    ),
    "bandpass": ("x", lambda x: bandpass(x, BAND, FS)),
    "envelope_smooth": ("x", envelope_smooth),
    "normalize_by_low_band": (
        "band_energy", lambda x: normalize_by_low_band(x, np.ones(64), FS)
    ),
    "map_row": ("x", lambda x: map_row(x, BAND, MorletParams.for_band(BAND, FS))),
    "run_pipeline": ("x", run_pipeline),
    "run_mapping_pipeline": (
        "x", lambda x: run_mapping_pipeline(x, MorletParams.for_band(BAND, FS), BAND)
    ),
}


@pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
class TestRowRule:
    def test_refuses_a_complex_row_naming_it(self, entry):
        # numpy's cast would keep the real part and only warn
        key, call = ROW_ENTRIES[entry]
        with pytest.raises(ValueError, match=f"^{key} must be real, got a complex"):
            call(np.ones(64) + 1j)

    def test_refuses_a_2d_row_naming_it(self, entry):
        key, call = ROW_ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{key} must be 1-D, got shape \(2, 64\)"):
            call(np.ones((2, 64)))


def _flat_signal():
    return MultiChannelSignal(FS, ("a",), np.ones((1, 64)))


# every entry that takes a band, called with a band at a 512 Hz rate
BAND_ENTRIES = {
    "scales_for_band": lambda band: scales_for_band(band, FS),
    "MorletParams.for_band": lambda band: MorletParams.for_band(band, FS),
    "bandpass_taps": lambda band: bandpass_taps(band, FS),
    "spatiotemporal_map": lambda band: spatiotemporal_map(_flat_signal(), band),
    "map_row": lambda band: map_row(np.ones(64), band, MorletParams.for_band(BAND, FS)),
}
BAND_STEM = "band_hz must satisfy 0 < low < high < "


@pytest.mark.parametrize(
    "band",
    [(90.0, 80.0), (80.0, 80.0), (0.0, 80.0), (80.0, 85.0, 90.0),
     (80.0, 300.0), (80.0, 256.0), (math.nan, 90.0), (80.0, math.nan)],
)
@pytest.mark.parametrize("entry", sorted(BAND_ENTRIES))
def test_band_rule_refuses_every_band_but_two_ordered_edges_below_nyquist(entry, band):
    with pytest.raises(ValueError, match="^" + re.escape(f"{BAND_STEM}256.0, got {band}")):
        BAND_ENTRIES[entry](band)


@pytest.mark.parametrize("band", [85.0, None, ("80", "90"), (80.0, 85j)])
@pytest.mark.parametrize("entry", sorted(BAND_ENTRIES))
def test_band_rule_refuses_a_band_that_is_not_two_numbers_naming_it(entry, band):
    # not the bare TypeError of len() or <, which names nothing
    message = f"band_hz must be two numbers, got {band!r}"
    with pytest.raises(TypeError, match="^" + re.escape(message)):
        BAND_ENTRIES[entry](band)


@pytest.mark.parametrize("band", [(90.0, 80.0), (80.0, 80.0), (80.0, 85.0, 90.0)])
def test_run_config_refuses_a_band_out_of_order_with_the_band_rule(band):
    # the rate is the input file's, so the config checks only the order
    with pytest.raises(ValueError, match="^" + re.escape(f"{BAND_STEM}inf, got {band}")):
        RunConfig(band_hz=band)


def test_run_config_refuses_a_nan_band_edge_as_a_config_number():
    # every number a config lists must be finite, before any rule reads it
    with pytest.raises(ValueError, match="^each band_hz entry must be finite"):
        RunConfig(band_hz=(math.nan, 90.0))


def test_run_config_leaves_the_nyquist_bound_to_the_file_rate():
    assert RunConfig(band_hz=(80.0, 300.0)).band_hz == (80.0, 300.0)


# every entry that takes a frequency under a 512 Hz rate
FREQUENCY_ENTRIES = {
    "gen_gamma_burst": ("freq_hz", gen_gamma_burst),
    "level_for_frequency": ("freq_hz", lambda f: level_for_frequency(f, FS)),
    "SimConfig": (
        "each burst_freqs_hz entry",
        lambda f: SimConfig(burst_freqs_hz=(f, 55.0, 85.0)),
    ),
}


@pytest.mark.parametrize("freq", [0.0, -5.0, 256.0, 300.0])
@pytest.mark.parametrize("entry", sorted(FREQUENCY_ENTRIES))
def test_frequency_rule_refuses_a_frequency_outside_zero_to_nyquist(entry, freq):
    key, call = FREQUENCY_ENTRIES[entry]
    message = f"{key} must lie in (0, 256.0), got {freq}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(freq)


@pytest.mark.parametrize("freq", ["85", None, 85j])
@pytest.mark.parametrize("entry", sorted(FREQUENCY_ENTRIES))
def test_frequency_rule_refuses_a_frequency_that_is_not_a_number_naming_it(entry, freq):
    # not the bare TypeError of <, which names nothing
    key, call = FREQUENCY_ENTRIES[entry]
    message = f"{key} must be a number, got {freq!r}"
    with pytest.raises(TypeError, match="^" + re.escape(message)):
        call(freq)
