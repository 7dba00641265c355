"""Tests for the band energy maps and the build-up detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gammasep as g
from gammasep.tfmap import (
    LOW_BAND_HZ,
    RAMP_FRACTION,
    RUN_LENGTH,
    SMOOTH_WIDTH,
    BuildupDetection,
    MorletParams,
    SpatioTemporalMap,
    bandpass,
    bandpass_taps,
    detect_buildup,
    envelope_smooth,
    map_row,
    morlet_kernel,
    morlet_transform,
    normalize_by_low_band,
    scale_for_frequency,
    scales_for_band,
    spatiotemporal_map,
    _first_sustained_runs,
    _map_reach,
)
from frozen import NOISE_MAP_MAX_OVER_MEDIAN
from oracles import first_sustained_run, full_map_row, median_buildup, same_bits

FS = 512.0
BAND = (80.0, 90.0)


def sine(freq, n=4096, fs=FS):
    return np.sin(2.0 * np.pi * freq * np.arange(n) / fs)


class TestScales:
    def test_scale_for_frequency_is_its_own_inverse(self):
        for freq in (40.0, 55.0, 85.0):
            a = scale_for_frequency(freq, FS)
            assert a != pytest.approx(freq)
            back = scale_for_frequency(a, FS)
            assert back == pytest.approx(freq, abs=1e-9)

    def test_band_tiled_at_one_hz(self):
        scales = scales_for_band(BAND, FS)
        assert len(scales) == 11
        freqs = [scale_for_frequency(a, FS) for a in scales]
        np.testing.assert_allclose(freqs, np.arange(80.0, 91.0), atol=1e-9)

    def test_narrow_band_falls_back_to_the_midpoint(self):
        scales = scales_for_band((80.2, 80.8), FS)
        assert len(scales) == 1
        assert scale_for_frequency(scales[0], FS) == pytest.approx(80.5, abs=1e-9)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            scales_for_band((90.0, 80.0), FS)
        with pytest.raises(ValueError):
            scales_for_band((0.0, 80.0), FS)


class TestMorletParams:
    def test_for_band_builds_the_scale_list(self):
        params = MorletParams.for_band(BAND, FS)
        assert len(params.scales) == 11

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MorletParams(sample_rate_hz=FS, scales=())
        with pytest.raises(ValueError):
            MorletParams(sample_rate_hz=FS, scales=(-1.0,))
        with pytest.raises(ValueError):
            MorletParams(sample_rate_hz=0.0, scales=(1.0,))


class TestMorletKernel:
    def test_center_value_is_inverse_dilation(self):
        params = MorletParams(sample_rate_hz=FS, scales=(5.0,))
        kernel = morlet_kernel(params, 5.0)
        center = kernel.size // 2
        assert kernel[center] == pytest.approx(1.0 / 5.0, abs=1e-12)

    def test_kernel_is_conjugate_symmetric(self):
        params = MorletParams(sample_rate_hz=FS, scales=(4.0,))
        kernel = morlet_kernel(params, 4.0)
        np.testing.assert_allclose(kernel, np.conj(kernel[::-1]), atol=1e-12)

    def test_real_and_imaginary_parts_are_near_orthogonal(self):
        params = MorletParams(sample_rate_hz=FS, scales=(6.0,))
        kernel = morlet_kernel(params, 6.0)
        re, im = kernel.real, kernel.imag
        cosang = abs(np.dot(re, im)) / (
            np.linalg.norm(re) * np.linalg.norm(im)
        )
        assert cosang <= 0.01

    def test_length_follows_the_envelope_floor(self):
        params = MorletParams(sample_rate_hz=FS, scales=(6.0,))
        kernel = morlet_kernel(params, 6.0)
        radius = int(math.floor(6.0 * math.sqrt(2.0 * math.log(1e6))))
        assert kernel.size == 2 * radius + 1

    def test_rejects_nonpositive_dilation(self):
        params = MorletParams(sample_rate_hz=FS, scales=(1.0,))
        with pytest.raises(ValueError):
            morlet_kernel(params, 0.0)


class TestMorletTransform:
    def test_shape_is_scales_by_samples(self):
        params = MorletParams.for_band(BAND, FS)
        out = morlet_transform(np.ones(300), params)
        assert out.shape == (11, 300)
        assert out.dtype == np.complex128

    def test_zero_in_zero_out(self):
        params = MorletParams.for_band(BAND, FS)
        assert np.all(morlet_transform(np.zeros(128), params) == 0.0)

    def test_rejects_empty_or_2d_input(self):
        params = MorletParams.for_band(BAND, FS)
        with pytest.raises(ValueError):
            morlet_transform(np.zeros(0), params)
        with pytest.raises(ValueError):
            morlet_transform(np.zeros((2, 64)), params)

    def test_pure_tone_peaks_at_its_own_scale(self):
        params = MorletParams.for_band((40.0, 90.0), FS)
        response = morlet_transform(sine(55.0), params)
        energies = np.mean(np.abs(response) ** 2, axis=1)
        best = params.scales[int(np.argmax(energies))]
        assert scale_for_frequency(best, FS) == pytest.approx(55.0, abs=1.0)

    def test_interior_shifts_with_the_input(self):
        params = MorletParams.for_band(BAND, FS)
        x = sine(85.0, n=1024)
        base = morlet_transform(x, params)
        moved = morlet_transform(np.roll(x, 40), params)
        np.testing.assert_allclose(
            moved[:, 140:-140], np.roll(base, 40, axis=1)[:, 140:-140],
            atol=1e-10,
        )


class TestBandpass:
    def test_unit_gain_at_band_center(self):
        taps = bandpass_taps(BAND, FS)
        m = np.arange(taps.size) - (taps.size - 1) / 2.0
        gain = abs(np.sum(taps * np.exp(-2j * np.pi * 85.0 * m / FS)))
        assert gain == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("freq", [82.0, 85.0, 88.0])
    def test_in_band_ripple_below_one_db(self, freq):
        taps = bandpass_taps(BAND, FS)
        m = np.arange(taps.size) - (taps.size - 1) / 2.0
        gain = abs(np.sum(taps * np.exp(-2j * np.pi * freq * m / FS)))
        assert abs(20.0 * np.log10(gain)) <= 1.0

    @pytest.mark.parametrize("freq", [60.0, 75.0, 95.0, 110.0])
    def test_stopband_at_least_forty_db_down(self, freq):
        taps = bandpass_taps(BAND, FS)
        m = np.arange(taps.size) - (taps.size - 1) / 2.0
        gain = abs(np.sum(taps * np.exp(-2j * np.pi * freq * m / FS)))
        assert 20.0 * np.log10(max(gain, 1e-15)) <= -40.0

    def test_dc_rejected_exactly(self):
        taps = bandpass_taps(BAND, FS)
        assert abs(taps.sum()) <= 1e-12

    def test_odd_symmetric_taps(self):
        taps = bandpass_taps(BAND, FS)
        assert taps.size % 2 == 1
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)

    def test_filter_preserves_length_and_phase(self):
        x = sine(85.0, n=2048)
        y = bandpass(x, BAND, FS)
        assert y.size == x.size
        # zero-phase: the filtered tone stays aligned with the input
        interior = slice(400, 1600)
        assert np.dot(x[interior], y[interior]) > 0.9 * np.dot(
            x[interior], x[interior]
        )

    def test_rejects_invalid_band(self):
        with pytest.raises(ValueError):
            bandpass_taps((90.0, 80.0), FS)
        with pytest.raises(ValueError):
            bandpass_taps((80.0, 300.0), FS)


class TestEnvelopeSmooth:
    def test_width_one_is_identity(self, rng):
        x = rng.standard_normal(50)
        np.testing.assert_array_equal(envelope_smooth(x, 1), x)

    def test_constant_signal_unchanged(self):
        np.testing.assert_allclose(
            envelope_smooth(np.full(300, 2.5), 64), 2.5, atol=1e-12
        )

    def test_impulse_becomes_a_plateau(self):
        x = np.zeros(1000)
        x[500] = 1.0
        y = envelope_smooth(x, SMOOTH_WIDTH)
        plateau = y[y > 0]
        assert plateau.size == SMOOTH_WIDTH
        np.testing.assert_allclose(plateau, 1.0 / SMOOTH_WIDTH, atol=1e-12)

    def test_boundary_window_shrinks(self):
        x = np.arange(10.0)
        y = envelope_smooth(x, 4)
        # at i=0 the window is [0, 1] (left part clipped away)
        assert y[0] == pytest.approx(0.5)
        # at i=5 the window is [3, 6]
        assert y[5] == pytest.approx(np.mean(x[3:7]))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            envelope_smooth(np.ones(8), 0)


class TestNormalizeByLowBand:
    def test_low_band_tone_normalizes_to_about_one(self):
        x = sine(12.0, n=4096)
        low = bandpass(x, (10.0, 15.0), FS)
        band_energy = envelope_smooth(low * low, SMOOTH_WIDTH)
        ratio = normalize_by_low_band(band_energy, x, FS)
        interior = ratio[1000:3000]
        np.testing.assert_allclose(interior, 1.0, rtol=0.05)

    def test_zero_numerator_stays_zero(self):
        x = sine(12.0, n=2048)
        out = normalize_by_low_band(np.zeros(2048), x, FS)
        assert np.all(out == 0.0)

    def test_all_zero_input_stays_zero(self):
        out = normalize_by_low_band(np.zeros(1024), np.zeros(1024), FS)
        assert np.all(out == 0.0)

    def test_overflowing_low_band_raises(self):
        x = np.zeros(1024)
        x[500] = 1e308
        with pytest.raises(ValueError, match="not finite"):
            normalize_by_low_band(np.zeros(1024), x, FS)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalize_by_low_band(np.zeros(10), np.zeros(11), FS)

    def test_ratio_bounded_where_the_low_band_dies_away(self, realization0):
        """A despiked channel keeps no 10-15 Hz energy away from its burst;
        the ratio there must stay under the floor's bound."""
        signal, truth = realization0
        x = g.separate(
            signal.data[1], truth.channels[1].burst_freq_hz, FS
        ).oscillatory
        low = bandpass(x, LOW_BAND_HZ, FS)
        low_energy = envelope_smooth(low * low, SMOOTH_WIDTH)
        band = bandpass(x, BAND, FS)
        band_energy = envelope_smooth(band * band, SMOOTH_WIDTH)
        peak = low_energy.max()
        assert low_energy.min() < 1e-9 * peak

        ratio = normalize_by_low_band(band_energy, x, FS)
        bound = band_energy / (RAMP_FRACTION * peak)
        assert np.all(ratio <= bound * (1.0 + 1e-12))
        # where the low band is above the floor the ratio is the quotient
        strong = low_energy >= RAMP_FRACTION * peak
        np.testing.assert_allclose(
            ratio[strong], band_energy[strong] / low_energy[strong], rtol=1e-12
        )


class TestMapRow:
    def test_nonnegative_and_finite(self, realization0):
        signal, _ = realization0
        params = MorletParams.for_band(BAND, FS)
        row = map_row(signal.data[0], BAND, params)
        assert row.shape == (signal.n_samples,)
        assert np.all(np.isfinite(row))
        assert np.all(row >= 0.0)

    def test_invariant_to_input_amplitude(self, realization0):
        signal, _ = realization0
        params = MorletParams.for_band(BAND, FS)
        base = map_row(signal.data[0], BAND, params)
        scaled = map_row(10.0 * signal.data[0], BAND, params)
        np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_energy_is_not_additive_across_a_split(self, realization0):
        """The map must respond to the mixture, not to the parts separately."""
        signal, _ = realization0
        x = signal.data[2]
        result = g.separate(x, 85.0, FS)
        params = MorletParams.for_band(BAND, FS)
        whole = map_row(x, BAND, params)
        parts = map_row(result.oscillatory, BAND, params) + map_row(
            result.transient, BAND, params
        )
        assert np.max(np.abs(whole - parts)) > 0.5 * whole.max()


TARGET_BANDS = [(40.0, 50.0), (50.0, 60.0), (80.0, 90.0)]


@st.composite
def sparse_rows(draw):
    """Zero rows with one random-normal stretch, touching either edge or not."""
    n = draw(st.integers(600, 8000))
    length = draw(st.integers(1, n))
    start = draw(
        st.one_of(st.just(0), st.just(n - length), st.integers(0, n - length))
    )
    amplitude = 10.0 ** draw(st.floats(-6.0, 6.0))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.zeros(n)
    x[start:start + length] = (
        amplitude * np.random.default_rng(seed).standard_normal(length)
    )
    return x


class TestSupportLocalRow:
    """map_row filters only near the non-zero support, bit for bit."""

    @pytest.mark.parametrize(
        "band, reach", zip(TARGET_BANDS, [722, 696, 658])
    )
    def test_reach_sums_the_filter_spans(self, band, reach):
        params = MorletParams.for_band(band, FS)
        longest = max(morlet_kernel(params, a).size for a in params.scales)
        band_path = bandpass_taps(band, FS).size - 1 + longest - 1 + SMOOTH_WIDTH
        low_path = bandpass_taps(LOW_BAND_HZ, FS).size - 1 + SMOOTH_WIDTH
        assert _map_reach(params) == max(band_path, low_path) == reach

    @settings(deadline=None, max_examples=100)
    @given(sparse_rows(), st.sampled_from(TARGET_BANDS))
    def test_matches_the_full_row(self, x, band):
        params = MorletParams.for_band(band, FS)
        assert same_bits(map_row(x, band, params), full_map_row(x, band, params))

    @pytest.mark.parametrize("band", TARGET_BANDS)
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_despiked_protocol_channels_match(self, default_config, band, index):
        signal, truth = g.build_realization(default_config, index)
        params = MorletParams.for_band(band, FS)
        for ch in range(signal.n_channels):
            x = g.separate(
                signal.data[ch], truth.channels[ch].burst_freq_hz, FS
            ).oscillatory
            assert np.count_nonzero(x) < x.size // 2
            assert same_bits(map_row(x, band, params), full_map_row(x, band, params))

    @pytest.mark.parametrize("band", TARGET_BANDS)
    def test_raw_row_matches(self, realization0, band):
        signal, _ = realization0
        params = MorletParams.for_band(band, FS)
        x = signal.data[0]
        assert same_bits(map_row(x, band, params), full_map_row(x, band, params))

    def test_zero_row_maps_to_zeros(self):
        params = MorletParams.for_band(BAND, FS)
        row = map_row(np.zeros(1500), BAND, params)
        assert same_bits(row, np.zeros(1500))
        assert same_bits(row, full_map_row(np.zeros(1500), BAND, params))

    def test_rejects_empty_input(self):
        params = MorletParams.for_band(BAND, FS)
        with pytest.raises(ValueError, match="non-empty 1-D"):
            map_row([], BAND, params)

    def test_rejects_2d_input(self):
        params = MorletParams.for_band(BAND, FS)
        x = np.zeros((2, 1000))
        x[1, 500] = 1.0
        with pytest.raises(ValueError, match="non-empty 1-D"):
            map_row(x, BAND, params)


class TestSpatioTemporalMap:
    def test_shape_and_metadata(self, realization0):
        signal, _ = realization0
        energy_map = spatiotemporal_map(signal, BAND)
        assert energy_map.values.shape == signal.data.shape
        assert energy_map.channel_labels == signal.channel_labels
        assert energy_map.band_hz == BAND
        assert energy_map.sample_rate_hz == FS

    def test_rows_match_map_row(self, realization0):
        signal, _ = realization0
        params = MorletParams.for_band(BAND, FS)
        energy_map = spatiotemporal_map(signal, BAND)
        np.testing.assert_array_equal(
            energy_map.values[1], map_row(signal.data[1], BAND, params)
        )

    def test_overflow_inside_a_zero_row_names_the_channel(self):
        data = np.zeros((3, 5000))
        data[1, 2500] = 1e308
        signal = g.MultiChannelSignal(
            sample_rate_hz=FS, channel_labels=("ch1", "ch2", "ch3"), data=data
        )
        with pytest.raises(ValueError, match="^ch2: band energy is not finite"):
            spatiotemporal_map(signal, BAND)

    def test_rejects_band_beyond_nyquist(self, realization0):
        signal, _ = realization0
        with pytest.raises(ValueError):
            spatiotemporal_map(signal, (80.0, 300.0))

    def test_container_rejects_negative_values(self):
        with pytest.raises(ValueError):
            SpatioTemporalMap(
                values=np.array([[-1.0, 0.0]]),
                band_hz=BAND,
                channel_labels=("a",),
                sample_rate_hz=FS,
            )

    def test_container_rejects_nan(self):
        with pytest.raises(ValueError):
            SpatioTemporalMap(
                values=np.array([[np.nan, 0.0]]),
                band_hz=BAND,
                channel_labels=("a",),
                sample_rate_hz=FS,
            )

    def test_despiked_clean_map_peaks_on_the_gamma_channel(self):
        config = g.SimConfig(snr_db=math.inf, n_realizations=2)
        signal, truth = g.build_realization(config, 0)
        rows = [
            g.separate(
                signal.data[ch], truth.channels[ch].burst_freq_hz, FS
            ).oscillatory
            for ch in range(3)
        ]
        despiked = g.MultiChannelSignal(
            sample_rate_hz=FS,
            channel_labels=signal.channel_labels,
            data=np.vstack(rows),
        )
        energy_map = spatiotemporal_map(despiked, BAND)
        ch, t = np.unravel_index(
            np.argmax(energy_map.values), energy_map.values.shape
        )
        burst = truth.channels[2].burst_window
        assert ch == 2
        assert burst.start_sample <= t < burst.end_sample


def alternating_map(n_channels=1, n=2000):
    """Rows of 0/1 alternation: median 1, MAD 1, threshold 7 at k=6."""
    base = np.tile([0.0, 1.0], n // 2)
    return np.vstack([base.copy() for _ in range(n_channels)])


def as_map(values):
    return SpatioTemporalMap(
        values=values,
        band_hz=BAND,
        channel_labels=tuple(f"ch{i + 1}" for i in range(values.shape[0])),
        sample_rate_hz=FS,
    )


class TestDetectBuildup:
    def test_zero_map_detects_nothing(self):
        detection = detect_buildup(as_map(np.zeros((3, 1000))))
        assert not detection.detected
        assert detection.channel_indices == frozenset()
        assert detection.onset_sample == -1
        assert detection.peak_energy == 0.0

    def test_constant_map_detects_nothing(self):
        # threshold is median + k * 0; the comparison is strict
        detection = detect_buildup(as_map(np.ones((2, 1000))))
        assert not detection.detected

    def test_sustained_run_sets_the_onset(self):
        values = alternating_map()
        values[0, 1200:1300] = 10.0
        detection = detect_buildup(as_map(values))
        assert detection.detected
        assert detection.onset_sample == 1200 + 63
        assert detection.channel_indices == frozenset({0})
        assert detection.peak_energy == 10.0

    def test_run_shorter_than_sixty_four_is_ignored(self):
        short = alternating_map()
        short[0, 1200:1263] = 10.0
        assert not detect_buildup(as_map(short)).detected
        long = alternating_map()
        long[0, 1200:1264] = 10.0
        assert detect_buildup(as_map(long)).detected

    def test_channels_collected_within_half_a_second(self):
        values = alternating_map(n_channels=3)
        values[0, 1200:1300] = 10.0  # drives the onset at 1263
        values[1, 1400] = 10.0  # inside [1263, 1263 + 256)
        values[2, 1600] = 10.0  # outside the window
        detection = detect_buildup(as_map(values))
        assert detection.onset_sample == 1263
        assert detection.channel_indices == frozenset({0, 1})

    def test_mostly_zero_map_does_not_fire_on_the_smoothing_tail(self):
        """MAD is zero here; the threshold must not collapse to zero."""
        step = np.zeros(3000)
        step[1000:1600] = 1.0
        values = np.zeros((3, 3000))
        values[2] = envelope_smooth(step, SMOOTH_WIDTH)
        first_nonzero = int(np.flatnonzero(values[2])[0])
        detection = detect_buildup(as_map(values))
        assert detection.detected
        assert detection.onset_sample != first_nonzero + RUN_LENGTH - 1
        # the smoothed step is detected at the step itself
        assert detection.onset_sample == 1000
        assert detection.channel_indices == frozenset({2})

    def test_higher_k_sigma_suppresses_the_detection(self):
        values = alternating_map()
        values[0, 1200:1300] = 10.0
        assert detect_buildup(as_map(values), k_sigma=6.0).detected
        assert not detect_buildup(as_map(values), k_sigma=12.0).detected

    def test_detection_invariant_to_input_scaling(self, realization0):
        signal, _ = realization0
        base = detect_buildup(spatiotemporal_map(signal, BAND))
        for c in (0.1, 10.0):
            scaled = g.MultiChannelSignal(
                sample_rate_hz=FS,
                channel_labels=signal.channel_labels,
                data=c * signal.data,
            )
            detection = detect_buildup(spatiotemporal_map(scaled, BAND))
            assert detection.channel_indices == base.channel_indices
            assert detection.onset_sample == base.onset_sample

    @pytest.mark.parametrize("n", [1000, 1001])
    @pytest.mark.parametrize("zeros", ["tenth", "half-1", "half", "half+1", "most"])
    def test_zero_count_shortcut_matches_the_median_path(self, n, zeros):
        """Below, at and above half exact zeros, on odd and even map sizes."""
        rng = np.random.default_rng(n)
        values = rng.uniform(0.5, 1.5, (3, n))
        # a ramp, kept clear of zeros, so the onset moves with the threshold
        values[1, n - 250 :] = np.minimum(0.5 + 0.1 * np.arange(250), 10.0)
        size = values.size
        count = {"tenth": size // 10, "half-1": size // 2 - 1, "half": size // 2,
                 "half+1": size // 2 + 1, "most": 9 * size // 10}[zeros]
        spots = np.setdiff1d(rng.permutation(size), np.arange(2 * n - 250, 2 * n),
                             assume_unique=True)
        values.flat[spots[:count]] = 0.0
        threshold, onset, channels, peak = median_buildup(values, 6.0, FS)
        if 2 * count == size:
            # the median of an even map at exactly half zeros is (0 + v) / 2
            assert np.median(values) > 0.0
            assert threshold != RAMP_FRACTION * peak
        detection = detect_buildup(as_map(values), k_sigma=6.0)
        assert detection.onset_sample == onset
        assert detection.channel_indices == channels
        assert detection.peak_energy == peak

    def test_empty_detection_reports_false(self):
        detection = BuildupDetection(
            channel_indices=frozenset(), onset_sample=-1, peak_energy=0.0
        )
        assert not detection.detected


def oracle_runs(above, run_length):
    return [first_sustained_run(row, run_length) for row in above]


@st.composite
def flag_matrices(draw):
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(0, 3 * RUN_LENGTH))
    # mostly-True rows, so runs near RUN_LENGTH are common
    density = draw(st.sampled_from([0.5, 0.9, 0.97, 0.99, 1.0]))
    uniform = draw(arrays(np.float64, (rows, n), elements=st.floats(0.0, 1.0)))
    return uniform < density


class TestFirstSustainedRuns:
    @settings(deadline=None, max_examples=300)
    @given(flag_matrices(), st.sampled_from([1, 2, 5, RUN_LENGTH]))
    def test_matches_the_plain_loop(self, above, run_length):
        got = _first_sustained_runs(above, run_length)
        assert got.tolist() == oracle_runs(above, run_length)

    @pytest.mark.parametrize(
        "first, last, expected",
        [
            (0, RUN_LENGTH, 0),  # exactly RUN_LENGTH, at the start
            (0, RUN_LENGTH - 1, -1),  # one sample short, at the start
            (200 - RUN_LENGTH, 200, 200 - RUN_LENGTH),  # exactly, at the end
            (201 - RUN_LENGTH, 200, -1),  # one short, at the end
            (50, 50 + RUN_LENGTH, 50),
            (50, 49 + RUN_LENGTH, -1),
            (0, 200, 0),
        ],
    )
    def test_run_edges(self, first, last, expected):
        above = np.zeros((2, 200), dtype=bool)
        above[1, first:last] = True
        assert _first_sustained_runs(above, RUN_LENGTH).tolist() == [-1, expected]
        assert oracle_runs(above, RUN_LENGTH) == [-1, expected]

    @pytest.mark.parametrize("n", [0, 1, RUN_LENGTH - 1])
    def test_rows_shorter_than_a_run_have_none(self, n):
        above = np.ones((3, n), dtype=bool)
        assert _first_sustained_runs(above, RUN_LENGTH).tolist() == [-1, -1, -1]

    def test_earliest_run_wins_over_a_longer_later_one(self):
        above = np.zeros((1, 400), dtype=bool)
        above[0, 10:10 + RUN_LENGTH - 1] = True
        above[0, 100:100 + RUN_LENGTH] = True
        above[0, 200:400] = True
        assert _first_sustained_runs(above, RUN_LENGTH).tolist() == [100]


def test_noise_only_maps_stay_flat(default_config):
    """Pure-noise maps never rise far above their own median level."""
    worst = 0.0
    for idx in range(default_config.n_realizations):
        rows = [
            g.gen_colored_noise(
                default_config.n_samples,
                default_config.noise_exponent,
                (default_config.rng_seed ^ idx) * 3 + ch,
            )
            for ch in range(3)
        ]
        noise_sig = g.MultiChannelSignal(
            sample_rate_hz=FS,
            channel_labels=("ch1", "ch2", "ch3"),
            data=np.vstack(rows),
        )
        values = spatiotemporal_map(noise_sig, BAND).values
        worst = max(worst, float(values.max() / np.median(values)))
    assert worst <= NOISE_MAP_MAX_OVER_MEDIAN, f"worst ratio {worst:.1f}"
