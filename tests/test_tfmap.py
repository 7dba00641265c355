"""Tests for the band energy maps and the build-up detector."""

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gammasep as g
from gammasep.tfmap import (
    CHANNEL_WINDOW_MS,
    K_SIGMA,
    LOW_BAND_HZ,
    MAX_BANDPASS_TAPS,
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
    _first_sustained_run,
    _median_and_mad,
    _row_supports,
)
from frozen import NOISE_MAP_MAX_OVER_MEDIAN
from oracles import (
    EDGE_STARTS,
    edge_recording,
    first_sustained_run,
    fresh_map_row,
    full_map_row,
    median_buildup,
    same_bits,
    shrinking_box_mean,
)

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

    @pytest.mark.parametrize("band", [(80.0, math.inf), (math.nan, 90.0), (80.0, math.nan)])
    def test_rejects_a_band_edge_that_is_not_finite_naming_the_band(self, band):
        with pytest.raises(ValueError, match=re.escape(f"got {band}")):
            scales_for_band(band, FS)


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
        with pytest.raises(ValueError, match="scales must be"):
            MorletParams(sample_rate_hz=FS, scales=(math.nan,))
        with pytest.raises(ValueError, match="scales must be"):
            MorletParams(sample_rate_hz=FS, scales=(2.0, math.inf))
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match="sample_rate_hz must be"):
                MorletParams(sample_rate_hz=rate, scales=(1.0,))


class TestMorletKernel:
    def test_center_value_is_inverse_dilation(self):
        kernel = morlet_kernel(5.0)
        center = kernel.size // 2
        assert kernel[center] == pytest.approx(1.0 / 5.0, abs=1e-12)

    def test_kernel_is_conjugate_symmetric(self):
        kernel = morlet_kernel(4.0)
        np.testing.assert_allclose(kernel, np.conj(kernel[::-1]), atol=1e-12)

    def test_real_and_imaginary_parts_are_near_orthogonal(self):
        kernel = morlet_kernel(6.0)
        re, im = kernel.real, kernel.imag
        cosang = abs(np.dot(re, im)) / (
            np.linalg.norm(re) * np.linalg.norm(im)
        )
        assert cosang <= 0.01

    def test_length_follows_the_envelope_floor(self):
        kernel = morlet_kernel(6.0)
        radius = int(math.floor(6.0 * math.sqrt(2.0 * math.log(1e6))))
        assert kernel.size == 2 * radius + 1

    def test_rejects_nonpositive_dilation(self):
        with pytest.raises(ValueError):
            morlet_kernel(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_dilation_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="dilation must be positive and finite"):
            morlet_kernel(bad)


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

    def test_one_kernel_call_for_every_scale(self, monkeypatch):
        calls = []
        real = g.tfmap.centered_conv_complex
        monkeypatch.setattr(
            g.tfmap, "centered_conv_complex",
            lambda x, taps: calls.append(np.shape(taps)) or real(x, taps),
        )
        params = MorletParams.for_band(BAND, FS)
        morlet_transform(np.ones(300), params)
        longest = max(morlet_kernel(a).size for a in params.scales)
        assert calls == [(11, longest)]

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
        # a ValueError from the check, not a TypeError from the cache's hash
        nan = math.nan
        for band in [(90.0, 80.0), (80.0, 300.0), (nan, 90.0), (80.0, nan), [90, 80]]:
            with pytest.raises(ValueError, match="band_hz must satisfy"):
                bandpass_taps(band, FS)

    @pytest.mark.parametrize("bad_rate", [math.inf, math.nan])
    def test_rejects_a_rate_that_is_not_finite(self, bad_rate):
        x = sine(85.0, n=512)
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            bandpass_taps(BAND, bad_rate)
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            bandpass(x, BAND, bad_rate)

    def test_rejects_a_rate_whose_tap_count_overflows(self):
        with pytest.raises(ValueError, match="overflows the band-pass tap count"):
            bandpass_taps(BAND, 1e308)

    def test_refuses_a_rate_above_the_tap_ceiling_before_allocating(self):
        # 1e10 Hz would ask for 6,600,000,001 taps, tens of GB
        bandpass_taps(BAND, FS)  # a first call may import or cache
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="sample_rate_hz 10000000000.0 needs"):
                bandpass_taps(BAND, 1e10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_the_tap_ceiling_admits_its_own_count(self):
        # the highest rate below the ceiling; its taps are not built here
        rate = (MAX_BANDPASS_TAPS - 1) * 5.0 / 3.3
        assert g.tfmap._bandpass_length(rate) <= MAX_BANDPASS_TAPS
        with pytest.raises(ValueError, match="more than the"):
            g.tfmap._bandpass_length(rate * 1.01)


class TestFilterCache:
    """The band-pass taps and the Morlet bank are built once per band."""

    def test_two_maps_of_one_band_build_one_bank(self, realization0, monkeypatch):
        signal, _ = realization0
        built = []
        monkeypatch.setattr(
            g.tfmap, "morlet_kernel", lambda a: built.append(a) or morlet_kernel(a)
        )
        g.tfmap._morlet_bank.cache_clear()
        g.tfmap._bandpass_taps.cache_clear()
        first = spatiotemporal_map(signal, BAND)
        second = spatiotemporal_map(signal, BAND)
        # rebuilt per row, 2 maps x 3 rows x 11 scales would be 66 kernels
        assert built == list(MorletParams.for_band(BAND, FS).scales)
        assert g.tfmap._bandpass_taps.cache_info().misses == 2
        assert same_bits(first.values, second.values)

    def test_taps_and_bank_are_read_only(self):
        taps = bandpass_taps(BAND, FS)
        bank = g.tfmap._morlet_bank(MorletParams.for_band(BAND, FS).scales)
        with pytest.raises(ValueError):
            taps[0] = 1.0
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0

    def test_integer_band_and_rate_give_the_float_taps(self):
        g.tfmap._bandpass_taps.cache_clear()
        taps = bandpass_taps([80, 90], 512)
        assert same_bits(taps, bandpass_taps((80.0, 90.0), 512.0))
        assert same_bits(taps, g.tfmap._bandpass_taps.__wrapped__(80, 90, 512))


class TestEnvelopeSmooth:
    def test_constant_signal_unchanged(self):
        np.testing.assert_allclose(envelope_smooth(np.full(300, 2.5)), 2.5, atol=1e-12)

    def test_impulse_becomes_a_plateau(self):
        x = np.zeros(1000)
        x[500] = 1.0
        y = envelope_smooth(x)
        plateau = y[y > 0]
        assert plateau.size == SMOOTH_WIDTH
        np.testing.assert_allclose(plateau, 1.0 / SMOOTH_WIDTH, atol=1e-12)

    def test_boundary_window_shrinks(self):
        x = np.arange(1000.0)
        y = envelope_smooth(x)
        half = SMOOTH_WIDTH // 2
        # at i=0 the window is [0, half - 1] (left part clipped away)
        assert y[0] == pytest.approx(np.mean(x[:half]))
        # at i=500 the window is [500 - half, 500 + half - 1]
        assert y[500] == pytest.approx(np.mean(x[500 - half : 500 + half]))
        # at the last sample the right part is clipped away
        assert y[-1] == pytest.approx(np.mean(x[-half - 1 :]))

    def test_every_length_to_three_widths_is_the_cumulative_sum_rule(self, rng):
        # below one width both sides clip, and up to three widths one side
        # clips or neither does
        x = rng.standard_normal(3 * SMOOTH_WIDTH)
        for n in range(3 * SMOOTH_WIDTH + 1):
            want = shrinking_box_mean(x[:n], SMOOTH_WIDTH)
            assert same_bits(envelope_smooth(x[:n]), want)

    @settings(deadline=None, max_examples=300)
    @given(
        x=st.integers(1, 3 * SMOOTH_WIDTH).flatmap(
            lambda n: arrays(np.float64, n, elements=st.one_of(
                st.sampled_from([0.0, -0.0]),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            ))
        ),
    )
    def test_equals_the_gathered_cumulative_sum_rule(self, x):
        assert same_bits(envelope_smooth(x), shrinking_box_mean(x, SMOOTH_WIDTH))


class TestNormalizeByLowBand:
    def test_low_band_tone_normalizes_to_about_one(self):
        x = sine(12.0, n=4096)
        low = bandpass(x, (10.0, 15.0), FS)
        band_energy = envelope_smooth(low * low)
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

    def test_rejects_an_infinite_rate(self):
        x = sine(12.0, n=1024)
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            normalize_by_low_band(x * x, x, math.inf)

    def test_ratio_bounded_where_the_low_band_dies_away(self, realization0):
        """A despiked channel keeps no 10-15 Hz energy away from its burst;
        the ratio there must stay under the floor's bound."""
        signal, truth = realization0
        x = g.separate(
            signal.data[1], truth.channels[1].burst_freq_hz, FS
        ).oscillatory
        low = bandpass(x, LOW_BAND_HZ, FS)
        low_energy = envelope_smooth(low * low)
        band = bandpass(x, BAND, FS)
        band_energy = envelope_smooth(band * band)
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

    def test_refuses_params_of_another_band_naming_both(self):
        params = MorletParams.for_band((20.0, 30.0), FS)
        message = "params must be MorletParams.for_band(band_hz, 512.0) for band_hz (80.0, 90.0)"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            map_row(sine(85.0, 600), BAND, params)

    def test_refuses_params_of_another_rate_naming_both(self):
        # the scales of the band at 512 Hz, under a 1024 Hz rate
        params = MorletParams(2.0 * FS, MorletParams.for_band(BAND, FS).scales)
        message = "params must be MorletParams.for_band(band_hz, 1024.0) for band_hz (80.0, 90.0)"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            map_row(sine(85.0, 600), BAND, params)

    def test_accepts_the_band_as_a_list_and_the_rate_as_an_integer(self):
        x = sine(85.0, 600)
        want = map_row(x, BAND, MorletParams.for_band(BAND, FS))
        got = map_row(x, list(BAND), MorletParams.for_band(BAND, 512))
        assert same_bits(got, want)


TARGET_BANDS = [(40.0, 50.0), (50.0, 60.0), (80.0, 90.0)]


# farther than any stage of the map chain reaches from a non-zero sample at
# 512 Hz in TARGET_BANDS (the summed spans, 722 for 40-50 Hz), on both sides
FAR_APART = 2 * 722 + 1


@st.composite
def stretch(draw, n):
    """(start, length) of a stretch in a row of n samples.

    Often the whole row (a dense row, as a raw channel is), a single
    sample, or within one filter span of either edge.
    """
    length = draw(st.one_of(st.just(n), st.just(1), st.integers(1, n)))
    room = n - length
    near = st.integers(0, min(room, 722))
    start = draw(
        st.one_of(
            st.just(0),
            st.just(room),
            near,
            near.map(lambda gap: room - gap),
            st.integers(0, room),
        )
    )
    return start, length


@st.composite
def sparse_rows(draw, max_n=8000):
    """Zero rows with one or two random-normal stretches.

    Rows run from one sample, shorter than the band-pass's taps, to max_n.
    A second stretch sits anywhere, or FAR_APART past the first.
    """
    n = draw(st.one_of(st.integers(1, 338), st.integers(339, max_n)))
    stretches = [draw(stretch(n))]
    if draw(st.booleans()):
        start, length = stretches[0]
        after = start + length + FAR_APART
        if draw(st.booleans()) and after < n:
            stretches.append(draw(stretch(n - after)))
            stretches[-1] = (after + stretches[-1][0], stretches[-1][1])
        else:
            stretches.append(draw(stretch(n)))
    amplitude = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.zeros(n)
    for start, length in stretches:
        x[start:start + length] = amplitude * rng.standard_normal(length)
    return x


class TestSupportLocalRow:
    """map_row filters only near the non-zero support, bit for bit."""

    @settings(deadline=None, max_examples=100)
    @given(sparse_rows(), st.sampled_from(TARGET_BANDS))
    def test_matches_the_full_row(self, x, band):
        params = MorletParams.for_band(band, FS)
        assert same_bits(map_row(x, band, params), full_map_row(x, band, params))

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(3000, 6000),
        st.integers(2, 300),
        st.sampled_from(["noise", "low tone", "constant"]),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_row_when_the_band_pass_outreaches_the_rest(
        self, n, length, kind, where, seed
    ):
        """At 4096 Hz half the band-pass (1352 samples) is longer than the
        longest 80-90 Hz kernel's radius plus the smoother's span (512), so
        the low band-pass's own input range sets the normalization's. Short
        stretches keep the low-band energy there above the divisor floor."""
        fs = 8 * FS
        start = int(where * (n - length))
        t = np.arange(length)
        stretch = {
            "noise": np.random.default_rng(seed).standard_normal(length),
            "low tone": np.cos(2.0 * np.pi * 12.5 * t / fs),
            "constant": np.ones(length),
        }[kind]
        x = np.zeros(n)
        x[start:start + length] = stretch
        params = MorletParams.for_band(BAND, fs)
        assert same_bits(map_row(x, BAND, params), full_map_row(x, BAND, params))

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
        with pytest.raises(ValueError, match="^x must not be empty"):
            map_row([], BAND, params)

    def test_rejects_2d_input(self):
        params = MorletParams.for_band(BAND, FS)
        x = np.zeros((2, 1000))
        x[1, 500] = 1.0
        with pytest.raises(ValueError, match="^x must be 1-D"):
            map_row(x, BAND, params)

    def test_rejects_complex_input_naming_it(self):
        params = MorletParams.for_band(BAND, FS)
        x = np.zeros(1000, dtype=complex)
        x[500] = 1.0 + 1.0j
        with pytest.raises(ValueError, match="^x must be real, got a complex"):
            map_row(x, BAND, params)

    @pytest.mark.parametrize("start", EDGE_STARTS)
    @pytest.mark.parametrize(
        "freq, band", [(45.0, (40.0, 50.0)), (55.0, (50.0, 60.0)), (85.0, BAND)]
    )
    def test_matches_the_full_row_near_a_recording_edge(self, freq, band, start):
        """ROADMAP item 8's recordings: a burst at either end, raw and
        despiked. A despiked burst near sample 0 wraps to the far end (see
        test_despike's TestRecordingEdges), and its crop is the whole row."""
        x = edge_recording(freq, start)
        params = MorletParams.for_band(band, FS)
        despiked = g.separate(x, freq, FS).oscillatory
        for row in (x, despiked):
            assert same_bits(map_row(row, band, params), full_map_row(row, band, params))


ORACLE_BANDS = [(80.0, 90.0), (40.0, 50.0), (10.0, 15.0), (1.0, 5.0)]


@settings(deadline=None, max_examples=30)
@given(
    sparse_rows(max_n=4000),
    st.lists(st.sampled_from(ORACLE_BANDS), min_size=2, max_size=6),
    st.booleans(),
)
def test_map_row_matches_filters_built_afresh(x, bands, cold):
    # bands drawn with repeats after an optional clear: misses and hits
    if cold:
        g.tfmap._bandpass_taps.cache_clear()
        g.tfmap._morlet_bank.cache_clear()
    for band in bands:
        params = MorletParams.for_band(band, FS)
        assert same_bits(map_row(x, band, params), fresh_map_row(x, band, params))


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

    def test_rejects_a_signal_with_no_channel(self):
        signal = g.MultiChannelSignal(
            sample_rate_hz=FS, channel_labels=(), data=np.zeros((0, 5000))
        )
        with pytest.raises(ValueError, match="no channel"):
            spatiotemporal_map(signal, BAND)

    @pytest.mark.parametrize("shape", [(0, 100), (3, 0), (0, 0)])
    def test_container_rejects_empty_values(self, shape):
        with pytest.raises(ValueError, match=rf"empty, got shape \({shape[0]}, {shape[1]}\)"):
            SpatioTemporalMap(
                values=np.zeros(shape),
                band_hz=BAND,
                channel_labels=tuple(f"ch{i}" for i in range(shape[0])),
                sample_rate_hz=FS,
            )

    def test_rejects_band_beyond_nyquist(self, realization0):
        signal, _ = realization0
        with pytest.raises(ValueError):
            spatiotemporal_map(signal, (80.0, 300.0))

    def test_container_freezes_a_view_not_the_callers_array(self):
        values = np.ones((2, 8))
        energy_map = SpatioTemporalMap(
            values=values, band_hz=(80, 90), channel_labels=("a", "b"), sample_rate_hz=512
        )
        assert values.flags.writeable
        assert energy_map.values is not values
        assert np.shares_memory(energy_map.values, values)
        assert not energy_map.values.flags.writeable
        with pytest.raises(ValueError):
            energy_map.values[0, 0] = 2.0
        assert type(energy_map.sample_rate_hz) is float
        assert energy_map.band_hz == (80.0, 90.0)

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

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -512.0])
    def test_container_rejects_a_rate_that_is_not_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            SpatioTemporalMap(
                values=np.ones((1, 8)),
                band_hz=BAND,
                channel_labels=("a",),
                sample_rate_hz=rate,
            )

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_container_rejects_values_not_finite_and_non_negative(self, bad):
        values = np.ones((2, 5))
        values[1, 3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            SpatioTemporalMap(
                values=values, band_hz=BAND, channel_labels=("a", "b"), sample_rate_hz=FS
            )

    def test_container_accepts_negative_zero(self):
        energy_map = SpatioTemporalMap(
            values=np.array([[-0.0, 1.0]]),
            band_hz=BAND,
            channel_labels=("a",),
            sample_rate_hz=FS,
        )
        assert math.copysign(1.0, energy_map.values[0, 0]) == -1.0

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


_MAP_DIGEST_SCRIPT = """
import hashlib
import gammasep as g
digest = hashlib.sha256()
for n in (5000, 30720):
    signal, _ = g.build_realization(g.SimConfig(n_samples=n), 0)
    for band in ((80.0, 90.0), (40.0, 50.0), (10.0, 15.0)):
        digest.update(g.spatiotemporal_map(signal, band).values.tobytes())
signal, _ = g.build_realization(g.SimConfig(rng_seed=3, n_samples=30720), 0)
digest.update(g.spatiotemporal_map(signal, (1.0, 5.0)).values.tobytes())
print(digest.hexdigest())
"""


def test_map_bytes_do_not_depend_on_the_blas_thread_count():
    # the Morlet bank is one BLAS product per block of windows; OpenBLAS
    # sizes its thread pool at import, so each count gets its own process.
    # The 10-15 Hz bank (515 taps) is summed over 256-tap slices and the
    # gamma banks (65 and 129 taps) are not, so all three bands are hashed.
    # Unsliced, the 5141-tap 1-5 Hz bank on 30720 samples gave other bytes
    # on two threads than on one.
    package_root = os.path.dirname(os.path.dirname(g.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-c", _MAP_DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(done.stdout)
    assert len(digests) == 1


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


@st.composite
def supported_maps(draw):
    """Maps whose rows are zero outside one stretch each.

    The zeros outside the stretches number anything, or half the map or
    one either side of it; a row can be all zeros or dense, and a stretch
    can touch either edge. Inside, the values are positive, on a scale of
    their own per row (within a factor of 10), sometimes with exact zeros
    between the ends, and shaped so that runs of RUN_LENGTH over the
    threshold are common but not certain.
    """
    rows = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(1, 700), st.integers(4 * RUN_LENGTH, 700)))
    size = rows * n
    near_half = [size // 2 - 1, size // 2, (size + 1) // 2, (size + 1) // 2 + 1]
    zeros = draw(
        st.one_of(
            st.integers(0, size),
            st.integers(size // 2, size),
            st.sampled_from(near_half),
        )
    )
    total = size - min(max(zeros, 0), size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros((rows, n))
    order = rng.permutation(rows)
    for i, r in enumerate(order):
        # leave no more than the rows still to fill can hold
        length = int(rng.integers(max(0, total - n * (rows - 1 - i)), min(n, total) + 1))
        total -= length
        if length == 0:
            continue
        start = int(rng.choice([0, n - length, rng.integers(0, n - length + 1)]))
        if rng.random() < 0.5:
            stretch = rng.uniform(0.05, 1.0, length) ** rng.choice([0.25, 1.0, 4.0])
        else:
            stretch = np.minimum(np.arange(1.0, length + 1.0), rng.integers(1, 200))
        if length > 2 and rng.random() < 0.3:
            stretch[1:-1][rng.random(length - 2) < 0.3] = 0.0
        values[r, start:start + length] = stretch * 10.0 ** rng.uniform(-1.0, 1.0)
    return values


# values where a median or a mean of two can go wrong: signed zeros,
# subnormals, and pairs whose sum overflows
_AWKWARD_VALUES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0,
                   -1.0, 1e308, 1.7976931348623157e308, -1e308]


@st.composite
def awkward_maps(draw):
    """Odd and even sizes, often repeating a value from _AWKWARD_VALUES.

    Some maps hold only signed zeros and ones: which zero lands in the
    middle depends on where the partition puts each equal value.
    """
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 30)))
    elements = draw(st.sampled_from([
        st.one_of(
            st.sampled_from(_AWKWARD_VALUES),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    ]))
    return draw(arrays(np.float64, shape, elements=elements))


_RAW_DETECTION_SCRIPT = """
import sys
import numpy as np
import gammasep as g
signal, _ = g.build_realization(g.SimConfig(rng_seed=1), 0)
energy_map = g.spatiotemporal_map(signal, (80.0, 90.0))
g.detect_buildup(energy_map)
values = energy_map.values
print("median-path" if 2 * np.count_nonzero(values) >= values.size else "zero-path")
print("numpy.ma" if "numpy.ma" in sys.modules else "no-numpy.ma")
"""


class TestDetectBuildup:
    @settings(deadline=None, max_examples=300)
    @given(supported_maps())
    def test_support_path_matches_the_median_oracle(self, values):
        spans = [np.flatnonzero(row) for row in values]
        first, stop, nonzero = _row_supports(values)
        assert [(f, s) for f, s, span in zip(first, stop, spans) if span.size] == [
            (span[0], span[-1] + 1) for span in spans if span.size
        ]
        assert all(f == s for f, s, span in zip(first, stop, spans) if not span.size)
        assert nonzero == sum(span.size for span in spans)
        detection = detect_buildup(as_map(values))
        _, onset, channels, peak = median_buildup(values, K_SIGMA, FS)
        assert detection.onset_sample == onset
        assert detection.channel_indices == channels
        assert detection.peak_energy == peak

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
        values[2] = envelope_smooth(step)
        first_nonzero = int(np.flatnonzero(values[2])[0])
        detection = detect_buildup(as_map(values))
        assert detection.detected
        assert detection.onset_sample != first_nonzero + RUN_LENGTH - 1
        # the smoothed step is detected at the step itself
        assert detection.onset_sample == 1000
        assert detection.channel_indices == frozenset({2})

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
        detection = detect_buildup(as_map(values))
        assert detection.onset_sample == onset
        assert detection.channel_indices == channels
        assert detection.peak_energy == peak

    def test_channel_window_holds_at_least_the_onset(self):
        """At 1 Hz, 500 ms rounds to no sample; the window keeps the onset's."""
        values = np.zeros((2, 400))
        values[0, 100:200] = 5.0
        energy_map = SpatioTemporalMap(
            values=values, band_hz=(0.1, 0.4), channel_labels=("a", "b"), sample_rate_hz=1.0
        )
        detection = detect_buildup(energy_map)
        assert detection.onset_sample == 163
        assert detection.channel_indices == frozenset({0})
        assert detection.detected

    @pytest.mark.parametrize("kind", ["mostly_zero", "dense"])
    @pytest.mark.parametrize("offset, inside", [(-1, True), (0, False), (50, False)])
    def test_channel_window_edges(self, kind, offset, inside):
        """A second row whose support starts at onset + horizon + offset.

        Its support is longer than the window, so a window start read from
        the row's end, or a negative window end read from its start, both
        change the set.
        """
        horizon = round(CHANNEL_WINDOW_MS * FS / 1000.0)
        values = np.zeros((3, 3000))
        if kind == "dense":
            values[[0, 2]] = np.random.default_rng(3).uniform(0.5, 1.5, (2, 3000))
        values[0, 1200:1300] = 10.0  # drives the onset at 1263
        start = 1263 + horizon + offset
        values[1, start : start + 2 * horizon] = 10.0
        assert (2 * np.count_nonzero(values) < values.size) == (kind == "mostly_zero")
        detection = detect_buildup(as_map(values))
        assert detection.onset_sample == 1263
        assert detection.channel_indices == (frozenset({0, 1}) if inside else frozenset({0}))
        _, onset, channels, _ = median_buildup(values, K_SIGMA, FS)
        assert (detection.onset_sample, detection.channel_indices) == (onset, channels)

    @settings(deadline=None, max_examples=300)
    @given(awkward_maps())
    def test_median_and_mad_have_np_median_bits(self, values):
        with np.errstate(over="ignore"):
            want_med = np.median(values)
            want_mad = np.median(np.abs(values - want_med))
            med, mad = _median_and_mad(values)
        assert same_bits(np.float64(med), want_med)
        assert same_bits(np.float64(mad), want_mad)

    def test_raw_map_and_detection_import_no_numpy_ma(self):
        # np.median's NaN check imports numpy.ma; a map is finite already
        package_root = os.path.dirname(os.path.dirname(g.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _RAW_DETECTION_SCRIPT],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.split() == ["median-path", "no-numpy.ma"]

    def test_empty_detection_reports_false(self):
        detection = BuildupDetection(
            channel_indices=frozenset(), onset_sample=-1, peak_energy=0.0
        )
        assert not detection.detected


@st.composite
def flag_rows(draw):
    n = draw(st.integers(0, 3 * RUN_LENGTH))
    # mostly-True rows, so runs near RUN_LENGTH are common
    density = draw(st.sampled_from([0.5, 0.9, 0.97, 0.99, 1.0]))
    uniform = draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    return uniform < density


class TestFirstSustainedRuns:
    @settings(deadline=None, max_examples=300)
    @given(flag_rows(), st.sampled_from([1, 2, 5, RUN_LENGTH]))
    def test_matches_the_plain_loop(self, above, run_length):
        got = _first_sustained_run(above, run_length)
        assert got == first_sustained_run(above, run_length)

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
        above = np.zeros(200, dtype=bool)
        assert _first_sustained_run(above, RUN_LENGTH) == -1
        above[first:last] = True
        assert _first_sustained_run(above, RUN_LENGTH) == expected
        assert first_sustained_run(above, RUN_LENGTH) == expected

    @pytest.mark.parametrize("n", [0, 1, RUN_LENGTH - 1])
    def test_rows_shorter_than_a_run_have_none(self, n):
        assert _first_sustained_run(np.ones(n, dtype=bool), RUN_LENGTH) == -1

    def test_earliest_run_wins_over_a_longer_later_one(self):
        above = np.zeros(400, dtype=bool)
        above[10:10 + RUN_LENGTH - 1] = True
        above[100:100 + RUN_LENGTH] = True
        above[200:400] = True
        assert _first_sustained_run(above, RUN_LENGTH) == 100


def test_noise_only_maps_stay_flat(default_config):
    """Pure-noise maps never rise far above their own median level."""
    worst = 0.0
    for idx in range(default_config.n_realizations):
        rows = [
            g.gen_colored_noise(
                default_config.n_samples, (default_config.rng_seed ^ idx) * 3 + ch
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
