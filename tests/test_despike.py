"""Tests for the rectangular-mask oscillation/transient separation."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gammasep as g
from gammasep.despike import (
    NoDetectionError,
    RectMask,
    analysis_advance,
    build_mask,
    detect_oscillation_center,
    mask_geometry,
    mask_scales,
    separate,
    threshold_coeffs,
)
from gammasep.signal_core import TimeWindow, oscillation_duration_ms
from gammasep.swt import swt_decompose, wavelet_filters
from frozen import RESEPARATION_ENERGY_FRACTION
from oracles import full_separate, pearson, placed_burst, same_bits

FS = 512.0


def placed(template, start, n=5000):
    out = np.zeros(n)
    out[start : start + template.size] = template
    return out


def standard_burst(freq):
    return g.gen_gamma_burst(
        freq, oscillation_duration_ms(freq), 50.0, FS
    )


class TestMaskGeometry:
    def test_fixed_table(self):
        assert mask_geometry(45.0) == (200.0, 3)
        assert mask_geometry(55.0) == (180.0, 2)
        assert mask_geometry(85.0) == (150.0, 2)

    def test_fallback_is_nine_cycles_two_scales(self):
        duration, n_scales = mask_geometry(60.0)
        assert duration == pytest.approx(150.0)
        assert n_scales == 2

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            mask_geometry(-45.0)


class TestMaskScales:
    def test_scale_sets_at_512(self):
        assert mask_scales(45.0, FS) == frozenset({1, 2, 3})
        assert mask_scales(55.0, FS) == frozenset({2, 3})
        assert mask_scales(85.0, FS) == frozenset({1, 2})

    def test_clips_below_at_level_one(self):
        # 45 Hz at a low rate would want levels below 1; the set must not
        scales = mask_scales(45.0, 128.0)
        assert min(scales) >= 1


class TestRectMask:
    def test_freezes_scales(self):
        mask = RectMask(TimeWindow(0, 10), {2, 3})
        assert mask.scales == frozenset({2, 3})

    def test_rejects_empty_scales(self):
        with pytest.raises(ValueError):
            RectMask(TimeWindow(0, 10), set())

    def test_rejects_scales_below_one(self):
        with pytest.raises(ValueError):
            RectMask(TimeWindow(0, 10), {0, 1})


class TestBuildMask:
    def test_centered_window(self):
        mask = build_mask(2500, 45.0, FS, 5000)
        assert mask.window.start_sample == 2500 - 102 // 2
        assert mask.window.length_samples == 102
        assert mask.scales == frozenset({1, 2, 3})

    def test_clamps_at_the_left_edge(self):
        mask = build_mask(3, 45.0, FS, 5000)
        assert mask.window.start_sample == 0

    def test_clamps_at_the_right_edge(self):
        mask = build_mask(4999, 45.0, FS, 5000)
        assert mask.window.end_sample == 5000

    def test_window_never_exceeds_the_signal(self):
        mask = build_mask(30, 45.0, FS, 60)
        assert mask.window.length_samples == 60


class TestAnalysisAdvance:
    def test_level_one_half_filter(self):
        assert analysis_advance(8, 1) == 3

    def test_grows_with_depth(self):
        assert analysis_advance(8, 2) == 10
        assert analysis_advance(8, 3) == 24

    def test_single_tap_never_advances(self):
        for level in (1, 2, 5):
            assert analysis_advance(1, level) == 0


class TestDetection:
    @pytest.mark.parametrize("freq,tol", [(45.0, 10), (55.0, 10), (85.0, 10)])
    def test_pure_burst_center_within_ten_samples(self, freq, tol):
        burst = standard_burst(freq)
        start = 2500 - burst.size // 2
        result = separate(placed(burst, start), freq, FS)
        true_center = start + burst.size // 2
        assert abs(result.detection_center_sample - true_center) <= tol

    def test_all_zero_input_raises(self, db4):
        coeffs = swt_decompose(np.zeros(512), db4, 5)
        with pytest.raises(NoDetectionError):
            detect_oscillation_center(coeffs, 45.0, FS)

    def test_overflowing_energy_raises_value_error(self, db4):
        x = np.zeros(512)
        x[200] = 1e308
        coeffs = swt_decompose(x, db4, 5)
        with pytest.raises(ValueError, match="not finite"):
            detect_oscillation_center(coeffs, 45.0, FS)

    def test_separate_propagates_no_detection(self):
        with pytest.raises(NoDetectionError):
            separate(np.zeros(512), 45.0, FS)

    def test_tie_breaks_to_the_earliest_burst(self):
        burst = standard_burst(45.0)
        x = placed(burst, 1000) + placed(burst, 3000)
        result = separate(x, 45.0, FS)
        first_center = 1000 + burst.size // 2
        assert abs(result.detection_center_sample - first_center) <= 10

    def test_too_shallow_decomposition_rejected(self, db4):
        coeffs = swt_decompose(np.ones(512), db4, 2)
        with pytest.raises(ValueError, match="levels"):
            detect_oscillation_center(coeffs, 45.0, FS)  # needs level 3


class TestThresholdCoeffs:
    def test_parts_sum_back_to_the_input_coefficients(self, db4, rng):
        coeffs = swt_decompose(rng.standard_normal(256), db4, 5)
        mask = RectMask(TimeWindow(100, 50), {1, 2})
        osc, trans = threshold_coeffs(coeffs, mask)
        for level in range(5):
            np.testing.assert_array_equal(
                osc.details[level] + trans.details[level], coeffs.details[level]
            )
            np.testing.assert_array_equal(
                osc.approximations[level] + trans.approximations[level],
                coeffs.approximations[level],
            )

    def test_shallower_approximations_go_whole_to_the_transient(self, db4, rng):
        coeffs = swt_decompose(rng.standard_normal(256), db4, 5)
        mask = RectMask(TimeWindow(100, 50), {1, 2})
        osc, trans = threshold_coeffs(coeffs, mask)
        for level in range(4):
            assert same_bits(trans.approximations[level], coeffs.approximations[level])
            assert same_bits(osc.approximations[level], np.zeros(256))
        assert np.all(trans.approximations[4][100:150] == 0.0)

    def test_full_mask_is_the_identity(self, db4, rng):
        x = rng.standard_normal(256)
        coeffs = swt_decompose(x, db4, 5)
        mask = RectMask(TimeWindow(0, 256), {1, 2, 3, 4, 5})
        osc, trans = threshold_coeffs(coeffs, mask)
        for level in range(5):
            np.testing.assert_array_equal(osc.details[level], coeffs.details[level])
            assert np.all(trans.details[level] == 0.0)
        back = g.iswt_reconstruct(osc, db4)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_excluded_scales_carry_nothing(self, db4, rng):
        coeffs = swt_decompose(rng.standard_normal(256), db4, 5)
        mask = RectMask(TimeWindow(64, 64), {2, 3})
        osc, _ = threshold_coeffs(coeffs, mask)
        assert np.all(osc.details[0] == 0.0)
        assert np.all(osc.details[3] == 0.0)
        assert np.all(osc.details[4] == 0.0)

    def test_kept_coefficients_grow_with_the_window(self, db4, rng):
        coeffs = swt_decompose(rng.standard_normal(256), db4, 5)
        small = RectMask(TimeWindow(100, 40), {1, 2})
        large = RectMask(TimeWindow(80, 120), {1, 2, 3})
        osc_small, _ = threshold_coeffs(coeffs, small)
        osc_large, _ = threshold_coeffs(coeffs, large)
        for level in range(5):
            assert np.all(
                np.abs(osc_small.details[level]) <= np.abs(osc_large.details[level])
            )

    def test_mask_outside_signal_rejected(self, db4, rng):
        coeffs = swt_decompose(rng.standard_normal(128), db4, 3)
        mask = RectMask(TimeWindow(100, 40), {1, 2})
        with pytest.raises(ValueError):
            threshold_coeffs(coeffs, mask)

    def test_mask_deeper_than_coeffs_rejected(self, db4, rng):
        coeffs = swt_decompose(rng.standard_normal(128), db4, 2)
        mask = RectMask(TimeWindow(0, 64), {2, 3})
        with pytest.raises(ValueError):
            threshold_coeffs(coeffs, mask)


class TestSeparate:
    def test_additive_split_on_noisy_data(self, realization0):
        signal, truth = realization0
        for ch, ct in enumerate(truth.channels):
            result = separate(signal.data[ch], ct.burst_freq_hz, FS)
            recombined = result.oscillatory + result.transient
            assert np.max(np.abs(recombined - signal.data[ch])) < 1e-9

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(64, 4096),
        seed=st.integers(0, 2**32 - 1),
        decade=st.integers(-6, 6),
        freq=st.sampled_from([45.0, 55.0, 85.0]),
    )
    def test_parts_sum_to_any_input(self, n, seed, decade, freq):
        x = np.random.default_rng(seed).standard_normal(n) * 10.0**decade
        result = separate(x, freq, FS)
        recombined = result.oscillatory + result.transient
        assert np.max(np.abs(recombined - x)) <= 1e-9 * np.max(np.abs(x))
        window = result.mask_used.window
        assert 0 <= window.start_sample < window.end_sample <= n

    def test_clean_separated_channel_recovers_the_burst(self):
        config = g.SimConfig(snr_db=math.inf, n_realizations=2)
        signal, truth = g.build_realization(config, 0)
        ct = truth.channels[0]  # separated regime, 45 Hz
        result = separate(signal.data[0], ct.burst_freq_hz, FS)
        assert pearson(result.oscillatory, placed_burst(ct, config)) >= 0.95
        # the distant spike must not leak into the oscillatory branch
        tw = ct.transient_window
        spike_energy = np.sum(signal.data[0][tw.start_sample : tw.end_sample] ** 2)
        leaked = np.sum(result.oscillatory[tw.start_sample : tw.end_sample] ** 2)
        assert leaked <= 0.05 * spike_energy

    @pytest.mark.parametrize("freq", [45.0, 85.0])
    def test_pure_tapered_pulse_stays_oscillatory(self, freq):
        burst = standard_burst(freq)
        x = placed(burst, 2500 - burst.size // 2)
        result = separate(x, freq, FS)
        assert np.sum(result.transient**2) <= 0.05 * np.sum(x**2)

    def test_shift_equivariance_away_from_edges(self):
        burst = standard_burst(45.0)
        x = placed(burst, 2449)
        base = separate(x, 45.0, FS)
        shifted = separate(np.roll(x, 37), 45.0, FS)
        assert np.array_equal(shifted.oscillatory, np.roll(base.oscillatory, 37))
        assert np.array_equal(shifted.transient, np.roll(base.transient, 37))
        assert (
            shifted.detection_center_sample
            == base.detection_center_sample + 37
        )

    def test_reseparation_changes_little_energy(self):
        burst = standard_burst(45.0)
        x = placed(burst, 2449)
        once = separate(x, 45.0, FS)
        twice = separate(once.oscillatory, 45.0, FS)
        change = np.sum((twice.oscillatory - once.oscillatory) ** 2)
        assert change / np.sum(once.oscillatory**2) <= (
            RESEPARATION_ENERGY_FRACTION
        )

    def test_mask_used_matches_the_report(self, realization0):
        signal, truth = realization0
        result = separate(signal.data[0], 45.0, FS)
        rebuilt = build_mask(
            result.detection_center_sample, 45.0, FS, signal.n_samples
        )
        assert result.mask_used == rebuilt


FAMILIES = ("haar",) + tuple(f"db{p}" for p in range(1, 9))
FILTERS = {name: wavelet_filters(name) for name in FAMILIES}


def assert_matches_full_synthesis(x, freq, filters, levels=5):
    result = separate(x, freq, FS, filters, levels=levels)
    osc, trans, mask = full_separate(x, freq, FS, filters, levels)
    assert result.mask_used == mask
    assert same_bits(result.oscillatory, osc)
    assert same_bits(result.transient, trans)
    return result


class TestSupportLocalSynthesis:
    """separate's cropped synthesis is byte-identical to the full-length one."""

    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(32, 4096),
        family=st.sampled_from(FAMILIES),
        levels=st.integers(3, 6),
        decade=st.integers(-6, 6),
        freq=st.sampled_from([45.0, 55.0, 85.0]),
        place=st.sampled_from(["left", "right", "inside"]),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # windows clamped to either edge; n below the 294-sample db4 crop
    @example(n=5000, family="db4", levels=5, decade=0, freq=85.0,
             place="left", fraction=0.01, seed=1)
    @example(n=5000, family="db4", levels=5, decade=0, freq=45.0,
             place="right", fraction=0.01, seed=2)
    @example(n=200, family="db4", levels=5, decade=3, freq=55.0,
             place="inside", fraction=0.3, seed=3)
    @example(n=64, family="db8", levels=6, decade=-6, freq=45.0,
             place="inside", fraction=1.0, seed=4)
    def test_matches_full_synthesis_on_any_stretch(
        self, n, family, levels, decade, freq, place, fraction, seed
    ):
        assume(2**levels <= n)
        rng = np.random.default_rng(seed)
        length = max(1, int(fraction * n))
        start = {"left": 0, "right": n - length}.get(
            place, int(rng.integers(0, n - length + 1))
        )
        x = np.zeros(n)
        x[start : start + length] = rng.standard_normal(length) * 10.0**decade
        assert_matches_full_synthesis(x, freq, FILTERS[family], levels)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_full_synthesis_on_protocol_channels(self, db4, index):
        signal, _ = g.build_realization(g.SimConfig(), index)
        for row in signal.data:
            for freq in (45.0, 55.0, 85.0):
                assert_matches_full_synthesis(row, freq, db4)

    @pytest.mark.parametrize("index", [0, 1])
    def test_threshold_coeffs_halves_give_the_same_parts(self, db4, index):
        signal, _ = g.build_realization(g.SimConfig(), index)
        for row in signal.data:
            for freq in (45.0, 55.0, 85.0):
                result = separate(row, freq, FS, db4)
                osc, trans = threshold_coeffs(
                    swt_decompose(row, db4, 5), result.mask_used
                )
                assert same_bits(g.iswt_reconstruct(osc, db4), result.oscillatory)
                assert same_bits(g.iswt_reconstruct(trans, db4), result.transient)

    def test_matches_full_synthesis_on_a_long_channel(self, db4):
        config = g.SimConfig(n_samples=30720)
        signal, _ = g.build_realization(config, 0)
        result = assert_matches_full_synthesis(signal.data[2], 85.0, db4)
        window = result.mask_used.window
        support = np.flatnonzero(result.oscillatory)
        assert window.start_sample - 217 <= support[0]
        assert support[-1] < window.end_sample


def test_harder_overlap_regimes_separate_worse():
    """Recovery degrades from separated to fully overlapped at equal SNR."""
    for freq in (45.0, 55.0, 85.0):
        config = g.SimConfig(
            burst_freqs_hz=(freq, freq),
            overlap_regimes=("separated", "fully_overlapped"),
            n_realizations=50,
        )
        corrs = {0: [], 1: []}
        for idx in range(config.n_realizations):
            signal, truth = g.build_realization(config, idx)
            for ch in (0, 1):
                result = separate(signal.data[ch], freq, FS)
                corrs[ch].append(
                    pearson(result.oscillatory, placed_burst(truth.channels[ch], config))
                )
        assert np.median(corrs[0]) > np.median(corrs[1]), (
            f"{freq} Hz: separated median {np.median(corrs[0]):.3f} vs "
            f"fully overlapped {np.median(corrs[1]):.3f}"
        )
