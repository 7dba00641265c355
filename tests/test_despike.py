"""Tests for the rectangular-mask oscillation/transient separation."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gammasep as g
from gammasep.despike import (
    SCREEN_RANGE,
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
from gammasep.signal_core import TimeWindow
from gammasep.swt import WaveletCoefficients, swt_decompose, wavelet_filters
from frozen import RESEPARATION_ENERGY_FRACTION
from oracles import (
    EDGE_STARTS,
    FILTER_LENGTHS,
    box_peak_center,
    edge_recording,
    full_separate,
    orthonormal_filters,
    pearson,
    placed_burst,
    random_orthonormal_filters,
    ref_mask_plan,
    same_bits,
    synthesized_transient,
    transient_rounding_bound,
)

FS = 512.0


def placed(template, start, n=5000):
    out = np.zeros(n)
    out[start : start + template.size] = template
    return out


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

    def test_rejects_nan_frequency(self):
        with pytest.raises(ValueError, match="target_freq_hz must be positive and finite"):
            mask_geometry(math.nan)

    def test_rejects_infinite_frequency(self):
        with pytest.raises(ValueError, match="target_freq_hz must be positive and finite"):
            mask_geometry(math.inf)


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
        burst = g.gen_gamma_burst(freq)
        start = 2500 - burst.size // 2
        result = separate(placed(burst, start), freq, FS)
        true_center = start + burst.size // 2
        assert abs(result.detection_center_sample - true_center) <= tol

    def test_all_zero_input_raises(self, db4):
        coeffs = swt_decompose(np.zeros(512), db4, 5)
        with pytest.raises(NoDetectionError):
            detect_oscillation_center(coeffs, 45.0, FS, filter_length=db4.length)

    def test_overflowing_energy_raises_value_error(self, db4):
        x = np.zeros(512)
        x[200] = 1e308
        coeffs = swt_decompose(x, db4, 5)
        with pytest.raises(ValueError, match="not finite"):
            detect_oscillation_center(coeffs, 45.0, FS, filter_length=db4.length)

    def test_separate_reports_an_analysis_overflow_as_value_error(self):
        # under the suite's error::RuntimeWarning filter a leaked numpy
        # warning would surface here instead of the ValueError
        x = np.zeros(512)
        x[200:203] = [1.7e308, 1.7e308, -1.7e308]
        with pytest.raises(ValueError, match="not finite"):
            separate(x, 85.0, FS)

    def test_separate_propagates_no_detection(self):
        with pytest.raises(NoDetectionError):
            separate(np.zeros(512), 45.0, FS)

    def test_tie_breaks_to_the_earliest_burst(self):
        burst = g.gen_gamma_burst(45.0)
        x = placed(burst, 1000) + placed(burst, 3000)
        result = separate(x, 45.0, FS)
        first_center = 1000 + burst.size // 2
        assert abs(result.detection_center_sample - first_center) <= 10

    def test_too_shallow_decomposition_rejected(self, db4):
        coeffs = swt_decompose(np.ones(512), db4, 2)
        with pytest.raises(ValueError, match="levels"):
            # needs level 3
            detect_oscillation_center(coeffs, 45.0, FS, filter_length=db4.length)


class TestSeparationBoundary:
    """Arguments that are not finite are refused by name, as ValueError."""

    x = np.sin(np.arange(1024) * 0.3)

    def test_infinite_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            separate(self.x, 85.0, math.inf)

    def test_rate_whose_mask_length_overflows(self):
        # 150 ms at 1e308 Hz is inf samples
        with pytest.raises(ValueError, match="overflows the sample count"):
            separate(self.x, 85.0, 1e308)

    def test_nan_target(self):
        with pytest.raises(ValueError, match="target_freq_hz must be positive and finite"):
            separate(self.x, math.nan, FS)

    def test_complex_samples(self):
        # numpy's cast would separate the real part after only a warning
        x = np.cos(2 * np.pi * 85.0 * np.arange(512) / 512.0) + 1j
        with pytest.raises(ValueError, match="^x must be real, got a complex"):
            separate(x, 85.0, FS)


# a 9-cycle mask at FS is 9 * FS / f samples wide, so this target makes it w
def target_for_width(w):
    return 9.0 * FS / w


def detail_coeffs(d, target):
    """Coefficients whose detection energy, with 1-tap filters, is d * d.

    d sits at the lowest of the target's mask levels and every other level
    is zeros, so the energy is 0.0 + d * d plus zeros, and no level is
    advanced.
    """
    _, scales = ref_mask_plan(target, FS)
    details = [np.zeros(d.size) for _ in range(5)]
    details[min(scales) - 1] = d
    return WaveletCoefficients(approximation=np.zeros(d.size), details=tuple(details))


def outcome(detect, coeffs, target):
    """The detected index with 1-tap filters, or the class of the exception
    raised instead."""
    try:
        return detect(coeffs, target, FS, 1)
    except (ValueError, NoDetectionError) as exc:
        return type(exc)


# magnitudes of the details: ordinary, squares below the normal range (the
# products c * e of the full box lose their relative accuracy there; at
# 2**-537 a square is a whole number of the smallest subnormal), and
# squares whose sums overflow
DETAIL_SCALES = st.sampled_from([1.0, 3e-4, 2.0**-537, 1e153, 1e154]) | st.floats(
    -163.0, -150.0
).map(lambda decade: 10.0**decade)


@st.composite
def detail_cases(draw):
    """(details, mask width): sparse or dense, bursts, plateaus and near-ties.

    Bursts are runs of one value, up to a mask long and more, their
    squares whole multiples of the scale's square, placed anywhere and
    wrapped past the end. A copy of the whole pattern shifted around the
    circle, with one sample moved by one ulp, makes near-ties, on either
    side of the wrap.
    """
    n = draw(st.integers(1, 320))
    width = draw(st.integers(19, 130))
    scale = draw(DETAIL_SCALES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(["zeros", "dense", "constant"]))
    if base == "dense":
        d = rng.random(n) * scale
    elif base == "constant":
        d = np.full(n, scale)
    else:
        d = np.zeros(n)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        run = draw(st.integers(1, width + 10))
        d[np.arange(start, start + run) % n] = math.sqrt(draw(st.integers(1, 144))) * scale
    if n > 1 and draw(st.booleans()):
        twin = np.roll(d, draw(st.integers(1, n - 1)))
        i = draw(st.integers(0, n - 1))
        twin[i] = np.nextafter(twin[i], draw(st.sampled_from([0.0, np.inf])))
        d = np.maximum(d, twin)
    return d, width


def spikes(n, at, values):
    """n zeros but for `values` at the indices `at`."""
    d = np.zeros(n)
    d[list(at)] = values
    return d


class TestDetectionCrop:
    """The candidate-span smoother gives the full-length box rule's centre."""

    @settings(deadline=None, max_examples=400)
    @given(case=detail_cases())
    # w == n, n < w and a single sample: the whole circle is the crop
    @example(case=(np.linspace(0.0, 1.0, 40), 40))
    @example(case=(np.linspace(1.0, 0.0, 25), 60))
    @example(case=(np.array([2.0]), 19))
    # all-zero energy, and energy whose sum overflows
    @example(case=(np.zeros(200), 30))
    @example(case=(spikes(200, [30, 120], 1e154), 30))
    # equal spikes whose boxes reach across the wrap from both sides
    @example(case=(spikes(300, [3, 296], 1.0), 20))
    # spikes whose squares are a few subnormal steps, or a millionth apart
    @example(case=(spikes(300, [20, 100], np.sqrt([30.0, 31.0]) * 2.0**-537), 20))
    @example(case=(spikes(300, [20, 100], [1e-160, 1e-160 * 1.000001]), 20))
    def test_matches_the_full_box(self, case):
        d, width = case
        target = target_for_width(width)
        coeffs = detail_coeffs(d, target)
        expected = outcome(box_peak_center, coeffs, target)
        assert outcome(detect_oscillation_center, coeffs, target) == expected

    def test_subnormal_products_pick_the_first_of_two_rounded_ties(self):
        # with c = 1/20, c * 30 eta and c * 19 eta round to 2 eta and 1 eta:
        # the box over the lone 30 eta spike and the one over both 19 eta
        # spikes both hold 2 eta, but the cumulative sum sees 30 eta < 38 eta
        eta = 2.0**-1074
        d = np.zeros(400)
        d[100] = math.sqrt(30.0) * 2.0**-537
        d[250] = d[255] = math.sqrt(19.0) * 2.0**-537
        assert (d * d)[[100, 250]].tolist() == [30 * eta, 19 * eta]
        target = target_for_width(20)
        coeffs = detail_coeffs(d, target)
        center = detect_oscillation_center(coeffs, target, FS, filter_length=1)
        assert center == box_peak_center(coeffs, target, FS, 1)
        assert center == 100 - 19 // 2

    def test_one_ulp_apart_spikes(self):
        # the later spike is one ulp higher, and so is its box's average
        d = np.zeros(600)
        d[100] = 1.0
        d[400] = np.nextafter(1.0, 2.0)
        target = target_for_width(77)
        coeffs = detail_coeffs(d, target)
        center = detect_oscillation_center(coeffs, target, FS, filter_length=1)
        assert center == box_peak_center(coeffs, target, FS, 1)
        assert center == 400 - 76 // 2

    def test_candidates_at_both_ends_smooth_the_short_arc(self, monkeypatch):
        # spikes at energy index 20 and n - 20 put candidates at both ends of
        # the rolled range; the boxes over both tie across the wrap, and the
        # smallest index, 0, wins
        n = 30720
        d = spikes(n, [20, n - 20], 1.0)
        coeffs = detail_coeffs(d, 85.0)
        lengths = []

        def recorded(x, taps, stride=1):
            lengths.append(x.size)
            return g.backends.circular_conv(x, taps, stride)

        monkeypatch.setattr(g.despike, "circular_conv", recorded)
        center = detect_oscillation_center(coeffs, 85.0, FS, filter_length=1)
        assert center == box_peak_center(coeffs, 85.0, FS, 1)
        assert len(lengths) == 1 and lengths[0] < n

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_every_protocol_channel(self, db4, index):
        signal, _ = g.build_realization(g.SimConfig(), index)
        for row in signal.data:
            coeffs = swt_decompose(row, db4, 5)
            for freq in (45.0, 55.0, 85.0):
                assert detect_oscillation_center(
                    coeffs, freq, FS, filter_length=db4.length
                ) == box_peak_center(coeffs, freq, FS, db4.length)

    def test_a_wide_array_channel(self, db4):
        config = g.SimConfig(n_samples=30720, n_realizations=1, rng_seed=1)
        signal, _ = g.build_realization(config, 0)
        for row, freq in zip(signal.data, (45.0, 55.0, 85.0)):
            coeffs = swt_decompose(row, db4, 5)
            assert detect_oscillation_center(
                coeffs, freq, FS, filter_length=db4.length
            ) == box_peak_center(coeffs, freq, FS, db4.length)


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
            osc.approximation + trans.approximation, coeffs.approximation
        )
        assert np.all(trans.approximation[100:150] == 0.0)

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
        burst = g.gen_gamma_burst(freq)
        x = placed(burst, 2500 - burst.size // 2)
        result = separate(x, freq, FS)
        assert np.sum(result.transient**2) <= 0.05 * np.sum(x**2)

    def test_shift_equivariance_away_from_edges(self):
        burst = g.gen_gamma_burst(45.0)
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
        burst = g.gen_gamma_burst(45.0)
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


DB4 = wavelet_filters("db4")


def at_every_filter_length(test):
    """Also run `test` on one random filter of every length, at the deepest
    level on a short signal filled end to end with tiny values."""
    for n_taps in FILTER_LENGTHS:
        test = example(
            n=64, filters=random_orthonormal_filters(n_taps, seed=n_taps), levels=6,
            decade=-6, freq=45.0, place="inside", fraction=1.0, seed=n_taps,
        )(test)
    return test


def assert_transient_within_rounding(x, transient, synthesized, filters, levels=5):
    """The subtracted transient is within the derived rounding bound of the
    full-length synthesis of the coefficients outside the mask."""
    bound = transient_rounding_bound(filters, levels) * 2.0**-53 * np.max(np.abs(x))
    assert np.max(np.abs(transient - synthesized)) <= bound


def assert_matches_full_synthesis(x, freq, filters, levels=5):
    result = separate(x, freq, FS, filters, levels=levels)
    osc, trans, mask = full_separate(x, freq, FS, filters, levels)
    assert result.mask_used == mask
    assert same_bits(result.oscillatory, osc)
    assert same_bits(result.transient, trans)
    assert_transient_within_rounding(
        x, result.transient, synthesized_transient(x, mask, filters, levels),
        filters, levels,
    )
    return result


class TestSupportLocalSynthesis:
    """separate's cropped synthesis is byte-identical to the full-length one."""

    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(32, 4096),
        filters=orthonormal_filters,
        levels=st.integers(3, 6),
        decade=st.integers(-6, 6),
        freq=st.sampled_from([45.0, 55.0, 85.0]),
        place=st.sampled_from(["left", "right", "inside"]),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # windows clamped to either edge; n below the 294-sample db4 crop
    @example(n=5000, filters=DB4, levels=5, decade=0, freq=85.0,
             place="left", fraction=0.01, seed=1)
    @example(n=5000, filters=DB4, levels=5, decade=0, freq=45.0,
             place="right", fraction=0.01, seed=2)
    @example(n=200, filters=DB4, levels=5, decade=3, freq=55.0,
             place="inside", fraction=0.3, seed=3)
    # a window at sample 0: the deep-approximation crop (the window plus
    # 7 * (8 + 16) = 168 samples before it at 45 Hz) wraps past it
    @example(n=5000, filters=DB4, levels=5, decade=0, freq=45.0,
             place="left", fraction=0.02, seed=4)
    # n just above 2**levels, a 77-sample window: that crop, window plus
    # 7 * (4 + ... + 32) = 420 samples, covers the whole circle
    @example(n=80, filters=DB4, levels=6, decade=0, freq=85.0,
             place="inside", fraction=0.5, seed=5)
    @at_every_filter_length
    def test_matches_full_synthesis_on_any_stretch(
        self, n, filters, levels, decade, freq, place, fraction, seed
    ):
        assume(2**levels <= n)
        rng = np.random.default_rng(seed)
        length = max(1, int(fraction * n))
        start = {"left": 0, "right": n - length}.get(
            place, int(rng.integers(0, n - length + 1))
        )
        x = np.zeros(n)
        x[start : start + length] = rng.standard_normal(length) * 10.0**decade
        assert_matches_full_synthesis(x, freq, filters, levels)

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
                assert_transient_within_rounding(
                    row, result.transient, g.iswt_reconstruct(trans, db4), db4
                )

    def test_matches_full_synthesis_on_a_long_channel(self, db4):
        config = g.SimConfig(n_samples=30720)
        signal, _ = g.build_realization(config, 0)
        result = assert_matches_full_synthesis(signal.data[2], 85.0, db4)
        window = result.mask_used.window
        support = np.flatnonzero(result.oscillatory)
        assert window.start_sample - 217 <= support[0]
        assert support[-1] < window.end_sample

    def test_matches_full_synthesis_on_a_four_minute_channel(self, db4):
        config = g.SimConfig(n_samples=122880)
        signal, _ = g.build_realization(config, 0)
        for freq in (45.0, 55.0, 85.0):
            assert_matches_full_synthesis(signal.data[2], freq, db4)

    # the float32 screen's full-length calls are the high-pass of each mask
    # level and the low-pass levels above it: 1 and 2 at 85 Hz, 1 to 3 at
    # 45 Hz, 2 and 3 at 55 Hz. The float64 crop cascade makes 5 low-pass
    # and one high-pass per mask level, the smoother 1, and the synthesis
    # 5 low-pass and one high-pass per non-zero level of the window
    @pytest.mark.parametrize("freq, screened, cropped", [
        (85.0, 3, 5 + 2 + 1 + 5 + 2),
        (45.0, 5, 5 + 3 + 1 + 5 + 3),
        (55.0, 4, 5 + 2 + 1 + 5 + 2),
    ])
    def test_only_the_mask_levels_run_at_full_length(
        self, db4, monkeypatch, freq, screened, cropped
    ):
        # every full-length call is float32 and read by the screen, and
        # every float64 call runs on a crop of a few hundred samples
        signal, _ = g.build_realization(g.SimConfig(n_samples=30720), 0)
        calls = []

        def recorded(x, taps, stride=1):
            y = g.backends.circular_conv(x, taps, stride)
            calls.append((y.size, y.dtype))
            return y

        for module in (g.swt, g.despike):
            monkeypatch.setattr(module, "circular_conv", recorded)
        separate(signal.data[[45.0, 55.0, 85.0].index(freq)], freq, FS, db4)
        assert [c for c in calls if c[1] == np.float32] == [(30720, np.float32)] * screened
        crops = [size for size, dtype in calls if dtype == np.float64]
        assert len(crops) == cropped
        assert max(crops) < 1000


class TestSubtractedTransient:
    """The transient is the input minus the oscillatory part, bit for bit."""

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(32, 4096),
        filters=orthonormal_filters,
        levels=st.integers(3, 6),
        decade=st.integers(-6, 6),
        freq=st.sampled_from([45.0, 55.0, 85.0]),
        fraction=st.floats(0.0, 1.0),
        negative_zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a background of -0.0, which the subtraction keeps outside the crop
    @example(n=80, filters=DB4, levels=6, decade=0, freq=85.0,
             fraction=0.5, negative_zeros=True, seed=2)
    def test_is_the_input_minus_the_oscillatory_part(
        self, n, filters, levels, decade, freq, fraction, negative_zeros, seed
    ):
        assume(2**levels <= n)
        rng = np.random.default_rng(seed)
        length = max(1, int(fraction * n))
        x = np.full(n, -0.0 if negative_zeros else 0.0)
        start = int(rng.integers(0, n - length + 1))
        x[start : start + length] = rng.standard_normal(length) * 10.0**decade
        result = separate(x, freq, FS, filters, levels=levels)
        assert same_bits(result.transient, x - result.oscillatory)


class TestRefusals:
    """separate refuses each input it cannot split with its exact message."""

    @pytest.mark.parametrize("x,freq,levels,error,message", [
        (np.ones(20), 85.0, 5, ValueError,
         "signal of length 20 too short for 5 levels"),
        (np.ones(512), 45.0, 2, ValueError,
         "target 45.0 Hz needs more than the 2 levels the coefficients "
         "cover; the lowest target they reach is 64.0 Hz"),
        (np.zeros(512), 45.0, 5, NoDetectionError,
         "no oscillatory energy found near 45.0 Hz"),
        (spikes(512, [200, 201, 202], [1.7e308, 1.7e308, -1.7e308]), 85.0, 5,
         ValueError, "detail energy near 85.0 Hz is not finite; check the input scale"),
    ])
    def test_exact_message(self, x, freq, levels, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            separate(x, freq, FS, levels=levels)


# TestRefusals' messages for the errors that the full-length rule raises
REFUSALS = {
    NoDetectionError: "no oscillatory energy found near {} Hz",
    ValueError: "detail energy near {} Hz is not finite; check the input scale",
}


def unit_peak_recording(freq=85.0, n=5000, seed=3):
    """1/f noise, a burst at sample 2000 and a spike at 3500, divided by its
    largest magnitude, which is then exactly 1.0."""
    x = (
        g.gen_colored_noise(n, seed)
        + placed(g.gen_gamma_burst(freq), 2000, n)
        + placed(g.gen_transient(), 3500, n)
    )
    return x / np.max(np.abs(x))


def peak_at(edge, toward=None):
    """unit_peak_recording scaled by a power of two so that max|x| is
    exactly `edge`, its largest sample moved one step toward `toward`."""
    x = unit_peak_recording() * edge
    if toward is not None:
        i = int(np.argmax(np.abs(x)))
        x[i] = math.copysign(np.nextafter(edge, toward), x[i])
    return x


def slow_wave_impulses():
    """Three cycles of a unit sine over 2048 samples, with impulses of 1e-3
    at sample 500 and 1e-3 * (1 - 5e-6) at sample 1400."""
    x = np.sin(2.0 * np.pi * 3.0 * np.arange(2048) / 2048.0)
    x[500] += 1e-3
    x[1400] += 1e-3 * (1.0 - 5e-6)
    return x


LOW, HIGH = SCREEN_RANGE


@st.composite
def screened_recordings(draw):
    """(x, filters, levels, target): 1/f noise, bursts and spikes from the
    simulate generators, wrapped past the end anywhere, at amplitudes from
    1e-18 to 1e18 (both edges of SCREEN_RANGE inside), with a random
    lattice filter. Half the lengths are drawn from 1024 up, so that more
    examples take the screen: a short input mostly takes the full-length
    rule."""
    levels = draw(st.integers(3, 6))
    n = draw(st.integers(2**levels, 8192) | st.integers(1024, 8192))
    freq = draw(st.sampled_from([45.0, 55.0, 85.0]))
    noise = draw(st.sampled_from([0.0, 0.01, 1.0]))
    x = noise * g.gen_colored_noise(n, draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        template = g.gen_gamma_burst(freq) if draw(st.booleans()) else g.gen_transient()
        at = np.arange(template.size) + draw(st.integers(0, n - 1))
        x[at % n] += draw(st.floats(0.1, 20.0)) * template
    x *= 10.0 ** draw(st.integers(-18, 18))
    return x, draw(orthonormal_filters), levels, freq


class TestScreenedDetection:
    """The float32 screen leaves separate on the full-length rule's bits."""

    @settings(deadline=None)
    @given(case=screened_recordings())
    # two equal bursts: an exact tie, which goes to the earliest
    @example(case=(placed(g.gen_gamma_burst(45.0), 1000)
                   + placed(g.gen_gamma_burst(45.0), 3000), DB4, 5, 45.0))
    # max|x| at each edge of the range, and one step past it
    @example(case=(peak_at(LOW), DB4, 5, 85.0))
    @example(case=(peak_at(LOW, 0.0), DB4, 5, 85.0))
    @example(case=(peak_at(HIGH), DB4, 5, 55.0))
    @example(case=(peak_at(HIGH, math.inf), DB4, 5, 55.0))
    # a burst whose float32 energies lie below float32's normal range,
    # beside a spike that puts max|x| inside the range
    @example(case=(2.0**-30 * placed(g.gen_transient(), 600)
                   + 2.0**-72 * placed(g.gen_gamma_burst(85.0), 2500), DB4, 5, 85.0))
    # equal spikes at both ends, whose boxes cross the wrap
    @example(case=(placed(g.gen_transient(), 0) + placed(g.gen_transient(), 4990),
                   DB4, 5, 85.0))
    # near-equal impulses on a slow wave, whose float32 details lose digits
    # to it: without the float32 margin the screen rules out the true peak
    @example(case=(slow_wave_impulses(), DB4, 5, 85.0))
    # all zeros, and an energy that overflows
    @example(case=(np.zeros(512), DB4, 5, 45.0))
    @example(case=(spikes(512, [200], 1e308), DB4, 5, 45.0))
    def test_centre_and_parts_are_the_full_length_rule(self, case):
        x, filters, levels, freq = case
        top = min(max(mask_scales(freq, FS)), levels)
        try:
            center = box_peak_center(
                swt_decompose(x, filters, top), freq, FS, filters.length
            )
        except (ValueError, NoDetectionError) as exc:
            message = REFUSALS[type(exc)].format(freq)
            with pytest.raises(type(exc), match=f"^{re.escape(message)}$"):
                separate(x, freq, FS, filters, levels=levels)
            return
        result = separate(x, freq, FS, filters, levels=levels)
        assert result.detection_center_sample == center
        osc, trans, mask = full_separate(x, freq, FS, filters, levels)
        assert result.mask_used == mask
        assert same_bits(result.oscillatory, osc)
        assert same_bits(result.transient, trans)

    @pytest.mark.parametrize("x, screened", [
        (peak_at(1.0), True),
        (peak_at(LOW), True),
        (peak_at(LOW, 0.0), False),
        (peak_at(HIGH), True),
        (peak_at(HIGH, math.inf), False),
        (np.full(5000, np.nan), False),
    ], ids=["one", "low edge", "below", "high edge", "above", "nan"])
    def test_the_screen_runs_only_inside_its_range(self, monkeypatch, x, screened):
        full_length = []

        def recorded(*args):
            full_length.append(args[0].size)
            return swt_decompose(*args)

        monkeypatch.setattr(g.despike, "swt_decompose", recorded)
        try:
            separate(x, 85.0, FS)
        except ValueError:
            assert np.isnan(x).any()
        assert full_length == ([] if screened else [5000])

    def test_an_exact_tie_on_the_screened_path_goes_to_the_earliest(self, db4, monkeypatch):
        burst = g.gen_gamma_burst(45.0)
        x = placed(burst, 1000) + placed(burst, 3000)
        coeffs = swt_decompose(x, db4, 3)
        # the second burst is the first shifted by 2000 samples, bit for bit
        for level in (1, 2, 3):
            d = coeffs.details[level - 1]
            assert same_bits(d[3000 - 200 : 3400], d[1000 - 200 : 1400])
        monkeypatch.setattr(g.despike, "swt_decompose", None)
        center = separate(x, 45.0, FS, db4).detection_center_sample
        assert center == box_peak_center(coeffs, 45.0, FS, db4.length)
        assert abs(center - (1000 + burst.size // 2)) <= 10


class TestRecordingEdges:
    """ROADMAP item 8: one burst at either end of a 5000-sample recording.

    The crop is exact at the ends as well. The boundary rule pinned here is
    the current one and is item 8's open decision: periodic boundaries wrap
    the oscillatory crop's reach (217 samples before the window for db4
    over 5 levels) to the far end when the window starts within it of
    sample 0, so a burst at 0, 30 or 100 leaves oscillatory samples at the
    recording's other end; the reach points backwards only, so a burst at
    4800 does not wrap.
    """

    @pytest.mark.parametrize("start", EDGE_STARTS)
    @pytest.mark.parametrize("freq", [45.0, 55.0, 85.0])
    def test_split_is_the_full_synthesis_and_wraps_only_near_zero(
        self, db4, freq, start
    ):
        x = edge_recording(freq, start)
        result = assert_matches_full_synthesis(x, freq, db4)
        recombined = result.oscillatory + result.transient
        assert np.max(np.abs(recombined - x)) <= 1e-9 * np.max(np.abs(x))
        window = result.mask_used.window
        reach = (db4.length - 1) * (2**5 - 1)
        assert reach == 217
        inside = np.zeros(x.size, dtype=bool)
        inside[np.arange(window.start_sample - reach, window.end_sample)] = True
        assert not result.oscillatory[~inside].any()
        wraps = start in (0, 30, 100)
        assert (window.start_sample < reach) == wraps
        assert result.oscillatory[window.end_sample :].any() == wraps


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
