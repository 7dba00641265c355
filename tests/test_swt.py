"""Tests for the undecimated wavelet transform and its inverse."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gammasep as g
from gammasep import cli
from gammasep.backends import circular_conv
from gammasep.swt import (
    FilterPair,
    WaveletCoefficients,
    iswt_reconstruct,
    level_for_frequency,
    swt_decompose,
    wavelet_filters,
)
from oracles import (
    FILTER_LENGTHS,
    direct_iswt,
    direct_swt,
    loop_conv,
    orthonormal_filters,
    random_orthonormal_filters,
    same_bits,
    stuffed_filter,
)

# the widely tabulated 8-tap orthonormal scaling filter
DB4_SCALING = [
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
]


class TestFilterFamilies:
    def test_db4_matches_published_taps(self):
        filters = wavelet_filters("db4")
        np.testing.assert_allclose(filters.rec_lo, DB4_SCALING, atol=5e-13)
        np.testing.assert_allclose(
            filters.dec_lo, DB4_SCALING[::-1], atol=5e-13
        )

    def test_fixed_taps_are_orthonormal(self):
        h = wavelet_filters("db4").rec_lo
        assert h.size == 8
        assert abs(np.sum(h**2) - 1.0) <= 1e-15
        assert abs(np.sum(h) - np.sqrt(2.0)) <= 1e-15
        for shift in (2, 4, 6):
            assert abs(np.dot(h[shift:], h[:-shift])) <= 1e-15

    def test_high_pass_has_four_vanishing_moments(self):
        g = wavelet_filters("db4").dec_hi
        k = np.arange(g.size, dtype=np.float64)
        for moment in range(4):
            assert abs(np.sum(k**moment * g)) <= 1e-12

    def test_unknown_family_rejected(self):
        for name in ("sym5", "haar", "db2", " DB4"):
            with pytest.raises(ValueError, match="unknown wavelet"):
                wavelet_filters(name)

    @pytest.mark.parametrize("name", [4, None, b"db4"])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ValueError, match="unknown wavelet"):
            wavelet_filters(name)

    def test_db4_is_one_shared_read_only_pair(self):
        db4 = wavelet_filters()
        assert db4 is wavelet_filters("db4")
        for taps in (db4.scaling, db4.dec_lo, db4.dec_hi, db4.rec_lo, db4.rec_hi):
            assert not taps.flags.writeable
            with pytest.raises(ValueError):
                taps[0] = 0.0

    def test_no_separation_path_builds_db4_again(self, tmp_path, monkeypatch):
        wavelet_filters()
        built = []
        check = FilterPair.__post_init__

        def counted(pair):
            built.append(pair.name)
            check(pair)

        monkeypatch.setattr(FilterPair, "__post_init__", counted)
        signal, _ = g.build_realization(g.SimConfig(), 0)
        for ch in range(signal.n_channels):
            g.separate(signal.data[ch], 85.0, signal.sample_rate_hz)
        path = tmp_path / "signal.csv"
        cli.write_signal_csv(path, signal)
        out = str(tmp_path / "despike")
        assert cli.main(["despike", str(path), "--freq", "85", "--out", out]) == 0
        g.benchmark_report(signal)
        assert built == []
        # any other filter still runs the round-trip check when it is built
        FilterPair("haar", np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert built == ["haar"]

    def test_broken_pair_fails_roundtrip_probe(self):
        # twice an orthonormal filter reconstructs four times its input
        with pytest.raises(ValueError, match="reconstruction"):
            FilterPair(name="broken", scaling=2.0 * np.array(DB4_SCALING))

    def test_four_read_only_filters_derive_from_the_scaling_filter(self, haar):
        assert [f.name for f in dataclasses.fields(FilterPair)] == ["name", "scaling"]
        h = np.array(DB4_SCALING)
        pair = FilterPair("tabulated", DB4_SCALING)
        signs = (-1.0) ** np.arange(h.size)
        assert same_bits(pair.rec_lo, h)
        assert same_bits(pair.rec_hi, signs * h[::-1])
        assert same_bits(pair.dec_lo, h[::-1])
        assert same_bits(pair.dec_hi, (signs * h[::-1])[::-1])
        assert pair.length == 8 and haar.length == 2
        for taps in (pair.scaling, pair.dec_lo, pair.dec_hi, pair.rec_lo, pair.rec_hi):
            with pytest.raises(ValueError):
                taps[0] = 0.0

    @pytest.mark.parametrize("bad", [[], [[1.0, 1.0]], 1.0])
    def test_rejects_a_scaling_filter_that_is_not_a_tap_list(self, bad):
        with pytest.raises(ValueError, match="^scaling must be"):
            FilterPair(name="bad", scaling=bad)

    def test_rejects_nonfinite_taps(self):
        with pytest.raises(ValueError, match="finite taps"):
            FilterPair(name="nan", scaling=[np.nan, 1.0])


class TestDecompose:
    def test_every_level_keeps_the_input_length(self, db4, rng):
        x = rng.standard_normal(256)
        coeffs = swt_decompose(x, db4, 4)
        assert coeffs.levels == 4
        assert coeffs.n_samples == 256
        for seq in (coeffs.approximation, *coeffs.details):
            assert seq.shape == (256,)

    def test_zero_in_zero_out(self, db4):
        coeffs = swt_decompose(np.zeros(64), db4, 3)
        for seq in (coeffs.approximation, *coeffs.details):
            assert np.all(seq == 0.0)

    def test_haar_constant_scales_by_sqrt2(self, haar):
        c = 3.5
        np.testing.assert_allclose(
            swt_decompose(np.full(64, c), haar, 1).approximation,
            c * np.sqrt(2.0),
            atol=1e-12,
        )
        coeffs = swt_decompose(np.full(64, c), haar, 2)
        np.testing.assert_allclose(coeffs.approximation, 2.0 * c, atol=1e-12)
        for d in coeffs.details:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_impulse_response_equals_filter(self, db4):
        x = np.zeros(64)
        x[20] = 1.0
        coeffs = swt_decompose(x, db4, 2)
        np.testing.assert_allclose(
            coeffs.details[0], loop_conv(x, db4.dec_hi), atol=1e-12
        )
        a1 = loop_conv(x, db4.dec_lo)
        np.testing.assert_allclose(
            coeffs.details[1],
            loop_conv(a1, stuffed_filter(db4.dec_hi, 2)),
            atol=1e-12,
        )

    def test_linearity(self, db4, rng):
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        cx = swt_decompose(x, db4, 3)
        cy = swt_decompose(y, db4, 3)
        cxy = swt_decompose(2.0 * x - 3.0 * y, db4, 3)
        for level in range(3):
            np.testing.assert_allclose(
                cxy.details[level],
                2.0 * cx.details[level] - 3.0 * cy.details[level],
                atol=1e-9,
            )

    def test_too_many_levels_rejected(self, db4):
        with pytest.raises(ValueError, match="too short"):
            swt_decompose(np.zeros(16), db4, 5)

    def test_rejects_two_dimensional_input(self, db4):
        with pytest.raises(ValueError):
            swt_decompose(np.zeros((2, 64)), db4, 1)

    @pytest.mark.parametrize("levels", [True, 2.0])
    def test_rejects_a_level_count_that_is_not_an_integer(self, db4, levels):
        # True would run one level, and 2.0 fail inside range() naming nothing
        with pytest.raises(TypeError, match="^levels must be an integer"):
            swt_decompose(np.zeros(64), db4, levels)

    def test_rejects_a_level_count_below_one(self, db4):
        with pytest.raises(ValueError, match="^levels must be >= 1, got 0"):
            swt_decompose(np.zeros(64), db4, 0)

    def test_rejects_complex_input_naming_it(self, db4):
        with pytest.raises(ValueError, match="^x must be real, got a complex"):
            swt_decompose(np.ones(64) + 1j, db4, 1)

    def test_gamma_energy_lands_in_its_level(self, db4):
        fs = 512.0
        t = np.arange(2048) / fs
        x = np.sin(2.0 * np.pi * 45.0 * t)
        coeffs = swt_decompose(x, db4, 5)
        energies = [np.sum(d**2) for d in coeffs.details]
        assert int(np.argmax(energies)) + 1 == level_for_frequency(45.0, fs)


class TestReconstruct:
    def test_roundtrip_random(self, db4, rng):
        x = rng.standard_normal(512)
        back = iswt_reconstruct(swt_decompose(x, db4, 5), db4)
        assert np.max(np.abs(back - x)) < 1e-9 * np.max(np.abs(x))

    # random orthonormal filters as long as haar, db2, db6 and db8; the
    # 2-tap lattice filter is always haar
    @pytest.mark.parametrize("n_taps", [2, 4, 12, 16], ids=["haar", "db2", "db6", "db8"])
    def test_roundtrip_other_families(self, n_taps, rng):
        filters = random_orthonormal_filters(n_taps, seed=n_taps)
        x = rng.standard_normal(300)
        back = iswt_reconstruct(swt_decompose(x, filters, 4), filters)
        assert np.max(np.abs(back - x)) < 1e-9 * np.max(np.abs(x))

    def test_zero_coefficients_give_zero_signal(self, db4):
        coeffs = swt_decompose(np.zeros(64), db4, 3)
        assert np.all(iswt_reconstruct(coeffs, db4) == 0.0)

    def test_reconstruction_is_linear_in_coefficients(self, db4, rng):
        x = rng.standard_normal(128)
        coeffs = swt_decompose(x, db4, 3)
        halved = WaveletCoefficients(
            approximation=0.5 * coeffs.approximation,
            details=tuple(0.5 * d for d in coeffs.details),
        )
        np.testing.assert_allclose(
            iswt_reconstruct(halved, db4),
            0.5 * iswt_reconstruct(coeffs, db4),
            atol=1e-9,
        )

    def test_rejects_plain_arrays(self, db4):
        with pytest.raises(ValueError):
            iswt_reconstruct(np.zeros(64), db4)

    def test_all_zero_detail_levels_skip_their_convolution(self, db4, rng, monkeypatch):
        # a level of zeros (-0.0 too) adds +0.0, which changes no bit of the
        # low-pass half: circular_conv never emits -0.0
        details = [rng.standard_normal(96), np.zeros(96), np.full(96, -0.0),
                   rng.standard_normal(96)]
        coeffs = WaveletCoefficients(rng.standard_normal(96), tuple(details))
        a = coeffs.approximation
        for j in range(4, 0, -1):
            stride = 2 ** (j - 1)
            mixed = circular_conv(a, db4.rec_lo, stride) + circular_conv(
                details[j - 1], db4.rec_hi, stride
            )
            a = 0.5 * np.roll(mixed, -(db4.length - 1) * stride)
        calls = []

        def recorded(x, taps, stride=1):
            calls.append(taps is db4.rec_hi)
            return circular_conv(x, taps, stride)

        monkeypatch.setattr(g.swt, "circular_conv", recorded)
        assert same_bits(iswt_reconstruct(coeffs, db4), a)
        assert calls.count(True) == 2 and len(calls) == 4 + 2


class TestShiftInvariance:
    def test_details_shift_bit_exactly_with_the_input(self, db4, rng):
        x = rng.standard_normal(256)
        base = swt_decompose(x, db4, 5)
        for shift in (1, 7, 128, 255):
            rolled = swt_decompose(np.roll(x, shift), db4, 5)
            for level in range(5):
                assert np.array_equal(
                    rolled.details[level], np.roll(base.details[level], shift)
                )
            # every depth's approximation, each the deepest of its decomposition
            for levels in range(1, 6):
                assert np.array_equal(
                    swt_decompose(np.roll(x, shift), db4, levels).approximation,
                    np.roll(swt_decompose(x, db4, levels).approximation, shift),
                )


class TestAgainstDirectDefinition:
    def test_matches_loop_oracle_on_short_signals(self, db4, rng):
        for n in (32, 48, 64):
            x = rng.standard_normal(n)
            coeffs = swt_decompose(x, db4, 5)
            ref_approx, ref_det = direct_swt(
                x, db4.dec_lo, db4.dec_hi, 5, conv=loop_conv
            )
            for level in range(5):
                assert np.max(np.abs(coeffs.details[level] - ref_det[level])) < 1e-12
                at_level = swt_decompose(x, db4, level + 1).approximation
                assert np.max(np.abs(at_level - ref_approx[level])) < 1e-12

    def test_inverse_matches_direct_definition(self, db4, rng):
        x = rng.standard_normal(64)
        coeffs = swt_decompose(x, db4, 3)
        ref = direct_iswt(
            coeffs.approximation,
            list(coeffs.details),
            db4.rec_lo,
            db4.rec_hi,
            conv=loop_conv,
        )
        got = iswt_reconstruct(coeffs, db4)
        assert np.max(np.abs(got - ref)) < 1e-12


def transform_problem(filters, levels, extra, seed, decade, shift):
    """A depth and a random signal at least as long as the deepest
    zero-stuffed filter, the shortest on which `wrap_conv` is exact."""
    shortest = max(stuffed_filter(filters.dec_lo, levels).size, 2**levels)
    n = shortest + extra
    x = np.random.default_rng(seed).standard_normal(n) * 10.0**decade
    return filters, levels, x, 1 + shift % (n - 1)


transform_problems = st.builds(
    transform_problem,
    filters=orthonormal_filters,
    levels=st.integers(1, 6),
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    decade=st.integers(-6, 6),
    shift=st.integers(0, 2**16),
)


def at_every_filter_length(test):
    """Run `test` on db4 and on one random filter of every length, each at
    the deepest level on its shortest signal."""
    every_length = [random_orthonormal_filters(n, seed=n) for n in FILTER_LENGTHS]
    for filters in [wavelet_filters("db4"), *every_length]:
        test = example(problem=transform_problem(filters, 6, 0, 0, 0, 1))(test)
    return test


@settings(deadline=None, max_examples=60)
@given(problem=transform_problems)
@at_every_filter_length
def test_transform_properties_across_families(problem):
    filters, levels, x, shift = problem
    scale = np.max(np.abs(x))
    coeffs = swt_decompose(x, filters, levels)
    assert coeffs.levels == levels == len(coeffs.details)
    assert coeffs.n_samples == x.size
    ref_approx, ref_details = direct_swt(x, filters.dec_lo, filters.dec_hi, levels)
    for got, ref in zip((coeffs.approximation, *coeffs.details),
                        (ref_approx[-1], *ref_details)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    back = iswt_reconstruct(coeffs, filters)
    assert np.max(np.abs(back - x)) <= 1e-9 * scale
    rolled = swt_decompose(np.roll(x, shift), filters, levels)
    for got, base in zip((rolled.approximation, *rolled.details),
                         (coeffs.approximation, *coeffs.details)):
        assert np.array_equal(got, np.roll(base, shift))


class TestLevelForFrequency:
    @pytest.mark.parametrize(
        "freq,expected", [(85.0, 2), (45.0, 3), (55.0, 3), (255.9, 1), (10.0, 5)]
    )
    def test_table(self, freq, expected):
        assert level_for_frequency(freq, 512.0) == expected

    def test_band_edges(self):
        # level j covers [fs / 2^(j+1), fs / 2^j)
        assert level_for_frequency(128.0, 512.0) == 1
        assert level_for_frequency(127.9, 512.0) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            level_for_frequency(0.0, 512.0)
        with pytest.raises(ValueError):
            level_for_frequency(256.0, 512.0)

    @pytest.mark.parametrize("bad_rate", [math.inf, math.nan, 0.0])
    def test_rejects_a_rate_that_is_not_positive_and_finite(self, bad_rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            level_for_frequency(85.0, bad_rate)

    def test_rejects_nan_frequency(self):
        with pytest.raises(ValueError, match="freq_hz must lie in"):
            level_for_frequency(math.nan, 512.0)

    def test_far_below_the_rate_does_not_overflow(self):
        # 512 / 2**(j + 1) reaches 5e-324 only past 2**1024
        assert level_for_frequency(5e-324, 512.0) > 1000


class TestWaveletCoefficients:
    def test_rejects_empty_details(self):
        with pytest.raises(ValueError, match="at least one detail"):
            WaveletCoefficients(approximation=np.zeros(8), details=())

    def test_rejects_approximation_of_another_length(self):
        with pytest.raises(ValueError, match="7 samples"):
            WaveletCoefficients(
                approximation=np.zeros(7), details=(np.zeros(8), np.zeros(8))
            )

    def test_rejects_wrong_length_sequences(self):
        with pytest.raises(ValueError, match="8 samples"):
            WaveletCoefficients(
                approximation=np.zeros(8), details=(np.zeros(8), np.zeros(7))
            )

    def test_rejects_two_dimensional_approximation(self):
        with pytest.raises(ValueError, match="1-D"):
            WaveletCoefficients(
                approximation=np.zeros((1, 8)), details=(np.zeros((1, 8)),)
            )


def test_strided_conv_equals_stuffed_filter_conv(db4, rng):
    x = rng.standard_normal(96)
    for level in (2, 3):
        stride = 2 ** (level - 1)
        np.testing.assert_allclose(
            circular_conv(x, db4.dec_hi, stride),
            loop_conv(x, stuffed_filter(db4.dec_hi, level)),
            atol=1e-12,
        )
