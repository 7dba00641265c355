"""Tests for the undecimated wavelet transform and its inverse."""

import numpy as np
import pytest

from gammasep.backends import circular_conv
from gammasep.swt import (
    FilterPair,
    WaveletCoefficients,
    iswt_reconstruct,
    level_for_frequency,
    swt_decompose,
    wavelet_filters,
)
from oracles import direct_iswt, direct_swt, loop_conv, stuffed_filter

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
        np.testing.assert_allclose(filters.rec_lo, DB4_SCALING, atol=1e-10)
        np.testing.assert_allclose(
            filters.dec_lo, DB4_SCALING[::-1], atol=1e-10
        )

    @pytest.mark.parametrize(
        "name", ["haar"] + [f"db{p}" for p in range(1, 9)]
    )
    def test_family_is_orthonormal(self, name):
        filters = wavelet_filters(name)
        order = 1 if name == "haar" else int(name[2:])
        assert filters.length == 2 * order
        assert np.sum(filters.dec_lo**2) == pytest.approx(1.0, abs=1e-10)
        assert np.sum(filters.dec_lo) == pytest.approx(
            np.sqrt(2.0), abs=1e-10
        )
        assert np.sum(filters.dec_hi) == pytest.approx(0.0, abs=1e-10)

    def test_haar_is_db1(self):
        np.testing.assert_allclose(
            wavelet_filters("haar").dec_lo, wavelet_filters("db1").dec_lo
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown wavelet"):
            wavelet_filters("sym5")

    def test_broken_pair_fails_roundtrip_probe(self):
        good = wavelet_filters("db2")
        with pytest.raises(ValueError, match="reconstruction"):
            FilterPair(
                name="broken",
                dec_lo=good.dec_lo,
                dec_hi=good.dec_hi,
                rec_lo=good.rec_lo[::-1],
                rec_hi=good.rec_hi,
            )

    def test_rejects_nonfinite_taps(self):
        with pytest.raises(ValueError, match="non-finite"):
            FilterPair(
                name="nan",
                dec_lo=[np.nan, 1.0],
                dec_hi=[1.0, -1.0],
                rec_lo=[1.0, 1.0],
                rec_hi=[1.0, -1.0],
            )


class TestDecompose:
    def test_every_level_keeps_the_input_length(self, db4, rng):
        x = rng.standard_normal(256)
        coeffs = swt_decompose(x, db4, 4)
        assert coeffs.levels == 4
        assert coeffs.n_samples == 256
        for seq in (*coeffs.approximations, *coeffs.details):
            assert seq.shape == (256,)

    def test_zero_in_zero_out(self, db4):
        coeffs = swt_decompose(np.zeros(64), db4, 3)
        for seq in (*coeffs.approximations, *coeffs.details):
            assert np.all(seq == 0.0)

    def test_haar_constant_scales_by_sqrt2(self, haar):
        c = 3.5
        coeffs = swt_decompose(np.full(64, c), haar, 2)
        np.testing.assert_allclose(
            coeffs.approximations[0], c * np.sqrt(2.0), atol=1e-12
        )
        np.testing.assert_allclose(coeffs.approximations[1], 2.0 * c, atol=1e-12)
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

    @pytest.mark.parametrize("name", ["haar", "db2", "db6", "db8"])
    def test_roundtrip_other_families(self, name, rng):
        filters = wavelet_filters(name)
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
            approximations=tuple(0.5 * a for a in coeffs.approximations),
            details=tuple(0.5 * d for d in coeffs.details),
            levels=coeffs.levels,
            n_samples=coeffs.n_samples,
        )
        np.testing.assert_allclose(
            iswt_reconstruct(halved, db4),
            0.5 * iswt_reconstruct(coeffs, db4),
            atol=1e-9,
        )

    def test_rejects_plain_arrays(self, db4):
        with pytest.raises(ValueError):
            iswt_reconstruct(np.zeros(64), db4)


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
                assert np.array_equal(
                    rolled.approximations[level],
                    np.roll(base.approximations[level], shift),
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
                assert (
                    np.max(np.abs(coeffs.approximations[level] - ref_approx[level]))
                    < 1e-12
                )

    def test_inverse_matches_direct_definition(self, db4, rng):
        x = rng.standard_normal(64)
        coeffs = swt_decompose(x, db4, 3)
        ref = direct_iswt(
            list(coeffs.approximations),
            list(coeffs.details),
            db4.rec_lo,
            db4.rec_hi,
            conv=loop_conv,
        )
        got = iswt_reconstruct(coeffs, db4)
        assert np.max(np.abs(got - ref)) < 1e-12


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


class TestWaveletCoefficients:
    def test_rejects_mismatched_level_count(self):
        with pytest.raises(ValueError):
            WaveletCoefficients(
                approximations=(np.zeros(8),),
                details=(np.zeros(8), np.zeros(8)),
                levels=2,
                n_samples=8,
            )

    def test_rejects_wrong_length_sequences(self):
        with pytest.raises(ValueError):
            WaveletCoefficients(
                approximations=(np.zeros(8),),
                details=(np.zeros(7),),
                levels=1,
                n_samples=8,
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
