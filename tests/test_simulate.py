"""Tests for the synthetic burst / transient / noise generator."""

import math

import numpy as np
import pytest

from gammasep import simulate
from gammasep.simulate import (
    BURST_AMPLITUDE_UV,
    SAMPLE_RATE_HZ,
    TRANSIENT_AMPLITUDE_UV,
    TRANSIENT_WIDTH_MS,
    OverlapRegime,
    SimConfig,
    build_realization,
    gen_colored_noise,
    gen_gamma_burst,
    gen_transient,
)
from oracles import same_bits


class TestGammaBurst:
    def test_length_follows_duration(self):
        assert gen_gamma_burst(45.0, 200.0, 50.0, 512.0).size == 102
        assert gen_gamma_burst(85.0, 150.0, 50.0, 512.0).size == 77

    def test_peak_is_exactly_the_amplitude(self):
        burst = gen_gamma_burst(55.0, 180.0, 50.0, 512.0)
        assert np.max(np.abs(burst)) == 50.0

    def test_taper_pins_endpoints_to_zero(self):
        burst = gen_gamma_burst(45.0, 200.0, 50.0, 512.0)
        assert burst[0] == 0.0
        assert burst[-1] == 0.0

    @pytest.mark.parametrize("freq", [45.0, 55.0, 85.0])
    def test_spectrum_peaks_at_the_target(self, freq):
        fs = 512.0
        burst = gen_gamma_burst(freq, 200.0, 50.0, fs)
        spectrum = np.abs(np.fft.rfft(burst))
        peak_hz = np.argmax(spectrum) * fs / burst.size
        assert abs(peak_hz - freq) <= fs / burst.size  # within one bin

    def test_zero_amplitude_gives_zeros(self):
        burst = gen_gamma_burst(45.0, 200.0, 0.0, 512.0)
        assert np.all(burst == 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_gamma_burst(45.0, 0.0, 50.0, 512.0)
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            gen_gamma_burst(45.0, 100.0, 50.0, math.nan)
        with pytest.raises(ValueError):
            gen_gamma_burst(300.0, 100.0, 50.0, 512.0)  # above Nyquist
        with pytest.raises(ValueError):
            gen_gamma_burst(0.0, 100.0, 50.0, 512.0)


class TestTransient:
    def test_peak_is_exactly_the_amplitude(self):
        spike = gen_transient(20.0, 100.0, 512.0)
        assert np.max(np.abs(spike)) == 100.0

    def test_template_is_biphasic_and_zero_mean(self):
        spike = gen_transient(20.0, 100.0, 512.0)
        assert spike.max() > 0 and spike.min() < 0
        assert abs(spike.sum()) <= 1e-9 * np.sum(np.abs(spike))

    def test_template_is_odd_about_center(self):
        spike = gen_transient(20.0, 100.0, 512.0)
        np.testing.assert_allclose(spike, -spike[::-1], atol=1e-12)

    def test_seventy_ms_spike_energy_sits_below_forty_hz(self):
        fs = 512.0
        spike = gen_transient(70.0, 150.0, fs)
        spectrum = np.abs(np.fft.rfft(spike, 4096)) ** 2
        freqs = np.fft.rfftfreq(4096, 1.0 / fs)
        low = spectrum[freqs < 40.0].sum()
        assert low / spectrum.sum() >= 0.70

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            gen_transient(0.0, 100.0, 512.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_width_that_is_not_finite_naming_it(self, bad):
        with pytest.raises(ValueError, match="width_ms must be positive and finite"):
            gen_transient(bad, 100.0, 512.0)


class TestColoredNoise:
    def test_deterministic_per_seed(self):
        a = gen_colored_noise(1000, 1.0, 42)
        b = gen_colored_noise(1000, 1.0, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_colored_noise(1000, 1.0, 43))

    def test_unit_variance_exactly(self):
        for exponent in (0.0, 1.0, 2.0):
            noise = gen_colored_noise(5000, exponent, 7)
            assert noise.std() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("exponent", [0.0, 1.0])
    def test_spectral_slope_matches_exponent(self, exponent):
        n = 4096
        psd = np.zeros(n // 2 + 1)
        for seed in range(20):
            noise = gen_colored_noise(n, exponent, seed)
            psd += np.abs(np.fft.rfft(noise)) ** 2
        k = np.arange(psd.size)
        keep = k >= 10  # skip the lowest bins where variance dominates
        slope = np.polyfit(np.log(k[keep]), np.log(psd[keep]), 1)[0]
        assert abs(slope + exponent) <= 0.3

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            gen_colored_noise(0, 1.0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_an_exponent_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="exponent must be finite"):
            gen_colored_noise(100, bad, 0)

    @pytest.mark.parametrize("n, exponent", [(5000, 1.0), (30720, 1.0), (999, 2.0)])
    def test_shared_gains_give_the_per_call_noise(self, n, exponent):
        # the gains built afresh on each call, as the noise was first defined
        spectrum = np.fft.rfft(np.random.default_rng(3).standard_normal(n))
        k = np.arange(spectrum.size, dtype=np.float64)
        gains = np.zeros(spectrum.size)
        gains[1:] = k[1:] ** (-exponent / 2.0)
        noise = np.fft.irfft(spectrum * gains, n)
        assert same_bits(gen_colored_noise(n, exponent, 3), noise / noise.std())
        shared = simulate._noise_gains(spectrum.size, exponent)
        assert same_bits(shared, gains)
        with pytest.raises(ValueError):
            shared[1] = 0.0


class TestSimConfig:
    def test_defaults_describe_three_channels(self):
        config = SimConfig()
        assert config.n_channels == 3
        assert config.burst_freqs_hz == (45.0, 55.0, 85.0)
        assert config.overlap_regimes == (
            OverlapRegime.SEPARATED,
            OverlapRegime.OVERLAPPED,
            OverlapRegime.FULLY_OVERLAPPED,
        )

    def test_regime_strings_are_coerced(self):
        config = SimConfig(
            burst_freqs_hz=(45.0,), overlap_regimes=("separated",)
        )
        assert config.overlap_regimes == (OverlapRegime.SEPARATED,)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="overlap_regimes: 'sideways'"):
            SimConfig(burst_freqs_hz=(45.0,), overlap_regimes=("sideways",))

    def test_rejects_supra_nyquist_burst(self):
        with pytest.raises(ValueError):
            SimConfig(burst_freqs_hz=(45.0, 55.0, 300.0))

    def test_rejects_regime_count_mismatch(self):
        with pytest.raises(ValueError):
            SimConfig(overlap_regimes=("separated", "overlapped"))

    def test_rejects_an_empty_burst_list(self):
        with pytest.raises(ValueError, match="burst_freqs_hz must list at least one"):
            SimConfig(burst_freqs_hz=[], overlap_regimes=[])

    def test_float_settings_given_as_ints_are_stored_as_floats(self):
        config = SimConfig(snr_db=5, burst_freqs_hz=[45, 55, 85])
        assert config == SimConfig()
        assert type(config.snr_db) is float
        assert all(type(f) is float for f in config.burst_freqs_hz)
        assert repr(config.snr_db) == "5.0"

    @pytest.mark.parametrize(
        "bad",
        [math.nan, -math.inf, 300.5, -4000.0, pytest.param(10**400, id="10**400")],
    )
    def test_rejects_meaningless_snr(self, bad):
        with pytest.raises(ValueError, match="snr_db"):
            SimConfig(snr_db=bad)

    @pytest.mark.parametrize("snr_db", [300, -300])
    def test_extreme_accepted_snr_builds_finite_data(self, snr_db):
        signal, _ = build_realization(SimConfig(snr_db=snr_db, n_realizations=2), 0)
        assert np.isfinite(signal.data).all()

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("burst_freqs_hz", "555"),
            ("burst_freqs_hz", "abc"),
            ("burst_freqs_hz", (True, 55.0, 85.0)),
            ("burst_freqs_hz", ("a", 55.0, 85.0)),
            ("snr_db", True),
            ("snr_db", "5"),
            ("overlap_regimes", 5),
        ],
    )
    def test_rejects_mistyped_settings(self, key, bad):
        with pytest.raises(TypeError, match=key):
            SimConfig(**{key: bad})

    @pytest.mark.parametrize("n_realizations", [1, 2])
    def test_shortest_accepted_length_builds_every_realization(self, n_realizations):
        def accepted(n):
            try:
                return SimConfig(n_samples=n, n_realizations=n_realizations)
            except ValueError as exc:
                assert "n_samples" in str(exc)
                return None

        shortest = next(c for c in map(accepted, range(1, 1000)) if c is not None)
        for i in range(n_realizations):
            build_realization(shortest, i)


class TestBuildRealization:
    def test_shape_and_labels(self, default_config, realization0):
        signal, truth = realization0
        assert signal.data.shape == (3, default_config.n_samples)
        assert signal.channel_labels == ("ch1", "ch2", "ch3")
        assert len(truth.channels) == 3

    def test_deterministic(self, default_config):
        a, _ = build_realization(default_config, 3)
        b, _ = build_realization(default_config, 3)
        assert np.array_equal(a.data, b.data)

    def test_rejects_out_of_range_index(self, default_config):
        with pytest.raises(ValueError):
            build_realization(default_config, -1)
        with pytest.raises(ValueError):
            build_realization(default_config, default_config.n_realizations)

    def test_separated_regime_keeps_windows_disjoint(self, realization0):
        _, truth = realization0
        ct = truth.channels[0]
        assert ct.burst_window.overlap(ct.transient_window) == 0
        assert ct.overlap_fraction == 0.0

    def test_fully_overlapped_centers_the_spike(self, realization0):
        _, truth = realization0
        ct = truth.channels[2]
        burst_mid = ct.burst_window.start_sample + ct.burst_window.length_samples // 2
        spike_mid = (
            ct.transient_window.start_sample
            + ct.transient_window.length_samples // 2
        )
        assert abs(burst_mid - spike_mid) <= 1
        assert ct.overlap_fraction == 1.0

    def test_overlap_sweeps_monotonically(self, default_config):
        last_fraction = -1.0
        last_overlap = -1
        for idx in (0, 50, 100, 150, 199):
            _, truth = build_realization(default_config, idx)
            ct = truth.channels[1]
            overlap = ct.burst_window.overlap(ct.transient_window)
            assert ct.overlap_fraction >= last_fraction
            assert overlap >= last_overlap
            last_fraction = ct.overlap_fraction
            last_overlap = overlap
        assert last_overlap > 0

    def test_infinite_snr_means_no_noise(self):
        config = SimConfig(snr_db=math.inf, n_realizations=2)
        signal, truth = build_realization(config, 0)
        for ch, ct in enumerate(truth.channels):
            x = signal.data[ch]
            union = np.zeros(x.size, dtype=bool)
            for window in (ct.burst_window, ct.transient_window):
                union[window.start_sample : window.end_sample] = True
            assert np.all(x[~union] == 0.0)
            inside = np.sum(x[union] ** 2)
            assert inside / np.sum(x**2) >= 0.999

    def test_clean_part_reproducible_from_truth(self):
        from gammasep.signal_core import oscillation_duration_ms

        config = SimConfig(snr_db=math.inf, n_realizations=2)
        signal, truth = build_realization(config, 1)
        for ch, ct in enumerate(truth.channels):
            burst = gen_gamma_burst(
                ct.burst_freq_hz,
                oscillation_duration_ms(ct.burst_freq_hz),
                BURST_AMPLITUDE_UV,
                SAMPLE_RATE_HZ,
            )
            spike = gen_transient(
                TRANSIENT_WIDTH_MS, TRANSIENT_AMPLITUDE_UV, SAMPLE_RATE_HZ
            )
            expected = np.zeros(config.n_samples)
            bw, tw = ct.burst_window, ct.transient_window
            expected[bw.start_sample : bw.end_sample] += burst
            expected[tw.start_sample : tw.end_sample] += spike
            assert np.array_equal(signal.data[ch], expected)

    def test_realized_snr_hits_the_target(self, default_config, realization0):
        clean_config = SimConfig(snr_db=math.inf)
        clean, _ = build_realization(clean_config, 0)
        noisy, truth = realization0
        for ch, ct in enumerate(truth.channels):
            win = slice(ct.burst_window.start_sample, ct.burst_window.end_sample)
            noise = noisy.data[ch] - clean.data[ch]
            realized = 10.0 * np.log10(
                np.mean(clean.data[ch][win] ** 2) / np.mean(noise[win] ** 2)
            )
            assert realized == pytest.approx(default_config.snr_db, abs=1e-6)
