"""Tests for the synthetic burst / transient / noise generator."""

import math

import numpy as np
import pytest

from gammasep import simulate
from gammasep.simulate import (
    BURST_AMPLITUDE_UV,
    NOISE_EXPONENT,
    SAMPLE_RATE_HZ,
    TRANSIENT_AMPLITUDE_UV,
    OverlapRegime,
    SimConfig,
    build_realization,
    gen_colored_noise,
    gen_gamma_burst,
    gen_transient,
)
from oracles import same_bits


def shared_samples(a, b):
    """Number of samples two windows have in common."""
    return max(0, min(a.end_sample, b.end_sample) - max(a.start_sample, b.start_sample))


class TestGammaBurst:
    def test_length_follows_duration(self):
        assert gen_gamma_burst(45.0).size == 102  # 200 ms
        assert gen_gamma_burst(55.0).size == 92  # 180 ms
        assert gen_gamma_burst(85.0).size == 77  # 150 ms

    @pytest.mark.parametrize("freq", [45.0, 55.0, 85.0])
    def test_peak_is_exactly_the_amplitude(self, freq):
        assert np.max(np.abs(gen_gamma_burst(freq))) == BURST_AMPLITUDE_UV

    @pytest.mark.parametrize("freq", [45.0, 55.0, 85.0])
    def test_taper_pins_endpoints_to_zero(self, freq):
        burst = gen_gamma_burst(freq)
        assert burst[0] == 0.0
        assert burst[-1] == 0.0

    def test_other_frequencies_last_nine_cycles(self):
        assert gen_gamma_burst(60.0).size == 77  # 150 ms at 512 Hz

    def test_just_below_nyquist_still_peaks_at_the_amplitude(self):
        burst = gen_gamma_burst(255.9)
        assert burst.size == 18
        # the peak times BURST_AMPLITUDE_UV / peak, rounded twice
        assert np.max(np.abs(burst)) == pytest.approx(BURST_AMPLITUDE_UV, rel=1e-15)
        assert burst[0] == 0.0 and burst[-1] == 0.0

    @pytest.mark.parametrize("freq", [45.0, 55.0, 85.0])
    def test_spectrum_peaks_at_the_target(self, freq):
        burst = gen_gamma_burst(freq)
        spectrum = np.abs(np.fft.rfft(burst))
        peak_hz = np.argmax(spectrum) * SAMPLE_RATE_HZ / burst.size
        assert abs(peak_hz - freq) <= SAMPLE_RATE_HZ / burst.size  # within one bin

    @pytest.mark.parametrize("freq", [0.0, -5.0, 256.0, 300.0, math.nan])
    def test_rejects_a_frequency_outside_zero_to_nyquist(self, freq):
        with pytest.raises(ValueError, match="freq_hz must lie in"):
            gen_gamma_burst(freq)


class TestTransient:
    def test_peak_is_exactly_the_amplitude(self):
        spike = gen_transient()
        assert spike.size == 10
        assert np.max(np.abs(spike)) == TRANSIENT_AMPLITUDE_UV

    def test_template_is_odd_about_center(self):
        spike = gen_transient()
        np.testing.assert_allclose(spike, -spike[::-1], atol=1e-12)

    def test_twenty_ms_spike_energy_sits_in_the_gamma_band(self):
        # why a spike confounds a gamma map: its spectrum peaks near 50 Hz
        spectrum = np.abs(np.fft.rfft(gen_transient(), 4096)) ** 2
        freqs = np.fft.rfftfreq(4096, 1.0 / SAMPLE_RATE_HZ)
        assert 40.0 <= freqs[np.argmax(spectrum)] <= 60.0
        gamma = spectrum[(freqs >= 40.0) & (freqs <= 90.0)].sum()
        assert gamma / spectrum.sum() >= 0.6

    def test_template_is_biphasic_and_zero_mean(self):
        spike = gen_transient()
        assert spike.max() > 0 and spike.min() < 0
        assert abs(spike.sum()) <= 1e-9 * np.sum(np.abs(spike))


class TestColoredNoise:
    def test_deterministic_per_seed(self):
        a = gen_colored_noise(1000, 42)
        b = gen_colored_noise(1000, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_colored_noise(1000, 43))

    @pytest.mark.parametrize("n", [1, 2, 999, 5000])
    def test_unit_variance_exactly(self, n):
        noise = gen_colored_noise(n, 7)
        if n == 1:
            # one sample has only the DC bin, which is zeroed
            assert same_bits(noise, np.zeros(1))
        else:
            assert noise.std() == pytest.approx(1.0, abs=1e-12)

    def test_spectral_slope_is_one_over_f(self):
        n = 4096
        psd = np.zeros(n // 2 + 1)
        for seed in range(20):
            noise = gen_colored_noise(n, seed)
            psd += np.abs(np.fft.rfft(noise)) ** 2
        k = np.arange(psd.size)
        keep = k >= 10  # skip the lowest bins where variance dominates
        slope = np.polyfit(np.log(k[keep]), np.log(psd[keep]), 1)[0]
        assert abs(slope + NOISE_EXPONENT) <= 0.3

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            gen_colored_noise(0, 0)

    @pytest.mark.parametrize("n", [5000, 30720, 999])
    def test_shared_gains_give_the_per_call_noise(self, n):
        # the gains built afresh on each call, as the noise was first defined
        spectrum = np.fft.rfft(np.random.default_rng(3).standard_normal(n))
        k = np.arange(spectrum.size, dtype=np.float64)
        gains = np.zeros(spectrum.size)
        gains[1:] = k[1:] ** (-NOISE_EXPONENT / 2.0)
        noise = np.fft.irfft(spectrum * gains, n)
        assert same_bits(gen_colored_noise(n, 3), noise / noise.std())
        shared = simulate._noise_gains(spectrum.size)
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
        assert shared_samples(ct.burst_window, ct.transient_window) == 0
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
            overlap = shared_samples(ct.burst_window, ct.transient_window)
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
        config = SimConfig(snr_db=math.inf, n_realizations=2)
        signal, truth = build_realization(config, 1)
        for ch, ct in enumerate(truth.channels):
            burst = gen_gamma_burst(ct.burst_freq_hz)
            spike = gen_transient()
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
