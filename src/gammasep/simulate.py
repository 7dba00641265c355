"""Synthetic three-channel recordings mixing gamma bursts, biphasic
transients and colored noise under controlled overlap regimes.

Each realization places one tapered sinusoidal burst and one spike per
channel, then adds spectrally shaped noise scaled to an exact signal-to-noise
ratio over the burst window. Everything is deterministic given the seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .signal_core import (
    MultiChannelSignal,
    TimeWindow,
    ms_to_samples,
    oscillation_duration_ms,
)

__all__ = [
    "ChannelTruth",
    "GroundTruth",
    "OverlapRegime",
    "SimConfig",
    "build_realization",
    "gen_colored_noise",
    "gen_gamma_burst",
    "gen_transient",
]


class OverlapRegime(enum.Enum):
    SEPARATED = "separated"
    OVERLAPPED = "overlapped"
    FULLY_OVERLAPPED = "fully_overlapped"


@dataclass(frozen=True)
class SimConfig:
    """Tunables of the simulated protocol.

    Defaults give three channels at 45/55/85 Hz demonstrating the three
    overlap regimes in order, 5000 samples at 512 Hz, 200 realizations.
    Every float setting must be finite, except snr_db, which may be +inf
    (no noise is added).

    rng_seed does not give independent data per seed: channel ch of
    realization i draws its noise from seed (rng_seed ^ i) * n_channels + ch,
    so two seeds below the realization count reuse most of the same draws,
    permuted across realizations (every seed below 64 gives realizations
    0-63 the same 64 draws; seeds 5 and 13 share 192 of 200). A seed meant
    to confirm a result on fresh data must be at least the realization
    count.
    """

    sample_rate_hz: float = 512.0
    n_samples: int = 5000
    burst_freqs_hz: tuple = (45.0, 55.0, 85.0)
    overlap_regimes: tuple = (
        OverlapRegime.SEPARATED,
        OverlapRegime.OVERLAPPED,
        OverlapRegime.FULLY_OVERLAPPED,
    )
    snr_db: float = 5.0
    n_realizations: int = 200
    rng_seed: int = 0
    noise_exponent: float = 1.0
    burst_amplitude_uv: float = 50.0
    transient_amplitude_uv: float = 100.0
    transient_width_ms: float = 20.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        for key in ("sample_rate_hz", "noise_exponent", "burst_amplitude_uv",
                    "transient_amplitude_uv", "transient_width_ms"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        # +inf is the noiseless setting; NaN and -inf have no meaning
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db!r}")
        if self.transient_width_ms <= 0:
            raise ValueError(
                f"transient_width_ms must be positive, got {self.transient_width_ms!r}"
            )
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        freqs = tuple(float(f) for f in self.burst_freqs_hz)
        nyquist = self.sample_rate_hz / 2.0
        for f in freqs:
            if not 0 < f < nyquist:
                raise ValueError(f"burst frequency {f} outside (0, {nyquist})")
        regimes = tuple(
            r if isinstance(r, OverlapRegime) else OverlapRegime(str(r))
            for r in self.overlap_regimes
        )
        if len(regimes) != len(freqs):
            raise ValueError(
                f"{len(regimes)} overlap regimes for {len(freqs)} channels"
            )
        object.__setattr__(self, "burst_freqs_hz", freqs)
        object.__setattr__(self, "overlap_regimes", regimes)

    @property
    def n_channels(self):
        return len(self.burst_freqs_hz)


@dataclass(frozen=True)
class ChannelTruth:
    """Where one channel's burst and transient actually lie."""

    burst_window: TimeWindow
    burst_freq_hz: float
    transient_window: TimeWindow
    overlap_fraction: float


@dataclass(frozen=True)
class GroundTruth:
    channels: tuple

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))


def gen_gamma_burst(freq_hz, duration_ms, amplitude_uv, sample_rate_hz):
    """Sinusoid under a raised-cosine taper, peak |value| = amplitude_uv.

    The taper starts and ends at zero, so the burst is exactly zero outside
    its own support.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if not 0 < freq_hz < sample_rate_hz / 2.0:
        raise ValueError(
            f"freq_hz must lie below Nyquist ({sample_rate_hz / 2.0}), got {freq_hz}"
        )
    n = ms_to_samples(duration_ms, sample_rate_hz)
    if n == 0:
        return np.zeros(0)
    t = np.arange(n)
    burst = np.sin(2.0 * np.pi * freq_hz * t / sample_rate_hz) * np.hanning(n)
    peak = np.max(np.abs(burst))
    if peak == 0.0:
        return np.zeros(n)
    return burst * (amplitude_uv / peak)


def gen_transient(width_ms, amplitude_uv, sample_rate_hz):
    """Biphasic spike: first derivative of a Gaussian, peak = amplitude_uv.

    Sampled symmetrically about its center, so the template is odd and sums
    to zero. The Gaussian spread is width/6, putting the support inside
    three standard deviations on each side.
    """
    if width_ms <= 0:
        raise ValueError("width_ms must be positive")
    n = ms_to_samples(width_ms, sample_rate_hz)
    if n == 0:
        return np.zeros(0)
    t = np.arange(n) - (n - 1) / 2.0
    sigma = n / 6.0
    spike = -t * np.exp(-(t * t) / (2.0 * sigma * sigma))
    peak = np.max(np.abs(spike))
    if peak == 0.0:
        return np.zeros(n)
    return spike * (amplitude_uv / peak)


def gen_colored_noise(n, exponent, rng_seed):
    """Unit-variance noise with power spectrum proportional to 1/f^exponent.

    White Gaussian noise is shaped in the frequency domain by k^(-exponent/2)
    per positive bin, the DC bin is zeroed, and the result is rescaled to
    exactly unit sample variance.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(rng_seed)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    k = np.arange(spectrum.size, dtype=np.float64)
    gains = np.zeros(spectrum.size)
    gains[1:] = k[1:] ** (-exponent / 2.0)
    noise = np.fft.irfft(spectrum * gains, n)
    std = noise.std()
    if std == 0.0:
        return np.zeros(n)
    return noise / std


def _place(template, start, n):
    out = np.zeros(n)
    start = int(start)
    stop = start + template.size
    if start < 0 or stop > n:
        raise ValueError(
            f"placement [{start}, {stop}) falls outside signal of length {n}"
        )
    out[start:stop] = template
    return out


def _channel_seed(config, realization_index, ch):
    return (config.rng_seed ^ realization_index) * config.n_channels + ch


def build_realization(config, realization_index):
    """One multichannel realization plus the windows it was built from.

    Bursts are centered mid-signal. Transient placement depends on the
    channel's regime: separated puts the spike at the quarter point,
    fully overlapped centers it on the burst, and overlapped slides it
    across the burst onset by realization_index/(n_realizations - 1).
    """
    if not 0 <= realization_index < config.n_realizations:
        raise ValueError(
            f"realization_index {realization_index} outside "
            f"[0, {config.n_realizations})"
        )
    n = config.n_samples
    fs = config.sample_rate_hz
    if config.n_realizations > 1:
        sweep = realization_index / (config.n_realizations - 1)
    else:
        sweep = 0.0

    rows = []
    truths = []
    for ch, (freq, regime) in enumerate(
        zip(config.burst_freqs_hz, config.overlap_regimes)
    ):
        burst = gen_gamma_burst(
            freq, oscillation_duration_ms(freq), config.burst_amplitude_uv, fs
        )
        spike = gen_transient(
            config.transient_width_ms, config.transient_amplitude_uv, fs
        )
        burst_start = n // 2 - burst.size // 2
        if regime is OverlapRegime.SEPARATED:
            spike_start = n // 4 - spike.size // 2
            fraction = 0.0
        elif regime is OverlapRegime.FULLY_OVERLAPPED:
            spike_start = burst_start + burst.size // 2 - spike.size // 2
            fraction = 1.0
        else:
            spike_start = burst_start - spike.size + int(round(sweep * spike.size))
            fraction = sweep
        clean = _place(burst, burst_start, n) + _place(spike, spike_start, n)

        burst_window = TimeWindow(burst_start, burst.size)
        transient_window = TimeWindow(spike_start, spike.size)
        noisy = clean
        if math.isfinite(config.snr_db):
            noise = gen_colored_noise(
                n, config.noise_exponent, _channel_seed(config, realization_index, ch)
            )
            win = slice(burst_window.start_sample, burst_window.end_sample)
            clean_power = np.mean(clean[win] ** 2)
            noise_power = np.mean(noise[win] ** 2)
            if noise_power > 0.0 and clean_power > 0.0:
                target = clean_power / 10.0 ** (config.snr_db / 10.0)
                noisy = clean + noise * math.sqrt(target / noise_power)
        rows.append(noisy)
        truths.append(
            ChannelTruth(
                burst_window=burst_window,
                burst_freq_hz=freq,
                transient_window=transient_window,
                overlap_fraction=fraction,
            )
        )

    signal = MultiChannelSignal(
        sample_rate_hz=fs,
        channel_labels=tuple(f"ch{c + 1}" for c in range(config.n_channels)),
        data=np.vstack(rows),
    )
    return signal, GroundTruth(channels=tuple(truths))
