"""Synthetic three-channel recordings mixing gamma bursts, biphasic
transients and colored noise under controlled overlap regimes.

Each realization places one tapered sinusoidal burst and one spike per
channel, then adds spectrally shaped noise scaled to an exact signal-to-noise
ratio over the burst window. Everything is deterministic given the seed.
"""

from __future__ import annotations

import enum
import math
import numbers
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


def require_integer(key, value, minimum=1):
    """Raise unless `value` is an integer (not a bool) of at least `minimum`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value}")


def require_number(key, value):
    """Raise unless `value` is a finite real number (not a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")


def number_tuple(key, value):
    """`value`, a list or tuple of finite real numbers, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list, got {value!r}")
    value = tuple(value)
    for v in value:
        require_number(f"each {key} entry", v)
    return value


@dataclass(frozen=True)
class SimConfig:
    """Tunables of the simulated protocol.

    Defaults give three channels at 45/55/85 Hz demonstrating the three
    overlap regimes in order, 5000 samples at 512 Hz, 200 realizations.
    Every float setting must be finite, except snr_db, which may be +inf
    (no noise is added). burst_freqs_hz is a list of numbers and
    overlap_regimes a list of as many regimes. n_samples and n_realizations
    are positive integers and rng_seed a non-negative one. The transient must span at least one
    sample, and every burst and transient must fit inside n_samples at each
    placement `build_realization` gives it.

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
        for key in ("sample_rate_hz", "noise_exponent", "burst_amplitude_uv",
                    "transient_amplitude_uv", "transient_width_ms"):
            require_number(key, getattr(self, key))
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if not isinstance(self.snr_db, numbers.Real) or isinstance(self.snr_db, bool):
            raise TypeError(f"snr_db must be a number, got {self.snr_db!r}")
        # +inf is the noiseless setting; NaN and -inf have no meaning
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db!r}")
        if self.transient_width_ms <= 0:
            raise ValueError(
                f"transient_width_ms must be positive, got {self.transient_width_ms!r}"
            )
        require_integer("n_samples", self.n_samples)
        require_integer("n_realizations", self.n_realizations)
        require_integer("rng_seed", self.rng_seed, minimum=0)
        freqs = tuple(
            float(f) for f in number_tuple("burst_freqs_hz", self.burst_freqs_hz)
        )
        nyquist = self.sample_rate_hz / 2.0
        for f in freqs:
            if not 0 < f < nyquist:
                raise ValueError(f"burst frequency {f} outside (0, {nyquist})")
        if not isinstance(self.overlap_regimes, (list, tuple)):
            raise TypeError(
                f"overlap_regimes must be a list, got {self.overlap_regimes!r}"
            )
        try:
            regimes = tuple(OverlapRegime(r) for r in self.overlap_regimes)
        except ValueError as exc:
            raise ValueError(f"overlap_regimes: {exc}") from None
        if len(regimes) != len(freqs):
            raise ValueError(
                f"{len(regimes)} overlap regimes for {len(freqs)} channels"
            )
        object.__setattr__(self, "burst_freqs_hz", freqs)
        object.__setattr__(self, "overlap_regimes", regimes)
        self._check_placements()

    def _check_placements(self):
        """Raise unless every realization's burst and transient fit the signal."""
        fs = self.sample_rate_hz
        spike_len = ms_to_samples(self.transient_width_ms, fs)
        if spike_len < 1:
            raise ValueError(
                f"transient_width_ms {self.transient_width_ms!r} is shorter than "
                f"one sample at {fs!r} Hz"
            )
        n = self.n_samples
        # the overlapped spike moves monotonically with the sweep, so the
        # first and last realizations bound every placement
        sweeps = {_sweep(self, 0), _sweep(self, self.n_realizations - 1)}
        for freq, regime in zip(self.burst_freqs_hz, self.overlap_regimes):
            burst_len = ms_to_samples(oscillation_duration_ms(freq), fs)
            for sweep in sweeps:
                starts = _layout(n, burst_len, spike_len, regime, sweep)[:2]
                for start, length in zip(starts, (burst_len, spike_len)):
                    if start < 0 or start + length > n:
                        raise ValueError(
                            f"n_samples {n} is too short for the {freq!r} Hz "
                            f"channel: [{start}, {start + length}) falls outside "
                            f"[0, {n})"
                        )

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
    # SimConfig has checked that every placement fits inside the signal
    out = np.zeros(n)
    out[start : start + template.size] = template
    return out


def _channel_seed(config, realization_index, ch):
    return (config.rng_seed ^ realization_index) * config.n_channels + ch


def _sweep(config, realization_index):
    """Where the overlapped spike sits along its sweep, from 0 to 1."""
    if config.n_realizations > 1:
        return realization_index / (config.n_realizations - 1)
    return 0.0


def _layout(n, burst_len, spike_len, regime, sweep):
    """Burst start, spike start and overlap fraction of one channel."""
    burst_start = n // 2 - burst_len // 2
    if regime is OverlapRegime.SEPARATED:
        return burst_start, n // 4 - spike_len // 2, 0.0
    if regime is OverlapRegime.FULLY_OVERLAPPED:
        return burst_start, burst_start + burst_len // 2 - spike_len // 2, 1.0
    return burst_start, burst_start - spike_len + int(round(sweep * spike_len)), sweep


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
    sweep = _sweep(config, realization_index)

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
        burst_start, spike_start, fraction = _layout(
            n, burst.size, spike.size, regime, sweep
        )
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
