"""Synthetic three-channel recordings mixing gamma bursts, biphasic
transients and colored noise under controlled overlap regimes.

The recording protocol is fixed: 512 Hz sampling, 1/f noise, 50 uV bursts
and 100 uV, 20 ms spikes. The generators read these module constants and
take only what a realization varies: the burst frequency, and the noise
length and seed. Each realization places one tapered sinusoidal burst and
one spike per channel, then adds the noise scaled to an exact
signal-to-noise ratio over the burst window. Everything is deterministic
given the seed.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .signal_core import (
    MultiChannelSignal,
    TimeWindow,
    ms_to_samples,
    number_tuple,
    oscillation_duration_ms,
    require_frequency,
    require_integer,
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

SAMPLE_RATE_HZ = 512.0
NOISE_EXPONENT = 1.0
BURST_AMPLITUDE_UV = 50.0
TRANSIENT_AMPLITUDE_UV = 100.0
TRANSIENT_WIDTH_MS = 20.0
# entries of the noise gain cache; a run uses one recording length
_GAINS_CACHE_SIZE = 8


class OverlapRegime(enum.Enum):
    SEPARATED = "separated"
    OVERLAPPED = "overlapped"
    FULLY_OVERLAPPED = "fully_overlapped"


@dataclass(frozen=True)
class SimConfig:
    """The six settings of the simulated protocol.

    Defaults give three channels at 45/55/85 Hz demonstrating the three
    overlap regimes in order, 5000 samples, 5 dB SNR, 200 realizations.
    burst_freqs_hz is a non-empty list of numbers below SAMPLE_RATE_HZ / 2
    and overlap_regimes a list of as many regimes. snr_db lies within
    +-300 dB or is +inf (no noise is added). n_samples and n_realizations
    are positive integers and rng_seed a non-negative one. Every burst and
    transient must fit inside n_samples at each placement
    `build_realization` gives it.

    rng_seed does not give independent data per seed: channel ch of
    realization i draws its noise from seed (rng_seed ^ i) * n_channels + ch,
    so two seeds below the realization count reuse most of the same draws,
    permuted across realizations (every seed below 64 gives realizations
    0-63 the same 64 draws; seeds 5 and 13 share 192 of 200). A seed meant
    to confirm a result on fresh data must be at least the realization
    count.
    """

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

    def __post_init__(self):
        snr = self.snr_db
        if not isinstance(snr, numbers.Real) or isinstance(snr, bool):
            raise TypeError(f"snr_db must be a number, got {snr!r}")
        # +inf is the noiseless setting. Within +-300 dB the noise scale is
        # finite (at 300 dB the noise amplitude is 1e-15 of the clean part,
        # float64's rounding of it); the comparison also refuses NaN and -inf
        if snr != math.inf and not -300 <= snr <= 300:
            raise ValueError(
                f"snr_db must be finite within [-300, 300] or +inf, got {snr!r}"
            )
        # an int snr_db is stored, and later printed, as a float
        object.__setattr__(self, "snr_db", float(snr))
        require_integer("n_samples", self.n_samples)
        require_integer("n_realizations", self.n_realizations)
        require_integer("rng_seed", self.rng_seed, minimum=0)
        freqs = tuple(
            float(f) for f in number_tuple("burst_freqs_hz", self.burst_freqs_hz)
        )
        if not freqs:
            raise ValueError("burst_freqs_hz must list at least one frequency")
        for f in freqs:
            require_frequency("each burst_freqs_hz entry", f, SAMPLE_RATE_HZ)
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
        spike_len = ms_to_samples(TRANSIENT_WIDTH_MS, SAMPLE_RATE_HZ)
        n = self.n_samples
        # the overlapped spike moves monotonically with the sweep, so the
        # first and last realizations bound every placement
        sweeps = {_sweep(self, 0), _sweep(self, self.n_realizations - 1)}
        for freq, regime in zip(self.burst_freqs_hz, self.overlap_regimes):
            burst_len = ms_to_samples(oscillation_duration_ms(freq), SAMPLE_RATE_HZ)
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


def gen_gamma_burst(freq_hz):
    """Sinusoid under a raised-cosine taper, peak |value| BURST_AMPLITUDE_UV.

    It lasts `oscillation_duration_ms(freq_hz)` at SAMPLE_RATE_HZ, at least
    18 samples below Nyquist. The taper starts and ends at zero, so the
    burst is exactly zero outside its own support.
    """
    require_frequency("freq_hz", freq_hz, SAMPLE_RATE_HZ)
    n = ms_to_samples(oscillation_duration_ms(freq_hz), SAMPLE_RATE_HZ)
    t = np.arange(n)
    burst = np.sin(2.0 * np.pi * freq_hz * t / SAMPLE_RATE_HZ) * np.hanning(n)
    return burst * (BURST_AMPLITUDE_UV / np.max(np.abs(burst)))


def gen_transient():
    """Biphasic spike: first derivative of a Gaussian, peak TRANSIENT_AMPLITUDE_UV.

    TRANSIENT_WIDTH_MS long (10 samples), sampled symmetrically about its
    center, so the template is odd and sums to zero. The Gaussian spread is
    width/6, putting the support inside three standard deviations on each
    side.
    """
    n = ms_to_samples(TRANSIENT_WIDTH_MS, SAMPLE_RATE_HZ)
    t = np.arange(n) - (n - 1) / 2.0
    sigma = n / 6.0
    spike = -t * np.exp(-(t * t) / (2.0 * sigma * sigma))
    return spike * (TRANSIENT_AMPLITUDE_UV / np.max(np.abs(spike)))


def gen_colored_noise(n, rng_seed):
    """Unit-variance noise of n samples with power spectrum 1/f^NOISE_EXPONENT.

    White Gaussian noise is shaped in the frequency domain by
    k^(-NOISE_EXPONENT/2) per positive bin, the DC bin is zeroed, and the
    result is rescaled to exactly unit sample variance. The gains are built
    once per spectrum size and shared read-only.
    """
    require_integer("n", n)
    rng = np.random.default_rng(rng_seed)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    noise = np.fft.irfft(spectrum * _noise_gains(spectrum.size), n)
    std = noise.std()
    if std == 0.0:
        return np.zeros(n)
    return noise / std


@functools.lru_cache(maxsize=_GAINS_CACHE_SIZE)
def _noise_gains(bins):
    """Read-only gain k**(-NOISE_EXPONENT/2) of each rfft bin k, and 0.0 at DC."""
    k = np.arange(bins, dtype=np.float64)
    gains = np.zeros(bins)
    gains[1:] = k[1:] ** (-NOISE_EXPONENT / 2.0)
    gains.setflags(write=False)
    return gains


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
    sweep = _sweep(config, realization_index)
    spike = gen_transient()

    rows = []
    truths = []
    for ch, (freq, regime) in enumerate(
        zip(config.burst_freqs_hz, config.overlap_regimes)
    ):
        burst = gen_gamma_burst(freq)
        burst_start, spike_start, fraction = _layout(
            n, burst.size, spike.size, regime, sweep
        )
        clean = _place(burst, burst_start, n) + _place(spike, spike_start, n)

        burst_window = TimeWindow(burst_start, burst.size)
        transient_window = TimeWindow(spike_start, spike.size)
        noisy = clean
        if math.isfinite(config.snr_db):
            noise = gen_colored_noise(n, _channel_seed(config, realization_index, ch))
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
        sample_rate_hz=SAMPLE_RATE_HZ,
        channel_labels=tuple(f"ch{c + 1}" for c in range(config.n_channels)),
        data=np.vstack(rows),
    )
    return signal, GroundTruth(channels=tuple(truths))
