"""Complex-wavelet band energy maps over channels and time, with a simple
threshold detector for sustained energy build-up.

Per channel the chain is: band-pass FIR, complex-wavelet magnitude energy
averaged over scales covering the band, a wide moving average, then division
by the channel's own smoothed 10-15 Hz energy. The resulting ratio map is
non-negative and invariant to rescaling the input.

One constant, RAMP_FRACTION = 1/2 - RUN_LENGTH / SMOOTH_WIDTH = 1/4, sets
both the floor of the divisor and the detector threshold on maps whose MAD
is zero. The moving average turns a step in energy at sample s into a linear
ramp from s - SMOOTH_WIDTH/2 to s + SMOOTH_WIDTH/2; a run of RUN_LENGTH
samples that starts where the ramp passes RAMP_FRACTION of its height ends
at s, so the detector's onset lands on the step itself.

The divisor is floored at RAMP_FRACTION of the channel's peak low-band
energy. Despiked channels keep almost no 10-15 Hz energy away from the
burst, and an unfloored ratio there grows without limit until a channel
with no gamma outweighs the one that has it. Using the same fraction for
floor and threshold makes the threshold independent of it: on a despiked
burst the divisor is near its peak while the band energy rises and drops
under the floor later, so the map peak is band peak / (RAMP_FRACTION *
low-band peak), and RAMP_FRACTION of that is band peak / low-band peak. A
channel crosses once its band energy has climbed to its plateau against
the undiminished divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backends import centered_conv, centered_conv_complex
from .signal_core import MultiChannelSignal, ms_to_samples

__all__ = [
    "BuildupDetection",
    "MorletParams",
    "SpatioTemporalMap",
    "band_for_target",
    "bandpass",
    "bandpass_taps",
    "detect_buildup",
    "envelope_smooth",
    "map_row",
    "morlet_kernel",
    "morlet_transform",
    "normalize_by_low_band",
    "pseudo_frequency",
    "scale_for_frequency",
    "scales_for_band",
    "spatiotemporal_map",
]

DEFAULT_W0 = 6.0
DEFAULT_S = 1.0
SMOOTH_WIDTH = 256
LOW_BAND_HZ = (10.0, 15.0)
RUN_LENGTH = 64
CHANNEL_WINDOW_MS = 500.0
DEFAULT_K_SIGMA = 6.0
# fraction of a smoothed step's height at which a RUN_LENGTH run ends on
# the step; see the module docstring
RAMP_FRACTION = 0.5 - RUN_LENGTH / SMOOTH_WIDTH

# keep kernel samples while the Gaussian envelope is at least this fraction
# of its peak
_ENVELOPE_FLOOR = 1e-6


def band_for_target(target_freq_hz):
    """Analysis band, in Hz, assigned to an oscillation target.

    Each target gets the 10 Hz band centered on it: 45 -> (40, 50),
    55 -> (50, 60), 85 -> (80, 90).
    """
    if target_freq_hz <= 0:
        raise ValueError(f"target_freq_hz must be positive, got {target_freq_hz}")
    return (float(target_freq_hz) - 5.0, float(target_freq_hz) + 5.0)


def pseudo_frequency(a, sample_rate_hz, w0=DEFAULT_W0):
    """Center frequency in Hz that a dilation value responds to."""
    return sample_rate_hz * w0 / (2.0 * math.pi * a)


def scale_for_frequency(freq_hz, sample_rate_hz, w0=DEFAULT_W0):
    return sample_rate_hz * w0 / (2.0 * math.pi * freq_hz)


def scales_for_band(band_hz, sample_rate_hz, w0=DEFAULT_W0):
    """Dilation values whose pseudo-frequencies tile the band at 1 Hz steps.

    Both endpoints are included when they are whole numbers of Hz.
    """
    low, high = band_hz
    if not 0 < low < high:
        raise ValueError(f"band must satisfy 0 < low < high, got {band_hz}")
    freqs = np.arange(math.ceil(low), math.floor(high) + 1, dtype=np.float64)
    if freqs.size == 0:
        freqs = np.array([(low + high) / 2.0])
    return tuple(scale_for_frequency(f, sample_rate_hz, w0) for f in freqs)


@dataclass(frozen=True)
class MorletParams:
    """Complex-wavelet parameters: center frequency w0, spread s, dilations."""

    sample_rate_hz: float
    scales: tuple
    w0: float = DEFAULT_W0
    s: float = DEFAULT_S

    def __post_init__(self):
        if self.w0 <= 0 or self.s <= 0:
            raise ValueError("w0 and s must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        scales = tuple(float(a) for a in self.scales)
        if not scales or any(a <= 0 for a in scales):
            raise ValueError("scales must be a non-empty list of positive reals")
        object.__setattr__(self, "scales", scales)

    @classmethod
    def for_band(cls, band_hz, sample_rate_hz, w0=DEFAULT_W0, s=DEFAULT_S):
        return cls(
            sample_rate_hz=sample_rate_hz,
            scales=scales_for_band(band_hz, sample_rate_hz, w0),
            w0=w0,
            s=s,
        )


def morlet_kernel(params, a):
    """Discrete complex kernel at one dilation, unit sample spacing.

    The complex exponential at w0/a rides a Gaussian of spread a*s, scaled
    by 1/a, truncated where the envelope drops below 1e-6 of its peak.
    """
    if a <= 0:
        raise ValueError(f"dilation must be positive, got {a}")
    radius = int(math.floor(a * params.s * math.sqrt(-2.0 * math.log(_ENVELOPE_FLOOR))))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    u = t / a
    return (1.0 / a) * np.exp(1j * params.w0 * u) * np.exp(-(u * u) / (2.0 * params.s ** 2))


def morlet_transform(x, params):
    """Scales x samples matrix of complex responses, zero-padded boundaries."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
    rows = [centered_conv_complex(x, morlet_kernel(params, a)) for a in params.scales]
    return np.vstack(rows)


def bandpass_taps(band_hz, sample_rate_hz):
    """Linear-phase band-pass FIR taps: windowed ideal response.

    Length is set for a 5 Hz transition width, the tap sum is zeroed so DC
    is rejected exactly, and the gain is normalized to one at band center.
    """
    low, high = band_hz
    nyquist = sample_rate_hz / 2.0
    if not 0 < low < high < nyquist:
        raise ValueError(
            f"band must satisfy 0 < low < high < {nyquist}, got {band_hz}"
        )
    transition_hz = 5.0
    n_taps = int(math.ceil(3.3 * sample_rate_hz / transition_hz))
    if n_taps % 2 == 0:
        n_taps += 1
    m = np.arange(n_taps) - (n_taps - 1) / 2.0
    ideal = (2.0 * high / sample_rate_hz) * np.sinc(2.0 * high * m / sample_rate_hz) - (
        2.0 * low / sample_rate_hz
    ) * np.sinc(2.0 * low * m / sample_rate_hz)
    taps = ideal * np.hamming(n_taps)
    taps -= taps.mean()
    center = (low + high) / 2.0
    gain = np.abs(
        np.sum(taps * np.exp(-2j * np.pi * center * m / sample_rate_hz))
    )
    if gain > 0.0:
        taps = taps / gain
    return taps


def bandpass(x, band_hz, sample_rate_hz):
    """Zero-phase band-pass of one channel, length preserved.

    The symmetric odd-length taps are applied center-aligned, which cancels
    the filter's group delay.
    """
    x = np.asarray(x, dtype=np.float64)
    return centered_conv(x, bandpass_taps(band_hz, sample_rate_hz))


def envelope_smooth(x, width_samples):
    """Centered moving average; the window shrinks at the boundaries.

    For even widths the window covers width/2 samples to the left and
    width/2 - 1 to the right of each position.
    """
    if width_samples < 1:
        raise ValueError(f"width must be >= 1, got {width_samples}")
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    width = int(width_samples)
    if width == 1 or n == 0:
        return x.copy()
    left = width // 2
    right = width - 1 - left
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(idx - left, 0)
    hi = np.minimum(idx + right, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def normalize_by_low_band(band_energy, x_original, sample_rate_hz):
    """Divide a band-energy envelope by the channel's low-band energy.

    The denominator is the smoothed squared 10-15 Hz component of the
    original channel, floored at RAMP_FRACTION (1/4) of its own peak.
    Every output sample therefore obeys

        out <= band_energy / (RAMP_FRACTION * max(low-band energy)),

    so samples where the low band has died away, as in the tails of a
    despiked channel, are measured against a quarter of the channel's peak
    instead of against nothing. Where the low band is above the floor the
    ratio is the plain quotient. Zero energy stays zero, and an input with
    no low-band energy at all maps to zeros. A low-band energy that
    overflows raises ValueError.
    """
    band_energy = np.asarray(band_energy, dtype=np.float64)
    x_original = np.asarray(x_original, dtype=np.float64)
    if band_energy.shape != x_original.shape:
        raise ValueError(
            f"shape mismatch: {band_energy.shape} vs {x_original.shape}"
        )
    # an overflow is reported below as a ValueError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        low = bandpass(x_original, LOW_BAND_HZ, sample_rate_hz)
        low_energy = envelope_smooth(low * low, SMOOTH_WIDTH)
    if not np.isfinite(low_energy).all():
        raise ValueError("low-band energy is not finite; check the input scale")
    floor = RAMP_FRACTION * np.max(low_energy) if low_energy.size else 0.0
    denom = np.maximum(low_energy, floor)
    out = np.zeros_like(band_energy)
    np.divide(band_energy, denom, out=out, where=denom > 0.0)
    return out


@dataclass(frozen=True)
class SpatioTemporalMap:
    """Channels x time matrix of normalized band energy."""

    values: np.ndarray
    band_hz: tuple
    channel_labels: tuple
    sample_rate_hz: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be 2-D (channels x samples)")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("map values must be finite and non-negative")
        labels = tuple(str(lab) for lab in self.channel_labels)
        if len(labels) != values.shape[0]:
            raise ValueError(f"{len(labels)} labels for {values.shape[0]} rows")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "band_hz", tuple(float(b) for b in self.band_hz))


def map_row(x, band_hz, params):
    """Single-channel version of the map chain; returns one row.

    Raises ValueError when the band energy or the low-band energy overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        filtered = bandpass(x, band_hz, params.sample_rate_hz)
        response = morlet_transform(filtered, params)
        band_energy = np.mean(np.abs(response) ** 2, axis=0)
        smoothed = envelope_smooth(band_energy, SMOOTH_WIDTH)
    if not np.isfinite(smoothed).all():
        raise ValueError("band energy is not finite; check the input scale")
    return normalize_by_low_band(smoothed, x, params.sample_rate_hz)


def spatiotemporal_map(signal, band_hz, params=None):
    """Normalized band-energy map of every channel of a signal.

    When params is omitted, scales are laid out over the band at 1 Hz
    pseudo-frequency spacing with the default w0 and s; an explicit params
    value contributes w0 and s but the scales are still derived from the
    band so rows always measure in-band energy.
    """
    low, high = band_hz
    if not 0 < low < high < signal.sample_rate_hz / 2.0:
        raise ValueError(f"band {band_hz} outside (0, Nyquist)")
    if params is None:
        params = MorletParams.for_band(band_hz, signal.sample_rate_hz)
    else:
        params = MorletParams.for_band(
            band_hz, signal.sample_rate_hz, w0=params.w0, s=params.s
        )
    rows = []
    for ch in range(signal.n_channels):
        try:
            rows.append(map_row(signal.data[ch], band_hz, params))
        except ValueError as exc:
            raise ValueError(f"{signal.channel_labels[ch]}: {exc}") from None
    return SpatioTemporalMap(
        values=np.vstack(rows),
        band_hz=(float(low), float(high)),
        channel_labels=signal.channel_labels,
        sample_rate_hz=signal.sample_rate_hz,
    )


@dataclass(frozen=True)
class BuildupDetection:
    """Channels and time of the first sustained energy build-up.

    onset_sample is -1 and channel_indices empty when nothing sustained
    crosses the threshold.
    """

    channel_indices: frozenset
    onset_sample: int
    peak_energy: float

    @property
    def detected(self):
        return bool(self.channel_indices)


def _first_sustained_run(above, run_length):
    """Start of the earliest run of at least run_length consecutive True."""
    best = -1
    count = 0
    for i, flag in enumerate(above):
        if flag:
            count += 1
            if count == run_length:
                best = i - run_length + 1
                break
        else:
            count = 0
    return best


def detect_buildup(energy_map, k_sigma=DEFAULT_K_SIGMA):
    """Threshold the map and report the first sustained build-up.

    The threshold is median + k_sigma * MAD over the whole map. When the
    MAD is zero, because more than half of the map sits at one value (a
    despiked map is mostly exact zeros), that rule collapses onto the
    median and would fire on the first sample of a smoothing tail. The
    threshold is then median + RAMP_FRACTION * (peak - median): a quarter
    of the way from the median to the map peak, the level at which a
    smoothed step is detected at the step itself (see the module
    docstring). A constant map keeps its threshold at the median.

    A sample counts as above the threshold only if strictly greater. The
    onset is the sample at which some channel has stayed above the
    threshold for 64 consecutive samples; the channel set collects every
    channel exceeding the threshold within 500 ms from the onset. A map in
    which no channel sustains a crossing yields an empty detection.
    """
    values = energy_map.values
    peak = float(values.max())
    med = float(np.median(values))
    mad = float(np.median(np.abs(values - med)))
    if mad > 0.0:
        threshold = med + k_sigma * mad
    else:
        threshold = med + RAMP_FRACTION * (peak - med)
    above = values > threshold

    starts = [
        _first_sustained_run(above[ch], RUN_LENGTH)
        for ch in range(values.shape[0])
    ]
    starts = [s for s in starts if s >= 0]
    if not starts:
        return BuildupDetection(
            channel_indices=frozenset(), onset_sample=-1, peak_energy=peak
        )
    onset = min(starts) + RUN_LENGTH - 1
    horizon = ms_to_samples(CHANNEL_WINDOW_MS, energy_map.sample_rate_hz)
    window = slice(onset, min(onset + horizon, values.shape[1]))
    channels = frozenset(
        ch for ch in range(values.shape[0]) if np.any(above[ch, window])
    )
    return BuildupDetection(
        channel_indices=channels,
        onset_sample=int(onset),
        peak_energy=peak,
    )
