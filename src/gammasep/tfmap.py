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

A row is computed only on its input's non-zero support, widened on each
side by the summed spans of the chain's filters (band-pass, longest Morlet
kernel, smoother), and is exact zeros elsewhere. That crop is exact, not an
approximation: every output that depends on a non-zero sample is the same
full-length convolution dot over the same operands, the moving average's
cumulative sum over the zeros left out adds exact +0.0, and the peak
low-band energy that sets the divisor floor is unchanged, so the full-row
chain yields exact zeros outside the crop as well. A despiked channel is
zero away from its burst, so most of its row is never filtered.
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
    "bandpass",
    "bandpass_taps",
    "detect_buildup",
    "envelope_smooth",
    "map_row",
    "morlet_kernel",
    "morlet_transform",
    "normalize_by_low_band",
    "scale_for_frequency",
    "scales_for_band",
    "spatiotemporal_map",
]

# Morlet center frequency (radians per dilated sample) and Gaussian spread
MORLET_W0 = 6.0
MORLET_S = 1.0
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


def scale_for_frequency(freq_hz, sample_rate_hz):
    """Dilation whose pseudo-frequency is freq_hz: fs * MORLET_W0 / (2 pi f).

    The map is its own inverse, so passing a dilation returns the center
    frequency in Hz that the dilation responds to.
    """
    return sample_rate_hz * MORLET_W0 / (2.0 * math.pi * freq_hz)


def scales_for_band(band_hz, sample_rate_hz):
    """Dilation values whose pseudo-frequencies tile the band at 1 Hz steps.

    Both endpoints are included when they are whole numbers of Hz.
    """
    low, high = band_hz
    if not 0 < low < high:
        raise ValueError(f"band must satisfy 0 < low < high, got {band_hz}")
    freqs = np.arange(math.ceil(low), math.floor(high) + 1, dtype=np.float64)
    if freqs.size == 0:
        freqs = np.array([(low + high) / 2.0])
    return tuple(scale_for_frequency(f, sample_rate_hz) for f in freqs)


@dataclass(frozen=True)
class MorletParams:
    """Morlet dilations at a sample rate; MORLET_W0 and MORLET_S fix the shape."""

    sample_rate_hz: float
    scales: tuple

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        scales = tuple(float(a) for a in self.scales)
        if not scales or any(a <= 0 for a in scales):
            raise ValueError("scales must be a non-empty list of positive reals")
        object.__setattr__(self, "scales", scales)

    @classmethod
    def for_band(cls, band_hz, sample_rate_hz):
        return cls(
            sample_rate_hz=sample_rate_hz,
            scales=scales_for_band(band_hz, sample_rate_hz),
        )


def _morlet_radius(a):
    """Half-length of `morlet_kernel(params, a)`: samples each side of center."""
    return int(math.floor(a * MORLET_S * math.sqrt(-2.0 * math.log(_ENVELOPE_FLOOR))))


def morlet_kernel(params, a):
    """Discrete complex kernel at one dilation, unit sample spacing.

    The complex exponential at MORLET_W0/a rides a Gaussian of spread
    a*MORLET_S, scaled by 1/a, truncated where the envelope drops below
    1e-6 of its peak.
    """
    if a <= 0:
        raise ValueError(f"dilation must be positive, got {a}")
    radius = _morlet_radius(a)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    u = t / a
    return (1.0 / a) * np.exp(1j * MORLET_W0 * u) * np.exp(-(u * u) / (2.0 * MORLET_S ** 2))


def morlet_transform(x, params):
    """Scales x samples matrix of complex responses, zero-padded boundaries."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
    rows = [centered_conv_complex(x, morlet_kernel(params, a)) for a in params.scales]
    return np.vstack(rows)


def _bandpass_length(sample_rate_hz):
    """Tap count of `bandpass_taps`, odd, for a 5 Hz transition width."""
    n_taps = int(math.ceil(3.3 * sample_rate_hz / 5.0))
    return n_taps if n_taps % 2 else n_taps + 1


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
    n_taps = _bandpass_length(sample_rate_hz)
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


def _map_reach(params):
    """Samples past a row's non-zero support that the map chain can touch.

    Every filter counts at its full span (length - 1 for the convolutions,
    SMOOTH_WIDTH for the moving average). The band path is the band-pass,
    the longest Morlet kernel and the smoother; the low-band path is the
    band-pass and the smoother. Both band-passes have `_bandpass_length`
    taps, so the band path reaches further: 658 samples for 80-90 Hz and
    722 for 40-50 Hz at 512 Hz.
    """
    bandpass_span = _bandpass_length(params.sample_rate_hz) - 1
    morlet_span = 2 * _morlet_radius(max(params.scales))
    return bandpass_span + morlet_span + SMOOTH_WIDTH


def map_row(x, band_hz, params):
    """Single-channel version of the map chain; returns one row.

    The chain runs only on the window [first non-zero - reach, last
    non-zero + 1 + reach), clipped to the row, where reach is the summed
    span of the chain's filters (`_map_reach`); every other sample is an
    exact zero. A despiked channel is zero away from its burst, so most of
    its row is never filtered; a raw channel's window is the whole row.

    The result is bit-identical to running the chain over the whole row.
    Within the window every output that depends on a non-zero input is the
    same full-length `np.convolve` dot over the same operands, and the
    moving average's cumulative sum over the zeros cut off in front adds
    exact +0.0. The peak low-band energy, which sets the divisor floor, is
    therefore the same, and outside the window the full-row chain yields
    exact zeros too. An all-zero row maps to zeros.

    Raises ValueError for empty or non-1-D input, and when the band energy
    or the low-band energy overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"map row must be a non-empty 1-D sequence, got shape {x.shape}")
    row = np.zeros_like(x)
    support = np.flatnonzero(x)
    if support.size == 0:
        return row
    reach = _map_reach(params)
    lo = max(int(support[0]) - reach, 0)
    hi = min(int(support[-1]) + 1 + reach, x.size)
    window = x[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):
        filtered = bandpass(window, band_hz, params.sample_rate_hz)
        response = morlet_transform(filtered, params)
        band_energy = np.mean(np.abs(response) ** 2, axis=0)
        smoothed = envelope_smooth(band_energy, SMOOTH_WIDTH)
    if not np.isfinite(smoothed).all():
        raise ValueError("band energy is not finite; check the input scale")
    row[lo:hi] = normalize_by_low_band(smoothed, window, params.sample_rate_hz)
    return row


def spatiotemporal_map(signal, band_hz):
    """Normalized band-energy map of every channel of a signal.

    Every row is `map_row` with `MorletParams.for_band`: scales at 1 Hz
    pseudo-frequency spacing over the band. A channel whose energy
    overflows raises ValueError prefixed with its label.
    """
    low, high = band_hz
    if not 0 < low < high < signal.sample_rate_hz / 2.0:
        raise ValueError(f"band {band_hz} outside (0, Nyquist)")
    params = MorletParams.for_band(band_hz, signal.sample_rate_hz)
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


def _first_sustained_runs(above, run_length):
    """Per row, start of the earliest run of at least run_length True; -1 if none.

    A run of at least run_length starts where the first window of
    run_length samples lies wholly above, so each window is counted from
    one cumulative sum over the whole (rows, samples) matrix.
    """
    rows, n = above.shape
    if n < run_length:
        return np.full(rows, -1)
    counts = np.zeros((rows, n + 1), dtype=np.int32)
    np.cumsum(above, axis=1, dtype=np.int32, out=counts[:, 1:])
    full = counts[:, run_length:] - counts[:, :-run_length] == run_length
    return np.where(full.any(axis=1), full.argmax(axis=1), -1)


def detect_buildup(energy_map, k_sigma=DEFAULT_K_SIGMA):
    """Threshold the map and report the first sustained build-up.

    The threshold is median + k_sigma * MAD over the whole map. When the
    MAD is zero, because more than half of the map sits at one value (a
    despiked map is mostly exact zeros), that rule collapses onto the
    median and would fire on the first sample of a smoothing tail. The
    threshold is then median + RAMP_FRACTION * (peak - median): a quarter
    of the way from the median to the map peak, the level at which a
    smoothed step is detected at the step itself (see the module
    docstring). A constant map keeps its threshold at the median. When
    more than half of the map is exact zeros, the median and the MAD are
    both 0 by definition and are not computed.

    A sample counts as above the threshold only if strictly greater. The
    onset is the sample at which some channel has stayed above the
    threshold for 64 consecutive samples; the channel set collects every
    channel exceeding the threshold within 500 ms from the onset. A map in
    which no channel sustains a crossing yields an empty detection.
    """
    values = energy_map.values
    peak = float(values.max())
    if 2 * (values.size - np.count_nonzero(values)) > values.size:
        # a strict majority of exact zeros holds both middle order
        # statistics of the map and of its deviations: no sort needed
        med = mad = 0.0
    else:
        med = float(np.median(values))
        mad = float(np.median(np.abs(values - med)))
    if mad > 0.0:
        threshold = med + k_sigma * mad
    else:
        threshold = med + RAMP_FRACTION * (peak - med)
    above = values > threshold

    starts = _first_sustained_runs(above, RUN_LENGTH)
    starts = starts[starts >= 0]
    if starts.size == 0:
        return BuildupDetection(
            channel_indices=frozenset(), onset_sample=-1, peak_energy=peak
        )
    onset = int(starts.min()) + RUN_LENGTH - 1
    horizon = ms_to_samples(CHANNEL_WINDOW_MS, energy_map.sample_rate_hz)
    window = slice(onset, min(onset + horizon, values.shape[1]))
    channels = frozenset(
        ch for ch in range(values.shape[0]) if np.any(above[ch, window])
    )
    return BuildupDetection(
        channel_indices=channels,
        onset_sample=onset,
        peak_energy=peak,
    )
