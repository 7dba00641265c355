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

A row is computed only near its input's non-zero support [a, b), and is
exact zeros elsewhere. Each stage runs on its own input's support, widened
by that stage's own span and clipped at the row edges; with h the band-pass
half-span (169 samples at 512 Hz) and R the longest Morlet kernel's radius:

- The band-pass runs on [a - 2h, b + 2h) and keeps [a - h, b + h). Each
  kept output is then the same full `np.convolve` dot as on the whole row
  (or the same edge-truncated one where the crop meets a row edge), and
  nothing outside [a - h, b + h) depends on a non-zero sample.
- The Morlet bank runs on the kept band-pass output, zero-extended by R.
  `centered_conv_complex` computes a response alike wherever the sample
  sits, and its zero padding stands in for the band-pass zeros.
- The smoother and `normalize_by_low_band` run on one range: the bank's
  widened by SMOOTH_WIDTH - 1, and at least [a - 2h, b + 2h). It holds
  every smoothed sample that a non-zero energy reaches together with its
  whole averaging window, so each keeps the whole row's divisor count,
  and the low band-pass gets the input it needs for full dots on
  [a - h, b + h). The low-band energy is then exact on its whole reach,
  and so is its peak, which sets the divisor floor.

The cumulative sum over the zeros left out adds exact +0.0, and a zero
left out would have stayed a zero (of either sign, which `|r|**2` and
`low * low` make +0.0), so the map is bit-identical to running the chain
over the whole row. A despiked channel is zero away from its burst, so
most of its row is never filtered.

None of the chain's filters depends on the row: the band's taps, the
10-15 Hz taps and the Morlet bank are each built once per band and sample
rate, kept in a small cache, and handed out read-only, so every row of
every map shares them and no caller can change them for the next. A bank
longer than 256 taps (a band starting at 20 Hz or below, at 512 Hz) is
summed over fixed 256-tap slices, so its bytes do not depend on the BLAS
thread count either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .backends import centered_conv, centered_conv_complex
from .signal_core import ms_to_samples, real_row, require_band, require_positive

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
# MADs above the median at which the map counts as built up
K_SIGMA = 6.0
# fraction of a smoothed step's height at which a RUN_LENGTH run ends on
# the step; see the module docstring
RAMP_FRACTION = 0.5 - RUN_LENGTH / SMOOTH_WIDTH

# keep kernel samples while the Gaussian envelope is at least this fraction
# of its peak
_ENVELOPE_FLOOR = 1e-6
# largest band-pass FIR built, 8 MiB of taps: rates up to about 1.59 MHz.
# A rate above it (a mistyped CSV header, say) is refused before the taps,
# the filter's working arrays and each row's convolution are allocated
MAX_BANDPASS_TAPS = 2**20 + 1
# entries of each filter cache; one map uses two tap arrays and one bank
_FILTER_CACHE_SIZE = 16


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
    require_positive("sample_rate_hz", sample_rate_hz)
    require_band("band_hz", band_hz, sample_rate_hz)
    low, high = band_hz
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
        require_positive("sample_rate_hz", self.sample_rate_hz)
        scales = tuple(float(a) for a in self.scales)
        if not scales:
            raise ValueError("scales must be a non-empty list of dilations")
        for a in scales:
            require_positive("scales", a)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def for_band(cls, band_hz, sample_rate_hz):
        return cls(
            sample_rate_hz=sample_rate_hz,
            scales=scales_for_band(band_hz, sample_rate_hz),
        )


def _morlet_radius(a):
    """Half-length of `morlet_kernel(a)`: samples each side of center."""
    return int(math.floor(a * MORLET_S * math.sqrt(-2.0 * math.log(_ENVELOPE_FLOOR))))


def morlet_kernel(a):
    """Discrete complex kernel at one dilation, unit sample spacing.

    The complex exponential at MORLET_W0/a rides a Gaussian of spread
    a*MORLET_S, scaled by 1/a, truncated where the envelope drops below
    1e-6 of its peak.
    """
    require_positive("dilation", a)
    radius = _morlet_radius(a)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    u = t / a
    return (1.0 / a) * np.exp(1j * MORLET_W0 * u) * np.exp(-(u * u) / (2.0 * MORLET_S ** 2))


def morlet_transform(x, params):
    """Scales x samples matrix of complex responses, zero-padded boundaries.

    The kernels of every scale, each centered and zero-padded to the
    longest, form one bank that `centered_conv_complex` applies in a single
    call, so the per-scale loop is one matrix product. The bank is built
    once per scale tuple and is read-only. Each response is within a few
    1e-15 of its peak of the kernel's own `np.convolve`, and is the same
    wherever a sample sits in x, which `map_row`'s crop needs.
    """
    x = real_row("x", x)
    if x.size == 0:
        raise ValueError("x must not be empty")
    return centered_conv_complex(x, _morlet_bank(params.scales))


@functools.lru_cache(maxsize=_FILTER_CACHE_SIZE)
def _morlet_bank(scales):
    """Read-only bank of `morlet_kernel` at each dilation, centered in the longest."""
    radius = _morlet_radius(max(scales))
    bank = np.zeros((len(scales), 2 * radius + 1), dtype=np.complex128)
    for row, a in zip(bank, scales):
        kernel = morlet_kernel(a)
        pad = radius - kernel.size // 2
        row[pad : pad + kernel.size] = kernel
    bank.setflags(write=False)
    return bank


def _bandpass_length(sample_rate_hz):
    """Tap count of `bandpass_taps`, odd, for a 5 Hz transition width.

    A rate that asks for more than MAX_BANDPASS_TAPS taps raises
    ValueError, before any filter is built.
    """
    n_taps = 3.3 * sample_rate_hz / 5.0
    if not n_taps < math.inf:
        raise ValueError(
            f"sample_rate_hz {sample_rate_hz} overflows the band-pass tap count"
        )
    n_taps = math.ceil(n_taps)
    n_taps = n_taps if n_taps % 2 else n_taps + 1
    if n_taps > MAX_BANDPASS_TAPS:
        raise ValueError(
            f"sample_rate_hz {sample_rate_hz} needs {n_taps} band-pass taps, "
            f"more than the {MAX_BANDPASS_TAPS} allowed"
        )
    return n_taps


def bandpass_taps(band_hz, sample_rate_hz):
    """Linear-phase band-pass FIR taps: windowed ideal response.

    Length is set for a 5 Hz transition width, the tap sum is zeroed so DC
    is rejected exactly, and the gain is normalized to one at band center.
    The taps are built once per band and rate, from their float values, and
    are read-only.
    """
    require_positive("sample_rate_hz", sample_rate_hz)
    require_band("band_hz", band_hz, sample_rate_hz)
    low, high = band_hz
    return _bandpass_taps(float(low), float(high), float(sample_rate_hz))


@functools.lru_cache(maxsize=_FILTER_CACHE_SIZE)
def _bandpass_taps(low, high, sample_rate_hz):
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
    taps.setflags(write=False)
    return taps


def bandpass(x, band_hz, sample_rate_hz):
    """Zero-phase band-pass of one channel, length preserved.

    The symmetric odd-length taps are applied center-aligned, which cancels
    the filter's group delay.
    """
    return centered_conv(x, bandpass_taps(band_hz, sample_rate_hz))


def envelope_smooth(x):
    """Centered moving average of SMOOTH_WIDTH samples, shrinking at the ends.

    The window covers SMOOTH_WIDTH/2 samples to the left and
    SMOOTH_WIDTH/2 - 1 to the right of each position, clipped to the input.
    Each output is the difference of two entries of one cumulative sum,
    divided by the count of samples its window holds.
    """
    x = real_row("x", x)
    n = x.size
    left = SMOOTH_WIDTH // 2
    right = SMOOTH_WIDTH - 1 - left
    csum = np.zeros(n + 1)
    np.cumsum(x, out=csum[1:])
    # sample i averages x[lo:hi] with lo = max(i - left, 0) and
    # hi = min(i + right + 1, n); csum[lo] is 0.0 for i < left, and
    # subtracting 0.0 changes no bit, so those samples skip it
    sums = np.full(n, csum[n])
    sums[: max(n - right, 0)] = csum[right + 1 :]
    clipped = min(left, n)
    sums[clipped:] -= csum[: n - clipped]
    # hi - lo is the width less the samples clipped at either end
    count = np.full(n, float(SMOOTH_WIDTH))
    count[:clipped] -= np.arange(left, left - clipped, -1.0)
    count[max(n - right, 0) :] -= np.arange(max(right - n, 0) + 1.0, right + 1.0)
    sums /= count
    return sums


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
    band_energy = real_row("band_energy", band_energy)
    x_original = real_row("x_original", x_original)
    if band_energy.shape != x_original.shape:
        raise ValueError(
            f"shape mismatch: {band_energy.shape} vs {x_original.shape}"
        )
    # an overflow is reported below as a ValueError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        low = bandpass(x_original, LOW_BAND_HZ, sample_rate_hz)
        low_energy = envelope_smooth(low * low)
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
        require_positive("sample_rate_hz", self.sample_rate_hz)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be 2-D (channels x samples)")
        if values.size == 0:
            raise ValueError(f"map values must not be empty, got shape {values.shape}")
        # a NaN passes through min, and so fails the first comparison
        if not (values.min() >= 0.0 and values.max() < math.inf):
            raise ValueError("map values must be finite and non-negative")
        labels = tuple(str(lab) for lab in self.channel_labels)
        if len(labels) != values.shape[0]:
            raise ValueError(f"{len(labels)} labels for {values.shape[0]} rows")
        # a view, so that freezing it leaves the caller's array writable
        values = values.view()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "band_hz", tuple(float(b) for b in self.band_hz))


def map_row(x, band_hz, params):
    """Single-channel version of the map chain; returns one row.

    Each stage runs only near the row's non-zero support, widened by its
    own span (see the module docstring), and every other sample is an exact
    zero. A despiked channel is zero away from its burst, so most of its
    row is never filtered; a raw channel's stages run on the whole row. The
    result is bit-identical to running the chain over the whole row. An
    all-zero row maps to zeros.

    `params` must be `MorletParams.for_band(band_hz, params.sample_rate_hz)`.
    Raises ValueError when it is not, for empty or non-1-D input, and when
    the band energy or the low-band energy overflows.
    """
    x = real_row("x", x)
    if x.size == 0:
        raise ValueError("x must not be empty")
    rate = params.sample_rate_hz
    require_band("band_hz", band_hz, rate)
    low, high = band_hz
    if params != _band_params(float(low), float(high), float(rate)):
        raise ValueError(
            f"params must be MorletParams.for_band(band_hz, {rate}) for "
            f"band_hz {tuple(band_hz)}"
        )
    row = np.zeros_like(x)
    first, stop, _ = _row_supports(x[None, :])
    first, stop = int(first[0]), int(stop[0])
    if stop == first:
        return row
    n = x.size

    def widen(lo, hi, by):
        return max(lo - by, 0), min(hi + by, n)

    half = _bandpass_length(rate) // 2
    in_lo, in_hi = widen(first, stop, 2 * half)
    bp_lo, bp_hi = widen(first, stop, half)
    bank_lo, bank_hi = widen(bp_lo, bp_hi, _morlet_radius(max(params.scales)))
    lo, hi = widen(bank_lo, bank_hi, SMOOTH_WIDTH - 1)
    lo, hi = min(lo, in_lo), max(hi, in_hi)
    with np.errstate(over="ignore", invalid="ignore"):
        filtered = np.zeros(bank_hi - bank_lo)
        filtered[bp_lo - bank_lo : bp_hi - bank_lo] = bandpass(
            x[in_lo:in_hi], band_hz, rate
        )[bp_lo - in_lo : bp_hi - in_lo]
        # squared in place; `** 2` is np.square into a second array
        power = np.abs(morlet_transform(filtered, params))
        np.square(power, out=power)
        band_energy = np.zeros(hi - lo)
        band_energy[bank_lo - lo : bank_hi - lo] = np.mean(power, axis=0)
        smoothed = envelope_smooth(band_energy)
    if not np.isfinite(smoothed).all():
        raise ValueError("band energy is not finite; check the input scale")
    row[lo:hi] = normalize_by_low_band(smoothed, x[lo:hi], rate)
    return row


@functools.lru_cache(maxsize=_FILTER_CACHE_SIZE)
def _band_params(low, high, sample_rate_hz):
    """`MorletParams.for_band`, built once per band and rate for `map_row`'s check."""
    return MorletParams.for_band((low, high), sample_rate_hz)


def spatiotemporal_map(signal, band_hz):
    """Normalized band-energy map of every channel of a signal.

    Every row is `map_row` with `MorletParams.for_band`: scales at 1 Hz
    pseudo-frequency spacing over the band, written into one array of the
    signal's shape. A signal with no channel raises ValueError, and so does
    a channel whose energy overflows, prefixed with its label.
    """
    params = MorletParams.for_band(band_hz, signal.sample_rate_hz)
    if signal.n_channels == 0:
        raise ValueError("signal has no channel to map")
    values = np.empty(signal.data.shape)
    for ch in range(signal.n_channels):
        try:
            values[ch] = map_row(signal.data[ch], band_hz, params)
        except ValueError as exc:
            raise ValueError(f"{signal.channel_labels[ch]}: {exc}") from None
    return SpatioTemporalMap(
        values=values,
        band_hz=band_hz,
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
    """Start of the earliest run of at least run_length True in a row; -1 if none.

    Each window of run_length samples is counted from one cumulative sum
    over the row, and the run starts at the first window wholly above; a
    row shorter than run_length has no window.
    """
    counts = np.zeros(above.size + 1, dtype=np.int32)
    np.cumsum(above, dtype=np.int32, out=counts[1:])
    full = counts[run_length:] - counts[:-run_length] == run_length
    return int(full.argmax()) if full.any() else -1


def _row_supports(values):
    """Per row, the range [first, stop) spanning its non-zero samples, and
    the map's count of non-zero samples.

    One comparison sweeps the map; each row's first and last non-zero then
    come from an argmax of its flags and of their reverse. A zero row gets
    stop == first. `detect_buildup` reads every above-threshold sample of a
    map from these ranges, and `map_row` crops its stages to one of them.
    """
    nonzero = values != 0.0
    first = nonzero.argmax(axis=1)
    stop = values.shape[1] - nonzero[:, ::-1].argmax(axis=1)
    empty = ~nonzero[np.arange(values.shape[0]), first]
    stop[empty] = first[empty]
    return first, stop, int(np.count_nonzero(nonzero))


def _median_and_mad(values):
    """`np.median` of the map, and of its absolute deviations from that, bit
    for bit, from one scratch copy partitioned in place.

    Each median partitions at np.median's indices and takes `np.mean` of the
    middle one or two values, as np.median does. np.median's NaN check,
    which imports numpy.ma, is left out: a map is finite.
    """
    scratch = values.flatten()
    half, odd = divmod(scratch.size, 2)
    kth = [half, -1] if odd else [half - 1, half, -1]
    middle = slice(half - 1 + odd, half + 1)
    scratch.partition(kth)
    med = float(np.mean(scratch[middle]))
    np.subtract(scratch, med, out=scratch)
    np.abs(scratch, out=scratch)
    scratch.partition(kth)
    return med, float(np.mean(scratch[middle]))


def detect_buildup(energy_map):
    """Threshold the map and report the first sustained build-up.

    The threshold is median + K_SIGMA * MAD over the whole map. When the
    MAD is zero, because more than half of the map sits at one value (a
    despiked map is mostly exact zeros), that rule collapses onto the
    median and would fire on the first sample of a smoothing tail. The
    threshold is then median + RAMP_FRACTION * (peak - median): a quarter
    of the way from the median to the map peak, the level at which a
    smoothed step is detected at the step itself (see the module
    docstring). A constant map keeps its threshold at the median.

    Each row's first and last non-zero sample, and the map's count of
    non-zero samples, are found in one pass. When more than half of the
    map is exact zeros, the median and the MAD are both 0 by definition.
    Otherwise, as on a raw map, one scratch copy of the map is partitioned
    in place for the median, turned in place into absolute deviations from
    it, and partitioned again for the MAD; both have `np.median`'s bits.
    The threshold is never below the median of a non-negative map, so no
    exact zero exceeds it, and the peak, the runs and the channel set are
    read from the rows' spans alone.

    A sample counts as above the threshold only if strictly greater. The
    onset is the sample at which some channel has stayed above the
    threshold for 64 consecutive samples; the channel set collects every
    channel exceeding the threshold within 500 ms from the onset, or at the
    onset itself when 500 ms is under one sample. A map in which no channel
    sustains a crossing yields an empty detection.
    """
    values = energy_map.values
    horizon = max(ms_to_samples(CHANNEL_WINDOW_MS, energy_map.sample_rate_hz), 1)
    first, stop, nonzero = _row_supports(values)
    segments = {
        r: values[r, first[r] : stop[r]]
        for r in range(values.shape[0])
        if stop[r] > first[r]
    }
    peak = max((float(seg.max()) for seg in segments.values()), default=0.0)
    if 2 * nonzero < values.size:
        # both middle order statistics of the map and its deviations are zeros
        med = mad = 0.0
    else:
        med, mad = _median_and_mad(values)
    if mad > 0.0:
        threshold = med + K_SIGMA * mad
    else:
        threshold = med + RAMP_FRACTION * (peak - med)
    above = {r: seg > threshold for r, seg in segments.items()}
    runs = {r: _first_sustained_run(flags, RUN_LENGTH) for r, flags in above.items()}
    starts = [first[r] + run for r, run in runs.items() if run >= 0]
    if not starts:
        return BuildupDetection(
            channel_indices=frozenset(), onset_sample=-1, peak_energy=peak
        )
    onset = int(min(starts)) + RUN_LENGTH - 1
    channels = frozenset(
        r
        for r, flags in above.items()
        if np.any(flags[max(onset - first[r], 0) : max(onset + horizon - first[r], 0)])
    )
    return BuildupDetection(
        channel_indices=channels, onset_sample=onset, peak_energy=peak
    )
