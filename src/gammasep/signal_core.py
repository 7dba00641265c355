"""Shared containers, windowing helpers and argument checks.

Everything downstream works on :class:`MultiChannelSignal` (channel-major
float64 samples plus a rate and labels) and :class:`TimeWindow` (a start and
length in samples). Both are immutable after construction.

This module imports no other gammasep module, so it is the one home of the
argument checks every other module calls: `require_positive` for a rate,
frequency, duration or dilation, `require_integer` for a setting,
`number_tuple` for a list of numbers, each entry through `require_number`,
and one check per rule of the signal chain: `real_row` for a channel row,
`require_band` for a band and `require_frequency` for a frequency under a
sample rate. Each raises naming the argument it refuses. None of them is a
package name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiChannelSignal",
    "TimeWindow",
    "ms_to_samples",
    "oscillation_duration_ms",
]

# nominal length of one gamma oscillatory event, keyed by its frequency
_EVENT_DURATIONS_MS = {45.0: 200.0, 55.0: 180.0, 85.0: 150.0}


def require_positive(key, value):
    """Raise ValueError unless `value` is positive and finite as a float.

    An integer too large for a float is refused here, not where it is first
    converted and overflows.
    """
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(
            f"{key} must be positive and finite, got an integer too large "
            "for a float"
        ) from None
    if not (finite and value > 0):
        raise ValueError(f"{key} must be positive and finite, got {value}")


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
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{key} is too large for a float") from None
    if not finite:
        raise ValueError(f"{key} must be finite, got {value!r}")


def number_tuple(key, value):
    """`value`, a list or tuple of finite real numbers, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list, got {value!r}")
    value = tuple(value)
    for v in value:
        require_number(f"each {key} entry", v)
    return value


_FLOAT64 = np.dtype(np.float64)


def real_array(key, value):
    """`value` as a float64 array, refusing a complex one by `key`.

    numpy's own cast would drop the imaginary part with only a warning. A
    float64 array, the kernels' usual input, is returned as it is.
    """
    arr = np.asarray(value)
    if arr.dtype is not _FLOAT64:
        if arr.dtype.kind == "c":
            raise ValueError(f"{key} must be real, got a complex array")
        arr = arr.astype(np.float64)
    return arr


def real_row(key, value):
    """`value` as a real 1-D float64 array (see `real_array`), refusing any
    other shape by `key`."""
    arr = real_array(key, value)
    if arr.ndim != 1:
        raise ValueError(f"{key} must be 1-D, got shape {arr.shape}")
    return arr


def require_band(key, band, sample_rate_hz):
    """Raise unless `band` is two edges with 0 < low < high < rate / 2.

    A band that is not a sequence of numbers raises TypeError by `key`.
    """
    nyquist = sample_rate_hz / 2.0
    try:
        valid = len(band) == 2 and 0 < band[0] < band[1] < nyquist
    except TypeError:
        raise TypeError(f"{key} must be two numbers, got {band!r}") from None
    if not valid:
        raise ValueError(f"{key} must satisfy 0 < low < high < {nyquist}, got {band}")


def require_frequency(key, freq_hz, sample_rate_hz):
    """Raise unless 0 < `freq_hz` < rate / 2; TypeError, by `key`, for a
    frequency that is not a number."""
    nyquist = sample_rate_hz / 2.0
    try:
        valid = 0 < freq_hz < nyquist
    except TypeError:
        raise TypeError(f"{key} must be a number, got {freq_hz!r}") from None
    if not valid:
        raise ValueError(f"{key} must lie in (0, {nyquist}), got {freq_hz}")


def ms_to_samples(duration_ms, sample_rate_hz):
    """Convert a duration in milliseconds to a sample count.

    Rounds to the nearest integer (ties to even). Both arguments must be
    positive and finite, and so must their product; the result can still
    be 0 for sub-sample durations, which window construction rejects
    downstream.
    """
    require_positive("duration_ms", duration_ms)
    require_positive("sample_rate_hz", sample_rate_hz)
    samples = duration_ms * sample_rate_hz / 1000.0
    if samples == math.inf:
        raise ValueError(
            f"duration_ms {duration_ms} at sample_rate_hz {sample_rate_hz} "
            "overflows the sample count"
        )
    return int(round(samples))


def oscillation_duration_ms(freq_hz):
    """Nominal duration of a gamma oscillatory event at the given frequency.

    The three standard targets (45, 55, 85 Hz) use fixed durations of 200,
    180 and 150 ms. Any other positive finite frequency falls back to 9
    cycles.
    """
    require_positive("freq_hz", freq_hz)
    duration = _EVENT_DURATIONS_MS.get(float(freq_hz))
    if duration is None:
        duration = 9.0 * 1000.0 / freq_hz
    if duration == math.inf:
        raise ValueError(f"freq_hz {freq_hz} is too low: 9 cycles overflow")
    return duration


@dataclass(frozen=True)
class TimeWindow:
    """Half-open sample range [start, start + length) of whole samples."""

    start_sample: int
    length_samples: int

    def __post_init__(self):
        require_integer("start_sample", self.start_sample, minimum=0)
        require_integer("length_samples", self.length_samples)

    @property
    def end_sample(self):
        return self.start_sample + self.length_samples

    def check_within(self, n_samples):
        """Raise if the window does not fit inside a length-n signal."""
        if self.end_sample > n_samples:
            raise ValueError(
                f"window [{self.start_sample}, {self.end_sample}) exceeds "
                f"signal length {n_samples}"
            )


@dataclass(frozen=True)
class MultiChannelSignal:
    """Uniformly sampled real-valued channels, amplitudes in microvolts.

    data is channel-major (one row per channel) so per-channel transforms
    stream contiguously. The rate and every sample must be finite. The array
    is frozen after construction.
    """

    sample_rate_hz: float
    channel_labels: tuple
    data: np.ndarray

    def __post_init__(self):
        require_positive("sample_rate_hz", self.sample_rate_hz)
        arr = np.array(real_array("data", self.data), copy=True)
        if arr.ndim != 2:
            raise ValueError(f"data must be 2-D (channels x samples), got {arr.ndim}-D")
        finite = np.isfinite(arr)
        if not finite.all():
            ch, i = np.argwhere(~finite)[0]
            raise ValueError(
                f"data must be finite, got {arr[ch, i]} at channel index {ch}, "
                f"sample {i}"
            )
        labels = tuple(str(lab) for lab in self.channel_labels)
        if len(labels) != arr.shape[0]:
            raise ValueError(
                f"{len(labels)} labels for {arr.shape[0]} channels"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def n_channels(self):
        return self.data.shape[0]

    @property
    def n_samples(self):
        return self.data.shape[1]
