"""Shared containers and windowing helpers for multichannel recordings.

Everything downstream works on :class:`MultiChannelSignal` (channel-major
float64 samples plus a rate and labels) and :class:`TimeWindow` (a start and
length in samples). Both are immutable after construction.
"""

from __future__ import annotations

import math
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


def ms_to_samples(duration_ms, sample_rate_hz):
    """Convert a duration in milliseconds to a sample count.

    Rounds to the nearest integer (ties to even). Both arguments must be
    positive; the result can still be 0 for sub-sample durations, which
    window construction rejects downstream.
    """
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    return int(round(duration_ms * sample_rate_hz / 1000.0))


def oscillation_duration_ms(freq_hz):
    """Nominal duration of a gamma oscillatory event at the given frequency.

    The three standard targets (45, 55, 85 Hz) use fixed durations of 200,
    180 and 150 ms. Any other positive frequency falls back to 9 cycles.
    """
    if freq_hz <= 0:
        raise ValueError(f"freq_hz must be positive, got {freq_hz}")
    duration = _EVENT_DURATIONS_MS.get(float(freq_hz))
    if duration is None:
        duration = 9.0 * 1000.0 / freq_hz
    return duration


@dataclass(frozen=True)
class TimeWindow:
    """Half-open sample range [start, start + length)."""

    start_sample: int
    length_samples: int

    def __post_init__(self):
        if self.start_sample < 0:
            raise ValueError(f"start_sample must be >= 0, got {self.start_sample}")
        if self.length_samples < 1:
            raise ValueError(
                f"length_samples must be >= 1, got {self.length_samples}"
            )

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

    def overlap(self, other):
        """Number of samples shared with another window."""
        lo = max(self.start_sample, other.start_sample)
        hi = min(self.end_sample, other.end_sample)
        return max(0, hi - lo)


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
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}"
            )
        arr = np.array(self.data, dtype=np.float64, copy=True)
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
