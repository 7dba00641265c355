"""Oscillation/transient separation by rectangular masking of undecimated
wavelet coefficients.

The pipeline decomposes a channel, finds where the target-band energy
concentrates, keeps the coefficients inside a frequency-dependent time and
scale rectangle as the oscillatory part, and reconstructs both that part and
its complement. The two outputs always sum back to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import circular_conv
from .signal_core import TimeWindow, ms_to_samples, oscillation_duration_ms
from .swt import (
    WaveletCoefficients,
    iswt_reconstruct,
    level_for_frequency,
    swt_decompose,
    wavelet_filters,
)

__all__ = [
    "NoDetectionError",
    "RectMask",
    "SeparationResult",
    "analysis_advance",
    "build_mask",
    "detect_oscillation_center",
    "mask_geometry",
    "mask_scales",
    "separate",
    "threshold_coeffs",
]

DEFAULT_LEVELS = 5


class NoDetectionError(RuntimeError):
    """Raised when no oscillatory energy can be localized."""


def mask_geometry(target_freq_hz):
    """Mask duration (ms) and scale count for a target frequency.

    The three standard targets use the fixed table 45 -> (200 ms, 3),
    55 -> (180 ms, 2), 85 -> (150 ms, 2); other frequencies get 9 cycles
    and 2 scales.
    """
    if target_freq_hz <= 0:
        raise ValueError(f"target_freq_hz must be positive, got {target_freq_hz}")
    duration_ms = oscillation_duration_ms(target_freq_hz)
    n_scales = 3 if float(target_freq_hz) == 45.0 else 2
    return duration_ms, n_scales


def mask_scales(target_freq_hz, sample_rate_hz):
    """Set of detail levels the mask keeps for a target frequency.

    Takes the geometry's scale count as consecutive levels ending at the
    level whose band contains the target, clipped below at level 1.
    """
    _, n_scales = mask_geometry(target_freq_hz)
    base = level_for_frequency(target_freq_hz, sample_rate_hz)
    lo = max(1, base - n_scales + 1)
    return frozenset(range(lo, base + 1))


@dataclass(frozen=True)
class RectMask:
    """Time-window by scale-set selector for wavelet coefficients."""

    window: TimeWindow
    scales: frozenset
    target_freq_hz: float

    def __post_init__(self):
        object.__setattr__(self, "scales", frozenset(int(s) for s in self.scales))
        if not self.scales:
            raise ValueError("mask needs at least one scale")
        if min(self.scales) < 1:
            raise ValueError(f"scales must be >= 1, got {sorted(self.scales)}")


def analysis_advance(n_taps, level):
    """Circular advance aligning a level's causal filter response in time.

    The stacked zero-stuffed filters delay level j by half the cascade's
    combined support, (n_taps - 1) * (2**j - 1) / 2 samples; rolling the
    coefficients forward by that amount re-centers them on the activity
    that produced them.
    """
    return ((n_taps - 1) * (2 ** level - 1)) // 2


def detect_oscillation_center(coeffs, target_freq_hz, sample_rate_hz,
                              filter_length=8):
    """Sample index where smoothed target-scale detail energy peaks.

    Sums squared detail coefficients over the mask's scales, each level
    advanced to undo its filter delay, smooths the total with a centered
    circular moving average as wide as the mask, and returns the first
    index attaining the maximum. Raises NoDetectionError when that energy is
    zero everywhere, and ValueError when it overflows.
    """
    duration_ms, _ = mask_geometry(target_freq_hz)
    width = max(1, ms_to_samples(duration_ms, sample_rate_hz))
    scales = mask_scales(target_freq_hz, sample_rate_hz)
    if max(scales) > coeffs.levels:
        raise ValueError(
            f"coefficients cover {coeffs.levels} levels, mask needs {max(scales)}"
        )
    energy = np.zeros(coeffs.n_samples)
    width = min(width, coeffs.n_samples)
    # an overflow is reported below as a ValueError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for level in scales:
            d = coeffs.details[level - 1]
            energy += np.roll(d * d, -analysis_advance(filter_length, level))
        smoothed = circular_conv(energy, np.full(width, 1.0 / width))
    smoothed = np.roll(smoothed, -((width - 1) // 2))
    peak = smoothed.max()
    if not np.isfinite(peak):
        raise ValueError(
            f"detail energy near {target_freq_hz} Hz is not finite; "
            "check the input scale"
        )
    if peak <= 0.0:
        raise NoDetectionError(
            f"no oscillatory energy found near {target_freq_hz} Hz"
        )
    return int(np.argmax(smoothed))


def build_mask(center_sample, target_freq_hz, sample_rate_hz, n_samples):
    """Rectangle of the standard geometry centered on a sample, kept in range."""
    duration_ms, _ = mask_geometry(target_freq_hz)
    length = min(ms_to_samples(duration_ms, sample_rate_hz), n_samples)
    if length < 1:
        raise ValueError("mask window rounds to zero samples")
    start = int(center_sample) - length // 2
    start = min(max(start, 0), n_samples - length)
    return RectMask(
        window=TimeWindow(start, length),
        scales=mask_scales(target_freq_hz, sample_rate_hz),
        target_freq_hz=float(target_freq_hz),
    )


def threshold_coeffs(coeffs, mask):
    """Split coefficients into in-mask and complement parts.

    The oscillatory part keeps detail levels named by the mask inside the
    window and every approximation restricted to the same window; all other
    coefficients go to the transient part, so the two sum to the input
    coefficients exactly.
    """
    mask.window.check_within(coeffs.n_samples)
    if max(mask.scales) > coeffs.levels:
        raise ValueError(
            f"mask scales {sorted(mask.scales)} exceed {coeffs.levels} levels"
        )
    indicator = mask.window.indicator(coeffs.n_samples)

    def keep(seq, level, kind):
        if kind == "detail" and level not in mask.scales:
            return np.zeros_like(seq)
        return seq * indicator

    osc = coeffs.map_arrays(keep)
    trans = WaveletCoefficients(
        approximations=tuple(
            a - o for a, o in zip(coeffs.approximations, osc.approximations)
        ),
        details=tuple(d - o for d, o in zip(coeffs.details, osc.details)),
        levels=coeffs.levels,
        n_samples=coeffs.n_samples,
    )
    return osc, trans


@dataclass(frozen=True)
class SeparationResult:
    """Both reconstructed parts plus how the mask was placed."""

    oscillatory: np.ndarray
    transient: np.ndarray
    mask_used: RectMask
    detection_center_sample: int


def separate(x, target_freq_hz, sample_rate_hz, filters=None,
             levels=DEFAULT_LEVELS):
    """Full separation of one channel at a target frequency.

    Decompose, locate the oscillatory event, mask, reconstruct both parts.
    Raises NoDetectionError when nothing can be localized.
    """
    x = np.asarray(x, dtype=np.float64)
    if filters is None:
        filters = wavelet_filters("db4")
    coeffs = swt_decompose(x, filters, levels)
    center = detect_oscillation_center(
        coeffs, target_freq_hz, sample_rate_hz,
        filter_length=filters.dec_lo.size,
    )
    mask = build_mask(center, target_freq_hz, sample_rate_hz, x.size)
    osc_coeffs, trans_coeffs = threshold_coeffs(coeffs, mask)
    return SeparationResult(
        oscillatory=iswt_reconstruct(osc_coeffs, filters),
        transient=iswt_reconstruct(trans_coeffs, filters),
        mask_used=mask,
        detection_center_sample=center,
    )
