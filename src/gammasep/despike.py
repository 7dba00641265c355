"""Oscillation/transient separation by rectangular masking of undecimated
wavelet coefficients.

The pipeline decomposes a channel, finds where the target-band energy
concentrates, clears a frequency-dependent time and scale rectangle there
to get the transient coefficients, takes the input minus them as the
oscillatory ones, and reconstructs both. The two outputs always sum back to
the input.

The oscillatory part is synthesized only on its support, and its
coefficients are subtracted only there. Each synthesis level reads its
inputs at and after the output sample, up to (k-1)*2**(j-1) samples ahead
for k taps, so over J levels a coefficient reaches at most (k-1)*(2**J-1)
samples back: 217 for db4 over 5 levels. Coefficients that
are zero outside the window therefore give an output that is zero outside
[window start - 217, window end). The inverse runs unchanged on that crop,
gathered modulo n, and the result is scattered into zeros. The crop is
exact, not an approximation: each output inside it is the same sum of the
same products, and the crop's own wrap-around only reads samples that are
zero in the full-length synthesis as well, at every level. The kernel sums
from +0.0, so the sign of a zero operand never reaches the output, and the
full-length synthesis is +0.0 outside the support, as the scatter writes.

The detector's moving average is likewise run only where its maximum can
be. A cumulative sum estimates every box sum to within a bound on its
rounding, and the exact average runs on the shortest circular arc that
holds every index whose estimate is within that bound of the largest,
taken from the wrap-padded energy that the cumulative sum reads. Every
index of the arc gets the full-length average's value bit for bit, and
every maximum is in the arc, so the centre is the full-length rule's
(`detect_oscillation_center` derives the bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import circular_conv
from .signal_core import (
    TimeWindow,
    ms_to_samples,
    oscillation_duration_ms,
    require_positive,
)
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
    require_positive("target_freq_hz", target_freq_hz)
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
                              filter_length):
    """Sample index where smoothed target-scale detail energy peaks.

    Sums squared detail coefficients over the mask's scales, each level
    advanced to undo the delay of its `filter_length`-tap filters, smooths
    the total with a centered circular moving average as wide as the mask,
    and returns the first index attaining the maximum. Raises
    NoDetectionError when that energy is zero everywhere, and ValueError
    when it overflows or the target lies below the transform's lowest band.

    The moving average is computed exactly only where the maximum can be.
    One cumulative sum of the wrap-padded energy gives an estimate of every
    index's box sum B[j], the w = width energies that it averages. Each
    index whose estimate is within ``margin`` of the largest is a
    candidate. The candidates span the shortest circular arc that starts
    after the widest gap between neighbouring candidates (the arc from the
    first to the last one when the gap across the wrap is the widest). The
    single `circular_conv` smoother then runs on the padded energy from the
    arc's first box to its last, continued past the end at the head; its
    first w - 1 outputs wrap inside the slice and are dropped. Every index
    of the arc gets the full-length smoother's value bit for bit, the same
    products added in the same order, so if every maximum is a candidate,
    the smallest index attaining the arc's maximum is the first maximum.

    The margin makes it one. Let u = 2**-53, eta = 2**-1074, T the total
    of the N = n + w - 1 padded energies and g(k) = k*u / (1 - k*u). The
    energies are not negative, so each partial sum is within g(N)*T of its
    exact value, and each estimate, a difference of two partial sums
    rounded once, is within 3*g(N)*T of B[j] (N >= 2; one sample is the
    whole circle). The smoother rounds w products c*e, c = 1/w rounded,
    each to within a relative u or, below the normal range, an absolute
    eta/2, then adds them in order, so its value is within
    g(w)*c*B[j] + w*eta of c*B[j]. For i any exact maximum and j the
    largest estimate, the two bounds give
    est[j] - est[i] <= (6*g(N) + 3*g(w))*T + 4*w*w*eta, and
    margin = 8*(n + 2*w)*u*T + 4*w*w*eta exceeds that by more than the
    rounding of the comparison. Without the absolute term, energies
    below the normal range, where c*e loses its relative accuracy, would
    let the estimate pick another burst.

    A non-finite T (an overflow or a NaN) makes the margin or the estimates
    non-finite, and no comparison with them is true; an all-zero energy
    makes every estimate 0.0. In both cases every index is a candidate,
    the slice is the whole padded energy, and the checks below raise as
    they would on a full-length smoothing.
    """
    duration_ms, _ = mask_geometry(target_freq_hz)
    width = max(1, ms_to_samples(duration_ms, sample_rate_hz))
    scales = mask_scales(target_freq_hz, sample_rate_hz)
    if max(scales) > coeffs.levels:
        raise ValueError(
            f"target {target_freq_hz} Hz needs more than the {coeffs.levels} "
            f"levels the coefficients cover; the lowest target they reach is "
            f"{sample_rate_hz / 2 ** (coeffs.levels + 1)} Hz"
        )
    n = coeffs.n_samples
    energy = np.zeros(n)
    width = min(width, n)
    # smoothed[j] averages energy[j + half - lead], ..., energy[j + half]
    lead = width - 1
    half = lead // 2
    # an overflow is reported below as a ValueError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for level in scales:
            d = coeffs.details[level - 1]
            square = d * d
            # energy[i] += square[(i + advance) mod n], without a rolled copy
            advance = analysis_advance(filter_length, level) % max(n, 1)
            energy[: n - advance] += square[advance:]
            energy[n - advance :] += square[:advance]
        # padded[j : j + width] is the box of smoothed[j], so
        # partial[j + width] - partial[j] estimates its sum
        padded = np.concatenate((energy[n - (lead - half) :], energy, energy[:half]))
        partial = np.zeros(n + width)
        np.cumsum(padded, out=partial[1:])
        estimate = partial[width:] - partial[:n]
        margin = 8.0 * (n + 2 * width) * 2.0**-53 * partial[-1]
        margin += 4.0 * width * width * 2.0**-1074
        candidates = np.flatnonzero(~(estimate < estimate.max() - margin))
        first, last = int(candidates[0]), int(candidates[-1])
        gaps = np.diff(candidates)
        # the shortest arc over the candidates starts after the widest gap;
        # the gap across the wrap wins a tie
        if gaps.size and gaps.max() > first + n - last:
            widest = int(np.argmax(gaps))
            first, last = int(candidates[widest + 1]), int(candidates[widest]) + n
        if last < n:
            crop = padded[first : last + width]
        else:
            # padded[j + n] is padded[j], so an arc past n - 1 goes on at its head
            crop = np.concatenate((padded[first:n], padded[: last + width - n]))
        smoothed = circular_conv(crop, np.full(width, 1.0 / width))[lead:]
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
    # the full-length rule's tie: the smallest index attaining the peak
    return int(((first + np.flatnonzero(smoothed == peak)) % n).min())


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
    )


def threshold_coeffs(coeffs, mask):
    """Split coefficients into in-mask and complement parts.

    The transient part is `_transient_coeffs`: the approximation and the
    mask's detail levels with the window cleared, every other level whole.
    The oscillatory part is the input minus it, sequence by sequence, so
    the two sum to the input coefficients exactly, and for finite
    coefficients the oscillatory part is the window's values there and +0.0
    everywhere else.
    """
    mask.window.check_within(coeffs.n_samples)
    if max(mask.scales) > coeffs.levels:
        raise ValueError(
            f"mask scales {sorted(mask.scales)} exceed {coeffs.levels} levels"
        )
    trans = _transient_coeffs(coeffs, mask)
    osc = WaveletCoefficients(
        approximation=coeffs.approximation - trans.approximation,
        details=tuple(d - t for d, t in zip(coeffs.details, trans.details)),
    )
    return osc, trans


@dataclass(frozen=True)
class SeparationResult:
    """Both reconstructed parts plus how the mask was placed."""

    oscillatory: np.ndarray
    transient: np.ndarray
    mask_used: RectMask
    detection_center_sample: int


def _oscillatory_part(coeffs, trans, window, filters):
    """Inverse transform of the input minus the transient, run only on its support.

    The crop starts (k-1)*(2**levels-1) samples before the window, as far
    back as the inverse transform spreads a coefficient, and ends with the
    window, gathered modulo n; a crop of n or more samples is the whole
    circle, rotated to start there. Both coefficient sets are gathered and
    subtracted on the crop only; the differences are the crop's coefficients.
    """
    n = coeffs.n_samples
    reach = (filters.length - 1) * (2 ** coeffs.levels - 1)
    size = min(window.length_samples + reach, n)
    crop = np.arange(window.end_sample - size, window.end_sample) % n
    part = iswt_reconstruct(
        WaveletCoefficients(
            approximation=coeffs.approximation[crop] - trans.approximation[crop],
            details=tuple(
                d[crop] - t[crop] for d, t in zip(coeffs.details, trans.details)
            ),
        ),
        filters,
    )
    out = np.zeros(n)
    out[crop] = part
    return out


def _transient_coeffs(coeffs, mask):
    """The coefficients outside the mask: its window set to 0.0 where it keeps.

    The one home of the mask rule: the mask keeps the approximation and its
    detail levels inside its window. Those sequences are copied with the
    window cleared; the other detail levels pass through. Each copy equals
    ``seq - seq * indicator`` bit for bit: the two differ only where seq
    holds -0.0, which the transform never emits.
    """
    window = slice(mask.window.start_sample, mask.window.end_sample)

    def cleared(seq):
        out = seq.copy()
        out[window] = 0.0
        return out

    return WaveletCoefficients(
        approximation=cleared(coeffs.approximation),
        details=tuple(
            cleared(d) if level in mask.scales else d
            for level, d in enumerate(coeffs.details, start=1)
        ),
    )


def separate(x, target_freq_hz, sample_rate_hz, filters=None,
             levels=DEFAULT_LEVELS):
    """Full separation of one channel at a target frequency.

    Decompose, locate the oscillatory event, mask, reconstruct both parts.
    The transient is synthesized at full length from the coefficients
    outside the mask. The oscillatory part, from the input minus those, is
    synthesized only on the window plus the (k-1)*(2**levels-1) samples
    before it, where it can be non-zero, and is exact zeros elsewhere (see
    the module docstring); both are bit-identical to a full-length synthesis
    of ``threshold_coeffs``' two halves. Raises NoDetectionError when
    nothing can be localized.
    """
    if filters is None:
        filters = wavelet_filters()
    # an overflow is reported by the detector as a ValueError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = swt_decompose(x, filters, levels)
    center = detect_oscillation_center(
        coeffs, target_freq_hz, sample_rate_hz,
        filter_length=filters.length,
    )
    mask = build_mask(center, target_freq_hz, sample_rate_hz, coeffs.n_samples)
    trans = _transient_coeffs(coeffs, mask)
    return SeparationResult(
        oscillatory=_oscillatory_part(coeffs, trans, mask.window, filters),
        transient=iswt_reconstruct(trans, filters),
        mask_used=mask,
        detection_center_sample=center,
    )
