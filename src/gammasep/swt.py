"""Undecimated wavelet decomposition and its exact inverse.

The transform keeps every level at the input length by inserting zeros into
the filters instead of downsampling the signal. Boundaries are periodic, so
a circular shift of the input shifts every coefficient sequence by the same
amount, bit for bit. Reconstruction undoes the analysis exactly (to rounding)
for any filter pair that passes the construction-time round-trip check. The
one filter bank built in, db4, is eight fixed scaling taps, built and
checked once per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backends import circular_conv
from .signal_core import real_row, require_frequency, require_integer, require_positive

__all__ = [
    "FilterPair",
    "WaveletCoefficients",
    "iswt_reconstruct",
    "level_for_frequency",
    "swt_decompose",
    "wavelet_filters",
]


@dataclass(frozen=True)
class FilterPair:
    """The four FIR filters of one orthonormal scaling filter.

    ``scaling`` is the scaling filter h, a non-empty 1-D list of finite
    taps. The synthesis pair is ``rec_lo = h`` and ``rec_hi[k] =
    (-1)**k * h[K-1-k]`` for K taps, and the analysis pair
    ``dec_lo``/``dec_hi`` is their reversal. All five arrays are read-only
    float64. Construction runs a small round-trip and rejects a filter that
    does not reconstruct.
    """

    name: str
    scaling: np.ndarray

    def __post_init__(self):
        h = np.array(real_row("scaling", self.scaling))
        if h.size == 0 or not np.isfinite(h).all():
            raise ValueError(
                f"scaling must be a non-empty 1-D list of finite taps, got {h}"
            )
        rec_hi = np.array([(-1) ** k for k in range(h.size)]) * h[::-1]
        taps = {
            "scaling": h,
            "dec_lo": h[::-1].copy(),
            "dec_hi": rec_hi[::-1].copy(),
            "rec_lo": h,
            "rec_hi": rec_hi,
        }
        for field, values in taps.items():
            values.setflags(write=False)
            object.__setattr__(self, field, values)
        probe = np.cos(np.arange(32) * 0.7) + 0.3 * np.sin(np.arange(32) * 2.1)
        coeffs = swt_decompose(probe, self, 1)
        back = iswt_reconstruct(coeffs, self)
        err = np.max(np.abs(back - probe))
        if err > 1e-9 * np.max(np.abs(probe)):
            raise ValueError(
                f"filter pair {self.name!r} fails reconstruction (err {err:.2e})"
            )

    @property
    def length(self):
        return self.scaling.size


def wavelet_filters(name="db4"):
    """Filter pair of db4, the one wavelet the separation uses.

    The first call builds and checks the pair from fixed taps; every call
    returns that read-only object. Raises ValueError for any name but "db4".
    """
    if name != "db4":
        raise ValueError(f"unknown wavelet {name!r}; only 'db4' is built in")
    return _db4()


@functools.cache
def _db4():
    # Daubechies' 8-tap minimum-phase orthonormal scaling filter, orthonormal
    # to 2.2e-16 in float64; the last digits differ from printed tables by 4e-13
    return FilterPair("db4", (
        0.23037781330889645,
        0.7148465705529153,
        0.6308807679298591,
        -0.027983769416859688,
        -0.187034811719093,
        0.030841381835560625,
        0.03288301166688516,
        -0.010597401785069018,
    ))


@dataclass(frozen=True)
class WaveletCoefficients:
    """The deepest approximation and every detail level, all at source length.

    ``details[j - 1]`` is level j. This is all that the inverse reads.
    """

    approximation: np.ndarray
    details: tuple

    def __post_init__(self):
        approx = real_row("approximation", self.approximation)
        det = tuple(real_row("details", d) for d in self.details)
        if not det:
            raise ValueError("need at least one detail level")
        for seq in det:
            if seq.shape != approx.shape:
                raise ValueError(
                    f"every detail level must have the approximation's "
                    f"{approx.size} samples, got shape {seq.shape}"
                )
        object.__setattr__(self, "approximation", approx)
        object.__setattr__(self, "details", det)

    @property
    def levels(self):
        return len(self.details)

    @property
    def n_samples(self):
        return self.approximation.size


def require_levels(x, levels):
    """x as a float64 row, refused when it has fewer than 2**levels samples."""
    x = real_row("x", x)
    require_integer("levels", levels)
    if 2 ** levels > x.size:
        raise ValueError(
            f"signal of length {x.size} too short for {levels} levels"
        )
    return x


def swt_decompose(x, filters, levels):
    """Undecimated analysis of a 1-D signal over the given number of levels.

    Level 1 convolves the signal circularly with the analysis pair; deeper
    levels reuse the previous approximation with the taps spread apart by
    powers of two (equivalent to convolving with the zero-inserted filters).
    Every detail level is kept, and only the deepest approximation.
    """
    x = require_levels(x, levels)
    details = []
    a = x
    for j in range(1, levels + 1):
        stride = 2 ** (j - 1)
        details.append(circular_conv(a, filters.dec_hi, stride))
        a = circular_conv(a, filters.dec_lo, stride)
    return WaveletCoefficients(approximation=a, details=tuple(details))


def iswt_reconstruct(coeffs, filters):
    """Invert :func:`swt_decompose` from the deepest approximation and details.

    Each level averages the two synthesis convolutions and rotates back the
    filter delay, so unmodified coefficients reproduce the input to rounding.
    The second convolution is added into the first in place, and half of
    the sum is written, rotated, straight into the next level's array: the
    same products and sums as ``0.5 * np.roll(lo + hi, -delay)``.
    """
    if not isinstance(coeffs, WaveletCoefficients):
        raise ValueError("coeffs must be WaveletCoefficients")
    taps_len = filters.length
    a = coeffs.approximation
    n = a.size
    for j in range(coeffs.levels, 0, -1):
        stride = 2 ** (j - 1)
        mixed = circular_conv(a, filters.rec_lo, stride)
        mixed += circular_conv(coeffs.details[j - 1], filters.rec_hi, stride)
        delay = (taps_len - 1) * stride % max(n, 1)
        a = np.empty(n)
        np.multiply(mixed[delay:], 0.5, out=a[: n - delay])
        np.multiply(mixed[:delay], 0.5, out=a[n - delay :])
    return a


def level_for_frequency(freq_hz, sample_rate_hz):
    """Detail level whose band [fs/2^(j+1), fs/2^j) contains the frequency."""
    require_positive("sample_rate_hz", sample_rate_hz)
    require_frequency("freq_hz", freq_hz, sample_rate_hz)
    # above the subnormal range halving is exact, so band_low is
    # fs / 2**(j + 1); unlike 2.0**(j + 1), it cannot overflow
    j = 1
    band_low = sample_rate_hz / 4.0
    while band_low > freq_hz:
        band_low /= 2.0
        j += 1
    return j
