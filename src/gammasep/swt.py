"""Undecimated wavelet decomposition and its exact inverse.

The transform keeps every level at the input length by inserting zeros into
the filters instead of downsampling the signal. Boundaries are periodic, so
a circular shift of the input shifts every coefficient sequence by the same
amount, bit for bit. Reconstruction undoes the analysis exactly (to rounding)
for any filter pair that passes the construction-time round-trip check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .backends import circular_conv

__all__ = [
    "FilterPair",
    "WaveletCoefficients",
    "iswt_reconstruct",
    "level_for_frequency",
    "swt_decompose",
    "wavelet_filters",
    "wavelet_order",
]


def _daubechies_scaling(p):
    """Orthonormal scaling filter of length 2p via spectral factorization.

    Builds the binomial half-band polynomial, keeps the unit-circle-interior
    roots, and attaches p zeros at z = -1. p = 1 gives the Haar filter.
    """
    if p == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    half = np.array([comb(p - 1 + k, k) for k in range(p)], dtype=float)
    yroots = np.roots(half[::-1])
    zroots = []
    for y in yroots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        z1 = (b + disc) / 2.0
        z2 = (b - disc) / 2.0
        zroots.append(z1 if abs(z1) < 1.0 else z2)
    poly = np.array([1.0 + 0j])
    for _ in range(p):
        poly = np.convolve(poly, [0.5, 0.5])
    for z in zroots:
        poly = np.convolve(poly, np.array([1.0, -z]) / (1.0 - z))
    return np.real(poly) * np.sqrt(2.0)


@dataclass(frozen=True)
class FilterPair:
    """Analysis and synthesis FIR taps for one wavelet family.

    dec_lo/dec_hi are the analysis (decomposition) filters, rec_lo/rec_hi
    the matched synthesis pair. Construction runs a small round-trip and
    rejects pairs that do not reconstruct.
    """

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    def __post_init__(self):
        for field in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
            taps = np.asarray(getattr(self, field), dtype=np.float64)
            if taps.ndim != 1 or taps.size == 0:
                raise ValueError(f"{field} must be a non-empty 1-D tap list")
            if not np.all(np.isfinite(taps)):
                raise ValueError(f"{field} contains non-finite taps")
            taps.setflags(write=False)
            object.__setattr__(self, field, taps)
        if len({t.size for t in (self.dec_lo, self.dec_hi, self.rec_lo, self.rec_hi)}) != 1:
            raise ValueError("all four tap lists must share one length")
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
        return self.dec_lo.size

    @classmethod
    def from_scaling(cls, name, scaling):
        """Derive all four filters from an orthonormal scaling filter."""
        h = np.asarray(scaling, dtype=np.float64)
        rec_lo = h
        rec_hi = np.array([(-1) ** k for k in range(h.size)]) * h[::-1]
        return cls(
            name=name,
            dec_lo=rec_lo[::-1].copy(),
            dec_hi=rec_hi[::-1].copy(),
            rec_lo=rec_lo.copy(),
            rec_hi=rec_hi.copy(),
        )


_FAMILY_ORDER = {"haar": 1, **{f"db{p}": p for p in range(1, 9)}}


def wavelet_order(name):
    """Daubechies order of a named family: 'haar' or 'db1' through 'db8'.

    Raises ValueError for any other name, and for a name that is not a string.
    """
    key = name.strip().lower() if isinstance(name, str) else None
    if key not in _FAMILY_ORDER:
        raise ValueError(
            f"unknown wavelet {name!r}; choose from {sorted(_FAMILY_ORDER)}"
        )
    return _FAMILY_ORDER[key]


def wavelet_filters(name="db4"):
    """Filter pair for a named family: 'haar' or 'db1' through 'db8'."""
    order = wavelet_order(name)
    return FilterPair.from_scaling(name.strip().lower(), _daubechies_scaling(order))


@dataclass(frozen=True)
class WaveletCoefficients:
    """Per-level approximation and detail sequences, all at source length."""

    approximations: tuple
    details: tuple
    levels: int
    n_samples: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        approx = tuple(np.asarray(a, dtype=np.float64) for a in self.approximations)
        det = tuple(np.asarray(d, dtype=np.float64) for d in self.details)
        if len(approx) != self.levels or len(det) != self.levels:
            raise ValueError(
                f"expected {self.levels} approximation and detail sequences, "
                f"got {len(approx)} and {len(det)}"
            )
        for seq in (*approx, *det):
            if seq.shape != (self.n_samples,):
                raise ValueError(
                    f"every level must have exactly {self.n_samples} samples, "
                    f"got shape {seq.shape}"
                )
        object.__setattr__(self, "approximations", approx)
        object.__setattr__(self, "details", det)


def swt_decompose(x, filters, levels):
    """Undecimated analysis of a 1-D signal over the given number of levels.

    Level 1 convolves the signal circularly with the analysis pair; deeper
    levels reuse the previous approximation with the taps spread apart by
    powers of two (equivalent to convolving with the zero-inserted filters).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("input must be 1-D")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if 2 ** levels > x.size:
        raise ValueError(
            f"signal of length {x.size} too short for {levels} levels"
        )
    approximations = []
    details = []
    a = x
    for j in range(1, levels + 1):
        stride = 2 ** (j - 1)
        details.append(circular_conv(a, filters.dec_hi, stride))
        a = circular_conv(a, filters.dec_lo, stride)
        approximations.append(a)
    return WaveletCoefficients(
        approximations=tuple(approximations),
        details=tuple(details),
        levels=levels,
        n_samples=x.size,
    )


def iswt_reconstruct(coeffs, filters):
    """Invert :func:`swt_decompose` from the deepest approximation and details.

    Each level averages the two synthesis convolutions and rolls back the
    filter delay, so unmodified coefficients reproduce the input to rounding.
    """
    if not isinstance(coeffs, WaveletCoefficients):
        raise ValueError("coeffs must be WaveletCoefficients")
    taps_len = filters.length
    a = coeffs.approximations[-1]
    for j in range(coeffs.levels, 0, -1):
        stride = 2 ** (j - 1)
        mixed = circular_conv(a, filters.rec_lo, stride) + circular_conv(
            coeffs.details[j - 1], filters.rec_hi, stride
        )
        a = 0.5 * np.roll(mixed, -(taps_len - 1) * stride)
    return a


def level_for_frequency(freq_hz, sample_rate_hz):
    """Detail level whose band [fs/2^(j+1), fs/2^j) contains the frequency."""
    nyquist = sample_rate_hz / 2.0
    if not 0 < freq_hz < nyquist:
        raise ValueError(
            f"freq_hz must lie in (0, {nyquist}), got {freq_hz}"
        )
    j = 1
    while sample_rate_hz / 2.0 ** (j + 1) > freq_hz:
        j += 1
    return j
