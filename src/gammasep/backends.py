"""Numeric convolution kernels shared by the wavelet and mapping chains.

The circular kernel builds one wrap-padded copy of the input per call and
accumulates the taps in ascending order, each as a product with a slice of
that copy, so its output is reproducible to the bit. The centered kernels
ride ``np.convolve``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "centered_conv",
    "centered_conv_complex",
    "circular_conv",
]


def circular_conv(x, taps, stride=1):
    """Circular convolution of x with taps spaced ``stride`` samples apart.

    ``y[i] = sum_m taps[m] * x[(i - m*stride) mod n]``

    The taps span ``span = (k-1)*stride`` samples. The input is copied once
    with its last ``span`` samples in front, ``xp[j] = x[(j - span) mod n]``,
    so tap m reads the slice ``xp[span - m*stride : span - m*stride + n]``.
    Taps wider than the signal (``span >= n``) wrap it more than once, and
    the pad is then gathered modulo n. Products and sums are taken in
    ascending tap order, starting from zeros.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    stride = int(stride)
    if stride < 0:
        raise ValueError(f"stride must be non-negative, got {stride}")
    n = x.shape[0]
    y = np.zeros_like(x)
    if n == 0:
        return y
    span = (taps.shape[0] - 1) * stride
    if span < n:
        xp = np.concatenate((x[n - span :], x))
    else:
        xp = np.take(x, np.arange(-span, n), mode="wrap")
    for m in range(taps.shape[0]):
        start = span - m * stride
        y += taps[m] * xp[start : start + n]
    return y


def centered_conv(x, taps):
    """Zero-padded convolution trimmed to the input length, center-aligned.

    With an odd symmetric tap vector this applies a zero-phase FIR filter.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    off = (taps.shape[0] - 1) // 2
    return np.convolve(x, taps, mode="full")[off : off + x.shape[0]]


def centered_conv_complex(x, taps):
    """Like :func:`centered_conv` but with complex taps, for analytic kernels."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = np.ascontiguousarray(taps, dtype=np.complex128)
    off = (taps.shape[0] - 1) // 2
    return np.convolve(x.astype(np.complex128), taps, mode="full")[
        off : off + x.shape[0]
    ]
