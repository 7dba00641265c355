"""Numeric convolution kernels shared by the wavelet and mapping chains.

The circular kernel accumulates taps in ascending order, one shifted copy of
the input at a time, so its output is reproducible to the bit. The centered
kernels ride ``np.convolve``.
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
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    stride = int(stride)
    y = np.zeros_like(x)
    for m in range(taps.shape[0]):
        y += taps[m] * np.roll(x, m * stride)
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
