"""Numeric convolution kernels shared by the wavelet and mapping chains.

The circular kernel builds one wrap-padded copy of the input per call,
multiplies it by the taps, and sums each tap's slice of the products in
ascending tap order from +0.0, so its output is reproducible to the bit.
A call whose tap products fit PRODUCT_BUDGET makes them all in one numpy
call and sums them in one ordered reduction; a longer one, whose product
matrix would leave the L2 cache, multiplies each tap's slice of the copy
into one buffer and adds it to the sum, one tap at a time. The real
centered kernel rides ``np.convolve``. The complex one applies a bank of
kernels as one matrix product: every output sample is the dot of the same
input window with the same tap column, wherever the sample sits in the
input.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "centered_conv",
    "centered_conv_complex",
    "circular_conv",
]

# bytes of input windows that one block of the bank product copies
BLOCK_BYTES = 256 * 1024
# every product has a multiple of BLOCK_ALIGN windows and 2 * BANK_WIDTH
# columns, so each output sample meets the same BLAS micro-kernel, wherever
# it sits in the input and whichever bank its kernel belongs to
BLOCK_ALIGN = 64
BANK_WIDTH = 12
# elements (512 KiB) of the tap-by-input product that circular_conv makes
# in one call. The crossover for db4's 8 taps lies between 8192 and 16384
# samples; at 30720 the one product is slower than the per-run loop
# (201 against 116 us per call, 2-vCPU host) because it leaves L2
PRODUCT_BUDGET = 2**16


def circular_conv(x, taps, stride=1):
    """Circular convolution of x with taps spaced ``stride`` samples apart.

    ``y[i] = sum_m taps[m] * x[(i - m*stride) mod n]``

    ``x`` and ``taps`` are 1-D and ``stride`` is a non-negative integer.
    The taps span ``span = (k-1)*stride`` samples. The input is copied once
    with its last ``span`` samples in front, ``xp[j] = x[(j - span) mod n]``,
    so tap m reads the slice ``xp[span - m*stride : span - m*stride + n]``.
    Taps wider than the signal (``span >= n``) wrap it more than once, and
    the pad is then gathered modulo n. The slices are summed in ascending
    tap order, starting from +0.0: every product and sum is the one that
    adding each tap's own product to zeros would take, bit for bit, sign of
    zero included. Two regimes, chosen from the sizes alone, do this:

    - When the k rows of products, ``k * (n + span)`` elements, fit
      PRODUCT_BUDGET, one ``np.multiply`` makes them all and one
      ``np.add.reduce(..., axis=0, initial=0.0)`` sums a (k, n) view whose
      row m starts at ``span - m*stride`` of product row m. Reducing over
      the outer axis, numpy adds each row into the running sum in row
      order. A single sample (n == 1) and a single tap stay on the loop:
      numpy drops the length-1 output axis and sums the k products of one
      sample pairwise, in another order, and with one tap the view's rows
      would be shorter than n.
    - Otherwise each tap multiplies its own n-sample slice of the copy
      into one buffer, which is added to the sum: k products and k sums
      of n samples.
    """
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if x.ndim != 1 or taps.ndim != 1:
        raise ValueError(
            f"x and taps must be 1-D, got shapes {x.shape} and {taps.shape}"
        )
    if (
        not isinstance(stride, (int, np.integer))
        or isinstance(stride, bool)
        or stride < 0
    ):
        raise ValueError(f"stride must be a non-negative integer, got {stride!r}")
    stride = int(stride)
    n, k = x.shape[0], taps.shape[0]
    if n == 0 or k == 0:
        return np.zeros_like(x)
    span = (k - 1) * stride
    if span < n:
        xp = np.concatenate((x[n - span :], x))
    else:
        xp = np.take(x, np.arange(-span, n), mode="wrap")
    if n > 1 and k > 1 and k * xp.size <= PRODUCT_BUDGET:
        # row m of the (k, n) view starts at span - m*stride of product row m
        rows = np.multiply(taps[:, None], xp).reshape(-1)
        rows = rows[span : span + k * (xp.size - stride)].reshape(k, -1)[:, :n]
        return np.add.reduce(rows, axis=0, initial=0.0)
    product = np.empty(n)
    for m, tap in enumerate(taps.tolist()):
        start = span - m * stride
        np.multiply(xp[start : start + n], tap, out=product)
        if m == 0:
            y = product + 0.0
        else:
            y += product
    return y


def centered_conv(x, taps):
    """Zero-padded convolution trimmed to the input length, center-aligned.

    With an odd symmetric tap vector this applies a zero-phase FIR filter.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    off = (taps.shape[0] - 1) // 2
    return np.convolve(x, taps, mode="full")[off : off + x.shape[0]]


def _block_rows(k):
    """Windows per block: BLOCK_BYTES of k-sample windows, rounded down to a
    multiple of BLOCK_ALIGN and never fewer than BLOCK_ALIGN."""
    return max(1, BLOCK_BYTES // (8 * k) // BLOCK_ALIGN) * BLOCK_ALIGN


def centered_conv_complex(x, taps):
    """Like :func:`centered_conv` but with complex taps, for analytic kernels.

    ``taps`` is one kernel ``(k,)`` or a bank ``(rows, k)`` of kernels of
    one length; the result is ``(n,)`` or ``(rows, n)``, C-ordered complex.
    Kernels of different odd lengths share a bank when each is centered and
    zero-padded to the longest, since zero taps move no output.

    The sliding k-sample windows of the zero-padded input are multiplied by
    ``(k, 2 * BANK_WIDTH)`` matrices that hold the flipped real and
    imaginary taps of up to BANK_WIDTH kernels, interleaved, so a product
    row is the complex response of every kernel. The windows are copied in
    blocks of about BLOCK_BYTES, so the copy stays small whatever the kernel
    length. All products have one shape, up to a last block cut to a whole
    number of BLOCK_ALIGN windows: an output sample is therefore the same
    sum of the same products wherever it sits in the input (the crop of
    `tfmap.map_row` rests on this) and whichever bank holds its kernel. The
    sums run in the BLAS library's order, so another BLAS build can differ
    in the last bits.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.complex128)
    bank = taps.reshape(-1, taps.shape[-1])
    rows, k = bank.shape
    n = x.shape[0]
    groups = -(-rows // BANK_WIDTH)
    # a complex column is a real and an imaginary float column, so each row
    # of a product views as the complex responses of BANK_WIDTH kernels
    columns = np.zeros((k, groups * BANK_WIDTH), dtype=np.complex128)
    columns[:, :rows] = bank[:, ::-1].T
    weights = np.ascontiguousarray(
        columns.view(np.float64).reshape(k, groups, 2 * BANK_WIDTH).transpose(1, 0, 2)
    )
    padded = -(-n // BLOCK_ALIGN) * BLOCK_ALIGN
    off = (k - 1) // 2
    # window i is buffer[i : i + k]: the input zero-padded by k - 1 - off
    # in front and to padded + k - 1 samples in all
    buffer = np.zeros(padded + k - 1)
    buffer[k - 1 - off : k - 1 - off + n] = x
    windows = as_strided(buffer, (padded, k), 2 * buffer.strides, writeable=False)
    step = _block_rows(k)
    out = np.empty((rows, n), dtype=np.complex128)
    for lo in range(0, n, step):
        block = np.ascontiguousarray(windows[lo : lo + step])
        hi = min(lo + step, n)
        for g in range(groups):
            response = (block @ weights[g]).view(np.complex128)
            dest = out[g * BANK_WIDTH : (g + 1) * BANK_WIDTH, lo:hi]
            dest[...] = response[: hi - lo, : dest.shape[0]].T
    return out[0] if taps.ndim == 1 else out
