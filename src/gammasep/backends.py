"""Numeric convolution kernels shared by the wavelet and mapping chains.

The circular kernel adds each tap's product with its slice of a
wrap-padded copy of the input to a sum that starts at +0.0, in ascending
tap order, so its output is reproducible to the bit. It keeps a float32
input in float32, through the same views. One ``np.einsum``
over a sheared view of the copy makes each tap's multiply-adds in one pass
(db4 at stride 2 on 30720 samples: about 195 against 300 us per call for
a multiply pass and an add pass per tap, on a 2-vCPU host). An input of
``LONG`` samples or more at a stride from 2 up is cut into blocks of at
most ``BLOCK`` output samples; one einsum over a (taps, blocks, samples)
view passes every tap over each block while it sits in L1, and only the
first block, the one that wraps, reads a padded copy. The sums are the
same, so are the bits. ``BLOCK`` and ``LONG`` are constants, not settings.
Stride 1, where einsum's iterator would put the taps innermost, and
shorter inputs keep the one-row pass over a whole padded copy. A single
output sample, and a numpy build whose einsum fuses the multiply-adds (a
probe of both views at import decides), take a per-tap loop instead.
The real centered kernel rides ``np.convolve``. The complex one applies a
bank of kernels as one matrix product per block of input windows, or as
the in-order sum of one product per 256-tap slice when the kernels are
longer: every output sample is the dot of the same input window with the
same tap column, wherever the sample sits in the input and at any BLAS
thread count.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .signal_core import real_row

__all__ = [
    "centered_conv",
    "centered_conv_complex",
    "circular_conv",
]

# output samples per block of the circular kernel's blocked einsum, at most:
# 8 KB of output, which stays in L1 while every tap passes over it (1024 was
# the fastest of 512, 1024, 2048 and 4096 for db4 on 30720 samples)
BLOCK = 1024
# the shortest input that takes the blocked einsum; below it the one-row
# pass was as fast or faster inside a separation loop (see circular_conv)
LONG = 16 * BLOCK
# bytes of input windows that one block of the bank product copies
BLOCK_BYTES = 256 * 1024
# every product has a multiple of BLOCK_ALIGN windows and 2 * BANK_WIDTH
# columns, so each output sample meets the same BLAS micro-kernel, wherever
# it sits in the input and whichever bank its kernel belongs to
BLOCK_ALIGN = 64
BANK_WIDTH = 12
# no BLAS product sums more taps than this; a longer kernel's is summed
# over slices in order (measured thread-count independent on OpenBLAS, see
# centered_conv_complex)
TAP_SLICE = 256


def _einsum_sum(xp, taps, n, stride):
    """The einsum sum of :func:`circular_conv` over its wrap-padded copy xp."""
    k, step = taps.shape[0], xp.itemsize
    rows = np.ndarray(
        (k, n), xp.dtype, xp, (k - 1) * stride * step, (-stride * step, step)
    )
    rows.flags.writeable = False
    return np.einsum("k,kn->n", taps, rows, order="F")


def _blocked_sum(xp, taps, stride, out):
    """The einsum sum of :func:`circular_conv` into ``out``, blocks x width.

    Block b, sample i is ``sum_m taps[m] * xp[span - m*stride + b*width + i]``.
    ``rows[m, b]`` holds tap m's samples for block b. Its strides,
    ``-stride``, ``width`` and 1 samples, let einsum's iterator nest samples
    in taps in blocks when ``1 < stride < width``: each block gets every
    tap's pass while it sits in L1.
    """
    k, step = taps.shape[0], xp.itemsize
    blocks, width = out.shape
    rows = np.ndarray(
        (k, blocks, width),
        xp.dtype,
        xp,
        (k - 1) * stride * step,
        (-stride * step, width * step, step),
    )
    rows.flags.writeable = False
    np.einsum("k,kbn->bn", taps, rows, order="K", out=out)


def _long_conv(x, taps, stride):
    """:func:`circular_conv` of a long contiguous x, in blocks.

    Blocks of ``n // ceil(n / BLOCK)`` samples leave fewer samples past
    the last block than there are blocks (none at 30720); those are summed
    as a call of their own length. Only the first block reads samples
    before x[0] (the taps span less than a block), so it alone gets a
    wrap-padded copy, of ``span + width`` samples, and every later block
    reads x itself.
    """
    n, span = x.shape[0], (taps.shape[0] - 1) * stride
    blocks = -(-n // BLOCK)
    width = n // blocks
    whole = blocks * width
    y = np.empty(n, x.dtype)
    out = y[:whole].reshape(blocks, width)
    _blocked_sum(np.concatenate((x[n - span :], x[:width])), taps, stride, out[:1])
    _blocked_sum(x[width - span :], taps, stride, out[1:])
    if whole < n:
        tail = _loop_sum if n - whole == 1 else _einsum_sum
        y[whole:] = tail(x[whole - span :], taps, n - whole, stride)
    return y


def _loop_sum(xp, taps, n, stride):
    """The same sum, one product and one sum of n samples per tap."""
    span = (taps.shape[0] - 1) * stride
    product = np.empty(n, xp.dtype)
    for m, tap in enumerate(taps.tolist()):
        start = span - m * stride
        np.multiply(xp[start : start + n], tap, out=product)
        if m == 0:
            y = product + 0.0
        else:
            y += product
    return y


# every sample of the rounding probe, and its two taps
PROBE_SAMPLE = 1.0 + 2.0**-30
PROBE_TAPS = (-1.0, 1.0 - 2.0**-30)


def _einsum_rounds_twice():
    """Whether einsum rounds each product and each sum, as the loop does.

    With every sample ``PROBE_SAMPLE = 1 + 2**-30`` and ``PROBE_TAPS``, the
    second product ``1 - 2**-60`` rounds to 1, so rounding twice gives
    ``1 - (1 + 2**-30) = -2**-30``; a fused multiply-add (numpy's NEON
    ``npyv_muladd`` on aarch64, for one) keeps it and gives
    ``-2**-30 - 2**-60``. Both views are probed: 37 samples in one row, and
    three blocks of 683 samples at stride 2; both counts are odd and past
    several vector widths, so they reach the vector body and the scalar
    tail.
    """
    taps = np.array(PROBE_TAPS)
    xp = np.full(3 * 683 + 2, PROBE_SAMPLE)
    blocks = np.empty((3, 683))
    _blocked_sum(xp, taps, 2, blocks)
    return (
        _einsum_sum(xp, taps, 37, 1).tobytes() == _loop_sum(xp, taps, 37, 1).tobytes()
        and blocks.tobytes() == _loop_sum(xp, taps, 3 * 683, 2).tobytes()
    )


# decided once per process from the numpy build, not a setting
EINSUM_ROUNDS_TWICE = _einsum_rounds_twice()


def circular_conv(x, taps, stride=1):
    """Circular convolution of x with taps spaced ``stride`` samples apart.

    ``y[i] = sum_m taps[m] * x[(i - m*stride) mod n]``

    ``x`` and ``taps`` are real 1-D arrays (a complex one is refused, not
    cut to its real part) and ``stride`` is a non-negative integer. A
    float32 ``x`` stays float32, with the taps rounded to float32, through
    the same views and the same einsum calls as a float64 one (the
    separation's detection screen analyses its input so); every other
    input is cast to float64, and so are float32 taps on it. The probe
    below checks only the float64 rounding: float32 outputs are used only
    through a bound on their rounding that holds in any order.
    The taps span ``span = (k-1)*stride`` samples. The input is copied once
    with its last ``span`` samples in front, ``xp[j] = x[(j - span) mod n]``
    (only the first block's share of it on the blocked path below), so tap
    m reads the slice ``xp[span - m*stride : span - m*stride + n]``.
    Taps wider than the signal (``span >= n``) wrap it more than once, and
    the pad is then gathered modulo n. Each tap's product with its slice is
    added to a sum that starts at +0.0, in ascending tap order, with the
    product and the sum each rounded: every bit, sign of zero included, is
    the one that adding each tap's own product to zeros would give.

    One ``np.einsum("k,kn->n", taps, rows, order="F")`` does this, where
    ``rows`` is a read-only view of the copy whose row m starts at
    ``xp[span - m*stride]`` (row stride ``-stride`` samples, so no
    product matrix is made). ``order="F"`` makes the output axis the inner
    loop: for each tap in turn, einsum's contiguous kernel computes
    ``out = tap * row + out`` in one pass over the n samples.

    From ``LONG`` (16384) samples, at a stride of 2 or more with taps that
    span less than ``BLOCK // 2`` samples (every db4 level up to stride
    73), the output is cut into ``ceil(n / BLOCK)`` blocks of
    ``n // blocks`` samples, thirty of 1024 for 30720, and one
    ``np.einsum("k,kbn->bn", ...)`` over a ``(taps, blocks, width)`` view
    of x makes all but the first. Its iterator orders axes by stride, so
    samples nest in taps in blocks: all taps pass over one 8 KB block
    while it sits in L1, where the one-row pass reads the whole output
    from L2 once per tap. Only the first block reads past the start of x,
    so only it is summed over a wrap-padded copy, and the 245 KB copy of a
    30720-sample input is gone. Every sample gets the same products and
    sums in the same order, so the bits are the same. Inside a
    48-channel separation loop at 30720 samples, ``separate`` took 0.81
    to 0.86 of the one-row pass's time (0.90 to 0.96 with the blocks but a
    whole padded copy). Below ``LONG`` the blocks gained nothing there
    (5000 samples: 1.01 with a whole copy, 1.05 without), so shorter
    inputs keep one row. Stride 1 keeps it at any length: its tap and
    sample steps are both 8 bytes, and einsum's iterator then makes the
    tap axis the inner loop (about 190 against 82 us per call).

    Two cases keep a loop that multiplies each tap's slice into one buffer
    and adds it to the sum:

    - one sample (n == 1, also as a one-sample rest past the blocks):
      einsum then drops the output axis and sums the k products with
      another kernel, in another order, and on AVX2 builds with fused
      multiply-adds;
    - a numpy build whose einsum fuses the multiply-add, rounding once.
      ``EINSUM_ROUNDS_TWICE``, worked out at import from an input where
      the two roundings differ, on both views, decides this; on x86-64
      numpy rounds twice.
    """
    x = np.asarray(x)
    if x.dtype != np.float32 or x.ndim != 1:
        x = real_row("x", x)
    taps = real_row("taps", taps).astype(x.dtype, copy=False)
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
    if n >= LONG and stride > 1 and span < BLOCK // 2 and EINSUM_ROUNDS_TWICE:
        return _long_conv(np.ascontiguousarray(x), taps, stride)
    if span < n:
        xp = np.concatenate((x[n - span :], x))
    else:
        xp = np.take(x, np.arange(-span, n), mode="wrap")
    if n == 1 or not EINSUM_ROUNDS_TWICE:
        return _loop_sum(xp, taps, n, stride)
    return _einsum_sum(xp, taps, n, stride)


def centered_conv(x, taps):
    """Zero-padded convolution trimmed to the input length, center-aligned.

    With an odd symmetric tap vector this applies a zero-phase FIR filter.
    """
    x = real_row("x", x)
    taps = real_row("taps", taps)
    off = (taps.shape[0] - 1) // 2
    return np.convolve(x, taps, mode="full")[off : off + x.shape[0]]


def _block_rows(k):
    """Windows per block: BLOCK_BYTES of k-sample windows, rounded down to a
    multiple of BLOCK_ALIGN and never fewer than BLOCK_ALIGN."""
    return max(1, BLOCK_BYTES // (8 * k) // BLOCK_ALIGN) * BLOCK_ALIGN


def _sliced_matmul(block, weights):
    """``block @ weights`` as the in-order sum of the products over
    consecutive TAP_SLICE-tap slices of the kernel axis; one product, the
    same bits as ``block @ weights``, when the kernel is no longer."""
    product = block[:, :TAP_SLICE] @ weights[:TAP_SLICE]
    for lo in range(TAP_SLICE, weights.shape[0], TAP_SLICE):
        product += block[:, lo : lo + TAP_SLICE] @ weights[lo : lo + TAP_SLICE]
    return product


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
    `tfmap.map_row` rests on this) and whichever bank holds its kernel.
    A kernel longer than TAP_SLICE (256) taps is the in-order sum of one
    product per TAP_SLICE-tap slice of the kernel axis: unsliced, OpenBLAS
    summed a 5141-tap 1-5 Hz bank in another order on two threads than on
    one; sliced, the 1-5, 2-6 and 10-15 Hz maps were byte-identical at 1, 2
    and 4 threads on OpenBLAS 0.3.31 (SkylakeX). Why is not pinned down (the
    slices also make each product smaller), so the tests guard it. Within a
    product the sum runs in the BLAS library's order, so another BLAS build
    can differ in the last bits.
    """
    x = real_row("x", x)
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
            response = _sliced_matmul(block, weights[g]).view(np.complex128)
            dest = out[g * BANK_WIDTH : (g + 1) * BANK_WIDTH, lo:hi]
            dest[...] = response[: hi - lo, : dest.shape[0]].T
    return out[0] if taps.ndim == 1 else out
