"""Tests for the convolution kernels."""

import platform
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gammasep as g
from gammasep import backends
from gammasep.despike import mask_geometry
from gammasep.signal_core import ms_to_samples
from oracles import convolve_complex, loop_conv, roll_conv, same_bits

_samples = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def strided_problems(draw):
    n = draw(st.integers(1, 64))
    k = draw(st.integers(1, 12))
    stride = draw(st.integers(1, 48))
    x = draw(arrays(np.float64, n, elements=_samples))
    taps = draw(arrays(np.float64, k, elements=_samples))
    return x, taps, stride


def test_circular_conv_matches_definition(rng):
    x = rng.standard_normal(48)
    taps = rng.standard_normal(8)
    got = backends.circular_conv(x, taps)
    np.testing.assert_allclose(got, loop_conv(x, taps), atol=1e-12)


def test_circular_conv_stride_spaces_taps(rng):
    x = rng.standard_normal(64)
    taps = rng.standard_normal(4)
    stride = 4
    expected = np.zeros(64)
    for m in range(taps.size):
        expected += taps[m] * np.roll(x, m * stride)
    np.testing.assert_allclose(
        backends.circular_conv(x, taps, stride), expected, atol=1e-12
    )


@settings(deadline=None)
@given(strided_problems())
# five db4 levels on 32 samples: the last level's taps span 113 samples
@example((np.arange(32.0), np.linspace(-1.0, 1.0, 8), 16))
def test_strided_circular_conv_equals_stuffed_taps_exactly(problem):
    # covers spans (k-1)*stride >= n, where the taps wrap the signal
    # more than once; zero taps add exact zeros, so the sums agree bit for bit
    x, taps, stride = problem
    stuffed = np.zeros((taps.size - 1) * stride + 1)
    stuffed[::stride] = taps
    assert np.array_equal(
        backends.circular_conv(x, taps, stride), loop_conv(x, stuffed)
    )


def half_silent(rng, n):
    # exact zeros outside a burst, as in a despiked channel
    x = np.zeros(n)
    x[n // 3 : n // 2] = rng.standard_normal(n // 2 - n // 3)
    return x


@pytest.mark.parametrize("n", [5000, 30720])
@pytest.mark.parametrize("stride", [1, 2, 4, 8, 16])
def test_circular_conv_equals_rolled_copies_exactly(db4, rng, n, stride):
    for x in (rng.standard_normal(n), half_silent(rng, n)):
        for taps in (db4.dec_lo, db4.dec_hi, db4.rec_lo, db4.rec_hi):
            assert same_bits(
                backends.circular_conv(x, taps, stride), roll_conv(x, taps, stride)
            )


@pytest.mark.parametrize("n", [5000, 30720])
@pytest.mark.parametrize("width", [77, 102])
def test_detection_box_equals_rolled_copies_exactly(rng, n, width):
    # the 150 ms and 200 ms boxes that smooth the detection energy at 512 Hz
    energy = rng.standard_normal(n) ** 2
    box = np.full(width, 1.0 / width)
    assert same_bits(backends.circular_conv(energy, box), roll_conv(energy, box))


@st.composite
def tap_run_problems(draw):
    # taps as runs of repeated values, so products are shared; neighbouring
    # runs of +0.0 and -0.0 (which may share), or of v and -v or of v and
    # the next float (which may not), and signed zeros in the input, which
    # test the +0.0 start
    near = [0.0, -0.0, 1.5, -1.5, float(np.nextafter(1.5, 2.0))]
    values = st.one_of(st.sampled_from(near), _samples)
    runs = draw(st.lists(
        st.tuples(values, st.integers(1, 6)), min_size=1, max_size=5
    ))
    taps = np.array([value for value, count in runs for _ in range(count)])
    n = draw(st.integers(1, 64))
    signed_zeros = st.sampled_from([0.0, -0.0])
    x = draw(arrays(np.float64, n, elements=st.one_of(signed_zeros, _samples)))
    return x, taps, draw(st.integers(0, 48))


@settings(deadline=None)
@given(tap_run_problems())
@example((np.array([-0.0, 1.0, -0.0]), np.array([2.0]), 1))
@example((np.array([-0.0, 3.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, 1.5, 1.5]), 1))
@example((np.array([-2.0, 1.0, 4.0]), np.array([1.0, 1.0, 2.0, -0.0, 0.0]), 5))
@example((np.array([1.0, 2.0, 4.0]), np.array([1.5, -1.5, -1.5]), 1))
@example((np.array([1.0, 3.0]), np.array([1.5, np.nextafter(1.5, 2.0)]), 1))
@example((np.array([1.0]), np.linspace(-1.0, 1.0, 8), 1))
# one sample: einsum would drop the output axis and sum the products with
# another kernel, which fuses each multiply-add on AVX2 builds: [3.0] with
# taps (1.5, 0.1) gives 0x1.3333333333334p+2, not 0x1.3333333333333p+2
@example((np.array([3.0]), np.array([1.5, 0.1]), 0))
@example((np.array([5.59220135e-251]), np.array([1.5, 1.5, 1.5]), 0))
# stride 0: every row of einsum's view is the same samples; without
# order="F" its iterator makes the tap axis the inner loop and sums the six
# products in another order
@example((np.ones(2), np.full(6, 0.1), 0))
def test_shared_products_equal_rolled_copies_exactly(problem):
    x, taps, stride = problem
    assert same_bits(
        backends.circular_conv(x, taps, stride), roll_conv(x, taps, stride)
    )


@pytest.mark.parametrize("n", [5000, 30720])
@pytest.mark.parametrize("freq_hz", [45.0, 55.0, 85.0, 70.0])
def test_every_detection_box_width_equals_rolled_copies_exactly(rng, n, freq_hz):
    # the widths despike's detector smooths with at 512 Hz: the 45/55/85 Hz
    # table (102, 92 and 77 taps) and the 9-cycle default (66 at 70 Hz)
    width = ms_to_samples(mask_geometry(freq_hz)[0], 512.0)
    box = np.full(width, 1.0 / width)
    for energy in (rng.standard_normal(n) ** 2, half_silent(rng, n) ** 2):
        assert same_bits(backends.circular_conv(energy, box), roll_conv(energy, box))


BLOCK, LONG = backends.BLOCK, backends.LONG
# lengths either side of where the blocked einsum starts, whole multiples of
# BLOCK, and lengths whose blocks of n // ceil(n / BLOCK) samples leave a
# rest of 1 (16389 = 17 * 964 + 1), 2 or 17 (17423 = 18 * 967 + 17) samples
BLOCK_EDGES = [
    LONG - 1, LONG, LONG + 1, 16389, 16390, 17423, LONG + BLOCK,
    LONG + 2 * BLOCK, LONG + 2 * BLOCK + 1,
]


def _edge_samples(rng, n):
    """Normal samples mixed with signed zeros, subnormals and magnitudes
    near 1e300 and 1e-300."""
    kinds = rng.integers(0, 6, n)
    x = rng.standard_normal(n)
    x[kinds == 1] = np.copysign(0.0, x[kinds == 1])
    x[kinds == 2] *= 2.0**-1040  # subnormal
    x[kinds == 3] *= 1e300
    x[kinds == 4] *= 1e-300
    return x


@st.composite
def block_edge_problems(draw):
    # strides that take the blocked einsum (2 up) and that do not (1), and
    # spans either side of its BLOCK // 2 limit; taps of at most 1e3 keep
    # the sums of products near 1e300 finite
    n = draw(st.one_of(
        st.integers(LONG - 1, LONG + 2 * BLOCK + 1), st.sampled_from(BLOCK_EDGES)
    ))
    stride = draw(st.integers(1, 48))
    signed_zeros = st.sampled_from([0.0, -0.0])
    taps = draw(arrays(
        np.float64, st.integers(1, 13),
        elements=st.one_of(signed_zeros, st.floats(-1e3, 1e3)),
    ))
    x = _edge_samples(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return x, taps, stride


@settings(deadline=None)
@given(block_edge_problems())
@example((_edge_samples(np.random.default_rng(0), LONG), np.linspace(-1, 1, 8), 2))
@example((_edge_samples(np.random.default_rng(1), LONG + 1), np.ones(13), 42))
@example((_edge_samples(np.random.default_rng(2), 16389), np.ones(3), 48))
def test_blocked_sum_equals_rolled_copies_exactly(problem):
    x, taps, stride = problem
    assert same_bits(
        backends.circular_conv(x, taps, stride), roll_conv(x, taps, stride)
    )


@pytest.mark.parametrize("n, stride, blocked", [
    (LONG - 1, 2, False), (LONG, 1, False), (LONG, 2, True), (30720, 16, True),
    # db4's seven gaps span 511 samples at stride 73, and 518 at 74
    (30720, 73, True), (30720, 74, False),
])
def test_long_strided_calls_take_the_blocked_view(db4, rng, n, stride, blocked):
    # the property above passes on either path; this pins which one runs (a
    # numpy build whose einsum fuses takes the loop instead)
    spy = mock.patch.object(backends, "_long_conv", wraps=backends._long_conv)
    with spy as called:
        backends.circular_conv(rng.standard_normal(n), db4.dec_lo, stride)
    assert called.called == (blocked and backends.EINSUM_ROUNDS_TWICE)


@pytest.mark.skipif(not backends.EINSUM_ROUNDS_TWICE, reason="a fusing einsum takes the loop")
def test_blocked_einsum_nests_samples_in_taps_in_blocks(db4, rng):
    # the bits do not depend on einsum's loop nest, so no property above
    # fails if order="C" or another view makes einsum read the whole output
    # once per tap; this pins the call that keeps each block in L1
    n, stride, k = 30720, 2, db4.dec_lo.size
    blocks, width, step = n // BLOCK, BLOCK, 8
    calls, real_einsum = [], np.einsum

    def einsum(*args, **kwargs):
        calls.append((args, kwargs))
        return real_einsum(*args, **kwargs)

    with mock.patch.object(backends.np, "einsum", einsum):
        backends.circular_conv(rng.standard_normal(n), db4.dec_lo, stride)
    assert [args[0] for args, _ in calls] == ["k,kbn->bn"] * 2
    # the first block reads the wrap-padded copy, the rest read x itself
    for (_, _, rows), kwargs in calls:
        assert kwargs["order"] == "K"
        assert rows.shape[0] == k and rows.shape[2] == width
        assert rows.strides == (-stride * step, width * step, step)
        assert not rows.flags.writeable
        assert kwargs["out"].shape == rows.shape[1:]
    assert [rows.shape[1] for (_, _, rows), _ in calls] == [1, blocks - 1]


def test_blocked_view_reads_strided_and_read_only_input(db4, rng):
    # the blocked path reads x itself, not a copy
    x = rng.standard_normal(2 * 30720)[::2]
    frozen = x.copy()
    frozen.flags.writeable = False
    want = roll_conv(x, db4.rec_hi, 4)
    for view in (x, frozen):
        assert same_bits(backends.circular_conv(view, db4.rec_hi, 4), want)


@settings(deadline=None)
@given(st.one_of(strided_problems(), tap_run_problems()))
def test_loop_path_equals_rolled_copies_exactly(problem):
    # the path of one sample, and of every call on a numpy build whose
    # einsum fuses multiply-adds, run here on every n
    x, taps, stride = problem
    with mock.patch.object(backends, "EINSUM_ROUNDS_TWICE", False):
        got = backends.circular_conv(x, taps, stride)
    assert same_bits(got, roll_conv(x, taps, stride))


def test_rounding_probe_tells_a_fused_multiply_add_apart():
    # the second multiply-add of the probe, in exact rationals: the sum so
    # far is -a (the first tap's product is exact), and rounding the product
    # first gives another float than rounding product and sum once
    a = Fraction(backends.PROBE_SAMPLE)
    first, second = (Fraction(t) for t in backends.PROBE_TAPS)
    total = first * a
    twice = float(Fraction(float(second * a)) + total)
    fused = float(second * a + total)
    assert twice == -(2.0**-30)
    assert fused == -(2.0**-30) - 2.0**-60
    xp = np.full(38, backends.PROBE_SAMPLE)
    loop = backends._loop_sum(xp, np.array(backends.PROBE_TAPS), 37, 1)
    assert np.all(loop == twice)


def test_rounding_probe_checks_the_blocked_view():
    # a blocked einsum that fused its multiply-adds would send every call to
    # the loop, as a fused one-row einsum does
    def fused(xp, taps, stride, out):
        loop = backends._loop_sum(xp, taps, out.size, stride)
        out[...] = (loop - 2.0**-60).reshape(out.shape)

    with mock.patch.object(backends, "_blocked_sum", fused):
        assert not backends._einsum_rounds_twice()
    assert backends._einsum_rounds_twice() == backends.EINSUM_ROUNDS_TWICE


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"),
    reason="numpy's einsum rounds twice on x86-64; other builds may fuse",
)
def test_einsum_path_is_selected_on_x86_64():
    # a numpy build whose einsum starts to fuse fails here instead of
    # silently falling back to the slower loop
    assert backends.EINSUM_ROUNDS_TWICE


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("filters, stride", [
    ("db4", 1), ("db4", 16), ("box", 1), ("one tap", 1), ("one tap", 0),
])
def test_path_edges_equal_rolled_copies_exactly(db4, rng, filters, stride, n):
    # one sample takes the loop and two take einsum, whose view has a single
    # row for one tap
    bank = {
        "db4": (db4.dec_lo, db4.rec_hi),
        "box": (np.full(77, 1.0 / 77),),
        "one tap": (np.array([1.5]), np.array([-0.0])),
    }[filters]
    for taps in bank:
        for x in (rng.standard_normal(n), np.full(n, -0.0), np.full(n, 0.0)):
            assert same_bits(
                backends.circular_conv(x, taps, stride), roll_conv(x, taps, stride)
            )


def _at_offset(x, offset):
    """x copied to start ``offset`` doubles past a 64-byte boundary."""
    buffer = np.empty(x.size + 16)
    head = (-buffer.ctypes.data % 64) // 8 + offset
    view = buffer[head : head + x.size]
    view[...] = x
    assert view.ctypes.data % 64 == 8 * offset
    return view


@pytest.mark.parametrize("filters, stride", [("db4", 1), ("db4", 16), ("box", 1)])
def test_every_alignment_equals_rolled_copies_exactly(db4, rng, filters, stride):
    # numpy's einsum kernel takes aligned or unaligned loads by address and
    # runs a body of 4 vectors and a tail; n straddles both boundaries for
    # 2-, 4- and 8-double vectors. circular_conv copies x, so its copy's
    # address comes from the allocator; the sum is also run on the padded
    # copy itself at each offset
    taps = db4.dec_lo if filters == "db4" else np.full(77, 1.0 / 77)
    span = (taps.size - 1) * stride
    for n in (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65):
        x = rng.standard_normal(n)
        want = roll_conv(x, taps, stride)
        xp = np.take(x, np.arange(-span, n), mode="wrap")
        for offset in range(8):
            got = backends.circular_conv(_at_offset(x, offset), taps, stride)
            assert same_bits(got, want)
            got = backends._einsum_sum(_at_offset(xp, offset), taps, n, stride)
            assert same_bits(got, want)


# a float32 sum of k products from +0.0, each rounded, is within
# g(k) = k*u / (1 - k*u), u = 2**-24, of the sum of their absolute values,
# plus 2**-149 a product below the normal range (`despike._screen_arc`)
@settings(deadline=None, max_examples=60)
@given(
    n=st.sampled_from([1, LONG - 1, LONG, 30720]) | st.integers(1, 600),
    k=st.integers(1, 16),
    stride=st.integers(0, 40),
    decade=st.integers(-40, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=30720, k=8, stride=2, decade=0, seed=0)
def test_float32_rows_stay_float32_within_the_rounding_bound(n, k, stride, decade, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) * 10.0**decade).astype(np.float32)
    taps = rng.standard_normal(k).astype(np.float32)
    y = backends.circular_conv(x, taps, stride)
    assert y.dtype == np.float32 and y.shape == (n,)
    # products of float32 values are exact in float64, and their float64
    # sums are within k * 2**-53 of exact
    exact = roll_conv(x.astype(np.float64), taps.astype(np.float64), stride)
    size = roll_conv(np.abs(x.astype(np.float64)), np.abs(taps.astype(np.float64)), stride)
    g32 = k * 2.0**-24 / (1 - k * 2.0**-24)
    assert np.all(np.abs(y - exact) <= (g32 + k * 2.0**-52) * size + k * 2.0**-149)


def test_float32_rows_take_the_float64_rows_views(db4, rng):
    # float32 rows go through the same einsum views as float64 ones, and
    # float64 taps are rounded to float32 for them
    x = rng.standard_normal(30720).astype(np.float32)
    with mock.patch.object(backends, "_long_conv", wraps=backends._long_conv) as long:
        blocked = backends.circular_conv(x, db4.dec_lo, 2)
        assert long.called == backends.EINSUM_ROUNDS_TWICE
    one_row = backends.circular_conv(x, db4.dec_lo.astype(np.float32), 1)
    assert blocked.dtype == one_row.dtype == np.float32
    assert same_bits(blocked, backends.circular_conv(x, db4.dec_lo.astype(np.float32), 2))
    # float32 taps on a float64 row are float64 taps
    x64 = rng.standard_normal(500)
    taps = db4.dec_hi.astype(np.float32)
    assert same_bits(
        backends.circular_conv(x64, taps, 4),
        backends.circular_conv(x64, taps.astype(np.float64), 4),
    )


def test_circular_conv_of_empty_input_is_empty():
    y = backends.circular_conv(np.zeros(0), np.ones(8), 4)
    assert y.shape == (0,)
    assert y.dtype == np.float64


def test_circular_conv_sums_from_positive_zero():
    # -0.0 * 1.0 terms added to a zero start give +0.0, as the rolled sum does
    x = np.full(8, -0.0)
    taps = np.ones(3)
    assert same_bits(backends.circular_conv(x, taps, 2), roll_conv(x, taps, 2))


def test_circular_conv_casts_integer_and_strided_input(rng):
    ints = np.arange(40)
    taps = rng.standard_normal(5)
    assert same_bits(
        backends.circular_conv(ints, taps, 3), roll_conv(ints.astype(float), taps, 3)
    )
    view = rng.standard_normal(80)[::2]
    assert same_bits(
        backends.circular_conv(view, taps, 3), roll_conv(view.copy(), taps, 3)
    )


def test_circular_conv_leaves_its_input_alone(rng):
    for n, stride in ((64, 1), (64, 4), (10, 16)):  # the last pad wraps twice
        x = rng.standard_normal(n)
        before = x.copy()
        backends.circular_conv(x, rng.standard_normal(8), stride)
        assert np.array_equal(x, before)


def test_circular_conv_of_empty_taps_is_zeros():
    y = backends.circular_conv(np.arange(5.0), np.zeros(0), 2)
    assert same_bits(y, np.zeros(5))


def test_circular_conv_rejects_negative_stride():
    with pytest.raises(ValueError, match="stride"):
        backends.circular_conv(np.ones(8), np.ones(2), -1)


@pytest.mark.parametrize("stride", [1.5, 2.0, True, np.int64(-2)])
def test_circular_conv_names_a_stride_that_is_not_a_count(stride):
    with pytest.raises(ValueError, match=f"stride .* got {re.escape(repr(stride))}"):
        backends.circular_conv(np.ones(8), np.ones(2), stride)


def test_circular_conv_accepts_numpy_integer_strides(rng):
    x = rng.standard_normal(16)
    taps = rng.standard_normal(3)
    for stride in (np.int64(3), np.int32(3), np.uint8(3)):
        assert same_bits(
            backends.circular_conv(x, taps, stride), backends.circular_conv(x, taps, 3)
        )


@pytest.mark.parametrize("name", ["x", "taps"])
def test_circular_conv_refuses_a_complex_argument_naming_it(name):
    # numpy's cast would drop the imaginary part with only a warning
    args = {"x": np.ones(8), "taps": np.ones(2)}
    args[name] = args[name] + 1j
    with pytest.raises(ValueError, match=f"^{name} must be real, got a complex"):
        backends.circular_conv(args["x"], args["taps"], 2)


@pytest.mark.parametrize(
    "x, taps",
    [(np.ones((2, 8)), np.ones(2)), (np.ones(8), np.ones((2, 2))), (1.0, np.ones(2))],
)
def test_circular_conv_rejects_input_that_is_not_1d(x, taps):
    with pytest.raises(ValueError, match="1-D"):
        backends.circular_conv(x, taps)


def test_centered_conv_is_zero_phase_for_symmetric_taps(rng):
    # a symmetric odd-length kernel must not move an interior impulse
    taps = np.array([0.25, 0.5, 1.0, 0.5, 0.25])
    x = np.zeros(101)
    x[50] = 1.0
    y = backends.centered_conv(x, taps)
    assert np.argmax(y) == 50
    np.testing.assert_allclose(y[48:53], taps, atol=1e-15)


def test_centered_conv_zero_pads_boundaries():
    taps = np.ones(3)
    x = np.ones(6)
    y = backends.centered_conv(x, taps)
    np.testing.assert_allclose(y, [2.0, 3.0, 3.0, 3.0, 3.0, 2.0])


def test_centered_conv_complex_matches_real_parts(rng):
    x = rng.standard_normal(64)
    taps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = backends.centered_conv_complex(x, taps)
    np.testing.assert_allclose(
        y.real, backends.centered_conv(x, taps.real), atol=1e-12
    )
    np.testing.assert_allclose(
        y.imag, backends.centered_conv(x, taps.imag), atol=1e-12
    )


@st.composite
def bank_problems(draw):
    # kernels short and long (past 512 taps a block is BLOCK_ALIGN windows),
    # either side of a TAP_SLICE boundary, one kernel or a bank of up to
    # three products, and inputs shorter than a kernel or one window either
    # side of a block boundary
    k = draw(st.one_of(
        st.integers(1, 140),
        st.sampled_from([256, 257, 512, 513]),
        st.integers(500, 700),
    ))
    rows = draw(st.sampled_from([None, 1, 2, 11, 13, 25]))
    block = backends._block_rows(k)
    n = draw(st.one_of(
        st.integers(1, 3000),
        st.integers(1, k),
        st.sampled_from([block - 1, block, block + 1]),
    ))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (k,) if rows is None else (rows, k)
    taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * rng.standard_normal(n), taps


@settings(deadline=None, max_examples=60)
@given(bank_problems())
def test_centered_conv_complex_matches_per_kernel_convolution(problem):
    x, taps = problem
    got = backends.centered_conv_complex(x, taps)
    want = convolve_complex(x, taps)
    assert got.shape == want.shape
    assert got.dtype == np.complex128 and got.flags.c_contiguous
    err = np.max(np.abs(got - want), axis=-1)
    assert np.all(err <= 1e-13 * np.max(np.abs(want), axis=-1))


@settings(deadline=None, max_examples=30)
@given(bank_problems())
def test_bank_rows_equal_single_kernels_exactly(problem):
    x, taps = problem
    bank = np.atleast_2d(taps)
    out = backends.centered_conv_complex(x, bank)
    for kernel, row in zip(bank, out):
        assert same_bits(backends.centered_conv_complex(x, kernel), row)


@settings(deadline=None, max_examples=40)
@given(bank_problems(), st.integers(0, 1000), st.integers(0, 1000))
def test_output_does_not_depend_on_where_a_sample_sits(problem, before, after):
    # map_row's crop is bit-exact only if zeros around the input move no bit
    # of the samples they do not reach
    x, taps = problem
    padded = np.concatenate((np.zeros(before), x, np.zeros(after)))
    moved = backends.centered_conv_complex(padded, taps)
    assert same_bits(
        moved[..., before : before + x.size], backends.centered_conv_complex(x, taps)
    )


@pytest.mark.parametrize("band", [(1.0, 5.0), (10.0, 15.0)])
def test_long_bank_output_does_not_depend_on_where_a_sample_sits(rng, band):
    # a bank longer than TAP_SLICE sums one product per slice of its taps;
    # map_row's crop still needs zeros around the input to move no bit
    bank = g.tfmap._morlet_bank(g.MorletParams.for_band(band, 512.0).scales)
    assert bank.shape[1] > backends.TAP_SLICE
    x = rng.standard_normal(700)
    want = backends.centered_conv_complex(x, bank)
    for before, after in ((0, 1), (1, 0), (63, 65), (333, 1000)):
        padded = np.concatenate((np.zeros(before), x, np.zeros(after)))
        moved = backends.centered_conv_complex(padded, bank)
        assert same_bits(moved[:, before : before + x.size], want)


def test_morlet_banks_match_per_scale_convolution(rng):
    x = rng.standard_normal(5000)
    for band in ((80.0, 90.0), (40.0, 50.0), (10.0, 15.0)):
        params = g.MorletParams.for_band(band, 512.0)
        response = g.morlet_transform(x, params)
        for a, row in zip(params.scales, response):
            want = convolve_complex(x, g.morlet_kernel(a))
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))
