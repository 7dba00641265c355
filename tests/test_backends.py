"""Tests for the convolution kernels."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gammasep import backends
from oracles import loop_conv

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
