"""Oscillation/transient separation by rectangular masking of undecimated
wavelet coefficients.

The pipeline finds where the target-band detail energy concentrates,
places a frequency-dependent time and scale rectangle there, and
synthesizes the coefficients inside it (the deepest approximation and the
mask's detail levels, inside its window) as the oscillatory part. The
transient is the input minus it, so the two outputs sum back to the input
to rounding.

Each step computes only what a later one reads, and each output it keeps
is the same sum of the same products, in the same tap order, as in a
full-length run, so it has the same bits. The circular kernel sums from
+0.0, so the sign of a zero operand never reaches an output.

The centre comes from a float32 screen when max|x| lies in SCREEN_RANGE,
[2**-40, 2**40]. The screen analyses the recording in float32 only as far
as the detector reads: the high-pass of each mask level and the low-pass
levels above it, top = max(mask scales). It squares the details, sums the
energies over SCREEN_BLOCK = 32 samples, and bounds each block's largest
float64 smoothed energy from above, and the maximum from below, with a
margin for every float32 rounding (`_screen_arc` derives it). Only the
blocks whose upper bound reaches the lower bound can hold a maximum, and
float64 runs only on crops of x around the shortest circular arc over them.
Outside the range (max|x| zero, not finite, or past either edge), when the
screen rules out no block, and when the box and two blocks, or the crop,
would span the whole recording, `separate` takes the full-length rule
instead: `swt_decompose` to top and `detect_oscillation_center`.

A crop of x is exact as far as the analysis reads. Analysis level j reads
its input at and before the output sample, up to (k-1)*2**(j-1) samples
back for k taps, so level J's outputs on a stretch read x on the stretch
and the (k-1)*(2**J-1) samples before it, gathered modulo n. Each level
drops its first (k-1)*2**(j-1) outputs, the ones that wrap inside the
crop. One such cascade to level J gives, on one stretch, the mask levels'
details that the exact box smoother reads over the arc, and the window's
details and deep approximation. A crop longer than n is a stretch of the
periodic input, and is exact all the same.

The oscillatory part is synthesized only on its support. Each synthesis
level reads its inputs at and after the output sample, up to
(k-1)*2**(j-1) samples ahead, so over J levels a coefficient reaches at
most (k-1)*(2**J-1) samples back: 217 for db4 over 5 levels. Coefficients
that are zero outside the window therefore give an output that is zero
outside [window start - 217, window end). The inverse runs unchanged on
that crop, gathered modulo n, from the window's values and +0.0 elsewhere,
and the result is scattered into zeros. The crop's own wrap-around only
reads samples that are zero in the full-length synthesis as well, at
every level, and the full-length synthesis is +0.0 outside the support, as
the scatter writes. The transient is a copy of the input with the crop
subtracted: bit for bit the input minus the oscillatory part, and within
rounding of the full-length synthesis of the coefficients outside the mask.
"""

from __future__ import annotations

import functools
import math
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
    require_levels,
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

# max|x| that takes the float32 screen, and the energies per screened block;
# constants of the derivation in `_screen_arc`, not settings
SCREEN_RANGE = (2.0**-40, 2.0**40)
SCREEN_BLOCK = 32


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


def _box_width(target_freq_hz, sample_rate_hz, n):
    """Samples the detector's moving average spans: the mask, at most n."""
    duration_ms, _ = mask_geometry(target_freq_hz)
    return min(max(1, ms_to_samples(duration_ms, sample_rate_hz)), n)


def _shortest_arc(candidates, n):
    """First and last index of the shortest circular arc over sorted indices
    of a circle of n: it starts after the widest gap between neighbours, and
    the gap across the wrap wins a tie. A last index past n - 1 goes on at
    the head."""
    first, last = int(candidates[0]), int(candidates[-1])
    gaps = np.diff(candidates)
    if gaps.size and gaps.max() > first + n - last:
        widest = int(np.argmax(gaps))
        first, last = int(candidates[widest + 1]), int(candidates[widest]) + n
    return first, last


def _smooth(energy, width):
    """The box averages of a padded energy stretch, one per box it holds whole."""
    return circular_conv(energy, np.full(width, 1.0 / width))[width - 1 :]


def _first_peak(smoothed, first, n, target_freq_hz):
    """The smallest index modulo n attaining the maximum of averages that
    start at index `first`; raises as the full-length rule does."""
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
    return int(((first + np.flatnonzero(smoothed == peak)) % n).min())


def detect_oscillation_center(coeffs, target_freq_hz, sample_rate_hz,
                              filter_length):
    """Sample index where smoothed target-scale detail energy peaks.

    Sums squared detail coefficients over the mask's scales, in ascending
    level order, each level advanced to undo the delay of its
    `filter_length`-tap filters, smooths the total with a centered circular
    moving average as wide as the mask, and returns the first index
    attaining the maximum. Raises NoDetectionError when that energy is zero
    everywhere, and ValueError when it overflows or the target lies below
    the transform's lowest band. This is the full-length rule: `separate`
    reaches the same index from a float32 screen and crops of its input
    when max|x| lies in SCREEN_RANGE, and calls this function otherwise.

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
    n = coeffs.n_samples
    width = _box_width(target_freq_hz, sample_rate_hz, n)
    scales = mask_scales(target_freq_hz, sample_rate_hz)
    if max(scales) > coeffs.levels:
        raise ValueError(
            f"target {target_freq_hz} Hz needs more than the {coeffs.levels} "
            f"levels the coefficients cover; the lowest target they reach is "
            f"{sample_rate_hz / 2 ** (coeffs.levels + 1)} Hz"
        )
    energy = np.zeros(n)
    # smoothed[j] averages energy[j + half - lead], ..., energy[j + half]
    lead = width - 1
    half = lead // 2
    # an overflow is reported below as a ValueError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for level in sorted(scales):
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
        first, last = _shortest_arc(candidates, n)
        if last < n:
            crop = padded[first : last + width]
        else:
            # padded[j + n] is padded[j], so an arc past n - 1 goes on at its head
            crop = np.concatenate((padded[first:n], padded[: last + width - n]))
        smoothed = _smooth(crop, width)
    return _first_peak(smoothed, first, n, target_freq_hz)


def _window_start(center, length, n):
    """First sample of the `length`-sample window centered on `center`,
    kept inside n samples."""
    return min(max(center - length // 2, 0), n - length)


def build_mask(center_sample, target_freq_hz, sample_rate_hz, n_samples):
    """Rectangle of the standard geometry centered on a sample, kept in range."""
    duration_ms, _ = mask_geometry(target_freq_hz)
    length = min(ms_to_samples(duration_ms, sample_rate_hz), n_samples)
    if length < 1:
        raise ValueError("mask window rounds to zero samples")
    return RectMask(
        window=TimeWindow(_window_start(int(center_sample), length, n_samples), length),
        scales=mask_scales(target_freq_hz, sample_rate_hz),
    )


def threshold_coeffs(coeffs, mask):
    """Split coefficients into in-mask and complement parts, at full length.

    The transient part is the approximation and the mask's detail levels
    with the window cleared, every other level whole. The oscillatory part
    is the input minus it, sequence by sequence, so the two sum to the input
    coefficients exactly, and for finite coefficients the oscillatory part
    is the window's values there and +0.0 everywhere else. Each cleared copy
    equals ``seq - seq * indicator`` bit for bit: the two differ only where
    seq holds -0.0, which the transform never emits. `separate` does not
    call this: it builds the in-mask coefficients on its crop only, and its
    oscillatory part is the full-length synthesis of this oscillatory half,
    bit for bit. This full-length split is kept only as public API and
    because the benchmark's tracer binds the name; do not extend it, since
    no separation runs it.
    """
    mask.window.check_within(coeffs.n_samples)
    if max(mask.scales) > coeffs.levels:
        raise ValueError(
            f"mask scales {sorted(mask.scales)} exceed {coeffs.levels} levels"
        )
    window = slice(mask.window.start_sample, mask.window.end_sample)

    def cleared(seq):
        out = seq.copy()
        out[window] = 0.0
        return out

    trans = WaveletCoefficients(
        approximation=cleared(coeffs.approximation),
        details=tuple(
            cleared(d) if level in mask.scales else d
            for level, d in enumerate(coeffs.details, start=1)
        ),
    )
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


def _crop(window, reach, n):
    """Indices of the window and the ``reach`` samples before it, modulo n;
    n or more samples are the whole circle, rotated to end with the window."""
    size = min(window.length_samples + reach, n)
    return np.arange(window.end_sample - size, window.end_sample) % n


def _cascade(source, first_level, levels, start, size, filters, scales=()):
    """Analysis levels first_level..levels on samples [start, start + size).

    ``source`` is the full-length approximation of level first_level - 1
    (the signal for level 1). Level j reads (k-1)*2**(j-1) samples before
    each output, so the crop gathers, modulo n, the stretch and the
    (k-1)*(2**levels - 2**(first_level-1)) samples before it, and each level
    drops the outputs that wrap inside it. Returns the details of the
    levels in ``scales`` and the level-``levels`` approximation, each on the
    stretch and bit for bit its full-length values.
    """
    span = filters.length - 1
    reach = span * (2 ** levels - 2 ** (first_level - 1))
    a = source[np.arange(start - reach, start + size) % source.size]
    details = {}
    for j in range(first_level, levels + 1):
        stride = 2 ** (j - 1)
        drop = span * stride
        if j in scales:
            tail = a[a.size - size - drop :]
            details[j] = circular_conv(tail, filters.dec_hi, stride)[drop:]
        a = circular_conv(a, filters.dec_lo, stride)[drop:]
    return details, a


@functools.lru_cache(maxsize=16)
def _touched_blocks(n, width):
    """For each SCREEN_BLOCK of box centres, the first block that their
    boxes touch and the block past the last, circularly (a stop past the
    last block goes on at block 0); read-only, built once per length and
    width."""
    block = SCREEN_BLOCK
    lead = width - 1
    half = lead // 2
    starts = np.arange(0, n, block)
    first = (starts - (lead - half)) % n // block
    last = (np.minimum(starts + block, n) - 1 + half) % n // block
    stop = first + (last - first) % starts.size + 1
    for touched in (first, stop):
        touched.setflags(write=False)
    return first, stop


def _screen_arc(x, scales, width, filters, peak_abs):
    """Samples [first, end) holding every index where the float64 box
    average of the mask levels' energy can be largest, or None.

    The float32 pass analyses x rounded to float32 with the taps rounded to
    float32, through `circular_conv`, only for the high-pass outputs of the
    levels in ``scales`` and the low-pass levels above them. The squared
    details are aligned and added as the detector adds its energy,
    e32[i] = sum over levels of f_j[i + advance_j]**2, and summed over
    blocks of SCREEN_BLOCK = B samples. Block c holds the box centres
    [c*B, c*B + B); their boxes lie in the energies c*B - (w-1-h) to
    c*B + B - 1 + h, h = (w-1)//2, circularly, and the blocks that touch that
    range bound the largest from above. The box of centre b*B + w-1-h starts
    on a block border; its floor(w/B) first blocks bound that box from
    below, and the best of those bounds the maximum. Every block whose upper
    bound reaches the lower bound is a candidate; the arc runs from the
    first candidate block's first sample to the last one's last, over the
    shortest circular arc of blocks. It is None when no block is ruled out,
    when w + 2*B >= n, or when a float32 sum overflows.

    Derivation, with u = 2**-24 and eta = 2**-149 (float32), M = max|x|,
    k taps of l1 norm L (the high- and low-pass share it), s mask levels
    and g(m) = m*u / (1 - m*u):

    - Details. A level's output is a sum of k products from +0.0: within
      g(k) of the sum of their absolute values, plus k*eta for products
      below the normal range. Rounding x costs u*M + eta/2 a sample, and
      rounding the taps u*L + k*eta/2 of l1 norm. The exact level-j details
      of x, with the float64 taps, are at most L**j * M, so by induction over
      the levels the float32 details f_j lie within
      (j*(k+1) + 1)*u*L**j*M of them, to first order. The float64 details
      d_j that the detector reads lie within j*k*2**-53*L**j*M. The bound
      taken, Delta_j = 2*(j*(k+1) + 1)*u*L**j*M, covers both, the second
      order terms (below 2**-16 of the first for k*j up to 100) and, since
      M >= 2**-40, every absolute term (below 2**-80 of u*M).
    - Box norms. Over the w*s terms of a box, |d - f| <= Delta_j term by
      term, so by the triangle inequality the box's norms satisfy
      |V - W| <= R = sqrt(w * sum of Delta_j**2), with V**2 the exact sum
      of d_j**2 over the box and W**2 that of f_j**2.
    - Energies. Each float32 square rounds once, to within u relatively or
      eta/2 absolutely; each float32 energy then adds s squares, and each
      block sum B energies, in any order, and a sum of numbers that are not
      negative is exact below the normal range, so a block sum is within
      g(s + B) of the exact sum P of its f_j**2, up to eta/2 a square. A
      range of blocks is summed as a difference of two float64 partial sums
      of the block sums, within 16*(nb + 1)*2**-53*T of its exact sum, T
      the total of the nb block sums. Then, with a = 1 /(1 - 2*(s+B)*u)
      and b = 1 - 2*(s+B)*u, P for the blocks touching a range is at most
      a*(sum + spread) + (w + 3*B)*s*eta, and P for the blocks inside a box
      at least b*(sum - spread) - w*s*eta. So V <= sqrt(upper P) + R over
      every box of a block, and V >= sqrt(lower P) - R on the border box.
    - Averages. The detector's energy adds s squares of d_j, each rounded,
      within g(2*s) of V**2, up to s*2**-1074 a term, and its smoother
      is within g(w) of c times the box sum, c = 1/w rounded, up to
      w*2**-1074 (`detect_oscillation_center`). A box whose upper bound
      squared times 1 + rho, plus alpha, stays below the lower bound
      squared times 1 - rho therefore averages less than the border box
      does, and holds no maximum, with rho = 4*(w + 2*s + 8)*2**-53 (the
      two relative errors twice over, and the float64 rounding of the
      bounds themselves) and alpha = 4*w*(w + s)*2**-1074.

    A maximum of the float64 averages is therefore in a candidate block.
    Every upper bound is at least R, and R**2 is at least 2**-130 in the
    range, so alpha, far below 2**-1000, matters only in principle. Up to
    max|x| = 2**40 no float32 square or block sum of filters up to 16 taps
    and levels up to 6 overflows (T is checked all the same), and below
    2**-40 the absolute terms would outgrow the factor 2 in Delta_j; both
    edges are far from a recording in volts or microvolts.
    """
    n = x.size
    block = SCREEN_BLOCK
    if width + 2 * block >= n:
        return None
    k = filters.length
    top = max(scales)
    blocks = -(-n // block)
    energy = np.zeros(blocks * block, np.float32)
    # circular_conv keeps float32 rows float32 and rounds the taps to float32
    a = x.astype(np.float32)
    for j in range(1, top + 1):
        stride = 2 ** (j - 1)
        if j in scales:
            square = circular_conv(a, filters.dec_hi, stride)
            square *= square
            advance = analysis_advance(k, j) % n
            energy[: n - advance] += square[advance:]
            energy[n - advance : n] += square[:advance]
        if j < top:
            a = circular_conv(a, filters.dec_lo, stride)
    sums = energy.reshape(blocks, block) @ np.ones(block, np.float32)
    # partial[b + m] - partial[b] sums m blocks from b, circularly
    partial = np.zeros(2 * blocks + 1)
    np.cumsum(np.concatenate((sums, sums)), dtype=np.float64, out=partial[1:])
    total = partial[blocks]
    if not math.isfinite(total):
        return None
    u, eta, s = 2.0**-24, 2.0**-149, len(scales)
    grow = 1.0 - 2.0 * (s + block) * u
    gain = sum(map(abs, filters.dec_lo.tolist()))
    radius = math.sqrt(width * sum(
        (2.0 * (j * (k + 1) + 1) * u * gain**j * peak_abs) ** 2 for j in scales
    ))
    spread = 16.0 * (blocks + 1) * 2.0**-53 * total
    floor = (width + 3 * block) * s * eta
    # the box starting on a block border whose whole blocks hold the most
    inside = width // block
    lower = (partial[inside : n // block + 1] - partial[: n // block + 1 - inside]).max()
    lower = max(math.sqrt(max((lower - spread) * grow - floor, 0.0)) - radius, 0.0)
    rho = 4.0 * (width + 2 * s + 8) * 2.0**-53
    alpha = 4.0 * width * (width + s) * 2.0**-1074
    need = math.sqrt(max(lower * lower * (1.0 - rho) - alpha, 0.0) / (1.0 + rho))
    first_touched, stop_touched = _touched_blocks(n, width)
    upper = partial[stop_touched] - partial[first_touched]
    upper = np.sqrt((upper + spread) / grow + floor) + radius
    candidates = np.flatnonzero(upper >= need)
    if candidates.size == blocks:
        return None
    first, last = _shortest_arc(candidates, blocks)
    end = (last + 1) * block
    if last >= blocks - 1:
        # the last block is short by the samples past n
        end -= blocks * block - n
    return first * block, end


def _screened_placement(x, target_freq_hz, sample_rate_hz, filters, levels,
                        scales, peak_abs):
    """Centre, mask and the window's coefficients from the float32 screen
    and one float64 crop cascade, or None where the screen does not apply.

    The cascade runs to level ``levels`` on one stretch that holds every
    detail the exact smoother reads over the screen's arc and every sample
    of the window that any centre of the arc places; it is None too when
    that crop would be as long as the recording.
    """
    n = x.size
    width = _box_width(target_freq_hz, sample_rate_hz, n)
    arc = _screen_arc(x, scales, width, filters, peak_abs)
    if arc is None:
        return None
    first, end = arc
    lead = width - 1
    half = lead // 2
    advance = {j: analysis_advance(filters.length, j) for j in scales}
    # energies first - (lead - half) .. end - 1 + half hold every box of the arc
    e_start, e_size = first - (lead - half), end - first + lead
    # windows of centres first .. end - 1; past n - 1 a centre wraps to the head
    w_first = _window_start(first, width, n)
    w_end = _window_start((end - 1) % n, width, n) + width + (n if end > n else 0)
    start = min(e_start + min(advance.values()), w_first)
    size = max(e_start + e_size + max(advance.values()), w_end) - start
    if size + (filters.length - 1) * (2 ** levels - 1) >= n:
        # a crop as long as the recording costs more than the full-length rule
        return None
    details, approx = _cascade(x, 1, levels, start, size, filters, scales)
    energy = np.zeros(e_size)
    for level in sorted(scales):
        at = e_start + advance[level] - start
        d = details[level][at : at + e_size]
        energy += d * d
    center = _first_peak(_smooth(energy, width), first, n, target_freq_hz)
    mask = build_mask(center, target_freq_hz, sample_rate_hz, n)
    at = (mask.window.start_sample - start) % n
    inside = slice(at, at + width)
    return center, mask, {j: details[j][inside] for j in scales}, approx[inside]


def _full_length_placement(x, target_freq_hz, sample_rate_hz, filters, top,
                           levels):
    """Centre, mask and the window's coefficients by the full-length rule:
    `swt_decompose` to top, the detector, and a crop cascade from level
    top's approximation for the deeper levels."""
    coeffs = swt_decompose(x, filters, top)
    center = detect_oscillation_center(
        coeffs, target_freq_hz, sample_rate_hz, filter_length=filters.length
    )
    mask = build_mask(center, target_freq_hz, sample_rate_hz, x.size)
    window = mask.window
    inside = slice(window.start_sample, window.end_sample)
    _, approx = _cascade(
        coeffs.approximation, top + 1, levels, window.start_sample,
        window.length_samples, filters,
    )
    details = {j: coeffs.details[j - 1][inside] for j in mask.scales}
    return center, mask, details, approx


def _oscillatory_part(details, approx, mask, filters, levels, n):
    """Crop indices and the inverse transform of the in-mask coefficients there.

    The crop starts (k-1)*(2**levels-1) samples before the window, as far
    back as the inverse transform spreads a coefficient, and ends with it.
    Its coefficients are +0.0 but for the window's values, which close each
    sequence: ``approx`` for the approximation, and ``details[j]`` for each
    of the mask's detail levels j.
    """
    crop = _crop(mask.window, (filters.length - 1) * (2 ** levels - 1), n)

    def kept(values):
        out = np.zeros(crop.size)
        out[crop.size - values.size :] = values
        return out

    # the levels outside the mask share one row of zeros
    rows = [np.zeros(crop.size)] * levels
    for level, values in details.items():
        rows[level - 1] = kept(values)
    part = iswt_reconstruct(
        WaveletCoefficients(approximation=kept(approx), details=tuple(rows)),
        filters,
    )
    return crop, part


def separate(x, target_freq_hz, sample_rate_hz, filters=None,
             levels=DEFAULT_LEVELS):
    """Full separation of one channel at a target frequency.

    Locate the oscillatory event, mask, and synthesize the oscillatory part
    from the coefficients inside the mask, only on the window plus the
    (k-1)*(2**levels-1) samples before it, where it can be non-zero; it is
    exact zeros elsewhere. When max|x| lies in SCREEN_RANGE, 2**-40 to
    2**40, a float32 screen of the mask levels' energy, with a derived
    margin for its rounding, bounds where the float64 maximum can be, and
    float64 runs only on crops of x: the exact box averages on the
    screen's arc, and the window's details and deep approximation, from
    one cascade (see the module docstring). Otherwise, and where the
    screen rules nothing out, the analysis runs at full length to the
    mask's deepest level and `detect_oscillation_center` places the mask.
    Both give the same centre, the full-length rule's. The oscillatory
    part is bit-identical to a full-length synthesis of
    ``threshold_coeffs``' in-mask half, and the transient is bit for bit
    ``x - oscillatory``. Raises ValueError when x is too short for
    ``levels``, the target needs more levels or the energy overflows, and
    NoDetectionError when nothing can be localized.
    """
    if filters is None:
        filters = wavelet_filters()
    x = require_levels(x, levels)
    scales = mask_scales(target_freq_hz, sample_rate_hz)
    # numpy's max and min propagate NaN, so both are NaN or neither is
    peak_abs = max(x.max(), -x.min())
    # an overflow is reported by the detector as a ValueError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        placed = None
        if SCREEN_RANGE[0] <= peak_abs <= SCREEN_RANGE[1] and max(scales) <= levels:
            placed = _screened_placement(
                x, target_freq_hz, sample_rate_hz, filters, levels, scales,
                peak_abs,
            )
        if placed is None:
            # a target whose mask levels pass `levels` reaches the detector
            # with `levels` levels, and the detector refuses it
            placed = _full_length_placement(
                x, target_freq_hz, sample_rate_hz, filters,
                min(max(scales), levels), levels,
            )
    center, mask, details, approx = placed
    crop, part = _oscillatory_part(details, approx, mask, filters, levels, x.size)
    oscillatory = np.zeros(x.size)
    oscillatory[crop] = part
    transient = x.copy()
    transient[crop] -= part
    return SeparationResult(
        oscillatory=oscillatory,
        transient=transient,
        mask_used=mask,
        detection_center_sample=center,
    )
