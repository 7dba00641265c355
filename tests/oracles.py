"""Independent reference implementations used as test oracles.

Everything here is written against the mathematical definitions directly,
sharing no convolution or masking code with the package under test. The
undecimated transform builds explicit zero-stuffed filters and convolves
via wrapped padding; masking and detection are index arithmetic on plain
arrays. Slow and obvious on purpose. The exceptions are `full_map_row`,
the map chain run over every sample of a row, and `full_separate`, both
syntheses run over every sample of a channel: they are built from the
package's own stages, because they are the references for the crops that
`tfmap.map_row` and `despike.separate` make, not for the stages themselves.
`full_separate` still splits the coefficients with its own indicator
arithmetic, so that it checks the package's mask rule instead of reusing it.
`fresh_map_row` is the whole-row chain with every filter built anew on
each call, the reference for the taps and banks that `tfmap` keeps.
Filters of every even length come from a rotation lattice, not from the
Daubechies factorization: random angles give random orthonormal filters.
The CLI's text formats have per-value references: the signal CSV formatted
one sample at a time, the PGM averaged one time bin at a time, and the CSV
body parsed one value at a time with `float()`.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st


def same_bits(a, b):
    """Equal shape, dtype and bytes: unlike ==, tells -0.0 from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stuffed_filter(taps, level):
    """Spread taps with 2**(level-1) - 1 zeros between neighbours."""
    taps = np.asarray(taps, dtype=np.float64)
    gap = 2 ** (level - 1)
    out = np.zeros((taps.size - 1) * gap + 1)
    out[::gap] = taps
    return out


# every even length of the lattice filters the transform properties run over
FILTER_LENGTHS = range(2, 17, 2)


def lattice_scaling(angles):
    """Orthonormal scaling filter of 2K taps from K lattice angles.

    The polyphase matrix R(a_K) D(z) R(a_K-1) ... D(z) R(a_1), with R a plane
    rotation and D(z) = diag(1, z^-1), is paraunitary for any angles, so its
    first row interleaves into a filter of unit norm orthogonal to its own
    even shifts. Its taps sum to cos(a) + sin(a) for a the sum of the angles,
    sqrt(2) when the angles sum to pi/4. One angle of pi/4 gives Haar.
    """
    def rotation(a):
        return np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])

    # rows x polyphase components x taps of each component
    poly = rotation(angles[0])[:, :, None]
    for angle in angles[1:]:
        delayed = np.zeros(poly.shape[:2] + (poly.shape[2] + 1,))
        delayed[0, :, :-1] = poly[0]
        delayed[1, :, 1:] = poly[1]
        poly = np.einsum("ij,jkt->ikt", rotation(angle), delayed)
    taps = np.empty(2 * poly.shape[2])
    taps[0::2], taps[1::2] = poly[0]
    return taps


def random_orthonormal_filters(n_taps, seed):
    """FilterPair of a random orthonormal scaling filter of n_taps (even) taps.

    All lattice angles but the last are uniform on [-pi, pi); the last makes
    them sum to pi/4.
    """
    from gammasep.swt import FilterPair

    angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, n_taps // 2 - 1)
    angles = [*angles, math.pi / 4 - angles.sum()]
    return FilterPair(f"lattice{n_taps}", lattice_scaling(angles))


# a random orthonormal filter pair of any length in FILTER_LENGTHS
orthonormal_filters = st.builds(
    random_orthonormal_filters,
    st.sampled_from(FILTER_LENGTHS),
    st.integers(0, 2**32 - 1),
)


def wrap_conv(x, taps):
    """y[i] = sum_m taps[m] * x[(i - m) mod n], via padded linear convolve."""
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if taps.size == 1:
        return taps[0] * x
    pad = x[-(taps.size - 1):]
    return np.convolve(np.concatenate([pad, x]), taps, mode="valid")


def loop_conv(x, taps):
    """Same sum evaluated with explicit Python loops (short inputs only)."""
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for m, t in enumerate(taps):
            acc += t * x[(i - m) % n]
        out[i] = acc
    return out


def roll_conv(x, taps, stride=1):
    """Strided circular convolution as one rolled copy of x per tap.

    One product per tap, added to zeros in ascending tap order. The kernel
    under test shares a product between equal neighbouring taps and starts
    from the first product plus +0.0, which takes the same products and
    sums, so the two agree bit for bit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.zeros_like(x)
    for m, t in enumerate(np.asarray(taps, dtype=np.float64)):
        y += t * np.roll(x, m * stride)
    return y


def convolve_complex(x, taps):
    """Centered complex convolution, one np.convolve per kernel.

    taps is one kernel (k,) or a stack (rows, k). Output sample i is
    sample i + (k - 1) // 2 of the full convolution of the complex input.
    """
    x = np.asarray(x, dtype=np.float64).astype(np.complex128)
    taps = np.asarray(taps, dtype=np.complex128)
    off = (taps.shape[-1] - 1) // 2
    rows = [
        np.convolve(x, kernel)[off : off + x.size]
        for kernel in taps.reshape(-1, taps.shape[-1])
    ]
    return rows[0] if taps.ndim == 1 else np.array(rows)


def first_sustained_run(flags, run_length):
    """Start of the earliest run of at least run_length True flags, else -1."""
    count = 0
    for i, flag in enumerate(flags):
        count = count + 1 if flag else 0
        if count == run_length:
            return i - run_length + 1
    return -1


def direct_swt(x, dec_lo, dec_hi, levels, conv=wrap_conv):
    """Undecimated decomposition from the definition.

    Level j filters level j-1's approximation with the zero-stuffed
    analysis pair. Returns (approx, details), lists of length `levels`
    holding every level's approximation and detail, every entry full length.
    """
    a = np.asarray(x, dtype=np.float64)
    approx, details = [], []
    for j in range(1, levels + 1):
        lo = stuffed_filter(dec_lo, j)
        hi = stuffed_filter(dec_hi, j)
        details.append(conv(a, hi))
        a = conv(a, lo)
        approx.append(a)
    return approx, details


def direct_iswt(approximation, details, rec_lo, rec_hi, conv=wrap_conv):
    """Inverse of direct_swt from the deepest approximation and every detail.

    Averages the dual filter pair per level.
    """
    levels = len(details)
    acc = np.asarray(approximation, dtype=np.float64)
    for j in range(levels, 0, -1):
        lo = stuffed_filter(rec_lo, j)
        hi = stuffed_filter(rec_hi, j)
        merged = 0.5 * (conv(acc, lo) + conv(details[j - 1], hi))
        acc = np.roll(merged, -(lo.size - 1))
    return acc


def centered_box_mean(values, width):
    """Circular moving average over the window [i - w//2, i + (w-1)//2]."""
    n = values.size
    offsets = np.arange(-(width // 2), (width - 1) // 2 + 1)
    idx = (np.arange(n)[:, None] + offsets[None, :]) % n
    return values[idx].mean(axis=1)


def shrinking_box_mean(x, width):
    """Centered moving average over [max(i - w//2, 0), min(i + (w-1)//2, n-1)].

    Each window's sum is the difference of two gathered entries of one
    cumulative sum, divided by the window's sample count as an integer.
    """
    n = x.size
    if width == 1 or n == 0:
        return x.copy()
    left = width // 2
    right = width - 1 - left
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(idx - left, 0)
    hi = np.minimum(idx + right, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


REF_DURATIONS_MS = {45.0: 200.0, 55.0: 180.0, 85.0: 150.0}
REF_SCALE_COUNTS = {45.0: 3, 55.0: 2, 85.0: 2}


def ref_mask_plan(target_freq_hz, sample_rate_hz):
    """(window length in samples, scale set) per the fixed geometry table."""
    duration = REF_DURATIONS_MS.get(float(target_freq_hz))
    if duration is None:
        duration = 9000.0 / target_freq_hz
    n_scales = REF_SCALE_COUNTS.get(float(target_freq_hz), 2)
    length = int(round(duration * sample_rate_hz / 1000.0))
    level = 1
    while sample_rate_hz / 2.0 ** (level + 1) > target_freq_hz:
        level += 1
    scales = set(range(max(1, level - n_scales + 1), level + 1))
    return length, scales


def ref_separate(x, target_freq_hz, sample_rate_hz, dec_lo, dec_hi,
                 rec_lo, rec_hi, levels=5):
    """Reference oscillatory/transient split; returns (osc, trans, center)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    approx, details = direct_swt(x, dec_lo, dec_hi, levels)
    length, scales = ref_mask_plan(target_freq_hz, sample_rate_hz)
    length = min(length, n)

    energy = np.zeros(n)
    taps_len = len(dec_hi)
    for s in scales:
        advance = ((taps_len - 1) * (2 ** s - 1)) // 2
        energy += np.roll(details[s - 1] ** 2, -advance)
    smoothed = centered_box_mean(energy, min(length, n))
    center = int(np.argmax(smoothed))

    start = min(max(center - length // 2, 0), n - length)
    window = np.zeros(n)
    window[start:start + length] = 1.0

    osc_details = [
        details[j] * window if (j + 1) in scales else np.zeros(n)
        for j in range(levels)
    ]
    trans_details = [details[j] - osc_details[j] for j in range(levels)]
    osc_approx = approx[-1] * window
    trans_approx = approx[-1] - osc_approx

    osc = direct_iswt(osc_approx, osc_details, rec_lo, rec_hi)
    trans = direct_iswt(trans_approx, trans_details, rec_lo, rec_hi)
    return osc, trans, center


def box_peak_center(coeffs, target_freq_hz, sample_rate_hz, filter_length):
    """Detection centre by the full-length rule: every box, rolled, first argmax.

    The energy is the sum, in ascending level order from zeros, of each
    mask level's squared details rolled back by its analysis advance. The
    box is circular, w = min(mask length, n) energies each times 1.0 / w,
    added from +0.0 in the order e[i], e[i-1], ..., e[i-w+1], as the
    package's circular kernel adds them. It is rolled back by (w - 1) // 2.
    A non-finite maximum raises ValueError and a maximum of zero
    NoDetectionError.
    """
    from gammasep.despike import NoDetectionError

    length, scales = ref_mask_plan(target_freq_hz, sample_rate_hz)
    n = coeffs.n_samples
    width = min(max(1, length), n)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.zeros(n)
        for s in sorted(scales):
            d = coeffs.details[s - 1]
            energy += np.roll(d * d, -(((filter_length - 1) * (2 ** s - 1)) // 2))
        smoothed = np.zeros(n)
        for m in range(width):
            smoothed += (1.0 / width) * np.roll(energy, m)
    smoothed = np.roll(smoothed, -((width - 1) // 2))
    peak = smoothed.max()
    if not np.isfinite(peak):
        raise ValueError("detail energy is not finite")
    if peak <= 0.0:
        raise NoDetectionError("no oscillatory energy")
    return int(np.argmax(smoothed))


def pearson(a, b):
    """Plain correlation coefficient; zero-variance inputs give nan."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.corrcoef(a, b)[0, 1])


def placed_burst(truth_channel, config):
    """Re-create the clean burst trace a ground-truth entry describes."""
    from gammasep.simulate import gen_gamma_burst

    burst = gen_gamma_burst(truth_channel.burst_freq_hz)
    out = np.zeros(config.n_samples)
    start = truth_channel.burst_window.start_sample
    out[start:start + burst.size] = burst
    return out


# where ROADMAP item 8's recordings place their burst, in 5000 samples
EDGE_STARTS = (0, 30, 100, 300, 4800)


def edge_recording(freq_hz, start):
    """5000 samples at 512 Hz: 1/f noise of standard deviation 5 uV and one
    150 ms, 50 uV burst at freq_hz from sample `start`.

    The noise is the simulate generator's. The burst is `gen_gamma_burst`'s
    tapered sinusoid, but 150 ms (77 samples) long at every frequency."""
    from gammasep.simulate import gen_colored_noise

    x = 5.0 * gen_colored_noise(5000, 7)
    burst = np.sin(2.0 * np.pi * freq_hz * np.arange(77) / 512.0) * np.hanning(77)
    burst = burst * (50.0 / np.max(np.abs(burst)))
    x[start : start + burst.size] += burst
    return x


def full_map_row(x, band_hz, params):
    """One map row with the chain run over the whole input, zeros included."""
    from gammasep.tfmap import (
        bandpass,
        envelope_smooth,
        morlet_transform,
        normalize_by_low_band,
    )

    with np.errstate(over="ignore", invalid="ignore"):
        filtered = bandpass(x, band_hz, params.sample_rate_hz)
        response = morlet_transform(filtered, params)
        band_energy = np.mean(np.abs(response) ** 2, axis=0)
        smoothed = envelope_smooth(band_energy)
    if not np.isfinite(smoothed).all():
        raise ValueError("band energy is not finite; check the input scale")
    return normalize_by_low_band(smoothed, x, params.sample_rate_hz)


def fresh_map_row(x, band_hz, params):
    """The map chain over the whole row, its filters rebuilt on every call.

    The taps come from the builder behind `tfmap.bandpass_taps`'s cache, and
    the bank is one `morlet_kernel` per scale centered in the longest; the
    smoother and the floored divisor are written out as map_row applies
    them.
    """
    from gammasep.backends import centered_conv, centered_conv_complex
    from gammasep.tfmap import (
        LOW_BAND_HZ,
        RAMP_FRACTION,
        _bandpass_taps,
        _morlet_radius,
        envelope_smooth,
        morlet_kernel,
    )

    def taps(band):
        low, high = band
        return _bandpass_taps.__wrapped__(
            float(low), float(high), float(params.sample_rate_hz)
        )

    radius = _morlet_radius(max(params.scales))
    bank = np.zeros((len(params.scales), 2 * radius + 1), dtype=np.complex128)
    for row, a in zip(bank, params.scales):
        kernel = morlet_kernel(a)
        pad = radius - kernel.size // 2
        row[pad:pad + kernel.size] = kernel

    x = np.asarray(x, dtype=np.float64)
    response = centered_conv_complex(centered_conv(x, taps(band_hz)), bank)
    band_energy = envelope_smooth(np.mean(np.abs(response) ** 2, axis=0))
    low = centered_conv(x, taps(LOW_BAND_HZ))
    low_energy = envelope_smooth(low * low)
    denom = np.maximum(low_energy, RAMP_FRACTION * np.max(low_energy))
    out = np.zeros_like(x)
    np.divide(band_energy, denom, out=out, where=denom > 0.0)
    return out


def full_separate(x, target_freq_hz, sample_rate_hz, filters, levels=5):
    """Both parts synthesized over every sample, masked by a 0/1 indicator.

    The package places the mask; the split is plain arithmetic, as in
    ref_separate: the oscillatory part is the approximation and the mask's
    detail levels times the indicator, zeros at the other levels, and the
    transient part is the input minus it. Returns (oscillatory, transient,
    mask).
    """
    from gammasep.despike import build_mask, detect_oscillation_center
    from gammasep.swt import WaveletCoefficients, iswt_reconstruct, swt_decompose

    x = np.asarray(x, dtype=np.float64)
    coeffs = swt_decompose(x, filters, levels)
    center = detect_oscillation_center(
        coeffs, target_freq_hz, sample_rate_hz, filter_length=filters.length
    )
    mask = build_mask(center, target_freq_hz, sample_rate_hz, x.size)
    window = np.zeros(x.size)
    window[mask.window.start_sample : mask.window.end_sample] = 1.0
    osc_approx = coeffs.approximation * window
    osc_details = [
        d * window if level in mask.scales else np.zeros(x.size)
        for level, d in enumerate(coeffs.details, start=1)
    ]

    def synthesized(approximation, details):
        return iswt_reconstruct(
            WaveletCoefficients(approximation, tuple(details)), filters
        )

    osc = synthesized(osc_approx, osc_details)
    trans = synthesized(
        coeffs.approximation - osc_approx,
        [d - o for d, o in zip(coeffs.details, osc_details)],
    )
    return osc, trans, mask


def median_buildup(values, k_sigma, sample_rate_hz):
    """detect_buildup's decision with both medians always taken by np.median.

    Returns (threshold, onset_sample, channel_indices, peak_energy).
    """
    from gammasep.tfmap import CHANNEL_WINDOW_MS, RAMP_FRACTION, RUN_LENGTH

    values = np.asarray(values, dtype=np.float64)
    peak = float(values.max())
    med = float(np.median(values))
    mad = float(np.median(np.abs(values - med)))
    if mad > 0.0:
        threshold = med + k_sigma * mad
    else:
        threshold = med + RAMP_FRACTION * (peak - med)
    above = values > threshold
    starts = [s for s in (first_sustained_run(row, RUN_LENGTH) for row in above)
              if s >= 0]
    if not starts:
        return threshold, -1, frozenset(), peak
    onset = min(starts) + RUN_LENGTH - 1
    horizon = max(int(round(CHANNEL_WINDOW_MS * sample_rate_hz / 1000.0)), 1)
    channels = frozenset(
        ch for ch, row in enumerate(above) if row[onset : onset + horizon].any()
    )
    return threshold, onset, channels, peak


def write_signal_csv_per_value(path, signal):
    """The signal CSV written one sample at a time with `repr(float(v))`."""
    lines = [f"# rate={signal.sample_rate_hz!r}", ",".join(signal.channel_labels)]
    for row in signal.data.T:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_map_pgm_per_bin(path, values, time_bin):
    """The PGM rendering with each time bin averaged on its own."""
    n_ch, n = values.shape
    n_bins = -(-n // time_bin)
    binned = np.zeros((n_ch, n_bins))
    for b in range(n_bins):
        seg = values[:, b * time_bin : min((b + 1) * time_bin, n)]
        binned[:, b] = seg.mean(axis=1)
    peak = binned.max()
    if peak > 0:
        gray = np.rint(binned / peak * 255).astype(int)
    else:
        gray = np.zeros_like(binned, dtype=int)
    lines = ["P2", f"{n_bins} {n_ch}", "255"]
    for row in gray:
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_signal_body(lines, n_labels):
    """Body lines (after the two header lines) parsed with `float()`.

    Blank lines are skipped. Returns the channels x samples array, or None
    where the CSV reader must refuse the body: a row of the wrong width, a
    value `float()` rejects, a non-finite value, or no rows at all.
    """
    rows = []
    for line in lines:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_labels:
            return None
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            return None
    if not rows or not all(math.isfinite(v) for row in rows for v in row):
        return None
    return np.array(rows, dtype=np.float64).T
