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
"""

import numpy as np


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

    Same ascending-tap accumulation from zeros as the kernel under test,
    so the two agree bit for bit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.zeros_like(x)
    for m, t in enumerate(np.asarray(taps, dtype=np.float64)):
        y += t * np.roll(x, m * stride)
    return y


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
    analysis pair. Returns (approximations, details), lists of length
    `levels`, every entry full length.
    """
    approx = np.asarray(x, dtype=np.float64)
    approximations, details = [], []
    for j in range(1, levels + 1):
        lo = stuffed_filter(dec_lo, j)
        hi = stuffed_filter(dec_hi, j)
        details.append(conv(approx, hi))
        approx = conv(approx, lo)
        approximations.append(approx)
    return approximations, details


def direct_iswt(approximations, details, rec_lo, rec_hi, conv=wrap_conv):
    """Inverse of direct_swt: average the dual filter pair per level."""
    levels = len(details)
    acc = np.asarray(approximations[-1], dtype=np.float64)
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
    approximations, details = direct_swt(x, dec_lo, dec_hi, levels)
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
    osc_approx = [a * window for a in approximations]
    trans_approx = [approximations[j] - osc_approx[j] for j in range(levels)]

    osc = direct_iswt(osc_approx, osc_details, rec_lo, rec_hi)
    trans = direct_iswt(trans_approx, trans_details, rec_lo, rec_hi)
    return osc, trans, center


def pearson(a, b):
    """Plain correlation coefficient; zero-variance inputs give nan."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.corrcoef(a, b)[0, 1])


def placed_burst(truth_channel, config):
    """Re-create the clean burst trace a ground-truth entry describes."""
    from gammasep.simulate import gen_gamma_burst
    from gammasep.signal_core import oscillation_duration_ms

    burst = gen_gamma_burst(
        truth_channel.burst_freq_hz,
        oscillation_duration_ms(truth_channel.burst_freq_hz),
        config.burst_amplitude_uv,
        config.sample_rate_hz,
    )
    out = np.zeros(config.n_samples)
    start = truth_channel.burst_window.start_sample
    out[start:start + burst.size] = burst
    return out


def full_map_row(x, band_hz, params):
    """One map row with the chain run over the whole input, zeros included."""
    from gammasep.tfmap import (
        SMOOTH_WIDTH,
        bandpass,
        envelope_smooth,
        morlet_transform,
        normalize_by_low_band,
    )

    with np.errstate(over="ignore", invalid="ignore"):
        filtered = bandpass(x, band_hz, params.sample_rate_hz)
        response = morlet_transform(filtered, params)
        band_energy = np.mean(np.abs(response) ** 2, axis=0)
        smoothed = envelope_smooth(band_energy, SMOOTH_WIDTH)
    if not np.isfinite(smoothed).all():
        raise ValueError("band energy is not finite; check the input scale")
    return normalize_by_low_band(smoothed, x, params.sample_rate_hz)


def full_separate(x, target_freq_hz, sample_rate_hz, filters, levels=5):
    """Both parts synthesized over every sample, masked by a 0/1 indicator.

    The package places the mask; the split is plain arithmetic, as in
    ref_separate: the oscillatory part is every approximation and the
    mask's detail levels times the indicator, zeros at the other levels,
    and the transient part is the input minus it. Returns (oscillatory,
    transient, mask).
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
    osc_approx = [a * window for a in coeffs.approximations]
    osc_details = [
        d * window if level in mask.scales else np.zeros(x.size)
        for level, d in enumerate(coeffs.details, start=1)
    ]

    def synthesized(approximations, details):
        return iswt_reconstruct(
            WaveletCoefficients(tuple(approximations), tuple(details),
                                levels, x.size),
            filters,
        )

    osc = synthesized(osc_approx, osc_details)
    trans = synthesized(
        [a - o for a, o in zip(coeffs.approximations, osc_approx)],
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
    horizon = int(round(CHANNEL_WINDOW_MS * sample_rate_hz / 1000.0))
    channels = frozenset(
        ch for ch, row in enumerate(above) if row[onset : onset + horizon].any()
    )
    return threshold, onset, channels, peak
