"""Regenerate the calibration constants recorded in frozen.py.

Runs the independent reference separation from oracles.py over the full
simulated protocol and prints the measurements the frozen constants were
derived from, and the build-up detection rates of criterion 6. Not a test;
run directly, optionally with the protocol seed (default 0):

    python3 tests/pilot_thresholds.py [SEED]
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
import oracles

import gammasep as g
from gammasep import simulate, tfmap
from gammasep.swt import wavelet_filters


def sweep_correlations(cfg, filters):
    corrs = {f: [] for f in cfg.burst_freqs_hz}
    for idx in range(cfg.n_realizations):
        sig, truth = g.build_realization(cfg, idx)
        for ch, ct in enumerate(truth.channels):
            osc, _, _ = oracles.ref_separate(
                sig.data[ch], ct.burst_freq_hz, sig.sample_rate_hz,
                filters.dec_lo, filters.dec_hi,
                filters.rec_lo, filters.rec_hi)
            corrs[ct.burst_freq_hz].append(
                oracles.pearson(osc, oracles.placed_burst(ct, cfg)))
    return corrs


def noise_map_ratios(cfg):
    ratios = []
    for idx in range(cfg.n_realizations):
        rows = [
            g.gen_colored_noise(cfg.n_samples, (cfg.rng_seed ^ idx) * 3 + ch)
            for ch in range(3)
        ]
        sig = g.MultiChannelSignal(
            sample_rate_hz=simulate.SAMPLE_RATE_HZ,
            channel_labels=("ch1", "ch2", "ch3"),
            data=np.vstack(rows))
        m = tfmap.spatiotemporal_map(sig, (80.0, 90.0))
        ratios.append(float(m.values.max() / np.median(m.values)))
    return np.array(ratios)


def buildup_detection_rates(cfg):
    """Criterion 6 measured on a protocol: paired wins, onsets within
    +-100 ms with the gamma channel, and the median onset error in ms."""
    fs = simulate.SAMPLE_RATE_HZ
    wins = 0
    accurate = 0
    errors_ms = []
    for idx in range(cfg.n_realizations):
        sig, truth = g.build_realization(cfg, idx)
        rows = [
            g.separate(sig.data[ch], truth.channels[ch].burst_freq_hz, fs
                       ).oscillatory
            for ch in range(3)
        ]
        desp = g.MultiChannelSignal(
            sample_rate_hz=fs, channel_labels=sig.channel_labels,
            data=np.vstack(rows))
        d0 = tfmap.detect_buildup(tfmap.spatiotemporal_map(desp, (80.0, 90.0)))
        d1 = tfmap.detect_buildup(tfmap.spatiotemporal_map(sig, (80.0, 90.0)))
        true_onset = truth.channels[2].burst_window.start_sample
        e0 = abs(d0.onset_sample - true_onset) if d0.detected else np.inf
        e1 = abs(d1.onset_sample - true_onset) if d1.detected else np.inf
        corrected = 2 in d0.channel_indices and 2 not in d1.channel_indices
        if e0 < e1 or corrected:
            wins += 1
        errors_ms.append(e0 * 1000.0 / fs)
        if 2 in d0.channel_indices and errors_ms[-1] <= 100.0:
            accurate += 1
    return wins, accurate, float(np.median(errors_ms))


def main(argv):
    cfg = g.SimConfig(rng_seed=int(argv[0]) if argv else 0)
    filters = wavelet_filters("db4")

    t0 = time.perf_counter()
    corrs = sweep_correlations(cfg, filters)
    print(f"sweep ({time.perf_counter() - t0:.0f} s):")
    for f in sorted(corrs):
        arr = np.array(corrs[f])
        print(f"  {f:.0f} Hz median {np.median(arr):.4f} "
              f"(floor suggestion {np.median(arr) - 0.005:.3f})")

    ratios = noise_map_ratios(cfg)
    print(f"noise maps: max/median up to {ratios.max():.1f} "
          f"(p95 {np.percentile(ratios, 95):.1f})")

    wins, accurate, median_ms = buildup_detection_rates(cfg)
    n = cfg.n_realizations
    print(f"paired comparison: separated maps win {wins}/{n}")
    print(f"onset within +-100 ms on the gamma channel: {accurate}/{n}, "
          f"median error {median_ms:.1f} ms")


if __name__ == "__main__":
    main(sys.argv[1:])
