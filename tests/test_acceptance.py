"""Acceptance suite: one test per shipped guarantee.

Each criterion prints a single pass/fail line under pytest -v. Tolerances
are pinned here and in frozen.py from reference pilot runs; they are part
of the contract and must not be loosened to turn a run green.
"""

import filecmp
import json
import time

import numpy as np

import gammasep as g
from gammasep.cli import main as cli_main
from gammasep.despike import mask_geometry, mask_scales, separate
from gammasep.swt import iswt_reconstruct, swt_decompose, wavelet_filters
from gammasep.tfmap import MorletParams, detect_buildup, spatiotemporal_map
from gammasep.tickmodel import PipelineConfig, run_mapping_pipeline, run_pipeline
from frozen import PAIRED_WIN_RATE_FLOOR, SWEEP_CORR_FLOOR
from oracles import direct_swt, loop_conv, pearson, placed_burst

FS = 512.0
BAND = (80.0, 90.0)


def test_criterion_1_perfect_reconstruction():
    """100 random length-5000 signals survive decompose + reconstruct."""
    filters = wavelet_filters("db4")
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(100):
        x = rng.standard_normal(5000)
        back = iswt_reconstruct(swt_decompose(x, filters, 5), filters)
        assert np.max(np.abs(back - x)) < 1e-9 * np.max(np.abs(x))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"reconstruction sweep took {elapsed:.1f} s"


def test_criterion_2_shift_invariance():
    """Coefficients follow circular input shifts bit for bit."""
    filters = wavelet_filters("db4")
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(512)
        base = swt_decompose(x, filters, 5)
        for shift in rng.integers(1, 512, size=20):
            shifted = swt_decompose(np.roll(x, shift), filters, 5)
            for level in range(5):
                assert np.array_equal(
                    shifted.details[level], np.roll(base.details[level], shift)
                )


def test_criterion_3_brute_force_equivalence():
    """The strided transform equals the written-out definition on short input."""
    filters = wavelet_filters("db4")
    rng = np.random.default_rng(3)
    for n in (32, 48, 64):
        x = rng.standard_normal(n)
        coeffs = swt_decompose(x, filters, 5)
        ref_approx, ref_details = direct_swt(
            x, filters.dec_lo, filters.dec_hi, 5, conv=loop_conv
        )
        for level in range(5):
            assert (
                np.max(np.abs(coeffs.details[level] - ref_details[level])) < 1e-12
            )
            assert (
                np.max(np.abs(coeffs.approximations[level] - ref_approx[level]))
                < 1e-12
            )


def test_criterion_4_separation_quality_sweep():
    """Full 200-realization protocol: frozen correlation floors, exact split."""
    config = g.SimConfig()
    start = time.perf_counter()
    corrs = {freq: [] for freq in config.burst_freqs_hz}
    for idx in range(config.n_realizations):
        signal, truth = g.build_realization(config, idx)
        for ch, ct in enumerate(truth.channels):
            result = separate(signal.data[ch], ct.burst_freq_hz, FS)
            recombined = result.oscillatory + result.transient
            assert np.max(np.abs(recombined - signal.data[ch])) < 1e-9
            corrs[ct.burst_freq_hz].append(
                pearson(result.oscillatory, placed_burst(ct, config))
            )
    elapsed = time.perf_counter() - start
    for freq, floor in SWEEP_CORR_FLOOR.items():
        median = float(np.median(corrs[freq]))
        assert median >= floor, f"{freq} Hz median {median:.4f} < floor {floor}"
    assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"


def test_criterion_5_mask_geometry_table():
    """The separation mask geometry is exactly the fixed table."""
    assert mask_geometry(45.0) == (200.0, 3)
    assert mask_geometry(55.0) == (180.0, 2)
    assert mask_geometry(85.0) == (150.0, 2)
    assert len(mask_scales(45.0, FS)) == 3
    assert len(mask_scales(55.0, FS)) == 2
    assert len(mask_scales(85.0, FS)) == 2


def test_criterion_6_buildup_detection():
    """Separated maps must beat raw maps, and localize onset to +-100 ms.

    The paired comparison (second clause) is asserted first; the absolute
    onset accuracy (first clause) is asserted last so a miss on it still
    reports the measured rates for both.
    """
    config = g.SimConfig()
    horizon_ms = 100.0
    gamma_ch = 2  # the fully overlapped 85 Hz channel
    accurate = 0
    wins = 0
    for idx in range(config.n_realizations):
        signal, truth = g.build_realization(config, idx)
        rows = [
            separate(
                signal.data[ch], truth.channels[ch].burst_freq_hz, FS
            ).oscillatory
            for ch in range(signal.n_channels)
        ]
        despiked = g.MultiChannelSignal(
            sample_rate_hz=FS,
            channel_labels=signal.channel_labels,
            data=np.vstack(rows),
        )
        det_desp = detect_buildup(spatiotemporal_map(despiked, BAND))
        det_raw = detect_buildup(spatiotemporal_map(signal, BAND))

        true_onset = truth.channels[gamma_ch].burst_window.start_sample
        err_desp = (
            abs(det_desp.onset_sample - true_onset)
            if det_desp.detected
            else np.inf
        )
        err_raw = (
            abs(det_raw.onset_sample - true_onset) if det_raw.detected else np.inf
        )
        channel_fixed = (
            gamma_ch in det_desp.channel_indices
            and gamma_ch not in det_raw.channel_indices
        )
        if err_desp < err_raw or channel_fixed:
            wins += 1
        if (
            gamma_ch in det_desp.channel_indices
            and err_desp * 1000.0 / FS <= horizon_ms
        ):
            accurate += 1

    n = config.n_realizations
    assert wins >= PAIRED_WIN_RATE_FLOOR * n, (
        f"separated maps beat raw maps in {wins}/{n} realizations"
    )
    assert accurate >= 0.90 * n, (
        f"onset within +-100 ms with the right channel in {accurate}/{n} "
        f"realizations (need {int(0.90 * n)}); paired wins {wins}/{n}"
    )


def test_criterion_7_tick_ratios():
    """Accelerated schedules land in the expected speedup bands."""
    signal, _ = g.build_realization(g.SimConfig(), 0)
    x = signal.data[2]
    out_sep = {}
    sep_ticks = {}
    for accel in (0, 2):
        out_sep[accel], report = run_pipeline(x, PipelineConfig(accelerators=accel))
        sep_ticks[accel] = report.total_ticks
    sep_ratio = sep_ticks[0] / sep_ticks[2]
    assert 1.8 <= sep_ratio <= 2.1, f"separation ratio {sep_ratio:.3f}"
    assert np.array_equal(out_sep[0], out_sep[2])

    params = MorletParams.for_band(BAND, FS)
    out_map = {}
    map_ticks = {}
    for accel in (0, 2):
        out_map[accel], report = run_mapping_pipeline(
            x, PipelineConfig(accelerators=accel), params, BAND
        )
        map_ticks[accel] = report.total_ticks
    map_ratio = map_ticks[0] / map_ticks[2]
    assert 2.0 <= map_ratio <= 2.4, f"mapping ratio {map_ratio:.3f}"
    assert np.array_equal(out_map[0], out_map[2])


def test_criterion_8_scale_invariance_of_detection():
    """Rescaling the input leaves the detected channels and onset alone."""
    signal, _ = g.build_realization(g.SimConfig(), 0)
    base = detect_buildup(spatiotemporal_map(signal, BAND))
    for c in (0.1, 1.0, 10.0):
        scaled = g.MultiChannelSignal(
            sample_rate_hz=signal.sample_rate_hz,
            channel_labels=signal.channel_labels,
            data=c * signal.data,
        )
        detection = detect_buildup(spatiotemporal_map(scaled, BAND))
        assert detection.channel_indices == base.channel_indices, f"c={c}"
        assert detection.onset_sample == base.onset_sample, f"c={c}"


def _run_chain(config_path, root):
    sim = root / "sim"
    desp = root / "desp"
    mapped = root / "map"
    bench = root / "bench"
    args = ["--config", str(config_path)]
    assert cli_main(["simulate", *args, "--out", str(sim)]) == 0
    assert (
        cli_main(
            [
                "despike",
                str(sim / "realization_000.csv"),
                *args,
                "--freq",
                "45,55,85",
                "--out",
                str(desp),
            ]
        )
        == 0
    )
    assert (
        cli_main(
            ["map", str(desp / "oscillatory.csv"), *args, "--out", str(mapped)]
        )
        == 0
    )
    assert cli_main(["bench", *args, "--out", str(bench)]) == 0


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    """Two identical pipeline runs leave byte-identical output trees."""
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"n_samples": 2000, "n_realizations": 2, "rng_seed": 11})
    )
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    _run_chain(config_path, run_a)
    _run_chain(config_path, run_b)
    capsys.readouterr()

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert files_a, "the pipeline produced no files"
    mismatched = [
        str(rel)
        for rel in files_a
        if not filecmp.cmp(run_a / rel, run_b / rel, shallow=False)
    ]
    assert mismatched == []
