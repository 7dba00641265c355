"""The traced run and the per-layer metrics it yields, each per operation.

One untraced cycle is timed first; then the tracer is installed and whole
cycles run traced until the run's time is up. Whole cycles keep every count
per operation identical across runs with the same seed.
"""

from __future__ import annotations

import statistics
import time

import calibrate
from loop import Run, run_cycles
from tracing import Tracer

KERNELS = ("circular_conv", "centered_conv", "centered_conv_complex")
TFMAP_SELF_MS = ("map_row", "bandpass", "morlet_transform", "envelope_smooth",
                 "normalize_by_low_band", "detect_buildup")


def traced_run(gs, steps, seconds, reference):
    """Returns (run holding both phases' records, tracer, metrics)."""
    start = time.perf_counter()
    untraced = Run()
    run_cycles(steps, 0.0, untraced, reference)

    originals = {
        "despike.separate": gs.despike.separate,
        "tfmap.map_row": gs.tfmap.map_row,
        "swt.wavelet_filters": gs.swt.wavelet_filters,
    }
    tracer = Tracer(gs, counters=calibrate.tick_counters(gs, originals))
    traced = Run()
    with tracer:
        remaining = seconds - (time.perf_counter() - start)
        run_cycles(steps, remaining, traced, reference, tracer=tracer,
                   whole_cycles=True)

    metrics = layer_metrics(tracer, traced, untraced)
    untraced.absorb(traced)
    return untraced, tracer, metrics


def layer_metrics(tracer, traced, untraced):
    n_ops = len(traced.seconds["op"])
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_op(value):
        return value / n_ops

    def self_ms(name):
        return tracer.self_ns(name) / 1e6 / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    for fn in KERNELS:
        name = f"backends.{fn}"
        put(f"{name}.calls", per_op(tracer.calls(name)), "count")
        put(f"{name}.self_ms", self_ms(name), "ms")
        put(f"{name}.macs", per_op(tracer.count(name, "macs")), "count")
        put(f"{name}.bytes_computed", per_op(tracer.count(name, "bytes_computed")), "B")

    separations = tracer.calls("despike.separate")
    put("swt.swt_decompose.self_ms", self_ms("swt.swt_decompose"), "ms")
    put("swt.iswt_reconstruct.self_ms", self_ms("swt.iswt_reconstruct"), "ms")
    put("swt.wavelet_filters.calls", per_op(tracer.calls("swt.wavelet_filters")), "count")
    put("swt.wavelet_filters.self_ms", self_ms("swt.wavelet_filters"), "ms")
    put("swt.FilterPair.calls", per_op(tracer.calls("swt.FilterPair")), "count")
    put("swt.FilterPair.per_separate",
        ratio(tracer.calls("swt.FilterPair", within="despike.separate"), separations),
        "ratio")

    put("despike.separate.calls", per_op(separations), "count")
    for fn in ("separate", "detect_oscillation_center", "threshold_coeffs"):
        put(f"despike.{fn}.self_ms", self_ms(f"despike.{fn}"), "ms")
    put("despike.no_detection",
        per_op(tracer.raised_count("despike.detect_oscillation_center",
                                   "NoDetectionError")), "count")

    map_rows = tracer.calls("tfmap.map_row")
    put("tfmap.map_row.calls", per_op(map_rows), "count")
    for fn in TFMAP_SELF_MS:
        put(f"tfmap.{fn}.self_ms", self_ms(f"tfmap.{fn}"), "ms")
    for fn in ("bandpass_taps", "morlet_kernel"):
        put(f"tfmap.{fn}.per_map_row",
            ratio(tracer.calls(f"tfmap.{fn}", within="tfmap.map_row"), map_rows),
            "ratio")

    for name in ("simulate.build_realization", "signal_core.MultiChannelSignal"):
        put(f"{name}.calls", per_op(tracer.calls(name)), "count")
        put(f"{name}.self_ms", self_ms(name), "ms")

    put("cli.main.calls", per_op(tracer.calls("cli.main")), "count")
    for fn in ("read_signal_csv", "write_signal_csv"):
        name = f"cli.{fn}"
        put(f"{name}.calls", per_op(tracer.calls(name)), "count")
        put(f"{name}.self_ms", self_ms(name), "ms")
        put(f"{name}.mb_per_s",
            ratio(tracer.count(name, "bytes") / 1e6, tracer.self_ns(name) / 1e9),
            "MB/s")
    for fn in ("write_map_pgm", "write_keyvalues"):
        put(f"cli.{fn}.self_ms", self_ms(f"cli.{fn}"), "ms")
    put("cli.exit_nonzero", per_op(tracer.count("cli.main", "exit_nonzero")), "count")

    for fn in ("run_pipeline", "run_mapping_pipeline", "benchmark_report"):
        put(f"tickmodel.{fn}.self_ms", self_ms(f"tickmodel.{fn}"), "ms")
    for chain, label in (("despike.separate", "separation"), ("tfmap.map_row", "mapping")):
        for accel in ("accel0", "accel2"):
            put(f"tickmodel.{label}_ticks.{accel}",
                per_op(tracer.count(chain, f"ticks.{accel}")), "count")
    for name, value in calibrate.fit(tracer).items():
        put(name, value, "ratio" if name.endswith("rel_err") else "ns")

    # both phases in reference units, so a change in host speed between them cancels
    traced_cycle = traced.busy_s / traced.cycles / statistics.fmean(traced.reference_s)
    untraced_cycle = untraced.busy_s / statistics.fmean(untraced.reference_s)
    put("trace.overhead_ratio", traced_cycle / untraced_cycle, "ratio")
    put("trace.span_coverage", tracer.top_level_ns / 1e9 / traced.busy_s, "ratio")
    return out
