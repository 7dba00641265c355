"""Deterministic tick-cost model of the separation and mapping pipelines.

Each pipeline is a fixed list of stages; a stage costs samples x taps ticks.
A schedule is a pricing policy over that list, keyed by accelerator count.
With zero accelerators every stage serializes. With two accelerators the
separation pipeline runs each low/high filter pair concurrently (the pair
costs its maximum), while the mapping pipeline splits every stage's batch
across the two units (each stage costs half, rounded up). Scheduling never
touches the arithmetic, so each channel runs once and its stage list is
priced under every schedule; the outputs of the two schedules are the same
arrays by construction. The model has no settings: the input is metered as
given, and the bench workload always prices both schedules.
"""

from __future__ import annotations

import time
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import despike, tfmap
from .swt import wavelet_filters
from .tfmap import MorletParams

__all__ = [
    "Stage",
    "TickReport",
    "benchmark_report",
    "mapping_stages",
    "run_mapping_pipeline",
    "run_pipeline",
    "separation_stages",
]

# schedules the model covers: sequential, and two parallel convolution units
ACCELERATOR_COUNTS = (0, 2)
# the protocol's 200 realizations: the bench counts each channel this often
REPETITIONS = 200


@dataclass(frozen=True)
class Stage:
    """One multiply-accumulate batch: n_values samples by taps coefficients.

    Stages sharing a group id may run concurrently on separate accelerators.
    """

    name: str
    n_values: int
    taps: int
    group: str = None

    @property
    def cost(self):
        return self.n_values * self.taps


@dataclass(frozen=True)
class TickReport:
    """Total ticks of one run under each schedule, keyed by accelerator count."""

    ticks: dict
    output_checksum: int


def _checksum(arr):
    return zlib.crc32(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _pair_max_ticks(stages, accelerators):
    """Serial sum, except grouped stages cost their max when accelerated."""
    if accelerators == 0:
        return sum(s.cost for s in stages)
    total = 0
    groups = {}
    for s in stages:
        if s.group is None:
            total += s.cost
        else:
            groups[s.group] = max(groups.get(s.group, 0), s.cost)
    return total + sum(groups.values())


def _split_ticks(stages, accelerators):
    """Every stage's batch divided evenly across the accelerators."""
    divisor = max(1, accelerators)
    return sum(-(-s.cost // divisor) for s in stages)


def _report(stages, schedule, output):
    """`output` with its stage list priced by `schedule` at every count."""
    return TickReport(
        ticks={a: schedule(stages, a) for a in ACCELERATOR_COUNTS},
        output_checksum=_checksum(output),
    )


def separation_stages(n_samples, filters, levels, mask):
    """Stage list of the separation pipeline for one channel.

    Analysis and synthesis convolutions come in low/high pairs per level,
    masking costs one pass over the detail stack and one over the deepest
    approximation, and each synthesis level ends with a serial combine.
    The stage list is structural: the mask's placement does not change it.
    """
    n = int(n_samples)
    k = filters.length
    stages = []
    for j in range(1, levels + 1):
        stages.append(Stage(f"analysis_lo_L{j}", n, k, group=f"analysis_L{j}"))
        stages.append(Stage(f"analysis_hi_L{j}", n, k, group=f"analysis_L{j}"))
    stages.append(Stage("mask_details", n * levels, 1, group="mask"))
    stages.append(Stage("mask_approx", n, 1, group="mask"))
    for j in range(levels, 0, -1):
        stages.append(Stage(f"synthesis_lo_L{j}", n, k, group=f"synthesis_L{j}"))
        stages.append(Stage(f"synthesis_hi_L{j}", n, k, group=f"synthesis_L{j}"))
        stages.append(Stage(f"combine_L{j}", n, 1))
    return stages


def run_pipeline(x, sample_rate_hz=512.0, target_freq_hz=85.0):
    """Oscillatory part from `despike.separate`, priced under every schedule.

    Separation and stage list share db4, built and checked once per process.
    """
    result = despike.separate(x, target_freq_hz, sample_rate_hz)
    n, mask = result.oscillatory.size, result.mask_used
    stages = separation_stages(n, wavelet_filters(), despike.DEFAULT_LEVELS, mask)
    return result.oscillatory, _report(stages, _pair_max_ticks, result.oscillatory)


def mapping_stages(n_samples, params, band_hz):
    """Stage list of the band-energy mapping pipeline for one channel.

    A band-pass FIR, one convolution per scale, the cross-scale energy mean,
    the wide smoother, the low-band normalization path, and the final
    division. Each scale is priced at its own kernel length, although
    `tfmap.morlet_transform` applies all of them as one bank zero-padded to
    the longest. Kernel lengths are computed, not designed; the band-pass
    length depends on the sample rate alone, so ``band_hz`` sets none.
    """
    n = int(n_samples)
    bp_len = tfmap._bandpass_length(params.sample_rate_hz)
    stages = [Stage("bandpass_band", n, bp_len)]
    for i, a in enumerate(params.scales):
        stages.append(Stage(f"scale_conv_{i}", n, 2 * tfmap._morlet_radius(a) + 1))
    stages.append(Stage("band_energy_mean", n, len(params.scales)))
    stages.append(Stage("smooth_band", n, tfmap.SMOOTH_WIDTH))
    stages.append(Stage("bandpass_low", n, bp_len))
    stages.append(Stage("square_low", n, 1))
    stages.append(Stage("smooth_low", n, tfmap.SMOOTH_WIDTH))
    stages.append(Stage("normalize", n, 1))
    return stages


def run_mapping_pipeline(x, params, band_hz):
    """`tfmap.map_row`'s normalized band-energy row, priced under every schedule.

    Ticks are structural: they depend on the stage list, never on the data.
    """
    output = tfmap.map_row(x, band_hz, params)
    stages = mapping_stages(output.size, params, band_hz)
    return output, _report(stages, _split_ticks, output)


def _combined_checksum(checksums):
    return zlib.crc32(b"".join(c.to_bytes(4, "little") for c in checksums))


def benchmark_report(workload, target_freq_hz=85.0, band_hz=(80.0, 90.0)):
    """Tick totals of both schedules over the workload, and their ratio.

    Every channel of the workload runs through both pipelines once, and its
    stage lists are priced under each schedule in ACCELERATOR_COUNTS; its
    ticks count REPETITIONS times (ticks are data-independent, so repetition
    multiplies). Both schedules price the same run, so their outputs, and
    the checksums on each row, are identical by construction. The returned
    dict carries a CSV table and a text summary, both reproducible byte for
    byte, plus the wall-clock seconds of the `run_pipeline` calls (one
    software separation pass over the workload), kept out of the
    deterministic parts. A workload with no channel raises ValueError.
    """
    if workload.n_channels == 0:
        raise ValueError("workload has no channel to price")
    fs = workload.sample_rate_hz
    params = MorletParams.for_band(band_hz, fs)
    sep_ticks = Counter()
    map_ticks = Counter()
    sep_checksums = []
    map_checksums = []
    sep_seconds = 0.0
    for x in workload.data:
        start = time.perf_counter()
        _, sep_report = run_pipeline(x, fs, target_freq_hz)
        sep_seconds += time.perf_counter() - start
        _, map_report = run_mapping_pipeline(x, params, band_hz)
        sep_ticks.update(sep_report.ticks)
        map_ticks.update(map_report.ticks)
        sep_checksums.append(sep_report.output_checksum)
        map_checksums.append(map_report.output_checksum)
    checksums = (
        f"{_combined_checksum(sep_checksums)},{_combined_checksum(map_checksums)}"
    )

    csv_lines = [
        "label,accelerators,separation_ticks,mapping_ticks,"
        "separation_checksum,mapping_checksum"
    ]
    text_lines = [
        f"workload: {workload.n_channels} channels x {workload.n_samples} "
        f"samples, {REPETITIONS} repetitions per channel",
    ]
    for a in ACCELERATOR_COUNTS:
        sep, mapped = REPETITIONS * sep_ticks[a], REPETITIONS * map_ticks[a]
        csv_lines.append(f"accel{a},{a},{sep},{mapped},{checksums}")
        text_lines.append(f"accel{a}: separation {sep} ticks, mapping {mapped} ticks")
    serial, paired = ACCELERATOR_COUNTS
    text_lines.append(
        f"speedup accel{serial}/accel{paired}: "
        f"separation {sep_ticks[serial] / sep_ticks[paired]:.4f}, "
        f"mapping {map_ticks[serial] / map_ticks[paired]:.4f}"
    )
    text_lines.append("outputs identical: yes")
    return {
        "csv": "\n".join(csv_lines) + "\n",
        "text": "\n".join(text_lines) + "\n",
        "wall_clock_s": sep_seconds,
    }
