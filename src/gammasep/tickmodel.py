"""Deterministic tick-cost model of the separation and mapping pipelines.

Each pipeline is a fixed list of stages; a stage costs samples x taps ticks.
With zero accelerators every stage serializes. With two accelerators the
separation pipeline runs each low/high filter pair concurrently (the pair
costs its maximum), while the mapping pipeline splits every stage's batch
across the two units (each stage costs half, rounded up). Scheduling never
touches the arithmetic, so outputs are identical across configurations and
are reported with a checksum to prove it.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import despike, tfmap
from .swt import wavelet_filters
from .tfmap import MorletParams, morlet_kernel

__all__ = [
    "PipelineConfig",
    "Stage",
    "TickReport",
    "benchmark_report",
    "mapping_stages",
    "quantize_microvolts",
    "run_mapping_pipeline",
    "run_pipeline",
    "separation_stages",
]

QUANT_LOW_UV = -100.0
QUANT_LEVELS = 250
# schedules the model covers: sequential, and two parallel convolution units
ACCELERATOR_COUNTS = (0, 2)


@dataclass(frozen=True)
class Stage:
    """One multiply-accumulate batch: n_values samples by taps coefficients.

    Stages sharing a group id may run concurrently on separate accelerators;
    writes lists (memory name, sample count) pairs logged when the stage runs.
    """

    name: str
    n_values: int
    taps: int
    group: str = None
    writes: tuple = ()

    @property
    def cost(self):
        return self.n_values * self.taps


@dataclass(frozen=True)
class PipelineConfig:
    """Accelerator count, quantization switch, and data-vector capacity."""

    accelerators: int = 0
    quantize_input: bool = False
    data_capacity: int = 5000

    def __post_init__(self):
        if self.accelerators not in ACCELERATOR_COUNTS:
            raise ValueError(
                f"accelerators must be 0 or 2, got {self.accelerators}"
            )
        if self.data_capacity < 1:
            raise ValueError(
                f"data_capacity must be positive, got {self.data_capacity}"
            )


@dataclass(frozen=True)
class TickReport:
    total_ticks: int
    per_stage_ticks: dict
    per_memory_writes: dict
    output_checksum: int


def quantize_microvolts(x):
    """Snap amplitudes to the 250 stored integer microvolt levels.

    Values are clipped to [-100, 149] and rounded to whole microvolts,
    a 1 uV step across the stored range.
    """
    x = np.asarray(x, dtype=np.float64)
    levels = np.clip(np.rint(x - QUANT_LOW_UV), 0, QUANT_LEVELS - 1)
    return levels + QUANT_LOW_UV


def _checksum(arr):
    return zlib.crc32(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _pair_max_ticks(stages, accelerators):
    """Serial sum, except grouped stages cost their max when accelerated."""
    per_stage = {s.name: s.cost for s in stages}
    if accelerators == 0:
        return sum(per_stage.values()), per_stage
    total = 0
    seen_groups = {}
    for s in stages:
        if s.group is None:
            total += s.cost
        else:
            seen_groups.setdefault(s.group, []).append(s.cost)
    for costs in seen_groups.values():
        total += max(costs)
    return total, per_stage

def _split_ticks(stages, accelerators):
    """Every stage's batch divided evenly across the accelerators."""
    divisor = max(1, accelerators)
    per_stage = {s.name: -(-s.cost // divisor) for s in stages}
    return sum(per_stage.values()), per_stage


def _memory_writes(stages):
    writes = {}
    for s in stages:
        for memory, count in s.writes:
            writes[memory] = writes.get(memory, 0) + count
    return writes


def _admit(x, config):
    """Input as float64, checked against the data-vector capacity and
    quantized first when the config asks for it."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != config.data_capacity:
        raise ValueError(
            f"input length {x.size} does not match data-vector capacity "
            f"{config.data_capacity}"
        )
    return quantize_microvolts(x) if config.quantize_input else x


def _report(stages, ticks, output):
    total, per_stage = ticks
    return TickReport(
        total_ticks=total,
        per_stage_ticks=per_stage,
        per_memory_writes=_memory_writes(stages),
        output_checksum=_checksum(output),
    )


def separation_stages(n_samples, filters, levels, mask):
    """Stage list of the separation pipeline for one channel.

    Analysis and synthesis convolutions come in low/high pairs per level,
    masking costs one pass over the detail stack and one over the deepest
    approximation, and each synthesis level ends with a serial combine.
    Memory traffic follows the chain: analysis outputs land in Msa/Msd,
    masked coefficients in Ma/Md with the complement in Mat/Mdt, and the
    final reconstruction is written out externally. The stage list is
    structural: the mask's placement does not change it.
    """
    n = int(n_samples)
    k = filters.length
    stages = []
    for j in range(1, levels + 1):
        stages.append(
            Stage(f"analysis_lo_L{j}", n, k, group=f"analysis_L{j}",
                  writes=(("Msa", n),))
        )
        stages.append(
            Stage(f"analysis_hi_L{j}", n, k, group=f"analysis_L{j}",
                  writes=(("Msd", n),))
        )
    stages.append(
        Stage("mask_details", n * levels, 1, group="mask",
              writes=(("Md", n * levels), ("Mdt", n * levels)))
    )
    stages.append(
        Stage("mask_approx", n, 1, group="mask",
              writes=(("Ma", n), ("Mat", n)))
    )
    for j in range(levels, 0, -1):
        stages.append(
            Stage(f"synthesis_lo_L{j}", n, k, group=f"synthesis_L{j}")
        )
        stages.append(
            Stage(f"synthesis_hi_L{j}", n, k, group=f"synthesis_L{j}")
        )
        combine_writes = (("external", n),) if j == 1 else ()
        stages.append(Stage(f"combine_L{j}", n, 1, writes=combine_writes))
    return stages


def run_pipeline(x, config, filters=None, levels=despike.DEFAULT_LEVELS,
                 sample_rate_hz=512.0, target_freq_hz=85.0):
    """Oscillatory part from `despike.separate` plus its tick accounting.

    Quantization, when enabled, snaps the input before anything runs.
    """
    x = _admit(x, config)
    if filters is None:
        filters = wavelet_filters("db4")
    result = despike.separate(x, target_freq_hz, sample_rate_hz, filters, levels)
    stages = separation_stages(x.size, filters, levels, result.mask_used)
    return result.oscillatory, _report(
        stages, _pair_max_ticks(stages, config.accelerators), result.oscillatory
    )


def mapping_stages(n_samples, params, band_hz):
    """Stage list of the band-energy mapping pipeline for one channel.

    A band-pass FIR, one convolution per scale (each writing a row into Mw),
    the cross-scale energy mean, the wide smoother (Ms), the low-band
    normalization path, and the final division (Mn).
    """
    n = int(n_samples)
    bp_len = tfmap.bandpass_taps(band_hz, params.sample_rate_hz).size
    stages = [Stage("bandpass_band", n, bp_len)]
    for i, a in enumerate(params.scales):
        klen = morlet_kernel(params, a).size
        stages.append(Stage(f"scale_conv_{i}", n, klen, writes=(("Mw", n),)))
    stages.append(Stage("band_energy_mean", n, len(params.scales)))
    stages.append(Stage("smooth_band", n, tfmap.SMOOTH_WIDTH, writes=(("Ms", n),)))
    stages.append(Stage("bandpass_low", n, bp_len))
    stages.append(Stage("square_low", n, 1))
    stages.append(Stage("smooth_low", n, tfmap.SMOOTH_WIDTH, writes=(("Ms", n),)))
    stages.append(Stage("normalize", n, 1, writes=(("Mn", n),)))
    return stages


def run_mapping_pipeline(x, config, params, band_hz):
    """`tfmap.map_row`'s normalized band-energy row plus its tick accounting.

    Ticks are structural: they depend on the stage list, never on the data.
    """
    x = _admit(x, config)
    output = tfmap.map_row(x, band_hz, params)
    stages = mapping_stages(x.size, params, band_hz)
    return output, _report(
        stages, _split_ticks(stages, config.accelerators), output
    )


def benchmark_report(configs, workload, repetitions=200, target_freq_hz=85.0,
                     band_hz=(80.0, 90.0)):
    """Tick totals and ratios for each config over a repeated workload.

    Every channel of the workload runs `repetitions` times through both
    pipelines (ticks are data-independent, so repetition multiplies). The
    returned dict carries a CSV table and a text summary, both reproducible
    byte for byte, plus the wall-clock seconds of the first config's
    `run_pipeline` calls (one software separation pass over the workload),
    kept out of the deterministic parts.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    fs = workload.sample_rate_hz
    filters = wavelet_filters("db4")
    n = workload.n_samples
    params = MorletParams.for_band(band_hz, fs)

    rows = []
    for config in configs:
        sep_total = 0
        map_total = 0
        sep_checksums = []
        map_checksums = []
        sep_seconds = 0.0
        for ch in range(workload.n_channels):
            x = workload.data[ch]
            start = time.perf_counter()
            _, sep_report = run_pipeline(
                x, config, filters=filters, sample_rate_hz=fs,
                target_freq_hz=target_freq_hz,
            )
            sep_seconds += time.perf_counter() - start
            _, map_report = run_mapping_pipeline(x, config, params, band_hz)
            sep_total += sep_report.total_ticks * repetitions
            map_total += map_report.total_ticks * repetitions
            sep_checksums.append(sep_report.output_checksum)
            map_checksums.append(map_report.output_checksum)
        rows.append(
            {
                "label": f"accel{config.accelerators}",
                "accelerators": config.accelerators,
                "separation_ticks": sep_total,
                "mapping_ticks": map_total,
                "separation_s": sep_seconds,
                "separation_checksum": zlib.crc32(
                    b"".join(c.to_bytes(4, "little") for c in sep_checksums)
                ),
                "mapping_checksum": zlib.crc32(
                    b"".join(c.to_bytes(4, "little") for c in map_checksums)
                ),
            }
        )

    csv_lines = [
        "label,accelerators,separation_ticks,mapping_ticks,"
        "separation_checksum,mapping_checksum"
    ]
    for row in rows:
        csv_lines.append(
            "{label},{accelerators},{separation_ticks},{mapping_ticks},"
            "{separation_checksum},{mapping_checksum}".format(**row)
        )

    text_lines = [
        f"workload: {workload.n_channels} channels x {n} samples, "
        f"{repetitions} repetitions per channel",
    ]
    for row in rows:
        text_lines.append(
            "{label}: separation {separation_ticks} ticks, "
            "mapping {mapping_ticks} ticks".format(**row)
        )
    if len(rows) >= 2:
        base = min(rows, key=lambda r: r["accelerators"])
        for row in rows:
            if row is base or row["accelerators"] == base["accelerators"]:
                continue
            sep_ratio = base["separation_ticks"] / row["separation_ticks"]
            map_ratio = base["mapping_ticks"] / row["mapping_ticks"]
            text_lines.append(
                f"speedup {base['label']}/{row['label']}: "
                f"separation {sep_ratio:.4f}, mapping {map_ratio:.4f}"
            )
            text_lines.append(
                "outputs identical: "
                + (
                    "yes"
                    if row["separation_checksum"] == base["separation_checksum"]
                    and row["mapping_checksum"] == base["mapping_checksum"]
                    else "no"
                )
            )
    return {
        "csv": "\n".join(csv_lines) + "\n",
        "text": "\n".join(text_lines) + "\n",
        "wall_clock_s": rows[0]["separation_s"],
    }
