"""Command-line front end: simulate, despike, map, bench.

Signals travel as a small CSV dialect: a `# rate=<Hz>` line, a label line,
then one row per sample with full-precision decimal values. Ground truth and
detections are flat key=value text, maps additionally render to an ASCII
grayscale PGM. All commands are deterministic given their config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import despike, simulate, tfmap, tickmodel
from .signal_core import MultiChannelSignal
from .swt import wavelet_filters

__all__ = [
    "RunConfig",
    "SignalFormatError",
    "main",
    "read_manifest",
    "read_signal_csv",
    "write_map_pgm",
    "write_signal_csv",
]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_DETECTION = 3

PGM_TIME_BIN = 10


class SignalFormatError(ValueError):
    """Malformed signal file; message carries the offending line number."""


@dataclass(frozen=True)
class RunConfig:
    """Everything tunable from the command line or a JSON config file."""

    sample_rate_hz: float = 512.0
    n_samples: int = 5000
    burst_freqs_hz: tuple = (45.0, 55.0, 85.0)
    overlap_regimes: tuple = ("separated", "overlapped", "fully_overlapped")
    snr_db: float = 5.0
    n_realizations: int = 200
    rng_seed: int = 0
    noise_exponent: float = 1.0
    burst_amplitude_uv: float = 50.0
    transient_amplitude_uv: float = 100.0
    transient_width_ms: float = 20.0
    wavelet: str = "db4"
    levels: int = 5
    target_freq_hz: tuple = (85.0,)
    band_hz: tuple = (80.0, 90.0)
    k_sigma: float = tfmap.DEFAULT_K_SIGMA
    accelerators: tuple = (0, 2)
    bench_repetitions: int = 200
    out_dir: str = "out"

    def sim_config(self):
        return simulate.SimConfig(
            sample_rate_hz=self.sample_rate_hz,
            n_samples=self.n_samples,
            burst_freqs_hz=self.burst_freqs_hz,
            overlap_regimes=self.overlap_regimes,
            snr_db=self.snr_db,
            n_realizations=self.n_realizations,
            rng_seed=self.rng_seed,
            noise_exponent=self.noise_exponent,
            burst_amplitude_uv=self.burst_amplitude_uv,
            transient_amplitude_uv=self.transient_amplitude_uv,
            transient_width_ms=self.transient_width_ms,
        )


def load_config(path):
    """RunConfig from a JSON file; unknown keys are rejected."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SignalFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SignalFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise SignalFormatError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise SignalFormatError(f"{path}: unknown config keys {unknown}")
    listy = {
        "burst_freqs_hz",
        "overlap_regimes",
        "target_freq_hz",
        "band_hz",
        "accelerators",
    }
    cleaned = {
        key: tuple(value) if key in listy and isinstance(value, list) else value
        for key, value in raw.items()
    }
    return RunConfig(**cleaned)


# ---------------------------------------------------------------------------
# formats


def write_signal_csv(path, signal):
    """Signal to CSV with full-precision (round-trip exact) values."""
    lines = [f"# rate={signal.sample_rate_hz!r}", ",".join(signal.channel_labels)]
    cols = signal.data.T
    for row in cols:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_signal_csv(path):
    """Parse the CSV dialect back into a signal, naming bad lines."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SignalFormatError(f"{path}: {exc.strerror or exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# rate="):
        raise SignalFormatError(f"{path}: line 1: expected '# rate=<Hz>' header")
    try:
        rate = float(lines[0][len("# rate=") :])
    except ValueError:
        raise SignalFormatError(f"{path}: line 1: unreadable rate") from None
    if len(lines) < 2:
        raise SignalFormatError(f"{path}: line 2: missing channel labels")
    labels = [lab.strip() for lab in lines[1].split(",")]
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(labels):
            raise SignalFormatError(
                f"{path}: line {lineno}: expected {len(labels)} values, "
                f"got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise SignalFormatError(
                f"{path}: line {lineno}: unreadable value"
            ) from None
    if not rows:
        raise SignalFormatError(f"{path}: no sample rows")
    data = np.array(rows, dtype=np.float64).T
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        linenos = [n for n, line in enumerate(lines[2:], start=3) if line.strip()]
        raise SignalFormatError(
            f"{path}: line {linenos[np.argmin(finite)]}: non-finite value"
        )
    try:
        return MultiChannelSignal(
            sample_rate_hz=rate, channel_labels=tuple(labels), data=data
        )
    except ValueError as exc:
        raise SignalFormatError(f"{path}: {exc}") from exc


def write_keyvalues(path, pairs):
    lines = [f"{key}={value}" for key, value in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path):
    """Flat key=value text back into a dict of strings."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise SignalFormatError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key] = value
    return out


def write_map_pgm(path, energy_map, time_bin=PGM_TIME_BIN):
    """Map to an ASCII grayscale image, one row per channel.

    Time is reduced by averaging fixed-size bins; gray levels ramp linearly
    from zero to the map maximum.
    """
    values = energy_map.values
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
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _freq_for_channel(config, ch):
    targets = config.target_freq_hz
    if len(targets) == 1:
        return targets[0]
    if ch < len(targets):
        return targets[ch]
    raise ValueError(
        f"{len(targets)} target frequencies cannot cover channel {ch + 1}"
    )


def cmd_simulate(config):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim = config.sim_config()
    for idx in range(sim.n_realizations):
        signal, truth = simulate.build_realization(sim, idx)
        stem = f"realization_{idx:03d}"
        write_signal_csv(out / f"{stem}.csv", signal)
        pairs = [
            ("realization", idx),
            ("rng_seed", sim.rng_seed),
            ("sample_rate_hz", repr(sim.sample_rate_hz)),
            ("n_samples", sim.n_samples),
            ("snr_db", repr(sim.snr_db)),
        ]
        for ch, ct in enumerate(truth.channels):
            prefix = f"ch{ch + 1}"
            pairs.extend(
                [
                    (f"{prefix}.burst_freq_hz", repr(ct.burst_freq_hz)),
                    (f"{prefix}.burst_start", ct.burst_window.start_sample),
                    (f"{prefix}.burst_length", ct.burst_window.length_samples),
                    (f"{prefix}.transient_start", ct.transient_window.start_sample),
                    (
                        f"{prefix}.transient_length",
                        ct.transient_window.length_samples,
                    ),
                    (f"{prefix}.overlap_fraction", repr(ct.overlap_fraction)),
                ]
            )
        write_keyvalues(out / f"{stem}.manifest", pairs)
    return EXIT_OK


def cmd_despike(input_path, config):
    signal = read_signal_csv(input_path)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    filters = wavelet_filters(config.wavelet)
    osc_rows = []
    trans_rows = []
    mask_pairs = []
    split_error = 0.0
    for ch in range(signal.n_channels):
        freq = _freq_for_channel(config, ch)
        try:
            result = despike.separate(
                signal.data[ch],
                freq,
                signal.sample_rate_hz,
                filters,
                levels=config.levels,
            )
        except ValueError as exc:
            raise ValueError(f"{signal.channel_labels[ch]}: {exc}") from None
        osc_rows.append(result.oscillatory)
        trans_rows.append(result.transient)
        recombined = result.oscillatory + result.transient
        split_error = max(
            split_error, float(np.max(np.abs(recombined - signal.data[ch])))
        )
        prefix = f"ch{ch + 1}"
        mask_pairs.extend(
            [
                (f"{prefix}.target_freq_hz", repr(float(freq))),
                (f"{prefix}.detection_center", result.detection_center_sample),
                (f"{prefix}.mask_start", result.mask_used.window.start_sample),
                (f"{prefix}.mask_length", result.mask_used.window.length_samples),
                (
                    f"{prefix}.mask_scales",
                    ",".join(str(s) for s in sorted(result.mask_used.scales)),
                ),
            ]
        )
    mask_pairs.append(("max_split_error", repr(split_error)))
    for name, rows in (("oscillatory", osc_rows), ("transient", trans_rows)):
        write_signal_csv(
            out / f"{name}.csv",
            MultiChannelSignal(
                sample_rate_hz=signal.sample_rate_hz,
                channel_labels=signal.channel_labels,
                data=np.vstack(rows),
            ),
        )
    write_keyvalues(out / "masks.txt", mask_pairs)
    return EXIT_OK


def cmd_map(input_path, config):
    signal = read_signal_csv(input_path)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    energy_map = tfmap.spatiotemporal_map(signal, config.band_hz)
    detection = tfmap.detect_buildup(energy_map, config.k_sigma)
    write_signal_csv(
        out / "map.csv",
        MultiChannelSignal(
            sample_rate_hz=signal.sample_rate_hz,
            channel_labels=signal.channel_labels,
            data=energy_map.values,
        ),
    )
    names = [signal.channel_labels[ch] for ch in sorted(detection.channel_indices)]
    write_keyvalues(
        out / "detection.txt",
        [
            ("band_hz", f"{config.band_hz[0]!r}:{config.band_hz[1]!r}"),
            ("detected", "yes" if detection.detected else "no"),
            ("onset_sample", detection.onset_sample),
            (
                "channel_indices",
                ",".join(str(ch) for ch in sorted(detection.channel_indices)),
            ),
            ("channel_labels", ",".join(names)),
            ("peak_energy", repr(detection.peak_energy)),
            ("k_sigma", repr(float(config.k_sigma))),
        ],
    )
    write_map_pgm(out / "map.pgm", energy_map)
    return EXIT_OK


def cmd_bench(config):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim = config.sim_config()
    workload, _ = simulate.build_realization(sim, 0)
    pipeline_configs = [
        tickmodel.PipelineConfig(accelerators=a, data_capacity=config.n_samples)
        for a in config.accelerators
    ]
    report = tickmodel.benchmark_report(
        pipeline_configs,
        workload,
        repetitions=config.bench_repetitions,
        target_freq_hz=config.target_freq_hz[-1],
        band_hz=config.band_hz,
    )
    (out / "bench.csv").write_text(report["csv"])
    (out / "bench.txt").write_text(report["text"])
    print(f"software reference wall-clock: {report['wall_clock_s']:.3f} s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_band(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("band must look like LO:HI")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"unreadable band {text!r}") from None


def _parse_freqs(text):
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"unreadable frequency list {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gammasep",
        description="separate gamma oscillations from transients, map band "
        "energy over channels, and model the pipeline's tick costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help="output directory")

    p_sim = sub.add_parser("simulate", help="generate the simulated dataset")
    common(p_sim)
    p_sim.add_argument(
        "--realizations", type=int, help="override the realization count"
    )

    p_spike = sub.add_parser("despike", help="split a recording into parts")
    common(p_spike)
    p_spike.add_argument("input", help="signal CSV to process")
    p_spike.add_argument(
        "--freq",
        type=_parse_freqs,
        help="target frequency in Hz, or one per channel separated by commas",
    )

    p_map = sub.add_parser("map", help="channel x time band energy map")
    common(p_map)
    p_map.add_argument("input", help="signal CSV to process")
    p_map.add_argument("--band", type=_parse_band, help="band as LO:HI in Hz")

    p_bench = sub.add_parser("bench", help="tick-cost benchmark report")
    common(p_bench)
    p_bench.add_argument(
        "--accel",
        type=int,
        choices=(0, 2),
        help="run a single accelerator configuration",
    )
    return parser


def _merge_config(args):
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "realizations", None) is not None:
        overrides["n_realizations"] = args.realizations
    if getattr(args, "freq", None) is not None:
        overrides["target_freq_hz"] = args.freq
    if getattr(args, "band", None) is not None:
        overrides["band_hz"] = args.band
    if getattr(args, "accel", None) is not None:
        overrides["accelerators"] = (args.accel,)
    return replace(config, **overrides) if overrides else config


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "despike":
            return cmd_despike(args.input, config)
        if args.command == "map":
            return cmd_map(args.input, config)
        if args.command == "bench":
            return cmd_bench(config)
        parser.error(f"unknown command {args.command!r}")
    except despike.NoDetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_DETECTION
    except (SignalFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
