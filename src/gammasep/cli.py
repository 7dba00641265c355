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
from .simulate import number_tuple, require_integer, require_number
from .swt import wavelet_filters, wavelet_order

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
    """Everything tunable from the command line or a JSON config file.

    The simulation settings live in `sim`; a config file gives them as
    top-level keys named after the `SimConfig` fields.
    """

    sim: simulate.SimConfig = simulate.SimConfig()
    wavelet: str = "db4"
    levels: int = despike.DEFAULT_LEVELS
    target_freq_hz: tuple = (85.0,)
    band_hz: tuple = (80.0, 90.0)
    k_sigma: float = tfmap.DEFAULT_K_SIGMA
    out_dir: str = "out"

    def __post_init__(self):
        """Check the analysis settings; lists become tuples.

        Raises TypeError for a value of the wrong kind and ValueError for
        one out of range, before any command reads or writes a file.
        """
        wavelet_order(self.wavelet)
        require_integer("levels", self.levels)
        targets = number_tuple("target_freq_hz", self.target_freq_hz)
        if not targets or min(targets) <= 0:
            raise ValueError(
                f"target_freq_hz must list positive frequencies, got {list(targets)}"
            )
        band = number_tuple("band_hz", self.band_hz)
        if len(band) != 2 or not 0 < band[0] < band[1]:
            raise ValueError(
                f"band_hz must be [low, high] with 0 < low < high, got {list(band)}"
            )
        require_number("k_sigma", self.k_sigma)
        if self.k_sigma <= 0:
            raise ValueError(f"k_sigma must be positive, got {self.k_sigma}")
        object.__setattr__(self, "target_freq_hz", targets)
        object.__setattr__(self, "band_hz", band)


def load_config(path):
    """RunConfig from a JSON file; unknown keys and bad settings are rejected."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SignalFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SignalFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise SignalFormatError(f"{path}: config must be a JSON object")
    sim_keys = {f.name for f in fields(simulate.SimConfig)}
    run_keys = {f.name for f in fields(RunConfig)} - {"sim"}
    unknown = sorted(set(raw) - sim_keys - run_keys)
    if unknown:
        raise SignalFormatError(f"{path}: unknown config keys {unknown}")
    try:
        sim = simulate.SimConfig(**{k: v for k, v in raw.items() if k in sim_keys})
        return RunConfig(sim=sim, **{k: v for k, v in raw.items() if k in run_keys})
    except (TypeError, ValueError) as exc:
        raise SignalFormatError(f"{path}: {exc}") from None


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


def write_map_pgm(path, energy_map):
    """Map to an ASCII grayscale image, one row per channel.

    Time is reduced by averaging PGM_TIME_BIN-sample bins; gray levels ramp
    linearly from zero to the map maximum.
    """
    values = energy_map.values
    n_ch, n = values.shape
    n_bins = -(-n // PGM_TIME_BIN)
    binned = np.zeros((n_ch, n_bins))
    for b in range(n_bins):
        seg = values[:, b * PGM_TIME_BIN : min((b + 1) * PGM_TIME_BIN, n)]
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


def cmd_simulate(config):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim = config.sim
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
    targets = config.target_freq_hz
    if len(targets) not in (1, signal.n_channels):
        raise ValueError(
            f"{len(targets)} target frequencies for the {signal.n_channels} "
            f"channels of {input_path}: give one for all or one per channel"
        )
    if len(targets) == 1:
        targets = targets * signal.n_channels
    filters = wavelet_filters(config.wavelet)
    osc_rows = []
    trans_rows = []
    mask_pairs = []
    split_error = 0.0
    for ch, freq in enumerate(targets):
        try:
            result = despike.separate(
                signal.data[ch],
                freq,
                signal.sample_rate_hz,
                filters,
                levels=config.levels,
            )
        except (despike.NoDetectionError, ValueError) as exc:
            raise type(exc)(f"{signal.channel_labels[ch]}: {exc}") from None
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
    # every channel is computed before the directory exists, so a failure
    # leaves no empty output directory behind
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    energy_map = tfmap.spatiotemporal_map(signal, config.band_hz)
    detection = tfmap.detect_buildup(energy_map, config.k_sigma)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    workload, _ = simulate.build_realization(config.sim, 0)
    report = tickmodel.benchmark_report(
        workload, target_freq_hz=config.target_freq_hz[-1], band_hz=config.band_hz
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
    return parser


def _merge_config(args):
    config = load_config(args.config) if args.config else RunConfig()
    sim = {}
    if args.seed is not None:
        sim["rng_seed"] = args.seed
    if getattr(args, "realizations", None) is not None:
        sim["n_realizations"] = args.realizations
    overrides = {"sim": replace(config.sim, **sim)} if sim else {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "freq", None) is not None:
        overrides["target_freq_hz"] = args.freq
    if getattr(args, "band", None) is not None:
        overrides["band_hz"] = args.band
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
