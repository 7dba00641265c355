"""Command-line front end: simulate, despike, map, bench.

Signals travel as a small CSV dialect in UTF-8: a `# rate=<Hz>` line, a
line of comma-separated channel labels, then one row per sample with one
value per channel. Values are written as Python's `repr` writes a float, the
shortest decimal that reads back to the same bits; a run of silent lines,
every value +0.0, is written as one repeated line of those same bytes.
Values are read as `float()` reads them (surrounding whitespace, `1_000`,
`nan` and `inf` included; a non-finite value is then refused, naming its
line). Blank body lines are skipped but still counted in the line numbers of
error messages. A label may not hold a comma or a line break, nor start or
end with whitespace: `write_signal_csv` refuses one that would not read back
as itself. Ground truth and detections are flat key=value text, maps
additionally render to an ASCII grayscale PGM; every file is UTF-8. All
commands are deterministic given their config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import despike, simulate, tfmap, tickmodel
from .signal_core import MultiChannelSignal, number_tuple, require_band

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
    top-level keys named after the `SimConfig` fields. The analysis is
    fixed apart from its frequencies: `despike` separates with db4, built
    and checked once per process, over `despike.DEFAULT_LEVELS` levels,
    and `map` detects at `tfmap.K_SIGMA` MADs.
    """

    sim: simulate.SimConfig = simulate.SimConfig()
    target_freq_hz: tuple = (85.0,)
    band_hz: tuple = (80.0, 90.0)
    out_dir: str = "out"

    def __post_init__(self):
        """Check the analysis settings; lists become tuples.

        Raises TypeError for a value of the wrong kind and ValueError for
        one out of range, before any command reads or writes a file.
        """
        targets = number_tuple("target_freq_hz", self.target_freq_hz)
        if not targets or min(targets) <= 0:
            raise ValueError(
                f"target_freq_hz must list positive frequencies, got {list(targets)}"
            )
        band = number_tuple("band_hz", self.band_hz)
        # the input brings the rate, so only the edges' order is checked here
        require_band("band_hz", band, np.inf)
        if not isinstance(self.out_dir, str):
            raise TypeError(f"out_dir must be a string, got {self.out_dir!r}")
        object.__setattr__(self, "target_freq_hz", tuple(map(float, targets)))
        object.__setattr__(self, "band_hz", tuple(map(float, band)))


def load_config(path):
    """RunConfig from a JSON file; unknown keys and bad settings are rejected."""
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SignalFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        # an integer past Python's int-string digit limit
        raise SignalFormatError(f"{path}: {exc}") from exc
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


def _read_text(path):
    """A file's UTF-8 text; a file that cannot be read or decoded raises
    SignalFormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SignalFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SignalFormatError(f"{path}: {exc}") from exc


def write_signal_csv(path, signal):
    """Signal to CSV with full-precision (round-trip exact) values.

    Each value costs one `%r` conversion, except on silent lines, where every
    channel is exactly +0.0: a run of those is one repeated constant line,
    the same bytes `%r` gives. A body without one is one template call.

    Raises ValueError, before the file is opened, for a channel label that
    would not read back as itself: one that holds a comma or a line break,
    or starts or ends with whitespace.
    """
    for label in signal.channel_labels:
        if "," in label or label != label.strip() or len(label.splitlines()) > 1:
            raise ValueError(
                f"channel label {label!r} cannot be written to {path}: labels "
                "may not hold a comma or a line break, nor start or end with "
                "whitespace"
            )
    data = signal.data
    n_ch, n = data.shape
    row = ",".join(["%r"] * n_ch) + "\n"
    # +0.0 is the one float64 whose bits are all zero, so a line is silent
    # when no channel has a bit set; -0.0 has its sign bit and is written by
    # %r. The edges of the silent runs split the body into live, silent,
    # live, ..., live stretches; a live stretch at either end may be empty.
    silent = ~data.view(np.uint64).any(axis=0)
    edges = np.flatnonzero(np.diff(silent, prepend=False, append=False)).tolist()
    bounds = [0, *edges, n]
    silent_line = row % ((0.0,) * n_ch)
    header = f"# rate={signal.sample_rate_hz!r}\n" + ",".join(signal.channel_labels)
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if i % 2:
                out.write(silent_line * (b - a))
            else:
                out.write(row * (b - a) % tuple(data[:, a:b].T.ravel().tolist()))


def _parse_rows(path, lines, width):
    """The body parsed line by line, naming the first line that is wrong."""
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SignalFormatError(
                f"{path}: line {lineno}: expected {width} values, "
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
    return np.array(rows, dtype=np.float64)


def read_signal_csv(path):
    """Parse the CSV dialect back into a signal, naming bad lines."""
    text = _read_text(path)
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
    body = [line for line in lines[2:] if line.strip()]
    # numpy's C reader parses the body in one call, converting each field
    # with the correctly rounded routine float() uses. It also strips U+001F
    # around a field, which float() refuses, so a text holding that
    # character does not go to it. float() reads only a body that reader
    # does not take, or reads to another shape, line by line; that loop
    # also names the first wrong line.
    rows = None
    if body and "\x1f" not in text:
        try:
            rows = np.loadtxt(
                body, delimiter=",", dtype=np.float64, ndmin=2, comments=None
            )
        except ValueError:
            pass
    if rows is None or rows.shape != (len(body), len(labels)):
        rows = _parse_rows(path, lines, len(labels))
    data = rows.T
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path):
    """Flat key=value text back into a dict of strings."""
    out = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
    n_full = n // PGM_TIME_BIN
    edge = n_full * PGM_TIME_BIN
    binned = values[:, :edge].reshape(n_ch, n_full, PGM_TIME_BIN).mean(axis=2)
    if edge < n:
        binned = np.hstack([binned, values[:, edge:].mean(axis=1, keepdims=True)])
    peak = binned.max()
    if peak > 0:
        gray = np.rint(binned / peak * 255).astype(int)
    else:
        gray = np.zeros_like(binned, dtype=int)
    lines = ["P2", f"{binned.shape[1]} {n_ch}", "255"]
    lines.extend(" ".join(map(str, row)) for row in gray.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
            ("sample_rate_hz", repr(simulate.SAMPLE_RATE_HZ)),
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
    osc_rows = []
    trans_rows = []
    mask_pairs = []
    split_error = 0.0
    for ch, freq in enumerate(targets):
        try:
            result = despike.separate(signal.data[ch], freq, signal.sample_rate_hz)
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
    detection = tfmap.detect_buildup(energy_map)
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
            ("k_sigma", repr(tfmap.K_SIGMA)),
        ],
    )
    write_map_pgm(out / "map.pgm", energy_map)
    return EXIT_OK


def cmd_bench(config):
    """Tick-cost report of realization 0 of the configured simulation.

    Every channel is separated at the last of `target_freq_hz` (85 Hz by
    default) and mapped over `band_hz`.
    """
    workload, _ = simulate.build_realization(config.sim, 0)
    report = tickmodel.benchmark_report(
        workload, target_freq_hz=config.target_freq_hz[-1], band_hz=config.band_hz
    )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.csv").write_text(report["csv"], encoding="utf-8")
    (out / "bench.txt").write_text(report["text"], encoding="utf-8")
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


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared by every
    `main` call; parsing leaves it as it was, so do not change it."""
    parser = argparse.ArgumentParser(
        prog="gammasep",
        description="separate gamma oscillations from transients, map band "
        "energy over channels, and model the pipeline's tick costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help="output directory")

    p_sim = sub.add_parser("simulate", help="generate the simulated dataset")
    common(p_sim, seed=True)
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
    common(p_bench, seed=True)
    return parser


def _merge_config(args):
    config = load_config(args.config) if args.config else RunConfig()
    sim = {}
    if getattr(args, "seed", None) is not None:
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
        return cmd_bench(config)
    except despike.NoDetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_DETECTION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
