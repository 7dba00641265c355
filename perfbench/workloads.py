"""The three benchmark workloads: inputs from a seed, timed steps, checks.

Every workload is a closed loop with one caller. A cycle is a fixed,
seed-determined list of steps; the runner repeats cycles until the run's
time is up. Steps of kind ``"op"`` are the operations whose latency is
reported; other kinds (``"simulate"``, ``"bench"``) are timed CLI commands
that run alongside them. Each step's ``check`` validates the outputs and
returns the integer decisions for the digest plus quality samples.

protocol    the paper's evaluation loop, one 3 x 5000 realization per op
wide_array  one 48 x 30720 recording per op, working set beyond L2
cli_files   the shipped CLI chain on CSV files, one file per op
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FS = 512.0
BAND = (80.0, 90.0)
SPLIT_TOLERANCE = 1e-9
ONSET_HORIZON_MS = 100.0

PROTOCOL_REALIZATIONS = 200
WIDE_COPIES = 16            # of the 45/55/85 Hz three-channel pattern
WIDE_SAMPLES = 30720        # 60 s at 512 Hz
WIDE_RECORDINGS = 4
CLI_FILES_PER_BATCH = 8
CLI_BATCHES = 4


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Outcome:
    """What one checked step contributes to the digest and quality figures."""

    decisions: list = field(default_factory=list)
    corr85: list = field(default_factory=list)
    onset_error_ms: list = field(default_factory=list)
    onset_hit: list = field(default_factory=list)
    paired_win: list = field(default_factory=list)


@dataclass
class Step:
    kind: str
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# checks and quality, written against the definitions, not package helpers


def placed_burst(n, start, length, freq_hz):
    """Clean burst shape at its true place: a sinusoid under a Hann taper."""
    out = np.zeros(n)
    t = np.arange(length)
    out[start:start + length] = np.sin(2.0 * np.pi * freq_hz * t / FS) * np.hanning(length)
    return out


def pearson(a, b):
    return float(np.corrcoef(a, b)[0, 1])


def check_split(x, oscillatory, transient, where):
    err = float(np.max(np.abs(oscillatory + transient - x)))
    if not err < SPLIT_TOLERANCE:
        raise CheckFailed(f"{where}: |osc + trans - x| = {err:.3g}")


def check_map(values, where):
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{where}: map has non-finite values")
    if np.any(values < 0):
        raise CheckFailed(f"{where}: map has negative values")


def check_onset(onset, n, where):
    if not -1 <= onset < n:
        raise CheckFailed(f"{where}: onset {onset} outside [-1, {n})")


def onset_quality(onset, channels, true_start, burst_channels, n):
    """Onset error in ms and whether it is a +-100 ms hit.

    A missed detection (onset -1) costs the whole record. A hit also needs
    one of the burst channels in the detected set.
    """
    err_ms = (n if onset < 0 else abs(onset - true_start)) * 1000.0 / FS
    hit = onset >= 0 and err_ms <= ONSET_HORIZON_MS and bool(set(burst_channels) & set(channels))
    return err_ms, hit


def separation_decisions(results):
    return [
        [r.mask_used.window.start_sample, r.mask_used.window.length_samples,
         sorted(r.mask_used.scales), r.detection_center_sample]
        for r in results
    ]


# ---------------------------------------------------------------------------
# protocol


class Protocol:
    """Criteria 4 and 6 of the paper's evaluation, one realization per op."""

    name = "protocol"
    op_name = "realization"
    reference_args = {"n": 5000}

    def __init__(self, gs, seed, workdir):
        self.gs = gs
        self.config = gs.SimConfig(rng_seed=seed, n_realizations=PROTOCOL_REALIZATIONS)

    def _op(self, idx):
        gs = self.gs
        signal, truth = gs.build_realization(self.config, idx)
        results = [
            gs.separate(signal.data[ch], truth.channels[ch].burst_freq_hz,
                        signal.sample_rate_hz)
            for ch in range(signal.n_channels)
        ]
        despiked = gs.MultiChannelSignal(
            sample_rate_hz=signal.sample_rate_hz,
            channel_labels=signal.channel_labels,
            data=np.vstack([r.oscillatory for r in results]),
        )
        map_d = gs.spatiotemporal_map(despiked, BAND)
        map_r = gs.spatiotemporal_map(signal, BAND)
        return (signal, truth, results, map_d, gs.detect_buildup(map_d),
                map_r, gs.detect_buildup(map_r))

    def _check(self, idx, out):
        signal, truth, results, map_d, det_d, map_r, det_r = out
        where = f"realization {idx}"
        n = signal.n_samples
        for ch, r in enumerate(results):
            check_split(signal.data[ch], r.oscillatory, r.transient, f"{where} ch{ch + 1}")
        check_map(map_d.values, f"{where} despiked")
        check_map(map_r.values, f"{where} raw")
        check_onset(det_d.onset_sample, n, where)
        check_onset(det_r.onset_sample, n, where)

        gamma = next(ch for ch, ct in enumerate(truth.channels) if ct.burst_freq_hz == 85.0)
        burst = truth.channels[gamma].burst_window
        outcome = Outcome(decisions=[
            separation_decisions(results),
            [det_d.onset_sample, sorted(det_d.channel_indices)],
            [det_r.onset_sample, sorted(det_r.channel_indices)],
        ])
        outcome.corr85.append(pearson(
            results[gamma].oscillatory,
            placed_burst(n, burst.start_sample, burst.length_samples, 85.0),
        ))
        err_d, hit = onset_quality(det_d.onset_sample, det_d.channel_indices,
                                   burst.start_sample, [gamma], n)
        err_r, _ = onset_quality(det_r.onset_sample, det_r.channel_indices,
                                 burst.start_sample, [gamma], n)
        channel_fixed = (gamma in det_d.channel_indices
                         and gamma not in det_r.channel_indices)
        outcome.onset_error_ms.append(err_d)
        outcome.onset_hit.append(hit)
        outcome.paired_win.append(err_d < err_r or channel_fixed)
        return outcome

    def steps(self):
        return [
            Step("op", lambda i=i: self._op(i), lambda out, i=i: self._check(i, out))
            for i in range(self.config.n_realizations)
        ]


# ---------------------------------------------------------------------------
# wide_array


class WideArray:
    """Long many-electrode recordings: 16 copies of the 45/55/85 Hz pattern."""

    name = "wide_array"
    op_name = "recording"
    reference_args = {"n": WIDE_SAMPLES}
    channel_samples_per_op = 3 * WIDE_COPIES * WIDE_SAMPLES

    def __init__(self, gs, seed, workdir):
        self.gs = gs
        config = gs.SimConfig(rng_seed=seed, n_samples=WIDE_SAMPLES,
                              n_realizations=WIDE_COPIES * WIDE_RECORDINGS)
        self.recordings = []
        for rec in range(WIDE_RECORDINGS):
            parts = [gs.build_realization(config, rec * WIDE_COPIES + j)
                     for j in range(WIDE_COPIES)]
            data = np.vstack([signal.data for signal, _ in parts])
            freqs = [ct.burst_freq_hz for _, truth in parts for ct in truth.channels]
            bursts = [ct.burst_window for _, truth in parts for ct in truth.channels]
            labels = tuple(f"e{c + 1}" for c in range(data.shape[0]))
            signal = gs.MultiChannelSignal(sample_rate_hz=FS, channel_labels=labels,
                                           data=data)
            self.recordings.append((signal, freqs, bursts))

    def _op(self, rec):
        gs = self.gs
        signal, freqs, _ = self.recordings[rec]
        results = [
            gs.separate(signal.data[ch], freqs[ch], signal.sample_rate_hz)
            for ch in range(signal.n_channels)
        ]
        despiked = gs.MultiChannelSignal(
            sample_rate_hz=signal.sample_rate_hz,
            channel_labels=signal.channel_labels,
            data=np.vstack([r.oscillatory for r in results]),
        )
        energy_map = gs.spatiotemporal_map(despiked, BAND)
        return results, energy_map, gs.detect_buildup(energy_map)

    def _check(self, rec, out):
        results, energy_map, det = out
        signal, freqs, bursts = self.recordings[rec]
        where = f"recording {rec}"
        n = signal.n_samples
        for ch, r in enumerate(results):
            check_split(signal.data[ch], r.oscillatory, r.transient, f"{where} e{ch + 1}")
        check_map(energy_map.values, where)
        check_onset(det.onset_sample, n, where)

        gamma = [ch for ch, f in enumerate(freqs) if f == 85.0]
        outcome = Outcome(decisions=[
            separation_decisions(results),
            [det.onset_sample, sorted(det.channel_indices)],
        ])
        for ch in gamma:
            b = bursts[ch]
            outcome.corr85.append(pearson(
                results[ch].oscillatory,
                placed_burst(n, b.start_sample, b.length_samples, 85.0),
            ))
        err, hit = onset_quality(det.onset_sample, det.channel_indices,
                                 bursts[gamma[0]].start_sample, gamma, n)
        outcome.onset_error_ms.append(err)
        outcome.onset_hit.append(hit)
        return outcome

    def steps(self):
        return [
            Step("op", lambda r=r: self._op(r), lambda out, r=r: self._check(r, out))
            for r in range(WIDE_RECORDINGS)
        ]


# ---------------------------------------------------------------------------
# cli_files


class CliFiles:
    """``simulate`` batches, ``despike`` + ``map`` per file, and ``bench``.

    Commands run in process through ``gammasep.cli.main``; their outputs
    are read back from disk for the checks.
    """

    name = "cli_files"
    op_name = "analyze"
    reference_args = {"n": 5000, "text": True}
    files_per_batch = CLI_FILES_PER_BATCH

    def __init__(self, gs, seed, workdir):
        self.gs = gs
        self.seed = seed
        self.workdir = Path(workdir)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def _cli(self, *argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.gs.cli.main([str(a) for a in argv])
        if code != 0:
            raise CheckFailed(f"gammasep {argv[0]} exited {code}: {sink.getvalue().strip()}")
        return code

    def _batch_dir(self, batch):
        return self.workdir / f"sim{batch}"

    def _simulate(self, batch):
        return self._cli("simulate", "--seed", self.seed * 1000 + batch,
                         "--realizations", CLI_FILES_PER_BATCH,
                         "--out", self._batch_dir(batch))

    def _check_simulate(self, batch):
        for k in range(CLI_FILES_PER_BATCH):
            stem = self._batch_dir(batch) / f"realization_{k:03d}"
            if not (stem.with_suffix(".csv").is_file()
                    and stem.with_suffix(".manifest").is_file()):
                raise CheckFailed(f"simulate batch {batch}: {stem.name} missing")
        return Outcome()

    def _analyze(self, batch, k):
        source = self._batch_dir(batch) / f"realization_{k:03d}.csv"
        self._cli("despike", source, "--freq", "45,55,85",
                  "--out", self.workdir / "despike")
        self._cli("map", self.workdir / "despike" / "oscillatory.csv",
                  "--out", self.workdir / "map")
        return source

    def _check_analyze(self, batch, k, source):
        read = self.gs.cli.read_signal_csv
        kv = self.gs.cli.read_manifest
        where = f"batch {batch} file {k}"
        x = read(source)
        osc = read(self.workdir / "despike" / "oscillatory.csv")
        trans = read(self.workdir / "despike" / "transient.csv")
        energy = read(self.workdir / "map" / "map.csv")
        for ch in range(x.n_channels):
            check_split(x.data[ch], osc.data[ch], trans.data[ch], f"{where} ch{ch + 1}")
        check_map(energy.data, where)
        masks = kv(self.workdir / "despike" / "masks.txt")
        det = kv(self.workdir / "map" / "detection.txt")
        truth = kv(source.with_suffix(".manifest"))
        onset = int(det["onset_sample"])
        check_onset(onset, x.n_samples, where)
        channels = [int(c) for c in det["channel_indices"].split(",") if c]

        outcome = Outcome(decisions=[
            [[int(masks[f"ch{ch + 1}.{key}"]) for key in
              ("mask_start", "mask_length", "detection_center")]
             + [masks[f"ch{ch + 1}.mask_scales"]] for ch in range(x.n_channels)],
            [onset, channels],
        ])
        gamma = next(ch for ch in range(x.n_channels)
                     if float(truth[f"ch{ch + 1}.burst_freq_hz"]) == 85.0)
        start = int(truth[f"ch{gamma + 1}.burst_start"])
        length = int(truth[f"ch{gamma + 1}.burst_length"])
        outcome.corr85.append(pearson(osc.data[gamma],
                                      placed_burst(x.n_samples, start, length, 85.0)))
        err, hit = onset_quality(onset, channels, start, [gamma], x.n_samples)
        outcome.onset_error_ms.append(err)
        outcome.onset_hit.append(hit)
        return outcome

    def _bench(self):
        return self._cli("bench", "--seed", self.seed, "--out", self.workdir / "bench")

    def _check_bench(self):
        text = (self.workdir / "bench" / "bench.txt").read_text()
        if "outputs identical: yes" not in text:
            raise CheckFailed("bench: accelerated outputs differ from serial")
        if not (self.workdir / "bench" / "bench.csv").is_file():
            raise CheckFailed("bench: bench.csv missing")
        return Outcome()

    def steps(self):
        steps = []
        for b in range(CLI_BATCHES):
            steps.append(Step("simulate", lambda b=b: self._simulate(b),
                              lambda out, b=b: self._check_simulate(b)))
            for k in range(CLI_FILES_PER_BATCH):
                steps.append(Step(
                    "op", lambda b=b, k=k: self._analyze(b, k),
                    lambda out, b=b, k=k: self._check_analyze(b, k, out)))
            steps.append(Step("bench", self._bench, lambda out: self._check_bench()))
        return steps


WORKLOADS = {w.name: w for w in (Protocol, WideArray, CliFiles)}


# ---------------------------------------------------------------------------
# first-call warm-up, timed by the set-up probe


def warm_up(gs, name, seed, workdir):
    """The first call a user of each workload pays after import."""
    if name == "protocol":
        Protocol(gs, seed, workdir)._op(0)
    elif name == "wide_array":
        config = gs.SimConfig(rng_seed=seed, n_samples=WIDE_SAMPLES)
        signal, truth = gs.build_realization(config, 0)
        result = gs.separate(signal.data[2], truth.channels[2].burst_freq_hz, FS)
        one = gs.MultiChannelSignal(sample_rate_hz=FS, channel_labels=("e1",),
                                    data=result.oscillatory[None, :])
        gs.detect_buildup(gs.spatiotemporal_map(one, BAND))
    else:
        workload = CliFiles(gs, seed, workdir)
        workload._cli("simulate", "--seed", seed, "--realizations", 1,
                      "--out", workload._batch_dir(0))
        workload._analyze(0, 0)
