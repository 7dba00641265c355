"""gammasep benchmark: one workload per run, checked outputs, optional trace.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ./src and
nowhere else. With ``--trace 0`` it times the workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it times one untraced cycle, then
traced cycles, and prints the per-layer metrics. Readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when an output check failed and 2 when the package cannot be found.

perfbench/README.md describes the workloads and what each metric should move.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the set-up probe times its interpreter from here

import os

THREAD_CAP = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    # numpy sizes its thread pools when first imported, so cap them before
    os.environ[_var] = THREAD_CAP

import argparse
import importlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from loop import Reference, Run, quality, run_cycles, tail

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
REPORTS = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "op_ms_norm": "ms",
    "sep_corr_median_85": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reference pass times, per workload, that normalized figures are scaled to:
# medians measured on a 2-vCPU Xeon VM.
REFERENCE_NOMINAL_S = {"protocol": 2.5e-3, "wide_array": 12e-3, "cli_files": 8e-3}


class PackageMissing(Exception):
    pass


def load_package(root):
    """Import gammasep from ``root/src`` and nowhere else."""
    src = Path(root).resolve() / "src"
    if not (src / "gammasep" / "__init__.py").is_file():
        raise PackageMissing(f"no gammasep package under {src}")
    sys.path.insert(0, str(src))
    gs = importlib.import_module("gammasep")
    importlib.import_module("gammasep.cli")
    if src not in Path(gs.__file__).resolve().parents:
        raise PackageMissing(f"gammasep imported from {gs.__file__}, not {src}")
    return gs


def metadata():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter pays import plus the first call


def probe(workload, seed):
    gs = load_package(ROOT)
    from workloads import warm_up

    warm_up(gs, workload, seed, WORK / f"probe-{workload}")
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


class SetupProbes:
    """Fresh interpreters that each import gammasep and make the first call.

    Called between steps, it runs one probe every ``every_s`` seconds, so
    the samples spread over the whole run instead of one moment of it.
    """

    def __init__(self, workload, seed, every_s):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
                     "--workload", workload, "--seed", str(seed)]
        self.every_s = every_s
        self.samples = []
        self.due = time.perf_counter()

    def probe(self):
        done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])

    def __call__(self):
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.probe()
            self.due += self.every_s

    def median(self):
        """Median of SETUP_PROBES samples, taking any still missing now."""
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reporting


def named_metrics(workload, run, q, setup_s, rss):
    """The workload's figures under their user-facing names, with units."""
    ops = sorted(run.seconds["op"])
    tail_s, tail_pct = tail(ops)
    op = workload.op_name
    rows = [
        (f"{op}_ms_p10", ops[len(ops) // 10] * 1e3, "ms"),
        (f"{op}_ms_p50", statistics.median(ops) * 1e3, "ms"),
        (f"{op}_ms_tail(p{tail_pct:.1f},n={len(ops)})", tail_s * 1e3, "ms"),
    ]
    if workload.name == "protocol":
        rows += [
            ("realizations_per_s", len(ops) / run.busy_s, "1/s"),
            ("onset_hit_rate", q["onset_hit_rate"], "1"),
            ("paired_win_rate", q["paired_win_rate"], "1"),
        ]
    elif workload.name == "wide_array":
        rows += [
            ("channel_samples_per_s",
             len(ops) * workload.channel_samples_per_op / run.busy_s, "1/s"),
            ("onset_hit_rate", q["onset_hit_rate"], "1"),
        ]
    else:
        sims = run.seconds["simulate"]
        rows += [
            ("analyze_files_per_s", len(ops) / sum(ops), "1/s"),
            ("simulate_files_per_s", workload.files_per_batch * len(sims) / sum(sims), "1/s"),
            ("bench_s", statistics.median(run.seconds["bench"]), "s"),
            ("onset_hit_rate", q["onset_hit_rate"], "1"),
        ]
    return rows + [
        ("sep_corr_median_85", q["sep_corr_median_85"], "1"),
        ("onset_error_ms_mean", q["onset_error_ms_mean"], "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss, "MB"),
        ("failed_ratio", len(run.failures) / run.attempted, "1"),
    ]


def speed_factor(workload, run):
    """Measured time times this is time at the reference's nominal speed."""
    return REFERENCE_NOMINAL_S[workload.name] / statistics.fmean(run.reference_s)


def e2e_metrics(workload, run, q, setup_s, rss):
    """The figures a change is judged by.

    Times are scaled to the reference's nominal speed (see loop.py): the
    mean operation latency, and the median set-up time of the probes that
    ran during the same stretch. Percentiles are printed, not judged: each
    belongs to one speed state of the host, so the ratio does not cancel.
    """
    speed = speed_factor(workload, run)
    values = {
        "op_ms_norm": statistics.fmean(run.seconds["op"]) * speed * 1e3,
        "sep_corr_median_85": q["sep_corr_median_85"],
        "peak_rss_mb": rss,
        "setup_s": setup_s * speed,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def write_report(report):
    REPORTS.mkdir(exist_ok=True)
    path = REPORTS / "{workload}-seed{seed}-trace{trace}.json".format(**report)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------


def measure(gs, args):
    """Run the workload and print its figures.

    Returns (steps attempted, failure messages, metrics).
    """
    import layers
    from workloads import WORKLOADS

    meta = metadata()
    print("metadata " + json.dumps(meta, sort_keys=True))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "metadata": meta}
    workload = WORKLOADS[args.workload](gs, args.seed, WORK / args.workload)
    steps = workload.steps()
    reference = Reference(**workload.reference_args)
    # first calls fill lazy state; they are checked but not timed
    warm = Run()
    run_cycles(steps[:1 + (steps[0].kind != "op")], 0.0, warm, reference)
    if args.trace:
        run, tracer, metrics = layers.traced_run(gs, steps, args.seconds, reference)
        q = quality(run.outcomes)
        for name, m in metrics.items():
            print(f"{args.workload:<11} {name:<44} {m['value']!s:>22} {m['unit']}")
        report["spans"] = tracer.span_table()
    else:
        run = Run()
        probes = SetupProbes(args.workload, args.seed, args.seconds / SETUP_PROBES)
        run_cycles(steps, args.seconds, run, reference, between=probes)
        setup_s = probes.median()
        rss = peak_rss_mb()
        q = quality(run.outcomes)
        metrics = e2e_metrics(workload, run, q, setup_s, rss)
        print("as measured:")
        for name, value, unit in named_metrics(workload, run, q, setup_s, rss):
            print(f"{args.workload:<11} {name:<40} {value!s:>22} {unit}")
        print(f"speed factor {speed_factor(workload, run)} "
              f"from {len(run.reference_s)} reference samples")
        report.update(cycles=run.cycles, step_seconds=run.seconds,
                      setup_samples=probes.samples, reference_s=run.reference_s)
    attempted = warm.attempted + run.attempted
    failures = warm.failures + run.failures
    report.update(quality=q, failures=failures, metrics=metrics)
    print(f"decision_digest {args.workload} seed={args.seed}: {q['digest']}")
    print(f"attempted {attempted} failed {len(failures)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"report {write_report(report)}")
    return attempted, failures, metrics


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description="gammasep benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "wide_array", "cli_files"))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe:
            probe(args.workload, args.seed)
            return 0
        gs = load_package(ROOT)
    except PackageMissing as exc:
        print(f"error: {exc}; run from the repository root", file=sys.stderr)
        return 2
    try:
        attempted, failures, metrics = measure(gs, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
