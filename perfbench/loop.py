"""The closed timing loop and the statistics taken from its records.

Shared hosts change speed as neighbours load them: on a 2-vCPU Xeon VM the
CPU alternated between states about 1.4x apart every few seconds, and the
mix drifted from run to run, so a mean latency moved by 10-20 % between
identical runs. The loop therefore also times a fixed reference kernel,
shaped like one channel of the workload but independent of gammasep, for
about REFERENCE_SHARE of the run, spread between the steps. Dividing the
mean operation latency by the mean reference time cancels the mix; in the
same runs the spread of that ratio was 0.02-0.05.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

TAIL_BEYOND = 10
REFERENCE_SHARE = 0.05


class Reference:
    """Fixed work shaped like one channel of a workload.

    It mixes what gammasep spends time on: strided circular convolution by
    rolled copies, a long real FIR, complex kernels, a running sum, a
    Python loop over samples and, with ``text``, float formatting and
    parsing as in the CSV files.
    """

    def __init__(self, n, text=False):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal(n)
        self.taps = rng.standard_normal(8)
        self.fir = rng.standard_normal(339)
        self.kernels = [np.exp(1j * np.arange(-r, r + 1) / 8.0) * np.hanning(2 * r + 1)
                        for r in (60, 75, 90)]
        self.rows = rng.standard_normal((1000, 3)) if text else None

    def _work(self):
        x = self.x
        y = np.zeros_like(x)
        for stride in (1, 2, 4, 8):
            for m, t in enumerate(self.taps):
                y += t * np.roll(x, m * stride)
        band = np.convolve(x, self.fir)[169:169 + x.size]
        energy = np.zeros(x.size)
        for kernel in self.kernels:
            energy += np.abs(np.convolve(band.astype(complex), kernel)[:x.size]) ** 2
        csum = np.cumsum(energy)
        run = 0
        for flag in (np.diff(csum) > csum[-1] / x.size).tolist():
            run = run + 1 if flag else 0
        if self.rows is not None:
            text = "\n".join(",".join(repr(float(v)) for v in row) for row in self.rows)
            [[float(p) for p in line.split(",")] for line in text.splitlines()]
        return run

    def sample(self):
        """Seconds one pass takes now. An untimed pass first brings the
        reference's data back into cache after whatever the last step did."""
        self._work()
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


class Run:
    """Records of one timed stretch: step wall times by kind, and failures."""

    def __init__(self):
        self.seconds = {}      # step kind -> list of step wall times
        self.failures = []     # messages
        self.outcomes = []     # first-cycle outcomes, in step order
        self.cycles = 0
        self.reference_s = []  # reference samples taken between steps

    @property
    def attempted(self):
        return sum(len(v) for v in self.seconds.values())

    @property
    def busy_s(self):
        return sum(sum(v) for v in self.seconds.values())

    def absorb(self, other):
        """Add another stretch's records to this one."""
        self.failures.extend(other.failures)
        self.reference_s.extend(other.reference_s)
        for kind, values in other.seconds.items():
            self.seconds.setdefault(kind, []).extend(values)


def run_cycles(steps, seconds, run, reference, tracer=None, whole_cycles=False,
               between=None):
    """Repeat the cycle of steps until ``seconds`` have passed.

    The first cycle always completes; later ones stop mid-cycle unless
    ``whole_cycles``. Checks, reference samples and ``between`` (when given)
    run between steps, outside the timed region and with tracing off.
    """
    clock = time.perf_counter
    start = reference_due = clock()
    while True:
        for step in steps:
            while clock() >= reference_due:
                # after a long step, catch up so the share holds over the run
                sample = reference.sample()
                run.reference_s.append(sample)
                reference_due += 2 * sample / REFERENCE_SHARE
            if between is not None:
                between()
            failure = None
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                out = step.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failure = f"{step.kind}: {type(exc).__name__}: {exc}"
            finally:
                elapsed = clock() - t0
                if tracer is not None:
                    tracer.active = False
            run.seconds.setdefault(step.kind, []).append(elapsed)
            outcome = None
            if failure is None:
                try:
                    outcome = step.check(out)
                except Exception as exc:
                    failure = f"{step.kind}: {type(exc).__name__}: {exc}"
            if failure is not None:
                run.failures.append(failure)
            if run.cycles == 0:
                run.outcomes.append(outcome)
            elif not whole_cycles and clock() - start >= seconds:
                return
        run.cycles += 1
        if clock() - start >= seconds:
            return


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it. With fewer than 2 * TAIL_BEYOND + 1 samples that percentile
    would sit at or below the median, so the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * idx / (n - 1)


def quality(outcomes):
    """Quality figures and the decision digest of the first cycle."""
    kept = [o for o in outcomes if o is not None]

    def pooled(attr):
        return [v for o in kept for v in getattr(o, attr)]

    corr = pooled("corr85")
    err = pooled("onset_error_ms")
    hits = pooled("onset_hit")
    wins = pooled("paired_win")
    decisions = [o.decisions for o in kept if o.decisions]
    return {
        "sep_corr_median_85": statistics.median(corr) if corr else 0.0,
        "onset_error_ms_mean": statistics.fmean(err) if err else 0.0,
        "onset_hit_rate": sum(hits) / len(hits) if hits else 0.0,
        "paired_win_rate": sum(wins) / len(wins) if wins else None,
        "corr_samples": len(corr),
        "digest": hashlib.sha256(json.dumps(decisions).encode()).hexdigest()[:16],
    }
