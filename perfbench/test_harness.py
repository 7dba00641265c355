"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They check that tracing leaves every binding of the package as it found it,
that a short run emits every metric BENCHMARK.json lists, and that the
benchmark refuses to run without the package.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (caps numpy's thread pools before numpy loads)
from tracing import LAYERS, Tracer  # noqa: E402

gs = run.load_package(ROOT)


def _bindings():
    """Every (namespace, name) -> object the tracer could replace."""
    modules = [gs] + [importlib.import_module(f"gammasep.{m}") for m in LAYERS]
    out = {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()}
    for cls in (gs.MultiChannelSignal, gs.FilterPair):
        out[(cls.__name__, "__post_init__")] = cls.__dict__["__post_init__"]
    return out


def test_tracer_restores_every_binding_and_records_probe_spans():
    before = _bindings()
    original = gs.swt.swt_decompose
    signal, truth = gs.build_realization(gs.SimConfig(), 0)
    tracer = Tracer(gs)
    with tracer:
        # one wrapper per function, shared by every namespace binding it
        assert gs.despike.swt_decompose is gs.swt.swt_decompose is gs.swt_decompose
        assert gs.swt.swt_decompose is not original
        tracer.active = True
        gs.separate(signal.data[2], 85.0, signal.sample_rate_hz)
        tracer.active = False
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert gs.despike.swt_decompose is gs.swt.swt_decompose is original
    # the filter-bank round trip shows up as swt spans under wavelet_filters
    build = ("despike.separate", "swt.wavelet_filters", "swt.FilterPair")
    for stage in ("swt.swt_decompose", "swt.iswt_reconstruct"):
        assert tracer.paths[build + (stage, "backends.circular_conv")][0] == 2
    # 10 analysis + 2 x 10 synthesis + 1 smoothing, and 4 in the probe
    assert tracer.calls("backends.circular_conv") == 35


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(gs.NoDetectionError):
        with Tracer(gs) as tracer:
            tracer.active = True
            gs.separate([0.0] * 512, 85.0, 512.0)
    after = _bindings()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert tracer.raised_count("despike.detect_oscillation_center",
                               "NoDetectionError") == 1


def _run(cwd, trace, workload="cli_files"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_listed_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in spec[section]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == listed
    if trace:
        assert all(result["metrics"][f"cli.{f}.calls"]["value"] > 0
                   for f in ("read_signal_csv", "write_signal_csv"))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0, workload="protocol")
    assert done.returncode not in (0, None)
    assert "correct" not in done.stdout
