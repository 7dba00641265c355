"""Tests for the tick-cost dataflow model of both pipelines."""

import zlib

import numpy as np
import pytest

import gammasep as g
from gammasep import despike, tfmap
from gammasep.swt import wavelet_filters
from gammasep.tfmap import MorletParams, map_row
from gammasep.tickmodel import (
    ACCELERATOR_COUNTS,
    REPETITIONS,
    Stage,
    benchmark_report,
    mapping_stages,
    run_mapping_pipeline,
    run_pipeline,
    separation_stages,
)

FS = 512.0
BAND = (80.0, 90.0)


@pytest.fixture(scope="module")
def workload():
    signal, _ = g.build_realization(g.SimConfig(), 0)
    return signal


@pytest.fixture(scope="module")
def params():
    return MorletParams.for_band(BAND, FS)


class TestStages:
    def test_stage_cost_is_values_times_taps(self):
        assert Stage("s", 5000, 8).cost == 40000

    def test_separation_stage_roster(self, workload):
        filters = wavelet_filters("db4")
        stages = separation_stages(5000, filters, 5, mask=None)
        names = [s.name for s in stages]
        assert names.count("mask_details") == 1
        assert sum(1 for n in names if n.startswith("analysis_")) == 10
        assert sum(1 for n in names if n.startswith("synthesis_")) == 10
        assert sum(1 for n in names if n.startswith("combine_")) == 5

    def test_mapping_stage_costs_scale_with_input(self, params):
        short = sum(s.cost for s in mapping_stages(1000, params, BAND))
        long = sum(s.cost for s in mapping_stages(2000, params, BAND))
        assert long == 2 * short


class TestSeparationPipeline:
    def test_serial_and_paired_totals(self, workload):
        x = workload.data[2]
        _, report = run_pipeline(x)
        assert report.ticks == {0: 855000, 2: 450000}
        assert 1.8 <= report.ticks[0] / report.ticks[2] <= 2.1

    def test_output_matches_the_software_path(self, workload):
        x = workload.data[2]
        out, _ = run_pipeline(x)
        reference = g.separate(x, 85.0, FS).oscillatory
        assert np.array_equal(out, reference)

    def test_outputs_identical_across_accelerators(self, workload):
        # one run priced under every schedule: one output, one checksum
        x = workload.data[2]
        out, report = run_pipeline(x)
        assert set(report.ticks) == set(ACCELERATOR_COUNTS)
        assert report.output_checksum == zlib.crc32(out.tobytes())

    def test_ticks_do_not_depend_on_the_data(self, workload):
        other, _ = g.build_realization(g.SimConfig(), 7)
        out_a, a = run_pipeline(workload.data[2])
        out_b, b = run_pipeline(other.data[0])
        assert not np.array_equal(out_a, out_b)
        assert a.ticks == b.ticks

    def test_custom_capacity_accepted(self):
        # the model meters an input of any length
        x = np.zeros(512)
        x[100:150] = np.sin(np.arange(50))
        out, report = run_pipeline(x)
        assert out.size == 512
        assert report.ticks[0] > 0


class TestMappingPipeline:
    def test_serial_and_split_totals(self, workload, params):
        x = workload.data[2]
        _, report = run_mapping_pipeline(x, params, BAND)
        assert report.ticks == {0: 9340000, 2: 4670000}
        assert 2.0 <= report.ticks[0] / report.ticks[2] <= 2.4

    def test_output_matches_map_row(self, workload, params):
        x = workload.data[2]
        out, _ = run_mapping_pipeline(x, params, BAND)
        assert np.array_equal(out, map_row(x, BAND, params))

    def test_outputs_identical_across_accelerators(self, workload, params):
        # one run priced under every schedule: one output, one checksum
        x = workload.data[2]
        out, report = run_mapping_pipeline(x, params, BAND)
        assert set(report.ticks) == set(ACCELERATOR_COUNTS)
        assert report.output_checksum == zlib.crc32(out.tobytes())

    def test_any_input_length_accepted(self, params):
        x = np.zeros(700)
        x[300:350] = np.sin(np.arange(50))
        out, report = run_mapping_pipeline(x, params, BAND)
        assert np.array_equal(out, map_row(x, BAND, params))
        assert report.ticks[0] == sum(
            s.cost for s in mapping_stages(700, params, BAND)
        )


class TestBenchmarkReport:
    @pytest.fixture(scope="class")
    def report(self, workload):
        return benchmark_report(workload)

    def test_report_is_deterministic(self, workload, report):
        again = benchmark_report(workload)
        assert again["csv"] == report["csv"]
        assert again["text"] == report["text"]

    def test_text_reports_the_speedups_and_identity(self, report):
        expected = "speedup accel0/accel2: separation 1.9000, mapping 2.0000"
        assert expected in report["text"]
        assert "outputs identical: yes" in report["text"]

    def test_default_repetition_count(self, report):
        assert REPETITIONS == 200
        assert "200 repetitions per channel" in report["text"]

    def test_rows_count_each_channel_repetitions_times(self, workload, params, report):
        x = workload.data[2]
        _, separated = run_pipeline(x)
        _, mapped = run_mapping_pipeline(x, params, BAND)
        header, accel0, accel2 = report["csv"].splitlines()
        assert header.startswith("label,accelerators,")
        # ticks are structural, so all three channels cost the same
        for row, a in ((accel0, 0), (accel2, 2)):
            assert row.startswith(
                f"accel{a},{a},{3 * REPETITIONS * separated.ticks[a]},"
                f"{3 * REPETITIONS * mapped.ticks[a]},"
            )
        # both rows price the same run, so they carry the same checksums
        assert accel0.split(",")[-2:] == accel2.split(",")[-2:]

    def test_runs_each_channel_once(self, workload, monkeypatch):
        calls = {"separate": 0, "map_row": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(despike, "separate")
        counted(tfmap, "map_row")
        benchmark_report(workload)
        n = workload.n_channels
        assert calls == {"separate": n, "map_row": n}

    def test_refuses_a_workload_with_no_channel(self):
        empty = g.MultiChannelSignal(FS, (), np.zeros((0, 5000)))
        with pytest.raises(ValueError, match="workload has no channel to price"):
            benchmark_report(empty)

    def test_wall_clock_is_reported_separately(self, report):
        assert report["wall_clock_s"] > 0.0
        assert "wall" not in report["csv"]
        assert "wall" not in report["text"]
