"""Tests for the tick-cost dataflow model of both pipelines."""

import numpy as np
import pytest

import gammasep as g
from gammasep.swt import wavelet_filters
from gammasep.tfmap import MorletParams, map_row
from gammasep.tickmodel import (
    REPETITIONS,
    PipelineConfig,
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
        _, serial = run_pipeline(x, PipelineConfig(accelerators=0))
        _, paired = run_pipeline(x, PipelineConfig(accelerators=2))
        assert serial.total_ticks == 855000
        assert paired.total_ticks == 450000
        assert 1.8 <= serial.total_ticks / paired.total_ticks <= 2.1

    def test_output_matches_the_software_path(self, workload):
        x = workload.data[2]
        out, _ = run_pipeline(x, PipelineConfig(accelerators=0))
        reference = g.separate(x, 85.0, FS).oscillatory
        assert np.array_equal(out, reference)

    def test_outputs_identical_across_accelerators(self, workload):
        x = workload.data[2]
        out0, rep0 = run_pipeline(x, PipelineConfig(accelerators=0))
        out2, rep2 = run_pipeline(x, PipelineConfig(accelerators=2))
        assert np.array_equal(out0, out2)
        assert rep0.output_checksum == rep2.output_checksum

    def test_ticks_do_not_depend_on_the_data(self, workload):
        other, _ = g.build_realization(g.SimConfig(), 7)
        out_a, a = run_pipeline(workload.data[2], PipelineConfig())
        out_b, b = run_pipeline(other.data[0], PipelineConfig())
        assert not np.array_equal(out_a, out_b)
        assert a.total_ticks == b.total_ticks
        assert a.per_stage_ticks == b.per_stage_ticks

    def test_custom_capacity_accepted(self):
        # the model meters an input of any length
        x = np.zeros(512)
        x[100:150] = np.sin(np.arange(50))
        out, report = run_pipeline(x, PipelineConfig())
        assert out.size == 512
        assert report.total_ticks > 0


class TestMappingPipeline:
    def test_serial_and_split_totals(self, workload, params):
        x = workload.data[2]
        _, serial = run_mapping_pipeline(x, PipelineConfig(0), params, BAND)
        _, split = run_mapping_pipeline(x, PipelineConfig(2), params, BAND)
        assert serial.total_ticks == 9340000
        assert split.total_ticks == 4670000
        assert 2.0 <= serial.total_ticks / split.total_ticks <= 2.4

    def test_output_matches_map_row(self, workload, params):
        x = workload.data[2]
        out, _ = run_mapping_pipeline(x, PipelineConfig(0), params, BAND)
        assert np.array_equal(out, map_row(x, BAND, params))

    def test_outputs_identical_across_accelerators(self, workload, params):
        x = workload.data[2]
        out0, rep0 = run_mapping_pipeline(x, PipelineConfig(0), params, BAND)
        out2, rep2 = run_mapping_pipeline(x, PipelineConfig(2), params, BAND)
        assert np.array_equal(out0, out2)
        assert rep0.output_checksum == rep2.output_checksum

    def test_any_input_length_accepted(self, params):
        x = np.zeros(700)
        x[300:350] = np.sin(np.arange(50))
        out, report = run_mapping_pipeline(x, PipelineConfig(), params, BAND)
        assert np.array_equal(out, map_row(x, BAND, params))
        assert report.total_ticks == sum(
            s.cost for s in mapping_stages(700, params, BAND)
        )


class TestPipelineConfig:
    def test_rejects_odd_accelerator_counts(self):
        with pytest.raises(ValueError):
            PipelineConfig(accelerators=1)
        with pytest.raises(ValueError):
            PipelineConfig(accelerators=3)


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
        _, serial = run_pipeline(x, PipelineConfig(0))
        _, mapped = run_mapping_pipeline(x, PipelineConfig(0), params, BAND)
        header, accel0, accel2 = report["csv"].splitlines()
        assert header.startswith("label,accelerators,")
        # ticks are structural, so all three channels cost the same
        assert accel0.startswith(
            f"accel0,0,{3 * REPETITIONS * serial.total_ticks},"
            f"{3 * REPETITIONS * mapped.total_ticks},"
        )
        assert accel2.startswith("accel2,2,")

    def test_wall_clock_is_reported_separately(self, report):
        assert report["wall_clock_s"] > 0.0
        assert "wall" not in report["csv"]
        assert "wall" not in report["text"]
