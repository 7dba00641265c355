"""Tests for the tick-cost dataflow model of both pipelines."""

import numpy as np
import pytest

import gammasep as g
from gammasep.swt import wavelet_filters
from gammasep.tfmap import MorletParams, map_row
from gammasep.tickmodel import (
    PipelineConfig,
    Stage,
    benchmark_report,
    mapping_stages,
    quantize_microvolts,
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


class TestQuantize:
    def test_one_microvolt_steps(self):
        out = quantize_microvolts(np.array([0.4, 0.6, 1.49, -2.51]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 1.0, -3.0])

    def test_clips_to_the_stored_range(self):
        out = quantize_microvolts(np.array([-1000.0, 1000.0]))
        np.testing.assert_array_equal(out, [-100.0, 149.0])

    def test_two_hundred_fifty_distinct_levels(self):
        out = quantize_microvolts(np.linspace(-200.0, 200.0, 20001))
        assert np.unique(out).size == 250

    def test_integers_pass_through(self):
        grid = np.arange(-100.0, 150.0)
        np.testing.assert_array_equal(quantize_microvolts(grid), grid)


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

    def test_memory_write_totals(self, workload):
        _, report = run_pipeline(workload.data[2], PipelineConfig())
        assert report.per_memory_writes == {
            "Msa": 25000,
            "Msd": 25000,
            "Md": 25000,
            "Mdt": 25000,
            "Ma": 5000,
            "Mat": 5000,
            "external": 5000,
        }

    def test_ticks_do_not_depend_on_the_data(self, workload):
        other, _ = g.build_realization(g.SimConfig(), 7)
        out_a, a = run_pipeline(workload.data[2], PipelineConfig())
        out_b, b = run_pipeline(other.data[0], PipelineConfig())
        assert not np.array_equal(out_a, out_b)
        assert a.total_ticks == b.total_ticks
        assert a.per_stage_ticks == b.per_stage_ticks

    def test_quantization_runs_before_the_pipeline(self, workload):
        x = workload.data[2]
        quantized, _ = run_pipeline(x, PipelineConfig(quantize_input=True))
        explicit, _ = run_pipeline(quantize_microvolts(x), PipelineConfig())
        assert np.array_equal(quantized, explicit)

    def test_rejects_capacity_mismatch(self, workload):
        with pytest.raises(ValueError, match="capacity"):
            run_pipeline(workload.data[2][:100], PipelineConfig())

    def test_custom_capacity_accepted(self):
        x = np.zeros(512)
        x[100:150] = np.sin(np.arange(50))
        config = PipelineConfig(data_capacity=512)
        out, report = run_pipeline(x, config)
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

    def test_scale_convolutions_write_one_row_each(self, workload, params):
        _, report = run_mapping_pipeline(
            workload.data[2], PipelineConfig(0), params, BAND
        )
        assert report.per_memory_writes["Mw"] == len(params.scales) * 5000
        assert report.per_memory_writes["Ms"] == 2 * 5000
        assert report.per_memory_writes["Mn"] == 5000

    def test_rejects_capacity_mismatch(self, params):
        with pytest.raises(ValueError, match="capacity"):
            run_mapping_pipeline(np.zeros(100), PipelineConfig(), params, BAND)


class TestPipelineConfig:
    def test_rejects_odd_accelerator_counts(self):
        with pytest.raises(ValueError):
            PipelineConfig(accelerators=1)
        with pytest.raises(ValueError):
            PipelineConfig(accelerators=3)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PipelineConfig(data_capacity=0)


class TestBenchmarkReport:
    def test_report_is_deterministic(self, workload):
        configs = [PipelineConfig(accelerators=0), PipelineConfig(accelerators=2)]
        first = benchmark_report(configs, workload, repetitions=10)
        second = benchmark_report(configs, workload, repetitions=10)
        assert first["csv"] == second["csv"]
        assert first["text"] == second["text"]

    def test_text_reports_the_speedups_and_identity(self, workload):
        configs = [PipelineConfig(0), PipelineConfig(2)]
        report = benchmark_report(configs, workload, repetitions=10)
        expected = "speedup accel0/accel2: separation 1.9000, mapping 2.0000"
        assert expected in report["text"]
        assert "outputs identical: yes" in report["text"]

    def test_single_config_omits_the_ratio(self, workload):
        report = benchmark_report([PipelineConfig(0)], workload, repetitions=10)
        assert "speedup" not in report["text"]

    def test_default_repetition_count(self, workload):
        report = benchmark_report([PipelineConfig(0)], workload)
        assert "200 repetitions per channel" in report["text"]

    def test_repetitions_multiply_tick_totals(self, workload):
        once = benchmark_report([PipelineConfig(0)], workload, repetitions=1)
        many = benchmark_report([PipelineConfig(0)], workload, repetitions=7)
        row1 = once["csv"].splitlines()[1].split(",")
        row7 = many["csv"].splitlines()[1].split(",")
        assert int(row7[2]) == 7 * int(row1[2])
        assert int(row7[3]) == 7 * int(row1[3])

    def test_wall_clock_is_reported_separately(self, workload):
        report = benchmark_report([PipelineConfig(0)], workload, repetitions=1)
        assert report["wall_clock_s"] > 0.0
        assert "wall" not in report["csv"]
        assert "wall" not in report["text"]

    def test_rejects_empty_config_list(self, workload):
        with pytest.raises(ValueError):
            benchmark_report([], workload)
