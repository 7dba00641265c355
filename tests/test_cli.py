"""Tests for the command line interface and its file formats."""

import json
import math
import warnings

import numpy as np
import pytest

import gammasep as g
from gammasep.cli import (
    EXIT_INVALID,
    EXIT_NO_DETECTION,
    EXIT_OK,
    RunConfig,
    SignalFormatError,
    load_config,
    main,
    read_manifest,
    read_signal_csv,
    write_signal_csv,
)
from gammasep.signal_core import MultiChannelSignal
from frozen import RESEPARATION_ENERGY_FRACTION

FS = 512.0

SMALL_CONFIG = {
    "n_samples": 2000,
    "n_realizations": 2,
}


def write_config(tmp_path, extra=None, name="config.json"):
    payload = dict(SMALL_CONFIG)
    if extra:
        payload.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def zero_signal_csv(tmp_path, n_channels=3, n=2000):
    path = tmp_path / "zeros.csv"
    signal = MultiChannelSignal(
        sample_rate_hz=FS,
        channel_labels=tuple(f"ch{i + 1}" for i in range(n_channels)),
        data=np.zeros((n_channels, n)),
    )
    write_signal_csv(path, signal)
    return str(path)


class TestLoadConfig:
    def test_lists_become_tuples(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"burst_freqs_hz": [45.0], "overlap_regimes": ["separated"]}))
        config = load_config(path)
        assert config.burst_freqs_hz == (45.0,)
        assert config.overlap_regimes == ("separated",)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"number_of_samples": 100}))
        with pytest.raises(SignalFormatError, match="unknown config keys"):
            load_config(path)

    def test_broken_json_names_the_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "n_samples": \n}')
        with pytest.raises(SignalFormatError, match="line"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(SignalFormatError, match="JSON object"):
            load_config(path)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(SignalFormatError):
            load_config(tmp_path / "absent.json")


class TestSignalCsv:
    def test_round_trip_is_exact(self, tmp_path, rng):
        signal = MultiChannelSignal(
            sample_rate_hz=512.0,
            channel_labels=("ch1", "ch2"),
            data=rng.standard_normal((2, 50)) * 1e3,
        )
        path = tmp_path / "sig.csv"
        write_signal_csv(path, signal)
        back = read_signal_csv(path)
        assert back.sample_rate_hz == signal.sample_rate_hz
        assert back.channel_labels == signal.channel_labels
        assert np.array_equal(back.data, signal.data)

    def test_missing_header_names_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ch1,ch2\n0.0,0.0\n")
        with pytest.raises(SignalFormatError, match="line 1"):
            read_signal_csv(path)

    def test_unreadable_rate_names_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rate=fast\nch1\n0.0\n")
        with pytest.raises(SignalFormatError, match="line 1"):
            read_signal_csv(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rate=512.0\nch1,ch2\n0.0,0.0\n1.0\n")
        with pytest.raises(SignalFormatError, match="line 4"):
            read_signal_csv(path)

    def test_unparseable_value_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rate=512.0\nch1\n0.0\nxyz\n")
        with pytest.raises(SignalFormatError, match="line 4"):
            read_signal_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rate=512.0\nch1\n")
        with pytest.raises(SignalFormatError, match="no sample rows"):
            read_signal_csv(path)


@pytest.mark.parametrize("command", ["map", "despike"])
@pytest.mark.parametrize("bad", ["nan", "inf", "1e308"])
def test_unusable_sample_exits_invalid(tmp_path, capsys, command, bad):
    # channel 2 at sample 500, which sits on line 503 after the two header lines
    signal, _ = g.build_realization(g.SimConfig(), 0)
    path = tmp_path / "bad.csv"
    write_signal_csv(path, signal)
    lines = path.read_text().splitlines()
    row = lines[502].split(",")
    row[1] = bad
    lines[502] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    if bad == "1e308":
        # finite on disk; its energy overflows inside the analysis
        assert "ch2" in err and "energy" in err and "not finite" in err
    else:
        assert "line 503: non-finite value" in err


class TestSimulateCommand:
    def test_writes_one_pair_per_realization(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "realization_000.csv",
            "realization_001.csv",
        ]
        assert len(list(out.glob("*.manifest"))) == 2

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out_a)])
        main(["simulate", "--config", config, "--out", str(out_b)])
        for name in ("realization_000.csv", "realization_000.manifest"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_matches_the_ground_truth(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", config, "--out", str(out)])
        manifest = read_manifest(out / "realization_000.manifest")
        sim = load_config(config).sim_config()
        _, truth = g.build_realization(sim, 0)
        ct = truth.channels[0]
        assert manifest["realization"] == "0"
        assert float(manifest["ch1.burst_freq_hz"]) == ct.burst_freq_hz
        assert int(manifest["ch1.burst_start"]) == ct.burst_window.start_sample
        assert (
            int(manifest["ch1.transient_start"])
            == ct.transient_window.start_sample
        )
        assert float(manifest["ch1.overlap_fraction"]) == ct.overlap_fraction

    def test_written_signal_matches_the_generator(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", config, "--out", str(out)])
        sim = load_config(config).sim_config()
        signal, _ = g.build_realization(sim, 1)
        back = read_signal_csv(out / "realization_001.csv")
        assert np.array_equal(back.data, signal.data)

    def test_seed_override_changes_the_noise(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out_a)])
        main(["simulate", "--config", config, "--seed", "7", "--out", str(out_b)])
        a = read_signal_csv(out_a / "realization_000.csv")
        b = read_signal_csv(out_b / "realization_000.csv")
        assert not np.array_equal(a.data, b.data)

    def test_realizations_override(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(
            ["simulate", "--config", config, "--realizations", "1", "--out", str(out)]
        )
        assert len(list(out.glob("*.csv"))) == 1

    def test_unknown_config_key_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sample_rte_hz": 512}))
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_INVALID
        assert "unknown config keys" in capsys.readouterr().err


class TestDespikeCommand:
    def _simulated_csv(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "sim"
        main(["simulate", "--config", config, "--out", str(out)])
        return config, str(out / "realization_000.csv")

    def test_outputs_and_split_error(self, tmp_path):
        config, csv_path = self._simulated_csv(tmp_path)
        out = tmp_path / "desp"
        code = main(
            [
                "despike",
                csv_path,
                "--config",
                config,
                "--freq",
                "45,55,85",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        original = read_signal_csv(csv_path)
        osc = read_signal_csv(out / "oscillatory.csv")
        trans = read_signal_csv(out / "transient.csv")
        assert np.max(np.abs(osc.data + trans.data - original.data)) < 1e-9
        masks = read_manifest(out / "masks.txt")
        assert float(masks["max_split_error"]) < 1e-9
        assert masks["ch1.mask_scales"] == "1,2,3"
        assert masks["ch2.mask_scales"] == "2,3"
        assert masks["ch3.mask_scales"] == "1,2"
        for key in ("ch1.detection_center", "ch1.mask_start", "ch1.mask_length"):
            assert key in masks

    def test_single_target_covers_every_channel(self, tmp_path):
        config, csv_path = self._simulated_csv(tmp_path)
        out = tmp_path / "desp"
        code = main(
            ["despike", csv_path, "--config", config, "--freq", "85", "--out", str(out)]
        )
        assert code == EXIT_OK
        masks = read_manifest(out / "masks.txt")
        assert float(masks["ch1.target_freq_hz"]) == 85.0
        assert float(masks["ch3.target_freq_hz"]) == 85.0

    def test_second_pass_changes_little(self, tmp_path):
        config = write_config(
            tmp_path,
            extra={
                "burst_freqs_hz": [45.0],
                "overlap_regimes": ["separated"],
                "snr_db": 200.0,
                "n_samples": 5000,
                "n_realizations": 1,
                "target_freq_hz": [45.0],
            },
        )
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", config, "--out", str(sim_out)])
        first = tmp_path / "pass1"
        second = tmp_path / "pass2"
        main(
            [
                "despike",
                str(sim_out / "realization_000.csv"),
                "--config",
                config,
                "--out",
                str(first),
            ]
        )
        main(
            [
                "despike",
                str(first / "oscillatory.csv"),
                "--config",
                config,
                "--out",
                str(second),
            ]
        )
        osc1 = read_signal_csv(first / "oscillatory.csv").data[0]
        osc2 = read_signal_csv(second / "oscillatory.csv").data[0]
        change = np.sum((osc2 - osc1) ** 2) / np.sum(osc1**2)
        assert change <= RESEPARATION_ENERGY_FRACTION

    def test_all_zero_signal_exits_no_detection(self, tmp_path, capsys):
        csv_path = zero_signal_csv(tmp_path)
        code = main(["despike", csv_path, "--out", str(tmp_path / "out")])
        assert code == EXIT_NO_DETECTION
        assert "error" in capsys.readouterr().err

    def test_missing_input_exits_invalid(self, tmp_path, capsys):
        code = main(["despike", str(tmp_path / "nope.csv")])
        assert code == EXIT_INVALID
        capsys.readouterr()

    def test_malformed_input_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("# rate=512.0\nch1\n0.0\noops\n")
        code = main(["despike", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "line 4" in capsys.readouterr().err


class TestMapCommand:
    def _despiked_clean_csv(self, tmp_path):
        sim = g.SimConfig(snr_db=math.inf, n_realizations=2)
        signal, truth = g.build_realization(sim, 0)
        rows = [
            g.separate(
                signal.data[ch], truth.channels[ch].burst_freq_hz, FS
            ).oscillatory
            for ch in range(3)
        ]
        despiked = MultiChannelSignal(
            sample_rate_hz=FS,
            channel_labels=signal.channel_labels,
            data=np.vstack(rows),
        )
        path = tmp_path / "despiked.csv"
        write_signal_csv(path, despiked)
        return str(path)

    def test_detection_names_the_gamma_channel(self, tmp_path):
        csv_path = self._despiked_clean_csv(tmp_path)
        out = tmp_path / "map"
        code = main(["map", csv_path, "--band", "80:90", "--out", str(out)])
        assert code == EXIT_OK
        detection = read_manifest(out / "detection.txt")
        assert detection["detected"] == "yes"
        assert "ch3" in detection["channel_labels"].split(",")
        assert detection["band_hz"] == "80.0:90.0"
        assert int(detection["onset_sample"]) >= 0

    def test_map_csv_matches_the_library(self, tmp_path):
        csv_path = self._despiked_clean_csv(tmp_path)
        out = tmp_path / "map"
        main(["map", csv_path, "--band", "80:90", "--out", str(out)])
        signal = read_signal_csv(csv_path)
        expected = g.spatiotemporal_map(signal, (80.0, 90.0)).values
        written = read_signal_csv(out / "map.csv")
        assert np.array_equal(written.data, expected)

    def test_pgm_layout(self, tmp_path):
        csv_path = self._despiked_clean_csv(tmp_path)
        out = tmp_path / "map"
        main(["map", csv_path, "--band", "80:90", "--out", str(out)])
        lines = (out / "map.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        n_bins, n_ch = (int(v) for v in lines[1].split())
        assert (n_bins, n_ch) == (500, 3)
        assert lines[2] == "255"
        grays = [int(v) for row in lines[3:] for v in row.split()]
        assert len(grays) == 500 * 3
        assert max(grays) == 255
        assert min(grays) >= 0

    def test_zero_signal_yields_empty_detection_and_black_image(self, tmp_path):
        csv_path = zero_signal_csv(tmp_path)
        out = tmp_path / "map"
        code = main(["map", csv_path, "--out", str(out)])
        assert code == EXIT_OK
        detection = read_manifest(out / "detection.txt")
        assert detection["detected"] == "no"
        assert detection["onset_sample"] == "-1"
        assert detection["channel_labels"] == ""
        lines = (out / "map.pgm").read_text().splitlines()
        grays = {int(v) for row in lines[3:] for v in row.split()}
        assert grays == {0}

    def test_inverted_band_exits_invalid(self, tmp_path, capsys):
        csv_path = zero_signal_csv(tmp_path)
        code = main(["map", csv_path, "--band", "90:80", "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        capsys.readouterr()


class TestBenchCommand:
    def test_outputs_and_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "bench"
        code = main(["bench", "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        assert "software reference wall-clock:" in capsys.readouterr().out
        text = (out / "bench.txt").read_text()
        assert "speedup accel0/accel2" in text
        assert "outputs identical: yes" in text
        csv_lines = (out / "bench.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + one row per accelerator config

    def test_deterministic_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["bench", "--config", config, "--out", str(out_a)])
        main(["bench", "--config", config, "--out", str(out_b)])
        capsys.readouterr()
        assert (out_a / "bench.csv").read_bytes() == (out_b / "bench.csv").read_bytes()
        assert (out_a / "bench.txt").read_bytes() == (out_b / "bench.txt").read_bytes()

    def test_single_accelerator_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "bench"
        code = main(["bench", "--config", config, "--accel", "0", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        text = (out / "bench.txt").read_text()
        assert "speedup" not in text
        assert len((out / "bench.csv").read_text().splitlines()) == 2


class TestEndToEnd:
    def test_simulate_despike_map_chain(self, tmp_path):
        config = write_config(tmp_path)
        sim_out = tmp_path / "sim"
        desp_out = tmp_path / "desp"
        map_out = tmp_path / "map"
        assert main(["simulate", "--config", config, "--out", str(sim_out)]) == 0
        assert (
            main(
                [
                    "despike",
                    str(sim_out / "realization_000.csv"),
                    "--config",
                    config,
                    "--freq",
                    "45,55,85",
                    "--out",
                    str(desp_out),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "map",
                    str(desp_out / "oscillatory.csv"),
                    "--config",
                    config,
                    "--out",
                    str(map_out),
                ]
            )
            == 0
        )
        for name in ("map.csv", "detection.txt", "map.pgm"):
            assert (map_out / name).exists()


def test_run_config_defaults_mirror_the_simulator():
    run = RunConfig()
    sim = run.sim_config()
    assert sim.sample_rate_hz == 512.0
    assert sim.n_samples == 5000
    assert sim.n_realizations == 200
    assert sim.burst_freqs_hz == (45.0, 55.0, 85.0)
