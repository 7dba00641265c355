"""Tests for the command line interface and its file formats."""

import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

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
        path.write_text(
            json.dumps(
                {
                    "burst_freqs_hz": [45.0],
                    "overlap_regimes": ["separated"],
                    "band_hz": [40.0, 50.0],
                }
            )
        )
        config = load_config(path)
        assert config.sim.burst_freqs_hz == (45.0,)
        assert config.sim.overlap_regimes == (g.OverlapRegime.SEPARATED,)
        assert config.band_hz == (40.0, 50.0)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"number_of_samples": 100}))
        with pytest.raises(SignalFormatError, match="unknown config keys"):
            load_config(path)

    @pytest.mark.parametrize("key", ["accelerators", "bench_repetitions"])
    def test_removed_bench_settings_are_unknown_keys(self, tmp_path, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: 2}))
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

    def test_mistyped_simulation_value_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n_samples": "5000"}))
        with pytest.raises(SignalFormatError, match="c.json"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("band_hz", 85, "band_hz must be a list"),
            ("band_hz", [90.0, 80.0], "0 < low < high"),
            ("band_hz", [80.0, 85.0, 90.0], "0 < low < high"),
            ("band_hz", [80.0, "90"], "must be a number"),
            ("levels", "5", "levels must be an integer"),
            ("levels", 0, "levels must be >= 1"),
            ("target_freq_hz", 85.0, "target_freq_hz must be a list"),
            ("target_freq_hz", [], "positive frequencies"),
            ("target_freq_hz", [85.0, -5.0], "positive frequencies"),
            ("k_sigma", "6", "k_sigma must be a number"),
            ("k_sigma", 0.0, "k_sigma must be positive"),
            ("wavelet", "db9", "unknown wavelet"),
            ("wavelet", 4, "unknown wavelet"),
        ],
    )
    def test_bad_analysis_setting_names_the_file(self, tmp_path, key, value, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(SignalFormatError, match=f"c.json: .*{message}"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sample_rate_hz", math.inf, "sample_rate_hz must be finite"),
            ("sample_rate_hz", math.nan, "sample_rate_hz must be finite"),
            ("transient_width_ms", math.inf, "transient_width_ms must be finite"),
            ("transient_width_ms", -5.0, "transient_width_ms must be positive"),
            ("transient_width_ms", 0.0, "transient_width_ms must be positive"),
            ("noise_exponent", math.nan, "noise_exponent must be finite"),
            ("noise_exponent", math.inf, "noise_exponent must be finite"),
            ("burst_amplitude_uv", math.inf, "burst_amplitude_uv must be finite"),
            ("transient_amplitude_uv", -math.inf, "transient_amplitude_uv must be"),
            ("snr_db", math.nan, "snr_db must be finite or \\+inf"),
            ("snr_db", -math.inf, "snr_db must be finite or \\+inf"),
            ("snr_db", True, "snr_db must be a number"),
            ("snr_db", "5", "snr_db must be a number"),
            ("burst_freqs_hz", "555", "burst_freqs_hz must be a list"),
            ("burst_freqs_hz", [True, 55, 85], "each burst_freqs_hz entry must be a"),
            ("burst_freqs_hz", ["a", 55, 85], "each burst_freqs_hz entry must be a"),
            ("overlap_regimes", 5, "overlap_regimes must be a list"),
            ("rng_seed", 1.5, "rng_seed must be an integer"),
            ("rng_seed", True, "rng_seed must be an integer"),
            ("rng_seed", -3, "rng_seed must be >= 0"),
            ("n_samples", 5000.5, "n_samples must be an integer"),
            ("n_realizations", 2.5, "n_realizations must be an integer"),
            ("transient_width_ms", 0.5, "transient_width_ms 0.5 is shorter than one"),
            ("n_samples", 100, "n_samples 100 is too short"),
        ],
    )
    def test_bad_simulation_number_names_the_file(self, tmp_path, key, value, message):
        # json writes and reads NaN, Infinity and -Infinity
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(SignalFormatError, match=f"c.json: {message}"):
            load_config(path)

    def test_noiseless_snr_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"snr_db": math.inf}))
        assert load_config(path).sim.snr_db == math.inf

    def test_readme_example_lists_every_key_at_its_default(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        accepted = {f.name for f in fields(g.SimConfig)} | {
            f.name for f in fields(RunConfig)
        } - {"sim"}
        assert len(accepted) == 17
        assert set(json.loads(block)) == accepted - {"out_dir"}
        path = tmp_path / "readme.json"
        path.write_text(block)
        assert load_config(path) == RunConfig()


BAD_REGIME = {"overlap_regimes": ["sideways", "overlapped", "fully_overlapped"]}


@pytest.mark.parametrize(
    "command, setting, named",
    [
        pytest.param(command, BAD_REGIME, "sideways", id=command)
        for command in ("simulate", "despike", "map", "bench")
    ]
    + [
        pytest.param(command, setting, named, id=f"{command}-{named}-{value}")
        for command in ("simulate", "bench")
        for setting in (
            {"rng_seed": 1.5},
            {"rng_seed": True},
            {"rng_seed": -3},
            {"n_samples": 5000.5},
            {"n_realizations": 2.5},
            {"transient_width_ms": 0.5},
            {"n_samples": 100},
            {"burst_freqs_hz": "555"},
            {"burst_freqs_hz": [True, 55, 85]},
            {"burst_freqs_hz": ["a", 55, 85]},
            {"burst_freqs_hz": "abc"},
            {"snr_db": True},
            {"snr_db": "5"},
            {"overlap_regimes": 5},
        )
        for named, value in setting.items()
    ],
)
def test_bad_simulation_setting_exits_invalid_naming_the_file(
    tmp_path, capsys, command, setting, named
):
    config = write_config(tmp_path, setting, name="bad.json")
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command in ("despike", "map"):
        argv.insert(1, zero_signal_csv(tmp_path))
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "bad.json" in err
    assert named in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_invalid_naming_the_key(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "-3", "--out", str(out)]) == EXIT_INVALID
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting", [{"sample_rate_hz": math.inf}, {"transient_width_ms": -5.0}]
)
def test_bad_simulation_number_exits_invalid_before_writing(
    tmp_path, capsys, setting
):
    config = write_config(tmp_path, setting, name="bad.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_INVALID
    assert "bad.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, setting",
    [("map", {"band_hz": 85}), ("despike", {"levels": "5"})],
)
def test_bad_analysis_setting_exits_invalid_before_writing(
    tmp_path, capsys, command, setting
):
    config = write_config(tmp_path, setting, name="bad.json")
    out = tmp_path / "out"
    argv = [command, zero_signal_csv(tmp_path), "--config", config, "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    assert "bad.json" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (tmp_path / "out").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    if bad == "1e308":
        # finite on disk; its energy overflows inside the analysis
        assert "ch2" in err and "energy" in err and "not finite" in err
    else:
        assert "line 503: non-finite value" in err


@pytest.mark.parametrize("command", ["map", "despike"])
@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_non_finite_rate_exits_invalid_naming_the_file(tmp_path, capsys, command, rate):
    signal, _ = g.build_realization(g.SimConfig(n_samples=2000), 0)
    path = tmp_path / "bad.csv"
    write_signal_csv(path, signal)
    text = path.read_text().replace("# rate=512.0\n", f"# rate={rate}\n", 1)
    path.write_text(text)
    code = main([command, str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert f"{path}: sample_rate_hz must be positive and finite, got {rate}" in err


def test_overflow_inside_a_zero_channel_exits_invalid(tmp_path, capsys):
    # a despiked-like file: exact zeros, one huge sample in ch2
    data = np.zeros((3, 2000))
    data[1, 1000] = 1e308
    path = tmp_path / "bad.csv"
    write_signal_csv(path, MultiChannelSignal(FS, ("ch1", "ch2", "ch3"), data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["map", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert not (tmp_path / "out").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "ch2: band energy is not finite" in err


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
        sim = load_config(config).sim
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
        sim = load_config(config).sim
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
        assert "error: ch1: no oscillatory energy" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failing_later_channel_leaves_no_output_directory(self, tmp_path, capsys):
        signal, _ = g.build_realization(g.SimConfig(), 0)
        data = signal.data.copy()
        data[1] = 0.0
        path = tmp_path / "in.csv"
        write_signal_csv(path, MultiChannelSignal(FS, signal.channel_labels, data))
        code = main(["despike", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_NO_DETECTION
        assert "error: ch2: no oscillatory energy" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("freqs", ["45,55", "45,55,85,95"])
    def test_target_count_must_match_the_channels(self, tmp_path, capsys, freqs):
        config, csv_path = self._simulated_csv(tmp_path)
        out = tmp_path / "desp"
        argv = ["despike", csv_path, "--config", config, "--freq", freqs]
        code = main(argv + ["--out", str(out)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        n_freqs = len(freqs.split(","))
        assert f"{n_freqs} target frequencies for the 3 channels" in err
        assert not out.exists()

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

    def test_default_tick_rows(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        _, accel0, accel2 = (out / "bench.csv").read_text().splitlines()
        assert accel0.startswith("accel0,0,513000000,5604000000,")
        assert accel2.startswith("accel2,2,270000000,2802000000,")
        text = (out / "bench.txt").read_text()
        assert "speedup accel0/accel2: separation 1.9000, mapping 2.0000" in text
        assert "outputs identical: yes" in text

    def test_accel_flag_is_rejected(self, tmp_path, capsys):
        # both schedules always run; there is no flag to pick one
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--accel", "0", "--out", str(tmp_path / "bench")])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments: --accel" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()


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
