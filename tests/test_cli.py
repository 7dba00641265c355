"""Tests for the command line interface and its file formats."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gammasep as g
from gammasep.cli import (
    EXIT_INVALID,
    EXIT_NO_DETECTION,
    EXIT_OK,
    PGM_TIME_BIN,
    RunConfig,
    SignalFormatError,
    build_parser,
    load_config,
    main,
    read_manifest,
    read_signal_csv,
    write_map_pgm,
    write_signal_csv,
)
from gammasep.signal_core import MultiChannelSignal
from gammasep.tfmap import SpatioTemporalMap
from frozen import RESEPARATION_ENERGY_FRACTION
from oracles import (
    parse_signal_body,
    same_bits,
    write_map_pgm_per_bin,
    write_signal_csv_per_value,
)

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

    def test_int_spellings_become_floats(self, tmp_path):
        config = load_config(
            write_config(tmp_path, {"band_hz": [80, 90], "target_freq_hz": [85]})
        )
        assert config.band_hz == (80.0, 90.0)
        assert config.target_freq_hz == (85.0,)
        assert all(type(v) is float for v in config.band_hz + config.target_freq_hz)

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
            ("levels", "5", "unknown config keys"),
            ("levels", 0, "unknown config keys"),
            ("target_freq_hz", 85.0, "target_freq_hz must be a list"),
            ("target_freq_hz", [], "positive frequencies"),
            ("target_freq_hz", [85.0, -5.0], "positive frequencies"),
            ("k_sigma", "6", "unknown config keys"),
            ("k_sigma", 0.0, "unknown config keys"),
            ("wavelet", "db9", "unknown config keys"),
            ("wavelet", 4, "unknown config keys"),
            ("out_dir", 5, "out_dir must be a string, got 5"),
            ("out_dir", None, "out_dir must be a string, got None"),
            ("out_dir", ["runs"], "out_dir must be a string, got \\['runs'\\]"),
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
            ("snr_db", math.nan, "snr_db must be finite within .* or \\+inf"),
            ("snr_db", -math.inf, "snr_db must be finite within .* or \\+inf"),
            ("snr_db", True, "snr_db must be a number"),
            ("snr_db", "5", "snr_db must be a number"),
            ("snr_db", 4000, "snr_db must be finite within .* or \\+inf"),
            ("snr_db", -4000, "snr_db must be finite within .* or \\+inf"),
            ("burst_freqs_hz", "555", "burst_freqs_hz must be a list"),
            ("overlap_regimes", 5, "overlap_regimes must be a list"),
            ("rng_seed", 1.5, "rng_seed must be an integer"),
            ("rng_seed", True, "rng_seed must be an integer"),
            ("rng_seed", -3, "rng_seed must be >= 0"),
            ("n_samples", 5000.5, "n_samples must be an integer"),
            ("n_realizations", 2.5, "n_realizations must be an integer"),
            ("n_samples", 100, "n_samples 100 is too short"),
            # a list value's test id is its row index: list rows go last
            ("burst_freqs_hz", [True, 55, 85], "each burst_freqs_hz entry must be a"),
            ("burst_freqs_hz", ["a", 55, 85], "each burst_freqs_hz entry must be a"),
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
        assert len(accepted) == 9
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
            {"n_samples": 100},
            {"burst_freqs_hz": "555"},
            {"burst_freqs_hz": [True, 55, 85]},
            {"burst_freqs_hz": ["a", 55, 85]},
            {"burst_freqs_hz": "abc"},
            {"snr_db": True},
            {"snr_db": "5"},
            {"snr_db": 4000},
            {"snr_db": -4000},
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


HUGE = 10**400  # a JSON integer that no float can hold


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("snr_db", HUGE),
        ("burst_freqs_hz", [45, 55, HUGE]),
        ("target_freq_hz", [HUGE]),
        ("band_hz", [80, HUGE]),
    ],
    ids=["snr_db", "burst_freqs_hz", "target_freq_hz", "band_hz"],
)
def test_integer_too_large_for_a_float_exits_invalid_naming_the_key(
    tmp_path, capsys, command, key, value
):
    config = write_config(tmp_path, {key: value}, name="huge.json")
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_integer_past_the_digit_limit_exits_invalid_naming_the_file(
    tmp_path, capsys, command
):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "big.json"
    path.write_text('{"snr_db": 1' + "0" * 5000 + "}")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "despike", "map", "bench"])
@pytest.mark.parametrize(
    "setting",
    [
        {"wavelet": "db4"},
        {"levels": 5},
        {"k_sigma": 6.0},
        {"sample_rate_hz": 512.0},
        {"noise_exponent": 1.0},
        {"burst_amplitude_uv": 50.0},
        {"transient_amplitude_uv": 100.0},
        {"transient_width_ms": 20.0},
        {"transient_width_ms": 0.5},
    ],
    ids=[
        "wavelet",
        "levels",
        "k_sigma",
        "sample_rate_hz",
        "noise_exponent",
        "burst_amplitude_uv",
        "transient_amplitude_uv",
        "transient_width_ms",
        "transient_width_ms-0.5",
    ],
)
def test_fixed_analysis_setting_is_an_unknown_key(
    tmp_path, capsys, command, setting
):
    # the wavelet, its depth, the detection threshold and the recording
    # protocol are constants: naming one, even at its value, exits 2 before
    # any output is made
    config = write_config(tmp_path, setting, name="fixed.json")
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command in ("despike", "map"):
        argv.insert(1, zero_signal_csv(tmp_path))
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "fixed.json: unknown config keys" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_empty_burst_list_exits_invalid_naming_the_key(tmp_path, capsys, command):
    config = write_config(
        tmp_path, {"burst_freqs_hz": [], "overlap_regimes": []}, name="empty.json"
    )
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "empty.json: burst_freqs_hz must list at least one frequency" in err
    assert not out.exists()


def test_negative_seed_exits_invalid_naming_the_key(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "-3", "--out", str(out)]) == EXIT_INVALID
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting", [{"snr_db": math.nan}, {"burst_freqs_hz": [45.0, 55.0, math.inf]}]
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
    [("map", {"band_hz": 85}), ("despike", {"target_freq_hz": [-85.0]})],
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


@pytest.mark.parametrize("command", ["simulate", "despike", "map", "bench"])
@pytest.mark.parametrize("out_dir", [5, None, ["runs"]])
def test_out_dir_that_is_not_a_string_exits_invalid_naming_the_file(
    tmp_path, capsys, monkeypatch, command, out_dir
):
    # Path(5) would raise a TypeError that no handler catches
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, {"out_dir": out_dir}, name="bad.json")
    argv = [command, "--config", config]
    if command in ("despike", "map"):
        argv.insert(1, zero_signal_csv(tmp_path))
    assert main(argv) == EXIT_INVALID
    assert "bad.json: out_dir must be a string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["bad.json"] + (["zeros.csv"] if command in ("despike", "map") else [])
    )


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


HEADER = "# rate=512.0\n"

# values a per-value writer must spell exactly: signed zero, subnormals, the
# largest magnitudes, whole numbers and a value needing all 17 digits
EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308,
               3.0, -12.0, 1e16, 0.1 + 0.2]


def csv_values():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(EDGE_VALUES),
        st.integers(-(10**6), 10**6).map(float),
    )


def map_values():
    # non-negative, and small enough that no 10-sample sum overflows
    return st.one_of(
        st.floats(min_value=0.0, max_value=1.7e307),
        st.sampled_from([-0.0, 0.0, 5e-324, 2.2e-308, 1.7e307, 1.0, 255.0]),
        st.integers(0, 10**6).map(float),
    )


class TestCsvLabels:
    @pytest.mark.parametrize(
        "label", ["a,b", "a\nb", "a\rb", "a\u2028b", " c", "c ", "\tc", "c\n"]
    )
    def test_label_that_does_not_read_back_is_refused(self, tmp_path, label):
        path = tmp_path / "sig.csv"
        signal = MultiChannelSignal(FS, ("ok", label), np.zeros((2, 3)))
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write_signal_csv(path, signal)
        assert not path.exists()

    def test_unusual_labels_that_read_back_are_written(self, tmp_path):
        signal = MultiChannelSignal(FS, ("Fp1 ref", "γ-3", ""), np.ones((3, 4)))
        path = tmp_path / "sig.csv"
        write_signal_csv(path, signal)
        assert read_signal_csv(path).channel_labels == signal.channel_labels


@st.composite
def bodies_with_silent_runs(draw):
    """Channels x samples built from runs of silent lines (every value +0.0)
    and runs of live lines, whose values include +0.0 and -0.0."""
    n_ch = draw(st.integers(1, 4))
    live_values = st.one_of(csv_values(), st.sampled_from([0.0, -0.0]))
    runs = []
    for silent in draw(st.lists(st.booleans(), min_size=1, max_size=8)):
        if silent:
            runs.append(np.zeros((n_ch, draw(st.integers(1, 80)))))
        else:
            shape = (n_ch, draw(st.integers(1, 12)))
            runs.append(draw(arrays(np.float64, shape, elements=live_values)))
    return np.hstack(runs)


class TestWritersMatchThePerValueReferences:
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.integers(1, 8).flatmap(
            lambda n_ch: st.integers(1, 25).flatmap(
                lambda n: arrays(np.float64, (n_ch, n), elements=csv_values()))),
        bodies_with_silent_runs(),
    ))
    # all silent; none silent; silent head; silent tail; one channel; and
    # lines mixing -0.0 with +0.0, which are not silent
    @example(np.zeros((3, 40)))
    @example(np.arange(1.0, 21.0).reshape(2, 10))
    @example(np.hstack([np.zeros((2, 30)), np.ones((2, 3))]))
    @example(np.hstack([np.full((2, 3), 0.5), np.zeros((2, 30))]))
    @example(np.array([[0.0, 0.0, 1.5, 0.0, -0.0, 0.0, 0.0, 2.0, 0.0]]))
    @example(np.array([[0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
                       [-0.0, 0.0, 0.0, 0.0, -0.0, 0.0]]))
    def test_signal_csv_bytes(self, tmp_path, data):
        signal = MultiChannelSignal(
            FS, tuple(f"ch{i + 1}" for i in range(data.shape[0])), data
        )
        fast, ref = (tmp_path / name for name in ("fast.csv", "ref.csv"))
        write_signal_csv(fast, signal)
        write_signal_csv_per_value(ref, signal)
        assert fast.read_bytes() == ref.read_bytes()

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 8).flatmap(
        lambda n_ch: st.integers(1, 25).flatmap(
            lambda n: arrays(np.float64, (n_ch, n), elements=map_values()))),
        st.booleans())
    @example(np.zeros((3, 25)), False)
    @example(np.zeros((1, 7)), True)
    def test_map_pgm_bytes(self, tmp_path, values, fortran):
        if fortran:
            values = np.asfortranarray(values)
        labels = tuple(f"ch{i + 1}" for i in range(values.shape[0]))
        energy_map = SpatioTemporalMap(values, (80.0, 90.0), labels, FS)
        fast, ref = (tmp_path / name for name in ("fast.pgm", "ref.pgm"))
        write_map_pgm(fast, energy_map)
        write_map_pgm_per_bin(ref, values, PGM_TIME_BIN)
        assert fast.read_bytes() == ref.read_bytes()


class TestCsvReaderPaths:
    """The one-call parse and the line-by-line fallback read alike."""

    def read(self, tmp_path, text, newline="\n"):
        path = tmp_path / "sig.csv"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        return read_signal_csv(path)

    def test_ragged_rows_with_a_multiple_of_the_width_name_the_first(self, tmp_path):
        # 1 + 3 values fill two rows of 2, but neither row has 2
        with pytest.raises(SignalFormatError, match="line 3: expected 2 values, got 1"):
            self.read(tmp_path, HEADER + "a,b\n1.0\n2.0,3.0,4.0\n")

    def test_row_with_too_many_values_names_its_line(self, tmp_path):
        with pytest.raises(SignalFormatError, match="line 4: expected 2 values, got 3"):
            self.read(tmp_path, HEADER + "a,b\n1.0,2.0\n1.0,2.0,3.0\n")

    @pytest.mark.parametrize("labels,body,message", [
        ("a,b", "1.0,2.0,3.0\n4.0,5.0,6.0\n", "line 3: expected 2 values, got 3"),
        ("a,b,c", "\n1.0,2.0\n4.0,5.0\n", "line 4: expected 3 values, got 2"),
        ("a,b", "1.0\n2.0\n", "line 3: expected 2 values, got 1"),
    ])
    def test_rows_of_one_wrong_width_name_the_first(self, tmp_path, labels, body, message):
        with pytest.raises(SignalFormatError, match=message):
            self.read(tmp_path, HEADER + labels + "\n" + body)

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        body = "a,b\n\n1.0,2.0\n   \n\n3.0,4.0\n\n"
        back = self.read(tmp_path, HEADER + body)
        assert np.array_equal(back.data, [[1.0, 3.0], [2.0, 4.0]])
        with pytest.raises(SignalFormatError, match="line 9: unreadable value"):
            self.read(tmp_path, HEADER + body + "5.0,x\n")
        with pytest.raises(SignalFormatError, match="line 9: expected 2 values, got 1"):
            self.read(tmp_path, HEADER + body + "5.0\n")
        with pytest.raises(SignalFormatError, match="line 9: non-finite value"):
            self.read(tmp_path, HEADER + body + "5.0,inf\n")

    def test_crlf_line_endings(self, tmp_path):
        back = self.read(tmp_path, HEADER + "a,b\n1.0,2.0\n3.0,4.0\n", newline="\r\n")
        assert back.channel_labels == ("a", "b")
        assert np.array_equal(back.data, [[1.0, 3.0], [2.0, 4.0]])
        with pytest.raises(SignalFormatError, match="line 4: unreadable value"):
            self.read(tmp_path, HEADER + "a,b\n1.0,2.0\n3.0,?\n", newline="\r\n")

    def test_padded_values_and_digit_separators_read_as_float_does(self, tmp_path):
        back = self.read(tmp_path, HEADER + "a,b\n 1.5 ,\t-2\n1_000, +3e2\n")
        assert np.array_equal(back.data, [[1.5, 1000.0], [-2.0, 300.0]])

    @pytest.mark.parametrize("bad", ["nan", "1e309", "-infinity"])
    def test_non_finite_value_names_its_line(self, tmp_path, bad):
        with pytest.raises(SignalFormatError, match="line 5: non-finite value"):
            self.read(tmp_path, HEADER + f"a,b\n1.0,2.0\n3.0,4.0\n5.0,{bad}\n6.0,7.0\n")

    @pytest.mark.parametrize("line", [
        "#3.0,4.0", "3.0,4.0#", "3.0 # note,4.0", '"3.0",4.0', "3.0,'4.0'",
        # numpy's reader strips U+001F around a field; float() does not
        "\x1f3.0,4.0", "3.0,4.0\x1f",
    ])
    def test_no_comment_quote_or_unit_separator_is_honoured(self, tmp_path, line):
        with pytest.raises(SignalFormatError, match="line 4: unreadable value"):
            self.read(tmp_path, HEADER + f"a,b\n1.0,2.0\n{line}\n5.0,6.0\n")

    def test_unit_separator_alone_is_a_blank_line(self, tmp_path):
        back = self.read(tmp_path, HEADER + "a,b\n1.0,2.0\n\x1f\n3.0,4.0\n")
        assert np.array_equal(back.data, [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"])
    def test_body_without_rows_is_refused_without_a_warning(self, tmp_path, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignalFormatError, match="no sample rows"):
                self.read(tmp_path, HEADER + "a,b\n" + body)

    def test_peak_memory_of_one_read(self, tmp_path):
        signal, _ = g.build_realization(g.SimConfig(), 0)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, signal)
        read_signal_csv(path)  # a first call may import or cache
        tracemalloc.start()
        try:
            back = read_signal_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.data.shape == (3, 5000)
        assert peak < 1.5e6

    def test_every_file_of_the_cli_chain_reads_as_float_reads_it(self, tmp_path):
        config = write_config(tmp_path, {"n_realizations": 1})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out / "s")]) == EXIT_OK
        assert main(["despike", str(out / "s" / "realization_000.csv"), "--config",
                     config, "--out", str(out / "d")]) == EXIT_OK
        assert main(["map", str(out / "d" / "oscillatory.csv"), "--config", config,
                     "--out", str(out / "m")]) == EXIT_OK
        paths = sorted(out.rglob("*.csv"))
        assert [p.relative_to(out).as_posix() for p in paths] == [
            "d/oscillatory.csv", "d/transient.csv", "m/map.csv", "s/realization_000.csv",
        ]
        for path in paths:
            lines = path.read_text(encoding="utf-8").splitlines()
            labels = lines[1].split(",")
            expected = parse_signal_body(lines[2:], len(labels))
            back = read_signal_csv(path)
            assert back.channel_labels == tuple(labels)
            assert back.sample_rate_hz == float(lines[0][len("# rate="):])
            assert same_bits(np.ascontiguousarray(back.data), expected.copy())

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(1, 3),
        st.lists(
            st.one_of(
                st.sampled_from(["", "  "]),
                st.lists(
                    st.one_of(
                        st.floats().map(repr),
                        st.sampled_from([
                            " 1.5 ", "\t-2", "1_000", "+3e2", ".5", "-0.0", "5e-324",
                            "1e309", "nan", "-inf", "", " ", "xyz", "1__0", "0x10",
                            "١٢٣", "1e", "#1", "1.5#", '"2"', "\xa01.5\xa0", "1\x1f",
                        ]),
                        st.text(alphabet="0123456789.eE+-_ na#\"\xa0\x1f", max_size=6),
                    ),
                    min_size=1, max_size=4,
                ).map(",".join),
            ),
            max_size=8,
        ),
    )
    @example(2, ["1.5,2#"])
    @example(2, ['"1.5",2'])
    @example(2, ["1.5,\x1f2"])
    def test_accepts_exactly_what_float_accepts(self, tmp_path, width, body):
        self.check_against_float(tmp_path, width, body)

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3), st.sampled_from([" ", "\xa0", "\x1f", '"', "'", "#"]),
           st.data())
    def test_wrapped_values_read_as_float_reads_them(self, tmp_path, width, wrapper, data):
        # rows of the right width, every value a float, some with one
        # character before or after it that a reader honouring comments or
        # quotes, or stripping more than float() strips, would read past
        value = st.builds(
            lambda v, left, right: f"{wrapper * left}{v!r}{wrapper * right}",
            st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.booleans(),
        )
        row = st.lists(value, min_size=width, max_size=width).map(",".join)
        body = data.draw(st.lists(row, min_size=1, max_size=6))
        self.check_against_float(tmp_path, width, body)

    def check_against_float(self, tmp_path, width, body):
        labels = ",".join(f"ch{i + 1}" for i in range(width))
        expected = parse_signal_body(body, width)
        try:
            back = self.read(tmp_path, HEADER + labels + "\n" + "\n".join(body) + "\n")
        except SignalFormatError:
            assert expected is None
        else:
            assert expected is not None
            assert same_bits(np.ascontiguousarray(back.data), expected.copy())


def test_shared_parser_answers_as_a_fresh_one(tmp_path, capsys):
    # valid, then invalid at the parser and after it, then other commands
    source = str(tmp_path / "sim" / "realization_000.csv")
    calls = [
        ["simulate", "--realizations", "1", "--out", str(tmp_path / "sim")],
        ["map", source, "--band", "80"],
        ["despike", str(tmp_path / "missing.csv")],
        ["despike"],
        ["map", source, "--band", "80:90", "--out", str(tmp_path / "map")],
        ["bench", "--realizations", "1"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    assert build_parser() is build_parser()
    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 2, 2, 0, 2]
    assert "argument --band: band must look like LO:HI" in shared[1][2]
    assert "missing.csv" in shared[2][2]
    assert "required: input" in shared[3][2]
    assert "unrecognized arguments: --realizations" in shared[5][2]


_ENCODING_CHAIN_SCRIPT = """
import sys
from gammasep.cli import main

out, config = sys.argv[1], sys.argv[2]
codes = [
    main(["simulate", "--config", config, "--out", out + "/s"]),
    main(["despike", out + "/s/realization_000.csv", "--config", config,
          "--out", out + "/d"]),
    main(["map", out + "/d/oscillatory.csv", "--config", config, "--out", out + "/m"]),
    main(["bench", "--config", config, "--out", out + "/b"]),
]
assert codes == [0, 0, 0, 0], codes
"""


def test_commands_name_every_text_encoding(tmp_path):
    # EncodingWarning is raised only when the interpreter starts with
    # -X warn_default_encoding, so the chain runs in its own process
    package_root = os.path.dirname(os.path.dirname(g.__file__))
    config = write_config(tmp_path, {"n_realizations": 1})
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error",
         "-c", _ENCODING_CHAIN_SCRIPT, str(tmp_path), config],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


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
def test_signal_file_that_is_not_utf8_exits_invalid_naming_it(tmp_path, capsys, command):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# rate=512.0\na,b\n1.0,\xff\n")
    code = main([command, str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 21: "
        "invalid start byte"
    ]


def test_manifest_that_cannot_be_read_is_refused_naming_it(tmp_path):
    for path in (tmp_path / "missing.manifest", tmp_path):
        with pytest.raises(SignalFormatError, match=f"^{re.escape(str(path))}: "):
            read_manifest(path)


def test_manifest_that_is_not_utf8_is_refused_naming_it(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_bytes(b"realization=0\nch1.burst_freq_hz=\xff\n")
    with pytest.raises(SignalFormatError) as info:
        read_manifest(path)
    assert str(info.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 32: "
        "invalid start byte"
    )


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


def test_map_at_a_rate_above_the_tap_ceiling_exits_invalid(tmp_path, capsys):
    signal, _ = g.build_realization(g.SimConfig(n_samples=2000), 0)
    path = tmp_path / "fast.csv"
    write_signal_csv(path, signal)
    text = path.read_text().replace("# rate=512.0\n", "# rate=1e10\n", 1)
    path.write_text(text)
    code = main(["map", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert not (tmp_path / "out").exists()
    assert "sample_rate_hz 10000000000.0 needs" in capsys.readouterr().err


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


def test_overflow_during_analysis_exits_invalid_without_warnings(tmp_path, capsys):
    # finite on disk; the first analysis level overflows, and only the
    # detector's finiteness check may speak for it
    signal, _ = g.build_realization(g.SimConfig(n_samples=2000), 0)
    data = signal.data.copy()
    data[1, 1000:1003] = [1.7e308, 1.7e308, -1.7e308]
    path = tmp_path / "big.csv"
    write_signal_csv(path, MultiChannelSignal(FS, ("a", "b", "c"), data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["despike", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert not caught
    assert capsys.readouterr().err.splitlines() == [
        "error: b: detail energy near 85.0 Hz is not finite; check the input scale"
    ]
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("freq", ["7", "0.5"])
    def test_target_below_the_transform_exits_invalid(self, tmp_path, capsys, freq):
        # 5 levels at 512 Hz reach down to the band [8, 16) Hz
        config, csv_path = self._simulated_csv(tmp_path)
        out = tmp_path / "desp"
        argv = ["despike", csv_path, "--config", config, "--freq", freq]
        assert main(argv + ["--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"target {float(freq)} Hz" in err
        assert "lowest target they reach is 8.0 Hz" in err
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

    def test_outputs_do_not_depend_on_the_filter_cache(self, tmp_path):
        csv_path = self._despiked_clean_csv(tmp_path)
        g.tfmap._bandpass_taps.cache_clear()
        g.tfmap._morlet_bank.cache_clear()
        for out, band in (("cold", "80:90"), ("other", "40:50"), ("warm", "80:90")):
            argv = ["map", csv_path, "--band", band, "--out", str(tmp_path / out)]
            assert main(argv) == EXIT_OK
        for name in ("map.csv", "map.pgm", "detection.txt"):
            cold = (tmp_path / "cold" / name).read_bytes()
            assert (tmp_path / "warm" / name).read_bytes() == cold

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

    @pytest.mark.parametrize(
        "extra",
        [
            {"band_hz": [80, 300]},
            {"target_freq_hz": [300]},
        ],
    )
    def test_failing_report_leaves_no_output_directory(self, tmp_path, capsys, extra):
        config = write_config(tmp_path, extra)
        out = tmp_path / "bench"
        assert main(["bench", "--config", config, "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_band_above_nyquist_exits_as_map_does_before_any_separation(
        self, tmp_path, capsys, monkeypatch
    ):
        config = write_config(tmp_path, {"band_hz": [80.0, 300.0]})
        map_out, bench_out = tmp_path / "map", tmp_path / "bench"
        argv = ["map", zero_signal_csv(tmp_path), "--config", config, "--out", str(map_out)]
        assert main(argv) == EXIT_INVALID
        map_err = capsys.readouterr().err
        assert map_err == (
            "error: band_hz must satisfy 0 < low < high < 256.0, got (80.0, 300.0)\n"
        )
        calls = []
        separate = g.despike.separate
        monkeypatch.setattr(
            g.despike, "separate", lambda *a, **k: calls.append(a) or separate(*a, **k)
        )
        assert main(["bench", "--config", config, "--out", str(bench_out)]) == EXIT_INVALID
        assert capsys.readouterr().err == map_err
        assert calls == []
        assert not map_out.exists() and not bench_out.exists()

    def test_accel_flag_is_rejected(self, tmp_path, capsys):
        # both schedules always run; there is no flag to pick one
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--accel", "0", "--out", str(tmp_path / "bench")])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments: --accel" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("command", ["despike", "map"])
def test_seed_flag_is_rejected_where_no_seed_is_read(tmp_path, capsys, command):
    # only simulate and bench draw random numbers
    csv_path = zero_signal_csv(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, csv_path, "--seed", "1", "--out", str(out)])
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not out.exists()


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

    def test_int_and_float_spellings_write_identical_trees(self, tmp_path, capsys):
        floats = {
            "snr_db": 5.0,
            "burst_freqs_hz": [45.0, 55.0, 85.0],
            "target_freq_hz": [45.0, 55.0, 85.0],
            "band_hz": [80.0, 90.0],
        }
        ints = json.loads(json.dumps(floats).replace(".0", ""))
        assert ints["band_hz"] == [80, 90] and type(ints["snr_db"]) is int
        trees = []
        for name, setting in (("float", floats), ("int", ints)):
            config = write_config(tmp_path, setting, name=f"{name}.json")
            root = tmp_path / name
            sim = root / "sim"
            for argv in (
                ["simulate", "--out", str(sim)],
                ["despike", str(sim / "realization_001.csv"), "--out", str(root / "d")],
                ["map", str(root / "d" / "oscillatory.csv"), "--out", str(root / "m")],
                ["bench", "--out", str(root / "b")],
            ):
                assert main(argv[:1] + ["--config", config] + argv[1:]) == EXIT_OK
            trees.append(
                {
                    path.relative_to(root).as_posix(): path.read_bytes()
                    for path in root.rglob("*")
                    if path.is_file()
                }
            )
        capsys.readouterr()
        assert len(trees[0]) == 4 + 3 + 3 + 2
        assert trees[0] == trees[1]
