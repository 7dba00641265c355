"""Tests for the package namespace: it is its library modules' `__all__`."""

import ast
import importlib
import inspect

import pytest

import gammasep

LIBRARY = ("backends", "despike", "signal_core", "simulate", "swt", "tfmap", "tickmodel")


def _module(name):
    return importlib.import_module(f"gammasep.{name}")


def test_package_all_is_the_module_lists_in_order():
    expected = [n for m in LIBRARY for n in _module(m).__all__] + ["__version__"]
    assert gammasep.__all__ == expected
    assert len(set(gammasep.__all__)) == len(gammasep.__all__)


# the package's public names; a change here is a change of its interface
PUBLIC_NAMES = [
    "centered_conv", "centered_conv_complex", "circular_conv",
    "NoDetectionError", "RectMask", "SeparationResult", "analysis_advance",
    "build_mask", "detect_oscillation_center", "mask_geometry", "mask_scales",
    "separate", "threshold_coeffs",
    "MultiChannelSignal", "TimeWindow", "ms_to_samples", "oscillation_duration_ms",
    "ChannelTruth", "GroundTruth", "OverlapRegime", "SimConfig",
    "build_realization", "gen_colored_noise", "gen_gamma_burst", "gen_transient",
    "FilterPair", "WaveletCoefficients", "iswt_reconstruct",
    "level_for_frequency", "swt_decompose", "wavelet_filters",
    "BuildupDetection", "MorletParams", "SpatioTemporalMap", "bandpass",
    "bandpass_taps", "detect_buildup", "envelope_smooth", "map_row",
    "morlet_kernel", "morlet_transform", "normalize_by_low_band",
    "scale_for_frequency", "scales_for_band", "spatiotemporal_map",
    "Stage", "TickReport", "benchmark_report", "mapping_stages",
    "run_mapping_pipeline", "run_pipeline", "separation_stages",
    "__version__",
]


def test_package_names_are_unchanged():
    assert gammasep.__all__ == PUBLIC_NAMES


def test_signal_core_imports_no_other_gammasep_module():
    """Every module checks its arguments with signal_core's validators, so
    signal_core itself must stay a leaf of the import graph."""
    modules = []
    for node in ast.walk(ast.parse(inspect.getsource(_module("signal_core")))):
        if isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert "numpy" in modules
    assert [m for m in modules if m.startswith((".", "gammasep"))] == []


def test_front_end_stays_outside_the_package_namespace():
    cli = _module("cli")
    assert not set(cli.__all__) & set(gammasep.__all__)


@pytest.mark.parametrize("module", LIBRARY + ("cli",))
def test_every_exported_name_resolves(module):
    mod = _module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", LIBRARY)
def test_package_names_are_the_module_objects(module):
    mod = _module(module)
    for name in mod.__all__:
        assert getattr(gammasep, name) is getattr(mod, name), name
