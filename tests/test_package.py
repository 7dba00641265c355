"""Tests for the package namespace: it is its library modules' `__all__`."""

import importlib

import pytest

import gammasep

LIBRARY = ("backends", "despike", "signal_core", "simulate", "swt", "tfmap", "tickmodel")


def _module(name):
    return importlib.import_module(f"gammasep.{name}")


def test_package_all_is_the_module_lists_in_order():
    expected = [n for m in LIBRARY for n in _module(m).__all__] + ["__version__"]
    assert gammasep.__all__ == expected
    assert len(set(gammasep.__all__)) == len(gammasep.__all__)


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
