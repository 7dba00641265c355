"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

import gammasep as g
from gammasep.swt import FilterPair, wavelet_filters

# CI keeps no example database, so a failure there prints the blob that
# replays it with @reproduce_failure; per-test @settings inherit this
settings.register_profile("ci", print_blob=True)
# the circular kernel's exactness rests on einsum's per-tap order, so CI
# also runs tests/test_backends.py with `--hypothesis-profile=thorough`;
# tests that set their own max_examples keep it
settings.register_profile(
    "thorough", parent=settings.get_profile("ci"), max_examples=1000
)
if "CI" in os.environ:
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def db4():
    return wavelet_filters("db4")


@pytest.fixture(scope="session")
def haar():
    return FilterPair("haar", np.array([1.0, 1.0]) / np.sqrt(2.0))


@pytest.fixture(scope="session")
def default_config():
    return g.SimConfig()


@pytest.fixture(scope="session")
def realization0(default_config):
    """First realization of the standard protocol, with its ground truth."""
    return g.build_realization(default_config, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
