"""Shared fixtures for the test suite."""

import numpy as np
import pytest

import gammasep as g
from gammasep.swt import wavelet_filters


@pytest.fixture(scope="session")
def db4():
    return wavelet_filters("db4")


@pytest.fixture(scope="session")
def haar():
    return wavelet_filters("haar")


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
