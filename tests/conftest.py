import numpy as np
import pytest

from holomech import BUILTIN_SOURCES, SystemSpec, get_builtin

DEFAULT_SEED = 42

# Entire potentials outside the catalog: a transcendental plus a polynomial,
# a product of two calls under a quotient, and a high power with constants.
NON_CATALOG_SOURCES = ["exp(z)+z^5", "cosh(z)*sinh(2*z)/3", "z^7 - i*z^2 + 2"]


@pytest.fixture(scope="session")
def builtins_map():
    return {name: get_builtin(name) for name in BUILTIN_SOURCES}


@pytest.fixture(scope="session")
def builtin_specs(builtins_map):
    """SystemSpec at the reference mass 1/2 for every catalog potential."""
    return {name: SystemSpec(expr, 0.5) for name, expr in builtins_map.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(DEFAULT_SEED)
