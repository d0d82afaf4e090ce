import numpy as np
import pytest

from holomech import BUILTIN_SOURCES, SystemSpec, get_builtin
from holomech import dynamics

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


@pytest.fixture
def lower_step_cap(monkeypatch):
    """Set ``dynamics.MAX_GRID_STEPS`` for one test.  The kernels read it when
    they are generated, so the cache is cleared after each change and again
    before the cap is restored."""
    def lower(cap):
        monkeypatch.setattr(dynamics, "MAX_GRID_STEPS", cap)
        dynamics._kernel.cache_clear()
    yield lower
    dynamics._kernel.cache_clear()
