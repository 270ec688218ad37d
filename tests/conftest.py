import numpy as np
import pytest

from spinloop import config as cfgmod
from spinloop import gridsim


@pytest.fixture(scope="session")
def preset_cfg():
    return cfgmod.load_config()


@pytest.fixture(scope="session")
def preset_params(preset_cfg):
    return cfgmod.build_params(preset_cfg)


@pytest.fixture(scope="session")
def preset_units(preset_cfg):
    return cfgmod.build_units(preset_cfg)


@pytest.fixture(scope="session")
def preset_kappa(preset_cfg):
    return cfgmod.build_kinetic_scale(preset_cfg)


@pytest.fixture(scope="session")
def preset_oracle(preset_cfg):
    """The preset's grid oracle (main, Zeeman and remainder runs), run once per session."""
    return gridsim.run_oracle(preset_cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
