import numpy as np
import pytest
from hypothesis import settings

from photoref.cavity import FpiCavity, SqueezerCavity

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
from photoref.coupler import CouplerGeometry
from photoref.material import (
    DEFAULT_MODE_TARGETS,
    DEFAULT_PHOTOREFRACTION,
    MaterialModel,
    PhotorefractionParams,
)


@pytest.fixture(scope="session")
def material() -> MaterialModel:
    return MaterialModel.calibrated(DEFAULT_MODE_TARGETS)


@pytest.fixture(scope="session")
def params30() -> PhotorefractionParams:
    return DEFAULT_PHOTOREFRACTION[30.0]


@pytest.fixture(scope="session")
def params90() -> PhotorefractionParams:
    return DEFAULT_PHOTOREFRACTION[90.0]


@pytest.fixture(scope="session")
def fpi(material) -> FpiCavity:
    return FpiCavity(
        length_mm=15.0,
        facet_reflectivity_probe=0.14,
        facet_reflectivity_pump=0.13,
        material=material,
    )


@pytest.fixture(scope="session")
def squeezer(material) -> SqueezerCavity:
    return SqueezerCavity(
        length_mm=15.0, mirror_r1=0.77, mirror_r2=0.99, material=material
    )


@pytest.fixture(scope="session")
def coupler30() -> CouplerGeometry:
    return CouplerGeometry(
        coupling_constant_per_mm=0.46,
        interaction_length_mm=4.3,
    )


@pytest.fixture(scope="session")
def coupler90() -> CouplerGeometry:
    return CouplerGeometry(
        coupling_constant_per_mm=0.53070,
        interaction_length_mm=4.3,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
