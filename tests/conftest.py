import numpy as np
import pytest

from beccool import (
    ExperimentConfig,
    GridSpec,
    NoiseConfig,
    OpticsParams,
    TrapConfig,
    phase_from_spectrum,
    tf_phase_spectrum,
)

# the default experiment with no shot noise and no reference fringes
NOISELESS = ExperimentConfig(noise=NoiseConfig(photons_per_pixel=0.0, reference_fringes=False))


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def optics():
    return OpticsParams()


@pytest.fixture(scope="session")
def trap():
    return TrapConfig()


def band_limited_phase(grid, params, k_max):
    """TF-like phase with spectral content tapered off above k_max.

    The analytic spectrum is attenuated by a Gaussian in k so the profile is
    band-limited on the grid; used wherever spectral exactness matters.
    """
    spec = tf_phase_spectrum(params, grid)
    k_sq = grid.k_sq
    return phase_from_spectrum(spec * np.exp(-k_sq / k_max**2), grid)
