import numpy as np
import pytest

from beccool import (
    ExperimentConfig,
    GridSpec,
    ImageGrid,
    NoiseConfig,
    OpticsParams,
    TrapConfig,
)
from beccool.optics import _tf_spectrum_on

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


# spectral oracles: the analytic TF spectrum and the resolution blur that
# tests compare the imaging chain against


def tf_phase_spectrum(params, grid):
    """Continuous Fourier transform of the TF phase on the full DFT grid."""
    return _tf_spectrum_on(params, grid.kx, grid.kz)


def tf_phase_half_spectrum(params, grid):
    """The same on the rfft grid, as ``FrameRenderer.render`` samples it."""
    return _tf_spectrum_on(params, grid.kx_half, grid.kz)


def phase_from_spectrum(spec, grid):
    """Band-limited real-space phase from a continuous-FT sample (centered)."""
    return ImageGrid(grid, np.fft.fftshift(np.fft.ifftn(spec, axes=(1, 0)).real) / grid.pitch**2)


def apply_resolution(field, opt):
    """Gaussian-pupil blur exp(-eta^2 k^2) applied in the Fourier domain."""
    grid = field.grid
    ker = np.exp(-opt.eta**2 * grid.k_sq_half)
    return ImageGrid(grid, np.fft.irfft2(ker * np.fft.rfft2(field.data), s=(grid.nz, grid.nx)))
