"""Shadowgraph image synthesis: Thomas-Fermi phase profiles, full Fresnel
propagation with a Gaussian-pupil resolution kernel, the thin-sample
linearized intensity, reference frames and photon shot noise.

Convention: image arrays have shape (nz, nx) with x along the columns; the
coordinate origin sits at pixel (nz//2, nx//2).  All spectral operators assume
a periodic grid, so objects should stay well inside the frame.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .constants import RB87_D2_WAVELENGTH, TF_RADIUS_X


def _is_pow2(n):
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)  # frozen, so the cached arrays below never go stale
class GridSpec:
    """Uniform pixel grid: nx, nz pixels at ``pitch`` meters per pixel."""

    nx: int = 128
    nz: int = 128
    pitch: float = 5.5e-6

    def __post_init__(self):
        if not (_is_pow2(self.nx) and _is_pow2(self.nz)):
            raise ValueError("grid dimensions must be powers of two")
        if self.pitch <= 0:
            raise ValueError("pixel pitch must be positive")

    @cached_property
    def x(self):
        """Pixel-center x coordinates (m), zero at index nx//2."""
        return (np.arange(self.nx) - self.nx // 2) * self.pitch

    @cached_property
    def z(self):
        return (np.arange(self.nz) - self.nz // 2) * self.pitch

    @cached_property
    def xx(self):
        return np.broadcast_to(self.x[None, :], (self.nz, self.nx))

    @cached_property
    def zz(self):
        return np.broadcast_to(self.z[:, None], (self.nz, self.nx))

    @cached_property
    def xx_sq(self):
        """x^2 at every pixel: the second-moment weight of the estimator."""
        return self.xx**2

    @cached_property
    def zz_sq(self):
        return self.zz**2

    @cached_property
    def kx(self):
        """Angular spatial frequencies along x (rad/m), FFT ordering."""
        return 2 * np.pi * np.fft.fftfreq(self.nx, d=self.pitch)

    @cached_property
    def kz(self):
        return 2 * np.pi * np.fft.fftfreq(self.nz, d=self.pitch)

    @cached_property
    def k_sq(self):
        return self.kx[None, :] ** 2 + self.kz[:, None] ** 2

    @cached_property
    def kx_half(self):
        """rfft-layout x frequencies (for real-field transforms)."""
        return 2 * np.pi * np.fft.rfftfreq(self.nx, d=self.pitch)

    @cached_property
    def k_sq_half(self):
        return self.kx_half[None, :] ** 2 + self.kz[:, None] ** 2

    @cached_property
    def inv_k_sq_half(self):
        """Regularized inverse Laplacian 1/k^2 on the rfft grid; DC bin zero."""
        inv = np.zeros_like(self.k_sq_half)
        nonzero = self.k_sq_half > 0
        inv[nonzero] = 1.0 / self.k_sq_half[nonzero]
        return inv


@dataclass
class ImageGrid:
    """A scalar field sampled on a GridSpec (intensity, phase or density)."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.shape != (self.grid.nz, self.grid.nx):
            raise ValueError(
                f"data shape {self.data.shape} does not match grid "
                f"({self.grid.nz}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("image contains non-finite samples")


@dataclass
class PhaseParams:
    """Thomas-Fermi phase profile: peak phase, radii and center."""

    phi0: float = -0.08
    r_x: float = TF_RADIUS_X
    r_z: float = 5e-6
    x0: float = 0.0
    z0: float = 0.0

    def __post_init__(self):
        if self.r_x <= 0 or self.r_z <= 0:
            raise ValueError("Thomas-Fermi radii must be positive")


@dataclass
class OpticsParams:
    """Imaging-chain parameters.

    ``xi`` is the defocus distance between sample and object plane, ``eta``
    the Gaussian-pupil resolution scale.  Image synthesis works directly from
    the peak phase.
    """

    xi: float = 800e-6
    wavelength: float = RB87_D2_WAVELENGTH
    eta: float = 5.5e-6

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.eta < 0:
            raise ValueError("resolution scale must be >= 0")

    @property
    def k(self):
        """Probe wavenumber (rad/m)."""
        return 2 * np.pi / self.wavelength


def tf_phase(params, grid):
    """Pointwise Thomas-Fermi phase: phi0 (1 - u)^{3/2} inside the ellipse.

    u is the squared elliptic radius; the profile is identically zero outside
    and continuous at the boundary.
    """
    # u is evaluated only on the ellipse's bounding box; each pixel's value is
    # the same expression on the same coordinates as on the full frame.
    rows = _span(grid.z, params.z0, params.r_z)
    cols = _span(grid.x, params.x0, params.r_x)
    ux = ((grid.x[cols] - params.x0) / params.r_x) ** 2
    uz = ((grid.z[rows] - params.z0) / params.r_z) ** 2
    u = ux[None, :] + uz[:, None]
    out = np.zeros((grid.nz, grid.nx))
    inside = u <= 1.0
    out[rows, cols][inside] = params.phi0 * (1.0 - u[inside]) ** 1.5
    return ImageGrid(grid, out)


def _span(axis, centre, radius):
    """Slice of the pixels of ``axis`` within ``radius`` of ``centre``.

    Widened by one pixel on each side, so a pixel whose rounded elliptic
    radius still reaches 1 is never cut off.
    """
    lo = max(int(np.searchsorted(axis, centre - radius)) - 1, 0)
    hi = int(np.searchsorted(axis, centre + radius, side="right")) + 1
    return slice(lo, hi)


def _j2_over_x2(x):
    """j2(x)/x^2 (spherical Bessel) with a series fallback near the origin."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = 1.0 / 15.0 - xs**2 / 210.0
    xl = x[~small]
    out[~small] = ((3.0 / xl**3 - 1.0 / xl) * np.sin(xl) - (3.0 / xl**2) * np.cos(xl)) / xl**2
    return out


def _tf_spectrum_on(params, kx, kz, out=None):
    # 2D Fourier transform of the TF profile: 6 pi j2(kappa)/kappa^2 times
    # the ellipse area scale, with the center shift as a separable phase.
    # The amplitude is even in kz and kz is in fftfreq order, whose rows
    # nz-j hold the exact negatives of rows j: evaluate rows 0..nz/2 only
    # and mirror rows 1..nz/2-1 onto nz-1..nz/2+1.  With ``out`` (complex,
    # (kz.size, kx.size)) the shift and the spectrum are written into it.
    half = kz.size // 2 + 1
    kap = np.sqrt((kx[None, :] * params.r_x) ** 2 + (kz[:half, None] * params.r_z) ** 2)
    amp = np.empty((kz.size, kx.size))
    amp[:half] = params.phi0 * params.r_x * params.r_z * 6.0 * np.pi * _j2_over_x2(kap)
    amp[half:] = amp[half - 2:0:-1]
    shift = np.multiply(np.exp(-1j * kx[None, :] * params.x0),
                        np.exp(-1j * kz[:, None] * params.z0), out=out)
    return np.multiply(amp, shift, out=shift)


def tf_phase_spectrum(params, grid):
    """Continuous Fourier transform of the TF phase on the full DFT grid."""
    return _tf_spectrum_on(params, grid.kx, grid.kz)


def phase_from_spectrum(spec, grid):
    """Band-limited real-space phase from a continuous-FT sample (centered)."""
    return ImageGrid(grid, np.fft.fftshift(np.fft.ifftn(spec, axes=(1, 0)).real) / grid.pitch**2)


def fresnel_image(phase, opt):
    """Full shadowgraph intensity by Fourier-domain paraxial propagation.

    The unit-amplitude field exp(-i phi) is filtered by the Gaussian pupil
    exp(-eta^2 k^2), propagated by the defocus kernel exp(i xi k^2 / 2k) and
    squared; the empty-frame intensity is exactly 1.
    """
    grid = phase.grid
    field = _unit_field_spectrum(phase.data)
    # spectrum times kernel: complex products are not bit-symmetric
    field *= _fresnel_kernel(grid.nx, grid.nz, grid.pitch, opt.eta, opt.xi, opt.k)
    np.fft.ifftn(field, axes=(1, 0), out=field)
    intensity = np.abs(field)
    return ImageGrid(grid, np.square(intensity, out=intensity))


def _unit_field_spectrum(data):
    """2-D FFT of the unit-amplitude field exp(-i data), computed in the array
    it returns; fftn over axes (1, 0) runs in scipy.fft's fft2 order."""
    # exp(-i phi) is exponentiated only where phi != 0; elsewhere it is the
    # constant exp(-i 0) of the same dtype.  A -0.0 pixel so gets +0.0's value,
    # which differs only in the sign of a zero imaginary part: the FFTs carry
    # that as a zero's sign alone and |field|^2 drops it.
    lit = data != 0
    field = np.full(data.shape, np.exp(-1j * data.dtype.type(0)))
    field[lit] = np.exp(-1j * data[lit])
    return np.fft.fftn(field, axes=(1, 0), out=field)


_KERNEL_CACHE_SIZE = 2  # a run uses one kernel; a defocus fit, two per step


def _fresnel_kernel(*values):
    """Read-only pupil-times-defocus kernel for (nx, nz, pitch, eta, xi, k).

    The cache key holds each value's type and zero sign too, so 0, 0.0 and
    -0.0 (equal as keys, not always in bits) never share a kernel.
    """
    return _kernel_for(values, tuple((type(v), math.copysign(1.0, v)) for v in values))


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_for(values, _key):
    nx, nz, pitch, eta, xi, k = values
    # The kernel depends on a pixel only through its k^2, and kx, kz hold
    # exact negatives, so k^2 repeats across both mirror axes (and the
    # diagonal when nx == nz): 1973 distinct values on 128x128.  The two
    # exponentials, the costly part, run on those values alone; their
    # product is formed on the grid, defocus times pupil, as in the
    # full-grid formula.
    levels, inv = _k_sq_levels(nx, nz, pitch)
    kernel = np.exp(1j * xi / (2 * k) * levels)[inv]
    kernel *= np.exp(-eta**2 * levels)[inv]
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _k_sq_levels(nx, nz, pitch):
    """Sorted distinct values of GridSpec(nx, nz, pitch).k_sq and the (nz, nx)
    index array that gathers them back onto the grid."""
    levels, inv = np.unique(GridSpec(nx, nz, pitch).k_sq, return_inverse=True)
    levels.flags.writeable = inv.flags.writeable = False
    return levels, inv


def linearized_image(phase, opt):
    """Thin-sample, small-defocus intensity: I = 1 - (xi/k) * laplacian(phi).

    The transverse Laplacian is evaluated spectrally, so plane-wave phases are
    eigenfunctions and the frame mean stays exactly 1.
    """
    grid = phase.grid
    lap = np.fft.irfft2(-grid.k_sq_half * np.fft.rfft2(phase.data), s=(grid.nz, grid.nx))
    return ImageGrid(grid, 1.0 - opt.xi / opt.k * lap)


def apply_resolution(field, opt):
    """Gaussian-pupil blur exp(-eta^2 k^2) applied in the Fourier domain."""
    grid = field.grid
    ker = np.exp(-opt.eta**2 * grid.k_sq_half)
    return ImageGrid(grid, np.fft.irfft2(ker * np.fft.rfft2(field.data), s=(grid.nz, grid.nx)))


class FrameRenderer:
    """Fast alias-free renderer for the in-loop imaging chain.

    Samples the analytic TF spectrum on the (half) DFT grid, applies the
    resolution kernel and the linearized shadowgraph response in one pass, and
    inverse-transforms once per frame:

        I = 1 + (xi/k) * IFFT[ k^2 exp(-eta^2 k^2) * phi_hat ]

    This equals linearized_image(resolution-blurred phase) but without the
    pixel-sampling aliasing a pointwise phase evaluation would introduce.

    ``render`` transforms in two work buffers of the renderer, so a frame
    allocates no spectrum; each returned frame is still a fresh array.
    """

    def __init__(self, grid, opt):
        self.grid = grid
        self.opt = opt
        k_sq = grid.k_sq_half
        # complex, so the product with the spectrum needs no cast buffer
        self._resp = ((opt.xi / opt.k) * k_sq * np.exp(-opt.eta**2 * k_sq)
                      / grid.pitch**2).astype(complex)
        self._spec = np.empty(k_sq.shape, complex)
        self._lap = np.empty((grid.nz, grid.nx))

    def phase_spectrum(self, params):
        return _tf_spectrum_on(params, self.grid.kx_half, self.grid.kz)

    def render(self, params):
        spec = _tf_spectrum_on(params, self.grid.kx_half, self.grid.kz, out=self._spec)
        np.multiply(self._resp, spec, out=spec)
        np.fft.ifft(spec, axis=0, out=spec)
        lap = np.fft.irfft(spec, n=self.grid.nx, axis=1, out=self._lap)
        frame = np.fft.fftshift(lap)
        frame += 1.0
        return ImageGrid(self.grid, frame)

    def render_fresnel(self, params):
        """Full-model render (pointwise phase + Fresnel kernel), for fidelity runs."""
        return fresnel_image(tf_phase(params, self.grid), self.opt)


DEFAULT_FRINGES = (
    (0.02, (9e3, 4e3), 0.7),
    (0.02, (-3e3, 12e3), 2.1),
)


def make_reference(grid, fringes=DEFAULT_FRINGES):
    """Reference (no-atom) frame: unity plus low-frequency fringes.

    Each fringe is (amplitude, (qx, qz) rad/m, phase offset).  Matched fringes
    in probe and reference cancel exactly in the estimator's ratio.
    """
    data = np.ones((grid.nz, grid.nx))
    for amp, (qx, qz), ph in fringes:
        data += amp * np.cos(qx * grid.xx + qz * grid.zz + ph)
    return ImageGrid(grid, data)


def add_shot_noise(image, photons_per_pixel, rng):
    """Gaussian photon shot noise: mean I, standard deviation sqrt(I/N)."""
    if photons_per_pixel <= 0:
        raise ValueError("photon budget must be positive")
    noisy = np.abs(image.data)  # one array: |I|/N, sigma, sigma * draw, then + I
    noisy /= photons_per_pixel
    np.sqrt(noisy, out=noisy)
    noisy *= rng.standard_normal(noisy.shape)
    noisy += image.data
    return ImageGrid(image.grid, noisy)


def write_ascii_grid(image, path):
    """Plain-text dump: header 'nx nz pitch_m' then one sample per line, row-major."""
    with open(path, "w") as f:
        f.write(f"{image.grid.nx} {image.grid.nz} {image.grid.pitch:.9e}\n")
        np.savetxt(f, image.data.reshape(-1), fmt="%.12e")


def read_ascii_grid(path):
    with open(path) as f:
        nx, nz, pitch = f.readline().split()
        grid = GridSpec(nx=int(nx), nz=int(nz), pitch=float(pitch))
        data = np.loadtxt(f).reshape(grid.nz, grid.nx)
    return ImageGrid(grid, data)


def write_pgm16(image, path):
    """16-bit binary portable graymap, full-range normalized (visualization)."""
    lo, hi = image.data.min(), image.data.max()
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((image.data - lo) / span * 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{image.grid.nx} {image.grid.nz}\n65535\n".encode())
        f.write(scaled.tobytes())
