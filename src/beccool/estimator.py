"""Real-time in-situ pipeline: reference division, regularized inverse
Laplacian, background-offset removal, the rho^6 nonlinear filter, moment
extraction, digital low-pass filtering and finite differences.

The pipeline is deterministic: an identical frame and identical filter state
always produce the identical measurement.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import SAMPLE_PERIOD
from .optics import ImageGrid


@dataclass
class MeasurementVector:
    """Real-time estimates: positions, width, plus the uncontrolled z width.

    Values are the feedback-path quantities, i.e. x_hat and w_hat are the
    low-pass-filtered versions while z_hat is unfiltered.
    """

    x_hat: float = 0.0
    z_hat: float = 0.0
    w_hat: float = 0.0
    t: float = 0.0
    w_z_hat: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        if not np.all(np.isfinite([self.x_hat, self.z_hat, self.w_hat])):
            raise ValueError("measurement must be finite")
        if self.w_hat < 0:
            raise ValueError("width estimate must be >= 0")

    def as_array(self):
        return np.array([self.x_hat, self.z_hat, self.w_hat])


@dataclass
class EstimatorConfig:
    region_halfwidth_px: int = 12
    background_margin_frac: float = 0.15
    x_cutoff_hz: float = 60.0
    w_cutoff_hz: float = 100.0
    # frames whose rho^6 mass falls below this fraction of the first frame's
    # mass are declared degenerate: hold the last measurement and flag it
    degenerate_mass_fraction: float = 1e-4

    def __post_init__(self):
        for name in ("x_cutoff_hz", "w_cutoff_hz"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not self.region_halfwidth_px >= 1:
            raise ValueError(f"region_halfwidth_px must be >= 1, got {self.region_halfwidth_px!r}")
        if not 0 < self.background_margin_frac < 0.5:
            raise ValueError("background_margin_frac must lie in (0, 0.5), "
                             f"got {self.background_margin_frac!r}")
        if not 0 <= self.degenerate_mass_fraction < 1:
            raise ValueError("degenerate_mass_fraction must lie in [0, 1), "
                             f"got {self.degenerate_mass_fraction!r}")


@dataclass
class RegionMask:
    """Disjoint pixel regions: where atoms may live, and pure background."""

    atoms: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        if self.atoms.shape != self.background.shape:
            raise ValueError("mask shapes differ")
        if not self.atoms.any() or not self.background.any():
            raise ValueError("both regions must be nonempty")
        if np.any(self.atoms & self.background):
            raise ValueError("atom and background regions must be disjoint")

    @cached_property
    def atom_box(self):
        """Row and column slices of the smallest rectangle holding the atom region."""
        rows = np.flatnonzero(self.atoms.any(axis=1))
        cols = np.flatnonzero(self.atoms.any(axis=0))
        return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)

    @classmethod
    def centered(cls, grid, halfwidth_px=EstimatorConfig.region_halfwidth_px,
                 margin_frac=EstimatorConfig.background_margin_frac):
        """Square atom region at the frame center; background = outer margin band."""
        atoms = np.zeros((grid.nz, grid.nx), dtype=bool)
        cz, cx = grid.nz // 2, grid.nx // 2
        atoms[cz - halfwidth_px:cz + halfwidth_px, cx - halfwidth_px:cx + halfwidth_px] = True
        mz, mx = int(margin_frac * grid.nz), int(margin_frac * grid.nx)
        background = np.ones((grid.nz, grid.nx), dtype=bool)
        background[mz:-mz, mx:-mx] = False
        if np.any(atoms & background):
            raise ValueError("atom region reaches into the background margin")
        return cls(atoms=atoms, background=background)


def density_estimate(frame, reference, mask):
    """Scaled column-density estimate from a probe/reference frame pair.

    Computes the Fourier-domain inverse Laplacian of the measurement current
    I_n/I_0 - 1 with the singular DC bin set to zero, then removes a constant
    offset so the background region averages to zero.  Output units are
    arbitrary (proportional to the imprinted phase).
    """
    if np.any(reference.data <= 0):
        raise ValueError("reference frame must be strictly positive")
    grid = frame.grid
    current = frame.data / reference.data
    current -= 1.0
    # rfft2, the inverse Laplacian and irfft2, with the column passes in place
    spec = np.fft.rfft(current, axis=1)
    np.fft.fft(spec, axis=0, out=spec)
    spec *= grid.inv_k_sq_half
    np.fft.ifft(spec, axis=0, out=spec)
    rho = np.fft.irfft(spec, n=grid.nx, axis=1)
    rho -= rho[mask.background].mean()
    return ImageGrid(grid, rho)


def nonlinear_filter(rho):
    """Pointwise sixth power; non-negative output, sharpens high-SNR regions."""
    return np.asarray(rho) ** 6


def extract_moments(rho6, mask, grid):
    """Centers and widths from the filtered density, an (nz, nx) array.

    Returns (x, z, w_x, w_z, mass); widths are second central moments, so for
    a Gaussian profile they read sigma/sqrt(6) of the unfiltered cloud.
    """
    w = np.where(mask.atoms, rho6, 0.0)
    mass = w.sum()
    if mass <= 0:
        raise ValueError("filtered density has no mass in the atom region")
    x1 = (w * grid.xx).sum() / mass
    z1 = (w * grid.zz).sum() / mass
    x2 = (w * grid.xx_sq).sum() / mass
    z2 = (w * grid.zz_sq).sum() / mass
    w_x = np.sqrt(max(x2 - x1**2, 0.0))
    w_z = np.sqrt(max(z2 - z1**2, 0.0))
    return float(x1), float(z1), float(w_x), float(w_z), float(mass)


class LowPass:
    """First-order digital low-pass: y_n = a u_n + (1-a) y_{n-1}.

    The coefficient maps the analog pole, a = 1 - exp(-2 pi f_c tau).  The
    state initializes on the first sample so a constant input passes through
    unchanged from the start.
    """

    def __init__(self, cutoff_hz, sample_period):
        if cutoff_hz <= 0 or sample_period <= 0:
            raise ValueError("cutoff and sample period must be positive")
        self.alpha = 1.0 - np.exp(-2 * np.pi * cutoff_hz * sample_period)
        self.y = None

    def update(self, u):
        self.y = u if self.y is None else self.alpha * u + (1 - self.alpha) * self.y
        return self.y

    def reset(self):
        self.y = None


def finite_difference(m_i, m_prev):
    """Raw per-sample difference; the controller gain absorbs the 1/tau."""
    return np.asarray(m_i, dtype=float) - np.asarray(m_prev, dtype=float)


class InSituEstimator:
    """Stateful frame-to-measurement pipeline for one control loop."""

    def __init__(self, grid, cfg=None, sample_period=SAMPLE_PERIOD):
        self.grid = grid
        self.cfg = cfg or EstimatorConfig()
        self.mask = RegionMask.centered(
            grid, self.cfg.region_halfwidth_px, self.cfg.background_margin_frac
        )
        self.lp_x = LowPass(self.cfg.x_cutoff_hz, sample_period)
        self.lp_w = LowPass(self.cfg.w_cutoff_hz, sample_period)
        self.last = None
        self.last_raw = None
        self._mass_ref = None

    def reset(self):
        self.lp_x.reset()
        self.lp_w.reset()
        self.last = None
        self.last_raw = None
        self._mass_ref = None

    def process(self, frame, reference, t):
        """One frame through the whole pipeline; returns the feedback measurement."""
        rho = density_estimate(frame, reference, self.mask)
        # the moments read only the atom region, a rectangle: filter a
        # contiguous copy of it (the same pow loop as on a whole frame) and
        # leave every other pixel zero, as np.where(atoms, rho**6, 0) would
        box = self.mask.atom_box
        rho6 = np.zeros_like(rho.data)
        rho6[box] = nonlinear_filter(np.ascontiguousarray(rho.data[box]))
        mass = rho6.sum()
        if self._mass_ref is None:
            self._mass_ref = mass
        if mass <= self.cfg.degenerate_mass_fraction * self._mass_ref:
            if self.last is None:
                raise ValueError(f"degenerate first frame at t={t:.4f}")
            held = replace(self.last, t=t, degenerate=True)
            self.last = held
            return held
        x, z, w_x, w_z, _ = extract_moments(rho6, self.mask, self.grid)
        self.last_raw = MeasurementVector(x_hat=x, z_hat=z, w_hat=w_x, t=t, w_z_hat=w_z)
        mv = MeasurementVector(
            x_hat=self.lp_x.update(x),
            z_hat=z,  # no filter on z: extra delay would degrade its loop
            w_hat=self.lp_w.update(w_x),
            t=t,
            w_z_hat=w_z,
        )
        self.last = mv
        return mv
