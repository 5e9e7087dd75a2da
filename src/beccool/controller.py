"""Derivative feedback: u(t_i) = K [m(t_i) - m(t_{i-1})], the nominal gain
matrix, output filtering on the power channels, and calibration of K against
target per-channel loop gains.

K carries V/m against a per-sample measurement difference: the 1/tau of the
finite-difference derivative is absorbed into the gains.
"""

from dataclasses import dataclass

import numpy as np

from .constants import SAMPLE_PERIOD
from .estimator import LowPass


class CalibrationError(RuntimeError):
    pass


def nominal_gain_matrix():
    """Nominal 4x3 feedback matrix (SI, V/m).

    The paired power-channel entries act on the width channel in opposition
    so their vertical gravitational-sag contributions nearly cancel.
    """
    k_per_um = np.array(
        [
            [-0.82, 0.0, 0.0],
            [0.0, -0.27, 0.0],
            [0.0, 0.0, -0.38],
            [0.0, 0.0, 0.16],
        ]
    )
    return k_per_um * 1e6


def loop_gain(g, k):
    """Total loop gain L = G K (3x3).

    Diagonal entries are the per-mode gains; L[1, 2] is the residual coupling
    from width control into the vertical trap position.
    """
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    if g.shape != (3, 4) or k.shape != (4, 3):
        raise ValueError("need G of shape 3x4 and K of shape 4x3")
    return g @ k


def calibrate_gains(g, target_x, target_z, target_w):
    """Gain matrix hitting the target diagonal loop gains with zero sag coupling.

    The piezo channels are single-input: K[0,0] = target_x / G[0,0] and
    likewise for z.  The two power channels are chosen to zero the vertical
    coupling exactly while meeting the width-channel target:

        [G[1,2] G[1,3]] [K[2,2]]   [0       ]
        [G[2,2] G[2,3]] [K[3,2]] = [target_w]

    ``target_x``/``target_z`` are dimensionless; ``target_w`` is in
    (rad/s)^2 per meter of measured width change.
    """
    g = np.asarray(g, dtype=float)
    if g[0, 0] == 0 or g[1, 1] == 0:
        raise CalibrationError("piezo channels have zero response")
    a = np.array([[g[1, 2], g[1, 3]], [g[2, 2], g[2, 3]]])
    b = np.array([0.0, target_w])
    scale = np.abs(a).max()
    if scale == 0:
        raise CalibrationError("power channels have zero response")
    if abs(np.linalg.det(a)) >= 1e-12 * scale**2:
        k_w = np.linalg.solve(a, b)
    else:
        # rank-deficient but possibly consistent (e.g. no sag coupling at
        # all): accept the minimum-norm solution only when it is exact,
        # judging each equation against its own magnitude
        k_w, *_ = np.linalg.lstsq(a, b, rcond=None)
        resid = np.abs(a @ k_w - b)
        tol = 1e-9 * (np.abs(a) @ np.abs(k_w) + np.abs(b) + 1e-30)
        if not np.all(resid <= tol):
            raise CalibrationError("power-channel 2x2 system is singular")
    k = np.zeros((4, 3))
    k[0, 0] = target_x / g[0, 0]
    k[1, 1] = target_z / g[1, 1]
    k[2, 2], k[3, 2] = k_w
    return k


@dataclass
class ControllerConfig:
    """The output stage; the gain matrix and loop timing are constructor arguments."""

    output_cutoff_hz: float = 100.0  # power channels only; 0 disables
    saturation: float = 0.0          # symmetric volt clamp; 0 disables
    clamp_before_filter: bool = False

    def __post_init__(self):
        for name in ("output_cutoff_hz", "saturation"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0 (0 disables), got {value!r}")


class DerivativeController:
    """Stateful controller: remembers the previous measurement and the output
    filter memory on the two power channels.

    Measurements flow through continuously; before ``enable_time`` the output
    is the zero vector while the filters keep decaying toward rest.
    """

    def __init__(self, k, enable_time, cfg=None, sample_period=SAMPLE_PERIOD):
        self.k = np.asarray(k, dtype=float)
        if self.k.shape != (4, 3):
            raise ValueError("gain matrix must be 4x3")
        if not np.all(np.isfinite(self.k)):
            raise ValueError("gain matrix must be finite")
        self.enable_time = enable_time
        self.cfg = cfg or ControllerConfig()
        fc = self.cfg.output_cutoff_hz
        self._lp = (LowPass(fc, sample_period), LowPass(fc, sample_period)) if fc else None
        self.prev = None

    def step(self, m, t):
        """Consume the measurement for this sample and emit the actuator
        voltages u = (v_x, v_z, v_64, v_90), a new float array.

        ``m`` is the 3-component measurement in the controller's sign
        convention; differencing makes any constant offset irrelevant.  The
        controller keeps its own copy, so the caller may reuse ``m``.
        """
        m = np.array(m, dtype=float)
        if self.prev is None or t < self.enable_time:
            u = np.zeros(4)
        else:
            u = self.k @ (m - self.prev)
        self.prev = m
        sat = self.cfg.saturation
        if sat and self.cfg.clamp_before_filter:
            u = np.clip(u, -sat, sat)
        if self._lp:
            u[2] = self._lp[0].update(u[2])
            u[3] = self._lp[1].update(u[3])
        if sat and not self.cfg.clamp_before_filter:
            u = np.clip(u, -sat, sat)
        return u

