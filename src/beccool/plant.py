"""Collective-mode plant: horizontal/vertical dipole modes and the axial width
mode of a trapped condensate, driven by four actuator voltages through a linear
open-loop transfer matrix.

Each mode is a harmonic oscillator about an equilibrium set by the current trap
parameters.  Trap parameters are piecewise constant over a sample, so every
step uses the exact rotation solution of the oscillator instead of a numerical
integrator; open-loop energy is conserved to machine precision.
"""

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .constants import RB87_MASS, SAMPLE_PERIOD, TF_RADIUS_X

# Low-lying axial quadrupole of a prolate trap oscillates at sqrt(5/2) * omega_x.
QUADRUPOLE_RATIO = float(np.sqrt(2.5))

# Nominal open-loop transfer entries (SI): piezo channels in m/V, power
# channels in m/V (vertical sag) and (rad/s)^2/V (trap-curvature change).
G_XX = -14.4e-6
G_ZZ = -1.83e-6
G_Z64 = 33e-6
G_Z90 = 77e-6
G_W64 = (2 * np.pi * 26.7) ** 2
G_W90 = (2 * np.pi * 19.9) ** 2


@dataclass
class TrapConfig:
    """Static trap parameters.

    Frequencies are in Hz; ``w_eq0`` is the equilibrium axial half-width of
    the condensate (Thomas-Fermi radius along x).  The vertical-direction
    (y) frequency is carried for completeness but no y dynamics are modeled.
    The unshifted trap centre is the origin, and the atoms are 87Rb
    (``constants.RB87_MASS``).
    """

    f_x: float = 20.3
    f_y: float = 85.6
    f_z: float = 70.3
    w_eq0: float = TF_RADIUS_X
    width_damping: float = 0.0  # 1/s, exponential amplitude decay of the width mode

    def __post_init__(self):
        if not (self.f_x > 0 and self.f_y > 0 and self.f_z > 0):
            raise ValueError("trap frequencies must be strictly positive")
        if not self.w_eq0 > 0:
            raise ValueError("equilibrium width must be strictly positive")
        if not self.width_damping >= 0:
            raise ValueError("width damping rate must be >= 0")

    @property
    def omega_x(self):
        return 2 * np.pi * self.f_x

    @property
    def omega_z(self):
        return 2 * np.pi * self.f_z

    @property
    def omega_q(self):
        return QUADRUPOLE_RATIO * self.omega_x


def nominal_transfer_matrix():
    """Nominal 3x4 open-loop transfer matrix from voltages to trap changes."""
    return np.array(
        [
            [G_XX, 0.0, 0.0, 0.0],
            [0.0, G_ZZ, G_Z64, G_Z90],
            [0.0, 0.0, G_W64, G_W90],
        ]
    )


def perturb_transfer_matrix(g, rng, scale):
    """Multiplicative per-entry jitter on the nonzero entries of G.

    Models slow actuator drift (piezo hysteresis, electronic offsets) as a
    per-run perturbation: each nonzero entry is scaled by (1 + scale * N(0,1)).
    """
    g = np.array(g, dtype=float, copy=True)
    if scale:
        jitter = 1.0 + scale * rng.standard_normal(g.shape)
        g[g != 0] *= jitter[g != 0]
    return g


@dataclass
class PlantState:
    """Mode coordinates/velocities plus the scenario trap offsets.

    ``w`` is the axial half-width of the condensate (strictly positive);
    ``trap`` is the float array (dx_trap, dz_trap, domega_x_sq) of externally
    applied trap offsets (kicks, drives) on top of which the harness adds
    per-sample actuator contributions.  It is never written in place.
    """

    x: float
    vx: float
    z: float
    vz: float
    w: float
    vw: float
    trap: np.ndarray

    def __post_init__(self):
        if not self.w > 0:
            raise ValueError("width-mode coordinate must be strictly positive")


def equilibrium_state(cfg):
    """State at rest at the unperturbed trap equilibrium."""
    return PlantState(x=0.0, vx=0.0, z=0.0, vz=0.0, w=cfg.w_eq0, vw=0.0, trap=np.zeros(3))


def width_equilibrium(cfg, domega_x_sq):
    """Equilibrium width under a trap-curvature change.

    Linearized Thomas-Fermi scaling (radius ~ 1/omega at fixed chemical
    potential): delta w_eq / w_eq = -delta(omega_x^2) / (2 omega_x^2).
    """
    return cfg.w_eq0 * (1.0 - domega_x_sq / (2.0 * cfg.omega_x**2))


def _rotate(r, v, center, omega, dt):
    # exact free rotation of (r - center, v) at angular frequency omega
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    u = r - center
    return center + u * c + (v / omega) * s, -omega * u * s + v * c


def _rotate_damped(r, v, center, omega, gamma, dt):
    # exact underdamped solution; gamma is the amplitude decay rate
    if gamma == 0.0:
        return _rotate(r, v, center, omega, dt)
    if not gamma < omega:
        raise ValueError("width damping must stay below the mode frequency")
    wd = np.sqrt(omega**2 - gamma**2)
    u = r - center
    e = np.exp(-gamma * dt)
    c, s = np.cos(wd * dt), np.sin(wd * dt)
    a = u
    b = (v + gamma * u) / wd
    u_new = e * (a * c + b * s)
    v_new = e * ((-a * wd * s + b * wd * c)) - gamma * u_new
    return center + u_new, v_new


def step(state, s, dt, cfg):
    """Advance the plant by dt with trap offsets s = (dx_trap, dz_trap,
    domega_x_sq) held constant.

    Dipole modes rotate about the shifted trap centers; the width mode rotates
    about its curvature-dependent equilibrium at omega_q = sqrt(5/2) omega_x,
    with an optional phenomenological damping rate.  The applied offsets ``s``
    must already include every contribution (scenario events + actuators).
    """
    if not dt > 0:
        raise ValueError("step requires dt > 0")
    dx_trap, dz_trap, domega_x_sq = s
    wx_sq = cfg.omega_x**2 + domega_x_sq
    if not wx_sq > 0:
        raise ValueError(f"trap inverted: omega_x^2 + domega_x_sq = {wx_sq:.3e} <= 0")
    omega_x = np.sqrt(wx_sq)
    omega_q = QUADRUPOLE_RATIO * omega_x

    x, vx = _rotate(state.x, state.vx, dx_trap, omega_x, dt)
    z, vz = _rotate(state.z, state.vz, dz_trap, cfg.omega_z, dt)
    w, vw = _rotate_damped(
        state.w, state.vw, width_equilibrium(cfg, domega_x_sq), omega_q,
        cfg.width_damping, dt,
    )
    return PlantState(x=x, vx=vx, z=z, vz=vz, w=w, vw=vw, trap=state.trap)


def dipole_kick(state, kick):
    """Sudden trap-parameter change by the 3-sequence ``kick``; mode
    coordinates are untouched."""
    return replace(state, trap=state.trap + kick)


def mode_energies(state, cfg):
    """Per-mode energies about the equilibria implied by the state's trap offsets.

    Energy is (1/2) m omega^2 (r - r_eq)^2 + (1/2) m v^2 for each mode.
    """
    dx_trap, dz_trap, domega_x_sq = state.trap
    m = RB87_MASS
    wx_sq = cfg.omega_x**2 + domega_x_sq
    omega_q_sq = QUADRUPOLE_RATIO**2 * wx_sq
    e_x = 0.5 * m * wx_sq * (state.x - dx_trap) ** 2 + 0.5 * m * state.vx**2
    e_z = 0.5 * m * cfg.omega_z**2 * (state.z - dz_trap) ** 2 + 0.5 * m * state.vz**2
    e_w = (0.5 * m * omega_q_sq * (state.w - width_equilibrium(cfg, domega_x_sq)) ** 2
           + 0.5 * m * state.vw**2)
    return {"x": e_x, "z": e_z, "w": e_w}


def quadrupole_drive(state, amplitude, drive_freq, n_periods, cfg, dt=SAMPLE_PERIOD):
    """Sinusoidally modulate the trap curvature for a whole number of periods.

    domega_x_sq(t) = amplitude * sin(drive_freq * t) is applied on top of the
    state's trap offsets via repeated exact steps of length ``dt``.  Returns
    the final state.
    """
    if not n_periods >= 1:
        raise ValueError("need n_periods >= 1")
    if not drive_freq > 0:
        raise ValueError("drive frequency must be positive")
    n_steps = int(round(n_periods * 2 * np.pi / drive_freq / dt))
    if n_steps < 2:  # the first step samples sin(0): one step alone drives nothing
        raise ValueError(f"a drive of drive_freq = {drive_freq!r} rad/s for n_periods = "
                         f"{n_periods!r} spans under 1.5 steps of dt = {dt!r} s and "
                         "would drive nothing")
    t_rel = 0.0
    for _ in range(n_steps):
        mod = amplitude * np.sin(drive_freq * t_rel)
        state = step(state, state.trap + (0.0, 0.0, mod), dt, cfg)
        t_rel += dt
    return state


class DelayLine:
    """The loop latency as a shift register: ``pop_due`` returns the command
    pushed ``samples`` pushes earlier, or a fresh ``np.zeros(4)`` before that."""

    def __init__(self, samples):
        if not samples >= 0:
            raise ValueError(f"delay must be >= 0 samples, got {samples!r}")
        self.samples = samples
        self._queue = deque()

    def push(self, u):
        self._queue.append(u)

    def pop_due(self):
        return self._queue.popleft() if len(self._queue) > self.samples else np.zeros(4)
