"""Physical constants used throughout (SI units)."""

ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg
HBAR = 1.054571817e-34                # J s

RB87_MASS = 86.909180 * ATOMIC_MASS_UNIT  # kg
RB87_D2_WAVELENGTH = 780.241e-9           # m, imaging light default

# x-direction TF radius: the ~5 um z radius scaled by f_z/f_x (radius ~ 1/omega)
TF_RADIUS_X = 5e-6 * 70.3 / 20.3  # m

SAMPLE_PERIOD = 1e-3  # s, the loop's 1 kHz camera and control rate
