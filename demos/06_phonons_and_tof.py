"""Phonon-occupancy accounting: window variances, the finite-difference
measurement-noise bias, its correction, and the time-of-flight prediction.

The bias matters: white position noise of ~0.12 um reads as ~0.156 phonons
on the 20.3 Hz mode because finite-difference velocities amplify it by
2/(omega tau)^2.
"""

import numpy as np

from beccool import (
    NoiseConfig,
    TrapConfig,
    a_ho,
    ballistic_ensemble,
    bias_correct,
    measurement_bias,
    phonon_occupancy,
    sigma_from_bias,
    tof_variance,
)
from beccool.constants import HBAR, SAMPLE_PERIOD

TAU = SAMPLE_PERIOD
TRAP = TrapConfig()
MODES = {"x": TRAP.omega_x, "z": TRAP.omega_z, "w": TRAP.omega_q}
SIGMA = NoiseConfig().offline_sigma  # the phonon accounting's offline noise

print("oscillator lengths:",
      ", ".join(f"{m}: {a_ho(w) * 1e6:.2f} um" for m, w in MODES.items()))

# a clean oscillation: n = A^2 / (2 a_ho^2)
amp = 8e-6
t = np.arange(300) * TAU
r = amp * np.cos(MODES["x"] * t)
print(f"\n8 um oscillation on x: n = {phonon_occupancy(r, MODES['x'], TAU):.2f} "
      f"(closed form {amp**2 / (2 * a_ho(MODES['x'])**2):.2f})")

# the measurement-noise bias and the noise level each documented bias implies
print(f"\nwhite-noise biases at {SIGMA * 1e6:.2f} um, and the noise implied by the "
      "documented biases:")
for mode, bias_doc in (("x", 0.156), ("z", 0.046), ("w", 0.099)):
    w = MODES[mode]
    b = measurement_bias(SIGMA, w, TAU, a_ho(w))
    sig = sigma_from_bias(bias_doc, w, TAU, a_ho(w))
    print(f"  {mode}: bias({SIGMA * 1e6:.2f} um) = {b:.4f}   bias {bias_doc} -> "
          f"sigma_r = {sig * 1e6:.3f} um")

# Monte-Carlo: biased measurement, corrected back
rng = np.random.default_rng(1)
w = MODES["x"]
vals = [phonon_occupancy(r + SIGMA * rng.standard_normal(r.size), w, TAU)
        for _ in range(400)]
n_meas = np.mean(vals)
n_true = bias_correct(n_meas, SIGMA, w, TAU, a_ho(w))
print(f"\nnoisy record of the same oscillation: n_meas = {n_meas:.3f}, "
      f"bias-corrected n_true = {n_true:.3f}")

# time of flight: equipartitioned mode released for 20 ms
print("\n20 ms time-of-flight spreads vs occupancy (x mode):")
for n in (0.1, 0.78, 5.6):
    var = tof_variance(n * HBAR * w, w, 0.020)
    mc = ballistic_ensemble(n * HBAR * w, w, 0.020, 40000, rng).std()
    print(f"  n = {n:4.2f}: formula {np.sqrt(var) * 1e6:5.2f} um, "
          f"ballistic ensemble {mc * 1e6:5.2f} um")
wz = MODES["z"]
for n, label in ((0.78, "x"), (0.18, "z")):
    wm = MODES[label]
    print(f"  sub-phonon regime, {label}: n = {n} -> "
          f"{np.sqrt(tof_variance(n * HBAR * wm, wm, 0.020)) * 1e6:.2f} um residual spread")
