"""Width-mode (quadrupole) excitation and cooling: modulate the trap
curvature at the mode frequency for four periods, then let the loop damp
the resulting shape oscillation through the paired power channels."""

import numpy as np

from beccool import (
    Scenario,
    TrapConfig,
    equilibrium_state,
    mode_energies,
    quadrupole_drive,
    run_experiment,
    summarize_run,
)

trap = TrapConfig()
print(f"quadrupole frequency: sqrt(5/2) x f_x = {trap.omega_q / 2 / np.pi:.1f} Hz")

# resonance curve of the drive itself (plant level, no imaging)
print("\ndrive-frequency scan (4 periods, amplitude 0.02 omega_x^2):")
amp = 0.02 * trap.omega_x**2
for mult in (0.6, 0.8, 1.0, 1.2, 1.6, 10.0):
    state = quadrupole_drive(equilibrium_state(trap), amp, mult * trap.omega_q, 4, trap)
    e = mode_energies(state, trap)["w"]
    print(f"  drive at {mult:4.1f} x omega_q -> width energy {e:.3e} J"
          f"  {'#' * max(1, int(40 * e / 2.2e-29))}")

# closed-loop cooling of a strong excitation
for feedback in (True, False):
    sc = Scenario(kind="quadrupole_drive", feedback=feedback, duration=0.30, seed=3)
    rec = run_experiment(sc)
    w_amp = np.hypot(rec.column("w") - trap.w_eq0, rec.column("vw") / trap.omega_q)
    phonons = summarize_run(rec)
    print(f"\nfeedback {'ON ' if feedback else 'OFF'}: width amplitude "
          f"{w_amp[0] * 1e6:.2f} um at start, {w_amp[-1] * 1e6:.2f} um at 300 ms; "
          f"n_w,true = {phonons['n_w_true']:.3f}")
print("\n(width damping is gentler than the x dipole's: the measured width "
      "carries the rho^6 scale factor and its loop gain is correspondingly low)")
