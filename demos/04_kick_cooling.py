"""Kick-and-cool: displace the trap 8 um sideways (with a power step), then
engage derivative feedback 10 ms later and watch the dipole modes die.

Reproduces the canonical temporal record: near-critical damping of the
horizontal mode, slower damping of the faster vertical mode (the loop delay
limits its gain), and the measurement record the controller actually saw.
"""

import numpy as np

from beccool import Scenario, TrapConfig, run_experiment, summarize_run

for feedback in (True, False):
    scenario = Scenario(kind="dipole_kick", feedback=feedback, seed=7)
    record = run_experiment(scenario)
    t = record.column("t") * 1e3
    x = record.column("x") * 1e6
    z = record.column("z") * 1e6
    phonons = summarize_run(record)
    print(f"feedback {'ON ' if feedback else 'OFF'}: "
          f"n_x,true = {phonons['n_x_true']:7.4f}  "
          f"n_z,true = {phonons['n_z_true']:7.4f}  "
          f"n_w,true = {phonons['n_w_true']:7.4f}")
    if feedback:
        rec_on = record
    else:
        rec_off = record

# settling of the horizontal mode, measured against the kicked trap position
omega_x = TrapConfig().omega_x
kick_dx, kick_time = scenario.kick_dx, scenario.kick_time
for name, rec in (("ON", rec_on), ("OFF", rec_off)):
    xk = rec.column("x") - kick_dx * (rec.column("t") >= kick_time)
    amp = np.hypot(xk, rec.column("vx") / omega_x) / abs(kick_dx)
    marks = {25: None, 35: None, 50: None, 80: None}
    for ms in marks:
        marks[ms] = amp[ms]
    print(f"feedback {name}: envelope/kick " +
          "  ".join(f"t={ms}ms:{v:5.1%}" for ms, v in marks.items()))
print("(feedback engages at 20 ms; <10% is reached ~30 ms later — the "
      "documented gains are the optimum for this delay and filter chain)")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt:
    fig, axes = plt.subplots(3, 1, figsize=(8, 7), sharex=True)
    for rec, style, label in ((rec_on, "-", "feedback on"),
                              (rec_off, "--", "feedback off")):
        t = rec.column("t") * 1e3
        axes[0].plot(t, rec.column("x_hat") * 1e6, style, label=label)
        axes[1].plot(t, rec.column("z_hat") * 1e6, style)
        axes[2].plot(t, rec.column("w_hat") * 1e6, style)
    axes[0].set_ylabel("x-hat (um)")
    axes[1].set_ylabel("z-hat (um)")
    axes[2].set_ylabel("w-hat (um)")
    axes[2].set_xlabel("t (ms)")
    for ax in axes:
        ax.axvline(10, color="k", ls=":", lw=0.8)
        ax.axvline(20, color="purple", ls=":", lw=0.8)
    axes[0].legend()
    fig.suptitle("real-time measurement record (kick at 10 ms, feedback at 20 ms)")
    fig.tight_layout()
    plt.show()
