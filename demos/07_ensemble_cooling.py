"""Desk-scale cooling ensemble: repeat the kick-and-cool experiment with and
without feedback over independent seeded runs and compare the phonon
distributions. A 40+40 ensemble takes ~30 s; pass --runs to change it."""

import argparse

import numpy as np

from beccool import Scenario, monte_carlo

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=40)
args = parser.parse_args()

results = {}
for feedback in (True, False):
    sc = Scenario(kind="dipole_kick", feedback=feedback, duration=0.18,
                  hold_random=(0.0, 0.05))
    _, summaries, summary = monte_carlo(sc, n_runs=args.runs, base_seed=12)
    results[feedback] = summary
    label = "feedback ON " if feedback else "feedback OFF"
    st = summary["stats"]
    print(f"{label}: {args.runs} runs, {summary['n_failed']} failed")
    for mode in "xzw":
        s = st[f"n_{mode}_true"]
        print(f"   n_{mode},true = {s['mean']:8.4f} +/- {s['sem']:.4f}   "
              f"median {s['quantiles']['q50']:8.4f}")

on, off = results[True]["stats"], results[False]["stats"]
for mode in "xz":
    ratio = off[f"n_{mode}_true"]["mean"] / max(on[f"n_{mode}_true"]["mean"], 1e-6)
    print(f"off/on occupancy ratio, {mode}: {ratio:.0f}")
print("\nwith feedback the dipole modes end well below one phonon per atom; "
      "without it the kick energy just sits there")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt:
    fig, axes = plt.subplots(1, 3, figsize=(11, 3.2))
    for ax, mode in zip(axes, "xzw"):
        for fb, color in ((True, "tab:blue"), (False, "tab:red")):
            s = results[fb]["stats"][f"n_{mode}_true"]
            edges = np.array(s["hist_edges"])
            ax.stairs(s["hist_counts"], edges, fill=True, alpha=0.5, color=color,
                      label="on" if fb else "off")
        ax.set(title=f"n_{mode},true", xlabel="phonons per atom")
    axes[0].set_ylabel("runs")
    axes[0].legend()
    fig.tight_layout()
    plt.show()
