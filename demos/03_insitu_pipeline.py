"""The real-time estimation pipeline, step by step: reference division,
Fourier inverse Laplacian, background offset, rho^6 filter, moments.

Shows why the nonlinear filter exists: with shot noise, the inverse
Laplacian amplifies low spatial frequencies, and plain moments drown; the
sixth power concentrates weight where the density SNR is high.
"""

import numpy as np

from beccool import (
    FrameRenderer,
    GridSpec,
    OpticsParams,
    PhaseParams,
    RegionMask,
    add_shot_noise,
    density_estimate,
    extract_moments,
    make_reference,
    nonlinear_filter,
)

grid = GridSpec()
opt = OpticsParams()
renderer = FrameRenderer(grid, opt)
mask = RegionMask.centered(grid)
reference = make_reference(grid)  # fringed, as collected in a real run

true_x, true_z = -3.3e-6, 1.1e-6
clean = renderer.render(PhaseParams(x0=true_x, z0=true_z))
clean.data *= reference.data  # probe frame carries the same fringes

rng = np.random.default_rng(0)
for photons in (None, 2e7, 4e6):
    frame = clean if photons is None else add_shot_noise(clean, photons, rng)
    rho = density_estimate(frame, reference, mask)
    x_raw, z_raw, *_ = extract_moments(np.abs(rho.data), mask, grid)
    x6, z6, w6, wz6, _ = extract_moments(nonlinear_filter(rho.data), mask, grid)
    label = "noiseless" if photons is None else f"N={photons:.0e} photons/px"
    print(f"{label:>22}: plain |rho| moments x={x_raw * 1e6:+7.3f} um | "
          f"rho^6 moments x={x6 * 1e6:+7.3f} z={z6 * 1e6:+7.3f} w={w6 * 1e6:6.3f} um")
print(f"{'true':>22}: x={true_x * 1e6:+7.3f} z={true_z * 1e6:+7.3f} um "
      "(widths carry the rho^6 scale factor)")

# noise of the estimates versus photon budget
print("\ncentroid noise vs photon budget (40 frames each):")
for photons in (2e6, 4e6, 1e7, 2e7):
    xs, ws = [], []
    for _ in range(40):
        frame = add_shot_noise(clean, photons, rng)
        rho6 = nonlinear_filter(density_estimate(frame, reference, mask).data)
        x, _, w, _, _ = extract_moments(rho6, mask, grid)
        xs.append(x)
        ws.append(w)
    print(f"  N={photons:9.0e}: sigma_x = {np.std(xs) * 1e6:7.4f} um, "
          f"sigma_w = {np.std(ws) * 1e6:7.4f} um")
print("the rho^6 moments turn on sharply once the per-pixel density SNR "
      "crosses 1 — the loop budget (2e7) sits safely above that threshold")
