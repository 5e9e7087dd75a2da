"""Offline characterization: phonon occupancy from sampled trajectories,
measurement-noise bias correction, time-of-flight variance, 2D shadowgraph
model fitting, and ensemble statistics."""

from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, RB87_MASS
from .optics import PhaseParams, fresnel_image, tf_phase


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first fit, so processes
    that only run loops never pay the solver's start-up time and memory."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def a_ho(omega):
    """Harmonic oscillator length sqrt(hbar/(m omega)) of 87Rb."""
    return np.sqrt(HBAR / (RB87_MASS * omega))


def phonon_occupancy(r, omega, tau, r_trap=None):
    """Measured phonon occupancy from the trailing oscillation period.

    Velocities come from per-sample finite differences of the raw position
    record, and both variances are taken over the last whole period (rounded
    to samples):

        n = Var(r - r_trap) / (2 a_ho^2) + Var(dr/dt) / (2 a_ho^2 omega^2)

    ``r_trap`` (same length as r) is subtracted from the *position* term for
    the dipole modes; pass None for the width mode.  The velocity is always
    the rate of the measured position itself: under feedback the commanded
    trap jitters, and differencing a trap-relative coordinate would launder
    that jitter into a spurious kinetic term.  Population variances are used,
    so for white measurement noise the expectation matches the standard bias
    formula.
    """
    r = np.asarray(r, dtype=float)
    rel = r - np.asarray(r_trap, dtype=float) if r_trap is not None else r
    window = int(round(2 * np.pi / omega / tau))
    if window < 3:
        raise ValueError("oscillation period must span at least 3 samples")
    if r.size < window + 1:
        raise ValueError(f"need at least {window + 1} samples, got {r.size}")
    vel = np.diff(r[-(window + 1):]) / tau
    pos = rel[-window:]
    aho_sq = HBAR / (RB87_MASS * omega)
    return float(pos.var() / (2 * aho_sq) + vel.var() / (2 * aho_sq * omega**2))


def measurement_bias(sigma_r, omega, tau, aho):
    """Expected bias of n_meas from white position noise of std sigma_r.

    Finite-difference velocities amplify the noise by 2/(omega tau)^2, giving
    bias = sigma_r^2/(2 a_ho^2) * (1 + 2/(omega^2 tau^2)), in phonon units.
    """
    return sigma_r**2 / (2 * aho**2) * (1.0 + 2.0 / (omega**2 * tau**2))


def bias_correct(n_meas, sigma_r, omega, tau, aho):
    """True occupancy: subtract the white-measurement-noise bias from n_meas."""
    return n_meas - measurement_bias(sigma_r, omega, tau, aho)


def sigma_from_bias(bias, omega, tau, aho):
    """Invert the bias formula: the position-noise std implied by a bias."""
    return np.sqrt(2 * aho**2 * bias / (1.0 + 2.0 / (omega**2 * tau**2)))


def tof_variance(energy, omega, t_tof):
    """Ballistic position variance after release, for an equipartitioned mode.

    Var(x) = E/(m omega^2) and Var(v) = E/m at release, so after a free flight
    Var(x(t)) = E/(m omega^2) (1 + omega^2 t^2).
    """
    if not energy >= 0:
        raise ValueError("energy must be >= 0")
    return energy / (RB87_MASS * omega**2) * (1.0 + (omega * t_tof) ** 2)


def ballistic_ensemble(energy, omega, t_tof, n_samples, rng):
    """Random-phase oscillators released and propagated; returns x(t_tof) samples."""
    amp = np.sqrt(2 * energy / RB87_MASS) / omega
    phase = rng.uniform(0, 2 * np.pi, n_samples)
    x0 = amp * np.cos(phase)
    v0 = -amp * omega * np.sin(phase)
    return x0 + v0 * t_tof


@dataclass
class FitResult:
    params: PhaseParams
    xi: float
    residual_norm: float
    converged: bool
    n_eval: int


def _fit_scales(init, opt):
    return np.array([
        max(abs(init.phi0), 0.01), 10e-6, 10e-6, 10e-6, 10e-6, max(abs(opt.xi), 100e-6),
    ])


def fit_shadowgraph(image, init, opt, fit_xi=False, max_nfev=400, xtol=1e-12, ftol=1e-12):
    """Nonlinear least squares of the full propagation model against a frame.

    Optimizes (phi0, r_x, r_z, x0, z0) and optionally the defocus xi, using a
    trust-region least-squares solver with radii kept positive by bounds.
    Non-convergence is flagged on the result, never silent.
    """
    grid = image.grid

    def model(p6):
        params = PhaseParams(phi0=p6[0], r_x=p6[1], r_z=p6[2], x0=p6[3], z0=p6[4])
        return fresnel_image(tf_phase(params, grid), replace(opt, xi=p6[5])).data

    p0 = np.array([init.phi0, init.r_x, init.r_z, init.x0, init.z0, opt.xi])
    n_par = 6 if fit_xi else 5
    span_x, span_z = grid.nx * grid.pitch / 2, grid.nz * grid.pitch / 2
    lo = [-10.0, grid.pitch / 4, grid.pitch / 4, -span_x, -span_z, 10e-6]
    hi = [10.0, span_x, span_z, span_x, span_z, 10e-3]

    data = image.data
    res = least_squares(
        lambda p: (model(p if fit_xi else np.append(p, opt.xi)) - data).ravel(),
        p0[:n_par],
        x_scale=_fit_scales(init, opt)[:n_par],
        bounds=(np.array(lo[:n_par]), np.array(hi[:n_par])),
        xtol=xtol, ftol=ftol, gtol=None,
        max_nfev=max_nfev,
    )
    p = res.x
    params = PhaseParams(phi0=p[0], r_x=p[1], r_z=p[2], x0=p[3], z0=p[4])
    return FitResult(
        params=params,
        xi=float(p[5]) if fit_xi else opt.xi,
        residual_norm=float(np.linalg.norm(res.fun)),
        converged=bool(res.status > 0),
        n_eval=int(res.nfev),
    )


def ensemble_stats(values_by_mode):
    """Means, standard errors, quantiles and histograms per mode.

    ``values_by_mode`` maps a mode name to an array of per-run scalars (for
    example phonon occupancies).  Each histogram has 24 bins spanning the
    mode's values, so ensemble summaries are reproducible.
    """
    out = {}
    for mode, vals in values_by_mode.items():
        vals = np.asarray(vals, dtype=float)
        if vals.size == 0:
            raise ValueError(f"no values for mode {mode!r}")
        span = (float(vals.min()), float(max(vals.max(), vals.min() + 1e-12)))
        counts, edges = np.histogram(vals, bins=24, range=span)
        out[mode] = {
            "n": int(vals.size),
            "mean": float(vals.mean()),
            "sem": float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0,
            "quantiles": {
                "q10": float(np.quantile(vals, 0.10)),
                "q50": float(np.quantile(vals, 0.50)),
                "q90": float(np.quantile(vals, 0.90)),
            },
            "hist_counts": counts.tolist(),
            "hist_edges": edges.tolist(),
        }
    return out
