import numpy as np
import pytest

from beccool import (
    FitResult,
    GridSpec,
    OpticsParams,
    PhaseParams,
    a_ho,
    add_shot_noise,
    ballistic_ensemble,
    bias_correct,
    ensemble_stats,
    fit_shadowgraph,
    fresnel_image,
    measurement_bias,
    phonon_occupancy,
    sigma_from_bias,
    tf_phase,
    tof_variance,
)
from beccool import optics
from beccool.constants import HBAR, RB87_MASS

TAU = 1e-3
OMEGA_X = 2 * np.pi * 20.3
OMEGA_Z = 2 * np.pi * 70.3


def test_a_ho_scale():
    # x-mode oscillator length ~ 2.39 um for the default trap
    assert a_ho(OMEGA_X) == pytest.approx(2.39e-6, rel=0.005)


def test_phonon_occupancy_shm():
    # closed-form oracle: n = A^2 / (2 a_ho^2); sampled estimator agrees to
    # O((omega tau)^2) plus the window rounding
    amp = 8e-6
    t = np.arange(400) * TAU
    r = amp * np.cos(OMEGA_X * t)
    n = phonon_occupancy(r, OMEGA_X, TAU)
    n_exact = amp**2 / (2 * a_ho(OMEGA_X) ** 2)
    assert n_exact == pytest.approx(5.586, rel=0.01)   # the documented ~5.6
    assert n == pytest.approx(n_exact, rel=0.02)


def test_phonon_occupancy_constant_is_zero():
    r = np.full(200, 3e-6)
    assert phonon_occupancy(r, OMEGA_X, TAU, r_trap=np.full(200, 3e-6)) == 0.0
    assert phonon_occupancy(r, OMEGA_X, TAU) == 0.0


def test_phonon_occupancy_energy_partition():
    # position and velocity terms each carry half of A^2/(2 a_ho^2)
    amp = 5e-6
    t = np.arange(300) * TAU
    r = amp * np.cos(OMEGA_X * t)
    window = int(round(2 * np.pi / OMEGA_X / TAU))
    seg = r[-(window + 1):]
    aho_sq = HBAR / (RB87_MASS * OMEGA_X)
    pos_term = seg[1:].var() / (2 * aho_sq)
    vel_term = (np.diff(seg) / TAU).var() / (2 * aho_sq * OMEGA_X**2)
    quarter = amp**2 / (4 * aho_sq)
    assert pos_term == pytest.approx(quarter, rel=0.03)
    assert vel_term == pytest.approx(quarter, rel=0.03)


def test_phonon_occupancy_window_validation():
    with pytest.raises(ValueError):
        phonon_occupancy(np.zeros(10), OMEGA_X, TAU)  # record shorter than window
    with pytest.raises(ValueError):
        phonon_occupancy(np.zeros(1000), 2 * np.pi * 900.0, TAU)  # <3 samples/period


def test_phonon_white_noise_expectation():
    # stationary mode with white position noise: E[n_meas] follows the
    # amplified-by-finite-difference formula
    sigma = 0.12e-6
    aho = a_ho(OMEGA_X)
    expect = measurement_bias(sigma, OMEGA_X, TAU, aho)
    rng = np.random.default_rng(11)
    vals = [phonon_occupancy(sigma * rng.standard_normal(120), OMEGA_X, TAU)
            for _ in range(1500)]
    vals = np.array(vals)
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - expect) <= 3 * sem


def test_bias_formula_and_inversion():
    aho = a_ho(OMEGA_X)
    assert bias_correct(1.0, 0.0, OMEGA_X, TAU, aho) == 1.0
    # the x-mode bias of 0.156 implies ~0.12 um measurement noise
    sig_x = sigma_from_bias(0.156, OMEGA_X, TAU, aho)
    assert sig_x == pytest.approx(0.120e-6, rel=0.01)
    # z and w channels give comparable noise levels from their biases
    sig_z = sigma_from_bias(0.046, OMEGA_Z, TAU, a_ho(OMEGA_Z))
    omega_q = np.sqrt(2.5) * OMEGA_X
    sig_w = sigma_from_bias(0.099, omega_q, TAU, a_ho(omega_q))
    assert sig_z == pytest.approx(0.116e-6, rel=0.02)
    assert sig_w == pytest.approx(0.120e-6, rel=0.02)
    # exact roundtrip
    for b in (0.01, 0.156, 2.5):
        s = sigma_from_bias(b, OMEGA_X, TAU, aho)
        assert measurement_bias(s, OMEGA_X, TAU, aho) == pytest.approx(b, rel=1e-12)


def test_bias_correction_unbiased_monte_carlo():
    # frozen trajectory + injected noise: corrected mean recovers the clean n
    amp = 2e-6
    t = np.arange(250) * TAU
    r = amp * np.cos(OMEGA_X * t + 0.3)
    n_clean = phonon_occupancy(r, OMEGA_X, TAU)
    sigma = 0.12e-6
    rng = np.random.default_rng(5)
    vals = [phonon_occupancy(r + sigma * rng.standard_normal(r.size), OMEGA_X, TAU)
            for _ in range(1200)]
    vals = np.array(vals)
    corrected = bias_correct(vals.mean(), sigma, OMEGA_X, TAU, a_ho(OMEGA_X))
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(corrected - n_clean) <= 3 * sem


def test_tof_variance_zero_time():
    e = 4.2e-31
    assert tof_variance(e, OMEGA_X, 0.0) == pytest.approx(e / (RB87_MASS * OMEGA_X**2))
    with pytest.raises(ValueError):
        tof_variance(-1.0, OMEGA_X, 0.02)


@pytest.mark.parametrize("omega", [OMEGA_X, OMEGA_Z])
def test_tof_variance_matches_ballistic_ensemble(omega):
    energy = 0.8 * HBAR * omega
    rng = np.random.default_rng(17)
    n = 20000
    x = ballistic_ensemble(energy, omega, 0.020, n, rng)
    measured = x.var()
    expect = tof_variance(energy, omega, 0.020)
    # variance of the sample variance for this two-phase-quadrature ensemble
    tol = 3 * np.sqrt(2.0 / n) * expect
    assert abs(measured - expect) <= tol


def test_tof_reproduces_documented_residual_spreads():
    # occupancies back-derived from the documented 20 ms residual spreads
    # (5.8 um horizontal, 4.9 um vertical) feed forward to the same numbers
    t_tof = 0.020
    for omega, spread in ((OMEGA_X, 5.8e-6), (OMEGA_Z, 4.9e-6)):
        n_true = spread**2 / (a_ho(omega) ** 2 * (1 + (omega * t_tof) ** 2))
        assert n_true < 1.0  # sub-single-phonon regime
        e = n_true * HBAR * omega
        predicted = np.sqrt(tof_variance(e, omega, t_tof))
        assert predicted == pytest.approx(spread, rel=0.15)


# --- shadowgraph model fitting ----------------------------------------------


@pytest.fixture(scope="module")
def fit_setup():
    grid = GridSpec()
    opt = OpticsParams()
    return grid, opt


def test_fit_self_consistency_at_truth(fit_setup):
    grid, opt = fit_setup
    true = PhaseParams(phi0=-0.08, x0=1.1e-6, z0=-0.7e-6)
    img = fresnel_image(tf_phase(true, grid), opt)
    res = fit_shadowgraph(img, true, opt)
    assert res.converged
    assert res.residual_norm <= 1e-10
    assert res.params.phi0 == pytest.approx(true.phi0, rel=1e-6)
    assert res.params.r_x == pytest.approx(true.r_x, rel=1e-6)
    assert res.params.x0 == pytest.approx(true.x0, abs=1e-6 * abs(true.x0) + 1e-13)


def test_fit_recovers_resolved_object_from_perturbed_start(fit_setup):
    # a z-resolved object keeps the problem well-conditioned: parameter
    # recovery at the 1e-6 level from a strongly perturbed start
    grid, opt = fit_setup
    true = PhaseParams(phi0=-0.08, r_x=30e-6, r_z=12e-6, x0=1.7e-6, z0=-2.3e-6)
    img = fresnel_image(tf_phase(true, grid), opt)
    start = PhaseParams(phi0=-0.10, r_x=27e-6, r_z=14e-6, x0=3e-6, z0=-1e-6)
    res = fit_shadowgraph(img, start, opt, fit_xi=True, xtol=3e-16, ftol=3e-16)
    assert res.converged
    vals = [(res.params.phi0, true.phi0), (res.params.r_x, true.r_x),
            (res.params.r_z, true.r_z), (res.xi, opt.xi)]
    for got, want in vals:
        assert got == pytest.approx(want, rel=1e-6)
    assert res.params.x0 == pytest.approx(true.x0, abs=1e-11)
    assert res.params.z0 == pytest.approx(true.z0, abs=1e-11)


def test_fit_center_precision_with_shot_noise(fit_setup):
    # Monte-Carlo regression on the default (resolution-limited) object; the
    # photon budget here is the one at which 0.2 um center recovery holds
    grid, opt = fit_setup
    true = PhaseParams()
    img = fresnel_image(tf_phase(true, grid), opt)
    start = PhaseParams(phi0=-0.095, r_x=true.r_x * 0.9, r_z=true.r_z * 1.1,
                        x0=1.5e-6, z0=-1e-6)
    worst = 0.0
    for seed in range(4):
        noisy = add_shot_noise(img, 4e7, np.random.default_rng(300 + seed))
        res = fit_shadowgraph(noisy, start, opt, xtol=1e-10, ftol=1e-10)
        assert res.converged
        worst = max(worst, abs(res.params.x0), abs(res.params.z0))
    assert worst <= 0.2e-6


def test_fit_defocus_recovery_on_noisy_synthetics(fit_setup):
    # calibration-style fit on averaged unperturbed frames recovers the
    # generating defocus within 5%
    grid, opt = fit_setup
    true = PhaseParams()
    img = fresnel_image(tf_phase(true, grid), opt)
    start = PhaseParams(phi0=-0.095, r_x=true.r_x * 0.9, r_z=true.r_z * 1.1,
                        x0=1.5e-6, z0=-1e-6)
    for seed in (0, 1):
        rng = np.random.default_rng(3100 + seed)
        frames = [add_shot_noise(img, 1e6, rng).data for _ in range(4)]
        avg = img.__class__(grid, np.mean(frames, axis=0))
        res = fit_shadowgraph(avg, start, opt, fit_xi=True)
        assert res.converged
        assert res.xi == pytest.approx(800e-6, rel=0.05)


def _full_grid_kernel(values, _key):
    nx, nz, pitch, eta, xi, k = values
    k_sq = GridSpec(nx, nz, pitch).k_sq
    return np.exp(-eta**2 * k_sq) * np.exp(1j * xi / (2 * k) * k_sq)


def _fit_bits(res):
    p = res.params
    floats = (p.phi0, p.r_x, p.r_z, p.x0, p.z0, res.xi, res.residual_norm)
    return [float(v).hex() for v in floats], res.converged, res.n_eval


def test_defocus_fit_path_matches_full_grid_kernel(fit_setup, monkeypatch):
    # criterion 9's noisy frame: the kernel built from the grid's distinct
    # k^2 values leads the solver along the same path, float for float, as
    # the kernel evaluated on every pixel; one fit builds one level table
    grid, opt = fit_setup
    true = PhaseParams()
    img = fresnel_image(tf_phase(true, grid), opt)
    start = PhaseParams(phi0=-0.095, r_x=true.r_x * 0.9, r_z=true.r_z * 1.1,
                        x0=1.5e-6, z0=-1e-6)
    rng = np.random.default_rng(99)
    avg = img.__class__(grid, np.mean([add_shot_noise(img, 1e6, rng).data
                                       for _ in range(4)], axis=0))
    optics._kernel_for.cache_clear()
    optics._k_sq_levels.cache_clear()
    got = fit_shadowgraph(avg, start, opt, fit_xi=True)
    assert optics._k_sq_levels.cache_info().misses == 1
    assert optics._kernel_for.cache_info().misses > 1
    monkeypatch.setattr(optics, "_kernel_for", _full_grid_kernel)
    want = fit_shadowgraph(avg, start, opt, fit_xi=True)
    assert _fit_bits(got) == _fit_bits(want)


def test_fit_truth_is_global_minimum_on_coarse_grid(fit_setup):
    # residual at the generating parameters beats every +/-20% perturbation
    grid, opt = fit_setup
    true = PhaseParams(phi0=-0.08, r_x=30e-6, r_z=12e-6, x0=1.7e-6, z0=-2.3e-6)
    data = fresnel_image(tf_phase(true, grid), opt).data

    def resid(params):
        return np.linalg.norm(fresnel_image(tf_phase(params, grid), opt).data - data)

    base = resid(true)
    scales = (0.8, 1.0, 1.2)
    worst_margin = np.inf
    for s_phi in scales:
        for s_rx in scales:
            for s_rz in scales:
                for dx in (-0.2 * true.r_x, 0.0, 0.2 * true.r_x):
                    p = PhaseParams(phi0=true.phi0 * s_phi, r_x=true.r_x * s_rx,
                                    r_z=true.r_z * s_rz, x0=true.x0 + dx, z0=true.z0)
                    if p == true:
                        continue
                    worst_margin = min(worst_margin, resid(p) - base)
    assert worst_margin > 0.0


def test_fit_non_convergence_is_flagged(fit_setup):
    grid, opt = fit_setup
    true = PhaseParams()
    img = fresnel_image(tf_phase(true, grid), opt)
    start = PhaseParams(phi0=-0.2, r_x=30e-6, r_z=10e-6, x0=8e-6, z0=8e-6)
    res = fit_shadowgraph(img, start, opt, max_nfev=3)
    assert not res.converged


def test_fit_result_validation():
    ok = FitResult(params=PhaseParams(), xi=800e-6, residual_norm=0.0,
                   converged=True, n_eval=10)
    assert ok.converged


def test_ensemble_stats_basics():
    single = ensemble_stats({"x": [0.7]})
    assert single["x"]["mean"] == 0.7 and single["x"]["n"] == 1
    sym = ensemble_stats({"x": [0.4, -0.4]})
    assert sym["x"]["mean"] == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(0)
    vals = rng.normal(2.0, 0.5, size=400)
    st = ensemble_stats({"x": vals})["x"]
    assert st["mean"] == pytest.approx(2.0, abs=5 * 0.5 / 20)
    assert st["quantiles"]["q50"] == pytest.approx(np.median(vals))
    assert sum(st["hist_counts"]) == 400
    with pytest.raises(ValueError):
        ensemble_stats({"x": []})
