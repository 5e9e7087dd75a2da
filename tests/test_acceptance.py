"""Acceptance suite: one test per quantitative criterion, each printing a
single PASS/FAIL line (bypassing capture) with the measured numbers.

Criterion 6a (nominal-gain settling to <10 % of an 8 um kick within 15 ms of
feedback enable) is strictly expected to fail: the sampled loop with the
documented gains, filters and one-sample latency tops out at an envelope
decay of ~82 /s, which leaves ~26 % at +15 ms and crosses 10 % near +30 ms.
The assertion is kept at the stated tolerance; README.md ("Install and
test") states the analysis.
"""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from beccool import (
    ExperimentConfig,
    GridSpec,
    NoiseConfig,
    OpticsParams,
    PhaseParams,
    Scenario,
    a_ho,
    add_shot_noise,
    ballistic_ensemble,
    bias_correct,
    density_estimate,
    extract_moments,
    fit_shadowgraph,
    fresnel_image,
    linearized_image,
    loop_gain,
    make_reference,
    monte_carlo,
    nominal_gain_matrix,
    nominal_transfer_matrix,
    nonlinear_filter,
    phonon_occupancy,
    run_experiment,
    tf_phase,
    tof_variance,
)
from beccool.constants import HBAR, RB87_MASS
from beccool.estimator import RegionMask
from conftest import band_limited_phase

TAU = 1e-3
OMEGA_X = 2 * np.pi * 20.3
OMEGA_Z = 2 * np.pi * 70.3

NOISELESS = ExperimentConfig(noise=NoiseConfig(photons_per_pixel=0.0,
                                               reference_fringes=False))


@pytest.fixture
def report(capfd):
    def _report(num, name, ok, detail):
        line = f"[ACCEPTANCE] {num:>3} {'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        return ok

    return _report


def test_criterion_01_loop_gain_reproduction(report):
    lg = loop_gain(nominal_transfer_matrix(), nominal_gain_matrix())
    targets = {
        "L_xx": (lg[0, 0], 11.8),
        "L_zz": (lg[1, 1], 0.49),
        "L_zw": (lg[1, 2], -0.22),
        "L_ww": (lg[2, 2], -(2 * np.pi * 14.4) ** 2 * 1e6),
    }
    errs = {k: abs(got - want) / abs(want) for k, (got, want) in targets.items()}
    ok = all(e <= 0.02 for e in errs.values())
    assert report(1, "loop-gain reproduction",
                  ok, "max rel err %.4f%%" % (100 * max(errs.values())))


def test_criterion_02_nonlinear_filter_factor(report):
    grid = GridSpec(nx=256, nz=256)
    sigma = 8.0 * grid.pitch
    g = np.exp(-(grid.xx**2 + grid.zz**2) / (2 * sigma**2))
    mask = RegionMask.centered(grid, halfwidth_px=100, margin_frac=0.1)
    _, _, w_raw, _, _ = extract_moments(g, mask, grid)
    _, _, w_flt, _, _ = extract_moments(nonlinear_filter(g), mask, grid)
    ratio = (w_flt / w_raw) ** 2
    ok = abs(ratio - 1 / 6) <= 0.02 / 6
    ok &= abs(w_flt - sigma / np.sqrt(6)) <= grid.pitch
    assert report(2, "nonlinear-filter factor", ok,
                  "var ratio %.5f (1/6=%.5f), width %.3f um vs %.3f um"
                  % (ratio, 1 / 6, w_flt * 1e6, sigma / np.sqrt(6) * 1e6))


def test_criterion_03_spectral_roundtrip(grid, optics, report):
    phase = band_limited_phase(grid, PhaseParams(phi0=-0.08), k_max=2e5)
    frame = linearized_image(phase, optics)
    mask = RegionMask.centered(grid)
    rho = density_estimate(frame, make_reference(grid, fringes=()), mask).data
    expect = optics.xi / optics.k * phase.data
    diff = rho - expect
    diff -= diff.mean()
    err = np.max(np.abs(diff)) / np.max(np.abs(expect))
    ok = err <= 1e-8
    assert report(3, "spectral roundtrip", ok, "rel err %.2e" % err)


def test_criterion_04_optics_consistency(grid, report):
    # (a) linearization agreement for small phase and defocus
    opt_small = OpticsParams(eta=0.0, xi=100e-6)
    k_max = np.sqrt(0.1 * 2 * opt_small.k / opt_small.xi)
    phase = band_limited_phase(grid, PhaseParams(phi0=0.05), k_max)
    phase.data *= 0.05 / np.abs(phase.data).max()
    full = fresnel_image(phase, opt_small).data
    lin = linearized_image(phase, opt_small).data
    signal = np.abs(lin - 1.0)
    dev = np.max(np.abs(full - lin)[signal > 0.1 * signal.max()]) / signal.max()
    # (b) unitarity at eta = 0
    ph2 = tf_phase(PhaseParams(phi0=-0.6), grid)
    tot0 = grid.nx * grid.nz
    tot = np.sum(fresnel_image(ph2, OpticsParams(eta=0.0)).data)
    parseval = abs(tot - tot0) / tot0
    # (c) contrast peak location versus defocus
    ph = tf_phase(PhaseParams(), grid)
    xis = np.linspace(100e-6, 2000e-6, 20)
    contrast = [np.ptp(fresnel_image(ph, OpticsParams(xi=x)).data) for x in xis]
    best = xis[int(np.argmax(contrast))]
    ok = dev <= 0.05 and parseval <= 1e-10 and 500e-6 <= best <= 1000e-6
    assert report(4, "optics consistency", ok,
                  "lin dev %.3f%%, unitarity %.1e, peak %.0f um"
                  % (100 * dev, parseval, best * 1e6))


def test_criterion_05_open_loop_energy_conservation(trap, report):
    sc = Scenario(kind="dipole_kick", feedback=False, kick_time=0.0,
                  kick_dx=-4e-6, kick_dz=2e-6, kick_domega_frac=0.05,
                  duration=0.151, seed=0)
    rec = run_experiment(sc, NOISELESS)
    m = RB87_MASS
    worst = 0.0
    wx_sq = rec.column("domega_x_sq")[1:] + trap.omega_x**2
    for r, v, c, w_sq in (
        (rec.column("x")[1:], rec.column("vx")[1:], rec.column("trap_x")[1:], wx_sq),
        (rec.column("z")[1:], rec.column("vz")[1:], rec.column("trap_z")[1:],
         np.full(len(rec) - 1, trap.omega_z**2)),
        (rec.column("w")[1:], rec.column("vw")[1:], rec.column("w_eq")[1:], 2.5 * wx_sq),
    ):
        e = 0.5 * m * w_sq * (r - c) ** 2 + 0.5 * m * v**2
        worst = max(worst, np.max(np.abs(e - e[0])) / e[0])
    ok = worst <= 1e-10
    assert report(5, "open-loop energy conservation", ok, "max rel drift %.2e" % worst)


def _kick_amplitude_record(feedback):
    sc = Scenario(kind="dipole_kick", feedback=feedback, kick_time=0.010,
                  enable_time=0.020, kick_dx=-8e-6, kick_dz=0.0,
                  kick_domega_frac=0.0, duration=0.150, seed=0)
    rec = run_experiment(sc, NOISELESS)
    # envelope relative to the kicked trap position (the commanded trap
    # returns to it once motion stops)
    kick_i = 10
    x_eq = np.where(np.arange(len(rec)) >= kick_i, sc.kick_dx, 0.0)
    return np.hypot(rec.column("x") - x_eq, rec.column("vx") / OMEGA_X)


@pytest.mark.xfail(strict=True, reason=(
    "the sampled loop at the documented gains cannot reach 10% in 15 ms: "
    "max envelope decay ~82/s leaves ~26%; crosses 10% near +30 ms"))
def test_criterion_06a_closed_loop_damping_feedback_on_stated(report):
    amp = _kick_amplitude_record(feedback=True)
    settled = np.max(amp[35:]) / 8e-6  # from enable (20 ms) + 15 ms onward
    ok = settled < 0.10
    report("6a", "kick settles <10% within 15 ms of enable", ok,
           "max envelope %.1f%% of kick beyond +15 ms" % (100 * settled))
    assert settled < 0.10


def test_criterion_06b_closed_loop_damping_feedback_off(report):
    amp = _kick_amplitude_record(feedback=False)
    frac = amp[-1] / 8e-6
    ok = frac > 0.90
    assert report("6b", "kick persists without feedback", ok,
                  "amplitude %.1f%% of kick at record end" % (100 * frac))


def test_criterion_06c_closed_loop_damping_achievable_regression(report):
    amp = _kick_amplitude_record(feedback=True)
    at15 = np.max(amp[35:]) / 8e-6
    at35 = np.max(amp[55:]) / 8e-6
    ok = at15 <= 0.30 and at35 <= 0.10
    assert report("6c", "closed-loop damping (achievable regression)", ok,
                  "%.1f%% beyond +15 ms, %.1f%% beyond +35 ms (<10%% by +35 ms)"
                  % (100 * at15, 100 * at35))


def test_criterion_07_bias_correction_monte_carlo(report):
    sigma = 0.12e-6
    aho = a_ho(OMEGA_X)
    rng = np.random.default_rng(77)
    vals = np.array([phonon_occupancy(sigma * rng.standard_normal(120), OMEGA_X, TAU)
                     for _ in range(1200)])
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    mean = vals.mean()
    corrected = bias_correct(mean, sigma, OMEGA_X, TAU, aho)
    ok = abs(mean - 0.156) <= 3 * sem and abs(corrected) <= 3 * sem
    assert report(7, "measurement-noise bias", ok,
                  "mean n_meas %.4f vs 0.156 (3 SE = %.4f), corrected %.4f"
                  % (mean, 3 * sem, corrected))


def test_criterion_08_time_of_flight(report):
    rng = np.random.default_rng(8)
    ok = True
    details = []
    for omega in (OMEGA_X, OMEGA_Z):
        energy = 0.6 * HBAR * omega
        x = ballistic_ensemble(energy, omega, 0.020, 20000, rng)
        expect = tof_variance(energy, omega, 0.020)
        err = abs(x.var() - expect)
        ok &= err <= 3 * np.sqrt(2 / 20000) * expect
        details.append("MC/formula-1 %.3f%%" % (100 * (x.var() / expect - 1)))
    # occupancies implied by the documented 20 ms spreads feed back to them
    for omega, spread in ((OMEGA_X, 5.8e-6), (OMEGA_Z, 4.9e-6)):
        n_true = spread**2 / (a_ho(omega) ** 2 * (1 + (omega * 0.020) ** 2))
        ok &= n_true < 1.0
        pred = np.sqrt(tof_variance(n_true * HBAR * omega, omega, 0.020))
        ok &= abs(pred - spread) / spread <= 0.15
        details.append("n=%.2f -> %.2f um" % (n_true, pred * 1e6))
    assert report(8, "time-of-flight variance", ok, "; ".join(details))


def test_criterion_09_fit_oracle(report):
    grid, opt = GridSpec(), OpticsParams()
    true = PhaseParams(phi0=-0.08, r_x=30e-6, r_z=12e-6, x0=1.7e-6, z0=-2.3e-6)
    img = fresnel_image(tf_phase(true, grid), opt)
    start = PhaseParams(phi0=-0.10, r_x=27e-6, r_z=14e-6, x0=3e-6, z0=-1e-6)
    res = fit_shadowgraph(img, start, opt, fit_xi=True, xtol=3e-16, ftol=3e-16)
    rel = max(abs(res.params.phi0 / true.phi0 - 1), abs(res.params.r_x / true.r_x - 1),
              abs(res.params.r_z / true.r_z - 1), abs(res.xi / opt.xi - 1))
    ok = res.converged and rel <= 1e-6

    true_d = PhaseParams()
    img_d = fresnel_image(tf_phase(true_d, grid), opt)
    start_d = PhaseParams(phi0=-0.095, r_x=true_d.r_x * 0.9, r_z=true_d.r_z * 1.1,
                          x0=1.5e-6, z0=-1e-6)
    rng = np.random.default_rng(99)
    frames = [add_shot_noise(img_d, 1e6, rng).data for _ in range(4)]
    avg = img_d.__class__(grid, np.mean(frames, axis=0))
    res_n = fit_shadowgraph(avg, start_d, opt, fit_xi=True)
    xi_err = abs(res_n.xi / 800e-6 - 1)
    ok &= res_n.converged and xi_err <= 0.05
    assert report(9, "shadowgraph model fit", ok,
                  "noiseless rel err %.1e; noisy xi err %.2f%%" % (rel, 100 * xi_err))


@pytest.mark.slow
def test_criterion_10_ground_state_cooling_ensemble(trap, report):
    sc_on = Scenario(kind="dipole_kick", feedback=True, duration=0.180, seed=0)
    sc_off = replace(sc_on, feedback=False)
    cfg = ExperimentConfig()
    res = {}
    for label, sc in (("on", sc_on), ("off", sc_off)):
        records, summaries, summary = monte_carlo(sc, cfg, n_runs=200, base_seed=10,
                                                  keep_records=True)
        n_phys = {"x": [], "z": []}
        for rec in records:
            n_phys["x"].append(phonon_occupancy(
                rec.column("x"), trap.omega_x, TAU, r_trap=rec.column("trap_x")))
            n_phys["z"].append(phonon_occupancy(
                rec.column("z"), trap.omega_z, TAU, r_trap=rec.column("trap_z")))
        res[label] = {
            "summary": summary,
            "e_x": np.mean(n_phys["x"]),
            "e_z": np.mean(n_phys["z"]),
            "failed": summary["n_failed"],
        }
    stats_on = res["on"]["summary"]["stats"]
    nx_true = stats_on["n_x_true"]["mean"]
    nz_true = stats_on["n_z_true"]["mean"]
    ratio_x = res["off"]["e_x"] / res["on"]["e_x"]
    ratio_z = res["off"]["e_z"] / res["on"]["e_z"]
    ok = (nx_true < 1.0 and nz_true < 1.0 and ratio_x > 5.0 and ratio_z > 5.0
          and res["on"]["failed"] == 0 and res["off"]["failed"] == 0)
    assert report(10, "ground-state-cooling ensemble", ok,
                  "n_x,true %.3f n_z,true %.3f (<1); off/on energy ratio x %.0f z %.0f (>5)"
                  % (nx_true, nz_true, ratio_x, ratio_z))


def test_criterion_11_determinism(tmp_path, report):
    sc = Scenario(kind="dipole_kick", feedback=True, duration=0.06, seed=21)
    cfg = ExperimentConfig()
    paths = []
    for tag in ("a", "b"):
        rec = run_experiment(sc, cfg)
        p = tmp_path / f"{tag}.csv"
        rec.to_csv(p)
        paths.append(p)
    byte_equal = paths[0].read_bytes() == paths[1].read_bytes()
    sc_q = Scenario(kind="quiet", feedback=False, duration=0.06, seed=4)
    _, _, s_serial = monte_carlo(sc_q, cfg, n_runs=4, base_seed=1)
    _, _, s_par = monte_carlo(sc_q, cfg, n_runs=4, base_seed=1, parallel=True)
    summaries_equal = (json.dumps(s_serial, sort_keys=True)
                       == json.dumps(s_par, sort_keys=True))
    ok = byte_equal and summaries_equal
    assert report(11, "determinism", ok,
                  "byte-identical CSV %s; serial==parallel %s"
                  % (byte_equal, summaries_equal))
