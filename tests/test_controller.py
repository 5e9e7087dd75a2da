import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beccool import (
    CalibrationError,
    ControllerConfig,
    DerivativeController,
    ExperimentConfig,
    LoopConfig,
    LowPass,
    NoiseConfig,
    Scenario,
    calibrate_gains,
    loop_gain,
    nominal_gain_matrix,
    nominal_transfer_matrix,
    perturb_transfer_matrix,
    run_experiment,
)
from beccool import harness
from conftest import NOISELESS

TAU = 1e-3


def test_nominal_gain_values():
    k = nominal_gain_matrix()
    assert k[0, 0] == pytest.approx(-0.82e6)
    assert k[1, 1] == pytest.approx(-0.27e6)
    assert k[2, 2] == pytest.approx(-0.38e6)
    assert k[3, 2] == pytest.approx(0.16e6)
    assert np.count_nonzero(k) == 4


def test_loop_gain_reproduces_documented_values():
    lg = loop_gain(nominal_transfer_matrix(), nominal_gain_matrix())
    assert lg[0, 0] == pytest.approx(11.808, rel=1e-12)        # -14.4 * -0.82
    assert lg[1, 1] == pytest.approx(0.4941, rel=1e-12)
    assert lg[1, 2] == pytest.approx(-0.22, rel=1e-9)          # 33*-0.38 + 77*0.16
    assert lg[2, 2] == pytest.approx(-(2 * np.pi * 14.4) ** 2 * 1e6, rel=0.02)
    assert np.all(loop_gain(nominal_transfer_matrix(), np.zeros((4, 3))) == 0.0)


def _control_update(m_i, m_prev, k, saturation=0.0):
    """u = K (m_i - m_prev) from the loop's controller, stepped twice, unfiltered."""
    ctl = DerivativeController(k, 0.0, ControllerConfig(output_cutoff_hz=0.0,
                                                        saturation=saturation))
    ctl.step(m_prev, 0.0)
    return ctl.step(m_i, TAU)


def test_control_update_paper_rows():
    k = nominal_gain_matrix()
    u = _control_update([1e-6, 0.0, 0.0], [0.0, 0.0, 0.0], k)
    assert u.as_array() == pytest.approx([-0.82, 0.0, 0.0, 0.0], abs=1e-12)
    u = _control_update([0.0, 0.0, 1e-6], [0.0, 0.0, 0.0], k)
    assert u.as_array() == pytest.approx([0.0, 0.0, -0.38, 0.16], abs=1e-12)
    u = _control_update([3.0, -1.0, 2.0], [3.0, -1.0, 2.0], k)
    assert np.all(u.as_array() == 0.0)


def test_controller_saturation_clamp():
    # K maps a unit x step onto the four-channel vector [12, -11, 3, -2]
    k = np.zeros((4, 3))
    k[:, 0] = [12.0, -11.0, 3.0, -2.0]
    u = _control_update([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], k, saturation=10.0)
    assert u.as_array() == pytest.approx([10.0, -10.0, 3.0, -2.0])
    u = _control_update([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], k)  # default 0: no clamp
    assert u.as_array() == pytest.approx([12.0, -11.0, 3.0, -2.0])


@pytest.mark.parametrize("bad", [dict(saturation=-1.0), dict(output_cutoff_hz=-5.0),
                                 dict(saturation=float("nan")),
                                 dict(output_cutoff_hz=float("nan")),
                                 dict(saturation=float("-inf"))])
def test_controller_config_rejects_non_positive_output_stage(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ControllerConfig(**bad)


def test_controller_gain_matrix_must_be_4x3():
    with pytest.raises(ValueError, match="4x3"):
        DerivativeController(np.zeros((3, 4)), 0.0)


def test_controller_enable_gating_and_zero_decay():
    ctl = DerivativeController(nominal_gain_matrix(), 0.004)
    for i in range(4):
        u = ctl.step([1e-6 * i, 0, 0], i * TAU)
        assert np.all(u.as_array() == 0.0)  # disabled: zero vector
    u = ctl.step([5e-6, 0, 0], 4 * TAU)     # first enabled step uses prev sample
    assert u.v_x == pytest.approx(-0.82e6 * (5e-6 - 3e-6))


def test_controller_output_filter_on_power_channels_only():
    ctl = DerivativeController(nominal_gain_matrix(), 0.0)
    ctl.step([0.0, 0.0, 0.0], 0.0)
    u = ctl.step([0.0, 0.0, 1e-6], TAU)
    alpha = LowPass(100.0, TAU).alpha
    assert u.v_64 == pytest.approx(-0.38 * alpha)   # filtered
    assert u.v_90 == pytest.approx(0.16 * alpha)
    # measurement now constant: raw output returns to zero, filter decays
    u2 = ctl.step([0.0, 0.0, 1e-6], 2 * TAU)
    assert u2.v_64 == pytest.approx((1 - alpha) * u.v_64)
    assert abs(u2.v_64) < abs(u.v_64)


def test_controller_derivative_only_offset_invariance():
    rng = np.random.default_rng(3)
    record = rng.normal(size=(40, 3)) * 1e-6
    outs = []
    for offset in (0.0, 17e-6):
        ctl = DerivativeController(nominal_gain_matrix(), 0.0)
        outs.append(np.array([ctl.step(m + offset, i * TAU).as_array()
                              for i, m in enumerate(record)]))
    # identical up to the rounding of the offset subtraction itself
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9, atol=1e-12)


# multiples of 2^-30 m below 2^30 of them: every sum and difference is exact
_DYADIC = st.integers(-2**30, 2**30).map(lambda k: k * 2.0**-30)


@settings(max_examples=60, deadline=None)
@given(record=st.lists(st.tuples(_DYADIC, _DYADIC, _DYADIC), min_size=2, max_size=30),
       offset=st.tuples(_DYADIC, _DYADIC, _DYADIC),
       cfg=st.sampled_from([ControllerConfig(), ControllerConfig(saturation=0.5),
                            ControllerConfig(saturation=0.5, clamp_before_filter=True)]))
def test_controller_offset_invariance_property(record, offset, cfg):
    # (m + c) - (p + c) == m - p bit for bit on dyadic values, so the outputs match exactly
    outs = []
    for c in (np.zeros(3), np.array(offset)):
        ctl = DerivativeController(nominal_gain_matrix(), 2 * TAU, cfg)
        outs.append([ctl.step(np.array(m) + c, i * TAU).as_array() for i, m in enumerate(record)])
    assert np.array_equal(outs[0], outs[1])


def test_controller_saturation_orders():
    cfg = ControllerConfig(saturation=0.5, output_cutoff_hz=0.0)
    ctl = DerivativeController(nominal_gain_matrix(), 0.0, cfg)
    ctl.step([0, 0, 0], 0.0)
    u = ctl.step([10e-6, 0, 0], TAU)
    assert u.v_x == -0.5  # clamped
    cfg2 = ControllerConfig(saturation=0.5, clamp_before_filter=True)
    ctl2 = DerivativeController(nominal_gain_matrix(), 0.0, cfg2)
    ctl2.step([0, 0, 0], 0.0)
    u2 = ctl2.step([0, 0, 10e-6], TAU)
    alpha = LowPass(100.0, TAU).alpha
    assert u2.v_64 == pytest.approx(-0.5 * alpha)  # clamp applied pre-filter


def test_calibrate_gains_recovers_documented_matrix():
    g = nominal_transfer_matrix()
    l_nom = loop_gain(g, nominal_gain_matrix())
    k = calibrate_gains(g, l_nom[0, 0], l_nom[1, 1], l_nom[2, 2])
    k_doc = nominal_gain_matrix()
    for idx in ((0, 0), (1, 1), (2, 2), (3, 2)):
        assert k[idx] == pytest.approx(k_doc[idx], rel=0.15)
    lg = loop_gain(g, k)
    assert abs(lg[1, 2]) <= 1e-10        # sag coupling exactly zeroed
    assert lg[0, 0] == pytest.approx(l_nom[0, 0], rel=1e-12)
    assert lg[2, 2] == pytest.approx(l_nom[2, 2], rel=1e-12)


def test_calibrate_gains_diagonal_and_zero_target():
    # fully diagonal G (no sag coupling): K comes out diagonal, K_ii = L_ii/G_ii
    g = np.zeros((3, 4))
    g[0, 0], g[1, 1], g[2, 2] = -2e-6, 1e-6, 3e4
    k = calibrate_gains(g, 4.0, 2.0, 9e9)
    assert k[0, 0] == pytest.approx(4.0 / -2e-6)
    assert k[1, 1] == pytest.approx(2.0 / 1e-6)
    assert k[2, 2] == pytest.approx(9e9 / 3e4)
    assert k[3, 2] == pytest.approx(0.0, abs=1e-9)
    k0 = calibrate_gains(nominal_transfer_matrix(), 1.0, 1.0, 0.0)
    assert k0[2, 2] == pytest.approx(0.0, abs=1e-12)
    assert k0[3, 2] == pytest.approx(0.0, abs=1e-12)


def test_calibrate_gains_singular_system():
    g = nominal_transfer_matrix().copy()
    g[2, 2] = g[1, 2] * 1e9   # make power columns proportional
    g[2, 3] = g[1, 3] * 1e9
    with pytest.raises(CalibrationError):
        calibrate_gains(g, 1.0, 1.0, -8e9)


# --- the closed loop: run_experiment on noiseless frames -------------------


def _amplitudes(rec, trap):
    """Per-mode oscillation amplitude about the record's own centres."""
    c = rec.column
    return {"x": np.hypot(c("x") - c("trap_x"), c("vx") / trap.omega_x),
            "z": np.hypot(c("z") - c("trap_z"), c("vz") / trap.omega_z),
            "w": np.hypot(c("w") - c("w_eq"), c("vw") / trap.omega_q)}


def test_closed_loop_damps_all_three_modes(trap):
    # The default kick excites all three modes. Each decays near the sampled-loop
    # rate: x 81.6 /s (~76 /s here, as the kick also stiffens the trap by 10 % in
    # omega_x^2), z 30.3 /s, and w only 6.8 /s because dw_hat/dw is 0.125.
    rec = run_experiment(Scenario(duration=0.5), NOISELESS)
    assert not rec.column("degenerate").any()
    amps = _amplitudes(rec, trap)
    for mode, period, rate in (("x", 1 / trap.f_x, 81.6), ("z", 1 / trap.f_z, 30.3),
                               ("w", 2 * np.pi / trap.omega_q, 6.8)):
        n_per = int(round(period / TAU))
        a = amps[mode]
        # per-period envelope from feedback enable on: strictly decreasing until
        # it nears the noiseless estimator's floor (~1e-10 m on x and z)
        peaks = [a[i:i + n_per].max() for i in range(40, len(a) - n_per, n_per)]
        live = list(itertools.takewhile(lambda p: p > 1e-3 * peaks[0], peaks))
        assert all(p2 < p1 for p1, p2 in zip(live, live[1:])), mode
        assert peaks[-1] < 0.5 * peaks[0], mode
        fit = slice(40, 40 + len(live) * n_per)
        decay = -np.polyfit(rec.column("t")[fit], np.log(a[fit]), 1)[0]
        assert decay == pytest.approx(rate, rel=0.10), mode


def test_wrong_measurement_sign_antidamps(trap):
    # flipping the camera-axis convention turns the same gains into drive; the
    # record ends before the cloud leaves the atom region (at sample 64)
    rec = run_experiment(Scenario(duration=0.060),
                         replace(NOISELESS, loop=LoopConfig(meas_sign=+1.0)))
    assert not rec.column("degenerate").any()
    a = _amplitudes(rec, trap)["x"]
    assert a[50:].max() > 2 * a[15:40].max()


@pytest.mark.parametrize("delay, threshold", [(0.0, 10.157), (960e-6, 3.427)],
                         ids=["0us", "960us"])
def test_x_gain_instability_threshold(trap, monkeypatch, delay, threshold):
    # K_xx scale above which an x kick grows instead of decaying, found by
    # bisection on this loop: 10.157x nominal at zero delay, 3.427x at one
    # sample; the loop is stable at 0.9x of it and unstable at 1.1x
    def unstable(scale):
        k = nominal_gain_matrix()
        k[0, 0] *= scale
        monkeypatch.setattr(harness, "nominal_gain_matrix", lambda: k)
        sc = Scenario(kick_dx=-2e-6, kick_dz=0.0, kick_domega_frac=0.0, duration=0.3)
        a = _amplitudes(run_experiment(sc, replace(NOISELESS, loop=LoopConfig(delay=delay))),
                        trap)["x"]
        return a[-50:].max() > a[30:80].max()

    assert not unstable(0.9 * threshold)
    assert unstable(1.1 * threshold)


def test_cross_coupling_bound_with_calibrated_gains(trap):
    # zeroed sag coupling: after a resonant width drive, the width feedback
    # leaks nothing into the vertical dipole mode over 100 ms; the nominal
    # matrix's residual L_zw does leak, so the bound tells the two apart
    sc = Scenario(kind="quadrupole_drive", duration=0.1)
    leak = {}
    for mode in ("calibrated", "nominal"):
        amps = _amplitudes(run_experiment(sc, replace(NOISELESS, gain_mode=mode)), trap)
        # max E_z over E_w at the start; a mode's energy goes as (omega * amplitude)^2
        leak[mode] = (trap.omega_z * amps["z"].max() / (trap.omega_q * amps["w"][0])) ** 2
    assert leak["calibrated"] <= 1e-12
    assert leak["nominal"] > 1e-6


def test_calibrated_gains_ignore_the_runs_drift():
    # K is calibrated on the nominal G, as an experiment knows no better; the
    # run's drawn G acts in the plant alone, so the sag coupling leaks again
    drift = ExperimentConfig(gain_mode="calibrated", noise=NoiseConfig(g_drift_scale=0.05))
    g = perturb_transfer_matrix(nominal_transfer_matrix(), harness.seed_streams(4).drift, 0.05)
    record = run_experiment(Scenario(kind="quadrupole_drive", duration=0.1, seed=4), drift)
    v = np.column_stack([record.column(c) for c in ("v_x", "v_z", "v_64", "v_90")])
    assert np.any(v[:, 2:])
    # the command of sample i acts from sample i + 1, through the drawn G
    assert np.array_equal(record.column("trap_z")[1:], v[:-1] @ g[1])
    k = drift.gain_matrix()
    assert np.array_equal(k, ExperimentConfig(gain_mode="calibrated").gain_matrix())
    assert abs(loop_gain(g, k)[1, 2]) > 0.1
