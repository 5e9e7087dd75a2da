import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beccool import (
    CalibrationError,
    ControllerConfig,
    DerivativeController,
    LowPass,
    SignalVector,
    calibrate_gains,
    equilibrium_state,
    loop_gain,
    mode_energies,
    nominal_gain_matrix,
    nominal_transfer_matrix,
    step,
)

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


# --- direct closed loop (perfect measurements, no imaging) ------------------


def run_direct_loop(trap, k, n=400, kick=SignalVector(dx_trap=-8e-6, dz_trap=-2.5e-6),
                    w_offset=0.0, enable=0.020, x_cut=60.0, meas_sign=-1.0):
    """Plant + controller with ideal (noiseless) measurements of (x, z, w)."""
    g = nominal_transfer_matrix()
    ctl = DerivativeController(k, enable)
    lp_x = LowPass(x_cut, TAU)
    lp_w = LowPass(100.0, TAU)
    state = equilibrium_state(trap)
    state.w += w_offset
    held = np.zeros(4)
    amps = {"x": [], "z": [], "w": []}
    energies = {"x": [], "z": [], "w": []}
    for i in range(n):
        t = i * TAU
        if i == 10 and kick is not None:
            state.trap = state.trap + kick
        m = np.array([lp_x.update(state.x), state.z, lp_w.update(state.w)])
        u = ctl.step(meas_sign * m, t)
        u_arr = u.as_array()
        s = state.trap + SignalVector.from_array(g @ held)
        e = mode_energies(state, trap)
        for mode in amps:
            energies[mode].append(e[mode])
        amps["x"].append(np.hypot(state.x - state.trap.dx_trap,
                                  state.vx / trap.omega_x))
        amps["z"].append(np.hypot(state.z - state.trap.dz_trap,
                                  state.vz / trap.omega_z))
        amps["w"].append(np.hypot(state.w - trap.w_eq0, state.vw / trap.omega_q))
        state = step(state, s, TAU, trap)
        held = u_arr  # one-sample delay: applied from the next step on
    return ({k2: np.array(v) for k2, v in amps.items()},
            {k2: np.array(v) for k2, v in energies.items()})


def test_closed_loop_damps_all_three_modes(trap):
    amps, _ = run_direct_loop(trap, nominal_gain_matrix(), n=500, w_offset=1.5e-6)
    for mode, period in (("x", 1 / trap.f_x), ("z", 1 / trap.f_z),
                         ("w", 2 * np.pi / trap.omega_q)):
        n_per = int(round(period / TAU))
        a = amps[mode]
        # per-period envelope from feedback enable on: strictly decreasing
        peaks = [a[i:i + n_per].max() for i in range(40, len(a) - n_per, n_per)]
        assert all(p2 < p1 for p1, p2 in zip(peaks, peaks[1:])), mode
        assert peaks[-1] < 0.5 * peaks[0], mode


def test_closed_loop_settling_regression(trap):
    # achievable settling at nominal gains: ~24% of the kick at +15 ms,
    # below 10% within 35 ms of enable (regression-pinned)
    amps, _ = run_direct_loop(trap, nominal_gain_matrix(),
                              kick=SignalVector(dx_trap=-8e-6))
    a = amps["x"]
    assert np.max(a[35:] / 8e-6) <= 0.30
    assert np.max(a[55:] / 8e-6) <= 0.10


def test_wrong_measurement_sign_antidamps(trap):
    # flipping the camera-axis convention turns the same gains into drive
    amps, _ = run_direct_loop(trap, nominal_gain_matrix(), n=200, meas_sign=+1.0)
    a = amps["x"]
    assert a[150:].max() > a[15:40].max()


def _gain_scale_unstable(trap, scale):
    k = nominal_gain_matrix().copy()
    k[0, 0] *= scale
    amps, _ = run_direct_loop(trap, k, n=600, kick=SignalVector(dx_trap=-2e-6))
    a = amps["x"]
    return a[-50:].max() > a[30:80].max()


def test_instability_threshold_bisection_regression(trap):
    # locate the x-channel gain-scale instability boundary; the regression
    # band brackets the value found at build time (~3.4x nominal)
    lo, hi = 1.0, 6.0
    assert not _gain_scale_unstable(trap, lo)
    assert _gain_scale_unstable(trap, hi)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if _gain_scale_unstable(trap, mid):
            hi = mid
        else:
            lo = mid
    threshold = 0.5 * (lo + hi)
    assert 2.8 <= threshold <= 4.1


def test_cross_coupling_bound_with_calibrated_gains(trap):
    # zeroed sag coupling: a pure width excitation leaks almost nothing into
    # the vertical dipole mode over 100 ms
    g = nominal_transfer_matrix()
    l_nom = loop_gain(g, nominal_gain_matrix())
    k = calibrate_gains(g, l_nom[0, 0], l_nom[1, 1], l_nom[2, 2])
    _, energies = run_direct_loop(trap, k, n=100, kick=None, w_offset=2e-6)
    e_w0 = energies["w"][0]
    assert energies["z"].max() <= 0.01 * e_w0
