import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beccool import (
    ActuatorVector,
    DelayLine,
    PlantState,
    SignalVector,
    TrapConfig,
    actuator_to_signal,
    dipole_kick,
    equilibrium_state,
    mode_energies,
    nominal_transfer_matrix,
    perturb_transfer_matrix,
    quadrupole_drive,
    step,
)
from beccool.constants import RB87_MASS

TAU = 1e-3


def test_transfer_matrix_nominal_values():
    g = nominal_transfer_matrix()
    assert g.shape == (3, 4)
    assert g[0, 0] == pytest.approx(-14.4e-6)
    assert g[1, 1] == pytest.approx(-1.83e-6)
    assert g[1, 2] == pytest.approx(33e-6)
    assert g[1, 3] == pytest.approx(77e-6)
    assert g[2, 2] == pytest.approx((2 * np.pi * 26.7) ** 2)
    assert g[2, 3] == pytest.approx((2 * np.pi * 19.9) ** 2)
    assert np.count_nonzero(g) == 6


def test_actuator_to_signal_unit_piezo():
    s = actuator_to_signal(ActuatorVector(v_x=1.0), nominal_transfer_matrix())
    assert s.dx_trap == pytest.approx(-14.4e-6)
    assert s.dz_trap == 0.0
    assert s.domega_x_sq == 0.0


def test_actuator_to_signal_zero():
    s = actuator_to_signal(ActuatorVector(), nominal_transfer_matrix())
    assert np.all(s.as_array() == 0.0)


def test_actuator_to_signal_power_channels():
    # hand multiply of the nominal matrix: 0.5 V on each power channel
    s = actuator_to_signal(ActuatorVector(v_64=0.5, v_90=0.5), nominal_transfer_matrix())
    assert s.dx_trap == 0.0
    assert s.dz_trap == pytest.approx(0.5 * 33e-6 + 0.5 * 77e-6)  # 55 um
    assert s.domega_x_sq == pytest.approx(
        0.5 * (2 * np.pi * 26.7) ** 2 + 0.5 * (2 * np.pi * 19.9) ** 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_actuator_to_signal_linearity(seed):
    rng = np.random.default_rng(seed)
    g = nominal_transfer_matrix()
    u1, u2 = rng.normal(size=4), rng.normal(size=4)
    a, b = rng.normal(size=2)
    lhs = actuator_to_signal(ActuatorVector.from_array(a * u1 + b * u2), g).as_array()
    rhs = (a * actuator_to_signal(ActuatorVector.from_array(u1), g).as_array()
           + b * actuator_to_signal(ActuatorVector.from_array(u2), g).as_array())
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


def test_step_equilibrium_fixed_point(trap):
    state = equilibrium_state(trap)
    out = step(state, SignalVector(), 0.0371, trap)
    assert out.x == pytest.approx(state.x, abs=1e-18)
    assert out.vx == pytest.approx(0.0, abs=1e-18)
    assert out.w == pytest.approx(state.w)
    assert out.vw == pytest.approx(0.0, abs=1e-15)


def test_step_quarter_period(trap):
    a = 3e-6
    state = equilibrium_state(trap)
    state.x = a
    quarter = 2 * np.pi / trap.omega_x / 4
    out = step(state, SignalVector(), quarter, trap)
    assert out.x == pytest.approx(0.0, abs=1e-18 + 1e-12 * a)
    assert out.vx == pytest.approx(-a * trap.omega_x, rel=1e-12)


def test_step_full_period_roundtrip(trap):
    a = 5e-6
    state = equilibrium_state(trap)
    state.x, state.vx = state.x + a, 0.004
    period = 2 * np.pi / trap.omega_x
    out = step(state, SignalVector(), period, trap)
    assert out.x == pytest.approx(state.x, rel=1e-12)
    assert out.vx == pytest.approx(state.vx, rel=1e-12)


def test_step_rejects_bad_dt(trap):
    state = equilibrium_state(trap)
    with pytest.raises(ValueError):
        step(state, SignalVector(), 0.0, trap)
    with pytest.raises(ValueError):
        step(state, SignalVector(), -1e-3, trap)


def test_step_rejects_inverted_trap(trap):
    state = equilibrium_state(trap)
    with pytest.raises(ValueError, match="inverted"):
        step(state, SignalVector(domega_x_sq=-1.1 * trap.omega_x**2), TAU, trap)


def test_energy_conservation_150ms(trap):
    # open loop, constant trap, no damping: machine-level energy conservation
    state = equilibrium_state(trap)
    state.x += 4e-6
    state.vz = 1.2e-3
    state.w += 2e-6
    e0 = mode_energies(state, trap)
    for _ in range(150):
        state = step(state, state.trap, TAU, trap)
    e1 = mode_energies(state, trap)
    for mode in ("x", "z", "w"):
        assert abs(e1[mode] - e0[mode]) <= 1e-10 * e0[mode]


_UM = st.floats(-10e-6, 10e-6)
_MM_PER_S = st.floats(-1e-3, 1e-3)


@settings(max_examples=60, deadline=None)
@given(x=_UM, vx=_MM_PER_S, z=_UM, vz=_MM_PER_S, dw=st.floats(-5e-6, 5e-6), vw=_MM_PER_S,
       dx_trap=_UM, dz_trap=_UM, domega_frac=st.floats(-0.5, 0.5))
def test_energy_conservation_property(trap, x, vx, z, vz, dw, vw, dx_trap, dz_trap, domega_frac):
    # open loop under any held trap offsets: each mode's energy stays put, to
    # 1e-9 of itself or 1e-12 of the energy of a 10 um x oscillation
    offsets = SignalVector(dx_trap, dz_trap, domega_frac * trap.omega_x**2)
    state = PlantState(x=x, vx=vx, z=z, vz=vz, w=trap.w_eq0 + dw, vw=vw, trap=offsets)
    e0 = mode_energies(state, trap)
    for _ in range(100):
        state = step(state, state.trap, TAU, trap)
    e1 = mode_energies(state, trap)
    floor = 1e-12 * 0.5 * RB87_MASS * trap.omega_x**2 * (10e-6) ** 2
    for mode in ("x", "z", "w"):
        assert e1[mode] == pytest.approx(e0[mode], rel=1e-9, abs=floor)


def test_dipole_kick_zero_is_noop(trap):
    state = equilibrium_state(trap)
    out = dipole_kick(state, SignalVector())
    assert out.x == state.x and out.trap.as_array() == pytest.approx([0, 0, 0])


def test_dipole_kick_oscillation_amplitude_and_frequency(trap):
    # -8 um trap shift on a resting cloud: 8 um oscillation at f_x
    state = dipole_kick(equilibrium_state(trap), SignalVector(dx_trap=-8e-6))
    assert state.x == 0.0  # coordinates untouched by the kick
    xs, amps = [], []
    center = -8e-6
    for _ in range(400):
        state = step(state, state.trap, TAU, trap)
        xs.append(state.x)
        amps.append(np.hypot(state.x - center, state.vx / trap.omega_x))
    xs = np.array(xs)
    np.testing.assert_allclose(amps, 8e-6, rtol=1e-9)  # phase-space radius
    # dominant frequency from the FFT of the record
    spec = np.abs(np.fft.rfft(xs - xs.mean()))
    f_peak = np.fft.rfftfreq(xs.size, TAU)[np.argmax(spec)]
    assert f_peak == pytest.approx(trap.f_x, rel=0.05)


def test_dipole_kick_half_period_mirror(trap):
    state = dipole_kick(equilibrium_state(trap), SignalVector(dx_trap=-8e-6))
    half = np.pi / trap.omega_x
    out = step(state, state.trap, half, trap)
    assert out.x == pytest.approx(-16e-6, rel=1e-12)


def test_kick_equivalence_comoving_frame(trap):
    # trap shift of +delta with atoms at rest == atoms displaced -delta,
    # compared in the frames of their respective equilibria
    delta = 3.7e-6
    s_kicked = dipole_kick(equilibrium_state(trap), SignalVector(dx_trap=delta))
    s_moved = equilibrium_state(trap)
    s_moved.x -= delta
    for _ in range(120):
        s_kicked = step(s_kicked, s_kicked.trap, TAU, trap)
        s_moved = step(s_moved, s_moved.trap, TAU, trap)
        assert s_kicked.x - delta == pytest.approx(s_moved.x, abs=1e-18 + 1e-12 * delta)
        assert s_kicked.vx == pytest.approx(s_moved.vx, abs=1e-15)


def _drive_energy(trap, amplitude, freq, n_periods):
    state = quadrupole_drive(equilibrium_state(trap), amplitude, freq, n_periods,
                             trap, dt=TAU)
    return mode_energies(state, trap)["w"]


def test_quadrupole_drive_zero_amplitude(trap):
    state = quadrupole_drive(equilibrium_state(trap), 0.0, trap.omega_q, 2, trap)
    assert state.w == pytest.approx(trap.w_eq0)
    assert state.vw == pytest.approx(0.0, abs=1e-18)


def test_quadrupole_drive_resonant_quadratic_growth(trap):
    amp = 0.02 * trap.omega_x**2
    e1 = _drive_energy(trap, amp, trap.omega_q, 1)
    e2 = _drive_energy(trap, amp, trap.omega_q, 2)
    e4 = _drive_energy(trap, amp, trap.omega_q, 4)
    # resonant response amplitude grows ~linearly in drive time
    assert e2 / e1 == pytest.approx(4.0, rel=0.25)
    assert e4 / e1 == pytest.approx(16.0, rel=0.25)


def test_quadrupole_drive_matches_ode_oracle(trap):
    # independent check of the sampled-drive response: RK4 on the same
    # piecewise-constant drive, 40 substeps per sample
    amp = 0.02 * trap.omega_x**2
    n_periods = 2
    freq = trap.omega_q
    n_steps = int(round(n_periods * 2 * np.pi / freq / TAU))
    w, vw = trap.w_eq0, 0.0
    for i in range(n_steps):
        mod = amp * np.sin(freq * (i * TAU))
        wq_sq = 2.5 * (trap.omega_x**2 + mod)
        weq = trap.w_eq0 * (1 - mod / (2 * trap.omega_x**2))
        h = TAU / 40

        def acc(wv):
            return -wq_sq * (wv - weq)

        for _ in range(40):
            k1v, k1w = acc(w), vw
            k2v, k2w = acc(w + h / 2 * k1w), vw + h / 2 * k1v
            k3v, k3w = acc(w + h / 2 * k2w), vw + h / 2 * k2v
            k4v, k4w = acc(w + h * k3w), vw + h * k3v
            w += h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
            vw += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    state = quadrupole_drive(equilibrium_state(trap), amp, freq, n_periods, trap, dt=TAU)
    assert state.w == pytest.approx(w, rel=1e-7)
    assert state.vw == pytest.approx(vw, rel=1e-6)


def test_quadrupole_drive_off_resonance_small(trap):
    amp = 0.02 * trap.omega_x**2
    e_res = _drive_energy(trap, amp, trap.omega_q, 4)
    e_off = _drive_energy(trap, amp, 10 * trap.omega_q, 4)
    assert e_off < 0.05 * e_res


def test_width_damping_decays_energy(trap):
    cfg = TrapConfig(width_damping=25.0)
    state = equilibrium_state(cfg)
    state.w += 2e-6
    e0 = mode_energies(state, cfg)["w"]
    for _ in range(100):
        state = step(state, state.trap, TAU, cfg)
    e1 = mode_energies(state, cfg)["w"]
    assert e1 < e0 * np.exp(-2 * 25.0 * 0.1) * 1.2
    assert e1 > 0


def test_trap_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(f_x=0.0)
    with pytest.raises(ValueError):
        TrapConfig(width_damping=-1.0)


def test_delay_line_one_sample_quantization():
    # one sample of latency: a command is due at the next sample's pop
    dl = DelayLine(1)
    dl.push(ActuatorVector(v_x=1.0))
    assert dl.pop_due() == ActuatorVector()
    dl.push(ActuatorVector(v_x=2.0))
    assert dl.pop_due() == ActuatorVector(v_x=1.0)


def test_delay_line_zero_delay_same_sample():
    dl = DelayLine(0)
    dl.push(ActuatorVector(v_z=2.0))
    assert dl.pop_due() == ActuatorVector(v_z=2.0)


def test_delay_line_fifo_order():
    # three samples of latency: zeros while it fills, then the commands in order
    dl = DelayLine(3)
    due = []
    for v in (1.0, 2.0, 3.0, 4.0, 5.0):
        dl.push(ActuatorVector(v_x=v))
        due.append(dl.pop_due().v_x)
    assert due == [0.0, 0.0, 0.0, 1.0, 2.0]


def test_perturb_transfer_matrix():
    g = nominal_transfer_matrix()
    assert np.array_equal(perturb_transfer_matrix(g, np.random.default_rng(0), 0.0), g)
    g1 = perturb_transfer_matrix(g, np.random.default_rng(5), 0.02)
    g2 = perturb_transfer_matrix(g, np.random.default_rng(5), 0.02)
    np.testing.assert_array_equal(g1, g2)
    assert np.all((g1 == 0) == (g == 0))  # zero structure preserved
    assert not np.array_equal(g1, g)


NAN = float("nan")


def _trap_set(**values):
    """A default TrapConfig with fields reassigned after its own check."""
    cfg = TrapConfig()
    for name, value in values.items():
        setattr(cfg, name, value)
    return cfg


@pytest.mark.parametrize("call, match", [
    (lambda: TrapConfig(w_eq0=NAN), "equilibrium width"),
    (lambda: TrapConfig(width_damping=NAN), "width damping rate"),
    (lambda: PlantState(0.0, 0.0, 0.0, 0.0, NAN, 0.0, SignalVector()), "width-mode"),
    (lambda: step(equilibrium_state(TrapConfig()), SignalVector(), NAN, TrapConfig()), "dt > 0"),
    (lambda: step(equilibrium_state(TrapConfig()), SignalVector(), TAU, _trap_set(f_x=NAN)),
     "inverted"),
    (lambda: step(equilibrium_state(TrapConfig()), SignalVector(), TAU,
                  _trap_set(width_damping=NAN)), "below the mode frequency"),
    (lambda: quadrupole_drive(equilibrium_state(TrapConfig()), 1.0, 100.0, NAN, TrapConfig()),
     "n_periods"),
    (lambda: quadrupole_drive(equilibrium_state(TrapConfig()), 1.0, NAN, 1, TrapConfig()),
     "drive frequency"),
    (lambda: DelayLine(NAN), "delay"),
], ids=["w_eq0", "width_damping", "state_w", "step_dt", "step_wx_sq", "step_damping",
        "drive_periods", "drive_freq", "delay"])
def test_plant_guards_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()
