import inspect
import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import beccool.cli as cli
from beccool import (
    ExperimentConfig,
    ImageGrid,
    LoopConfig,
    LowPass,
    NoiseConfig,
    PhaseParams,
    PlantState,
    Scenario,
    SignalVector,
    config_hash,
    load_config,
    measure_pipeline_noise,
    mode_energies,
    monte_carlo,
    run_experiment,
    save_config,
    summarize_run,
)
from beccool import harness
from beccool.constants import RB87_MASS
from beccool.harness import RECORD_COLUMNS, RunRecord, write_summary_json
from conftest import NOISELESS

QUICK = Scenario(kind="quiet", feedback=False, duration=0.05, seed=3)


def short_config():
    return ExperimentConfig()


def test_quiet_noiseless_energy_constant(trap):
    # no feedback, no noise: per-mode energy flat over the whole record
    sc = Scenario(kind="quiet", feedback=False, duration=0.15, seed=1)
    rec = run_experiment(sc, NOISELESS)
    # start from a gently excited state instead: displace via a kick at t=0
    sc2 = Scenario(kind="dipole_kick", feedback=False, kick_time=0.0,
                   kick_dx=-3e-6, kick_dz=1e-6, kick_domega_frac=0.02,
                   duration=0.15, seed=1)
    rec = run_experiment(sc2, NOISELESS)
    m = RB87_MASS
    for r_col, v_col, c_col, omega_sq in (
        ("x", "vx", "trap_x", None),
        ("z", "vz", "trap_z", trap.omega_z**2),
    ):
        r = rec.column(r_col)[1:]
        v = rec.column(v_col)[1:]
        c = rec.column(c_col)[1:]
        w_sq = rec.column("domega_x_sq")[1:] + trap.omega_x**2 if omega_sq is None \
            else np.full(r.size, omega_sq)
        e = 0.5 * m * w_sq * (r - c) ** 2 + 0.5 * m * v**2
        assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0], r_col
    e_w = (0.5 * m * 2.5 * (rec.column("domega_x_sq")[1:] + trap.omega_x**2)
           * (rec.column("w")[1:] - rec.column("w_eq")[1:]) ** 2
           + 0.5 * m * rec.column("vw")[1:] ** 2)
    assert np.max(np.abs(e_w - e_w[0])) <= 1e-10 * e_w[0]


def test_run_record_csv_roundtrip(tmp_path):
    rec = run_experiment(QUICK, short_config())
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    back = RunRecord.from_csv(path)
    assert back.scenario.seed == QUICK.seed and back.config_hash == rec.config_hash
    assert back.scenario.kind == QUICK.kind and back.scenario.feedback == QUICK.feedback
    np.testing.assert_allclose(back.column("x"), rec.column("x"), rtol=1e-9)
    assert back.column("t").size == len(rec)
    np.testing.assert_allclose(np.diff(rec.column("t")), 1e-3, rtol=1e-12)


@pytest.mark.parametrize("feedback", [True, False])
@pytest.mark.parametrize("kind", ["dipole_kick", "quadrupole_drive", "quiet"])
def test_run_record_csv_rereads_to_identical_bytes(tmp_path, kind, feedback):
    rec = run_experiment(Scenario(kind=kind, feedback=feedback, duration=0.04, seed=5))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    rec.to_csv(first)
    back = RunRecord.from_csv(first)
    back.to_csv(second)
    assert second.read_bytes() == first.read_bytes()
    assert (back.scenario.seed, back.config_hash, back.scenario.kind, back.scenario.feedback) == \
        (rec.scenario.seed, rec.config_hash, kind, feedback)


def test_byte_identical_outputs_for_same_seed(tmp_path):
    paths = []
    for tag in ("a", "b"):
        rec = run_experiment(replace(QUICK, seed=42), short_config())
        p = tmp_path / f"run_{tag}.csv"
        rec.to_csv(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _per_value_csv(record, path):
    # the row formatter to_csv used before it called np.savetxt
    with open(path, "w") as f:
        f.write(f"# beccool-run config_hash={record.config_hash} seed={record.scenario.seed} "
                f"scenario={record.scenario.kind} feedback={int(record.scenario.feedback)}\n")
        f.write(",".join(RECORD_COLUMNS) + "\n")
        for row in zip(*[record.data[c] for c in RECORD_COLUMNS]):
            f.write(",".join(f"{v:.10e}" for v in row) + "\n")


def test_to_csv_bytes_match_per_value_format(tmp_path):
    rng = np.random.default_rng(11)
    huge = np.finfo(float).max
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, huge, -huge, 5e-324, -5e-324,
               2.5e-310, np.finfo(float).tiny, 1.0, -1.0, 0.1]
    bit_patterns = np.frombuffer(rng.bytes(8 * 2500), dtype=np.float64)
    n_rows = 218  # 23 columns x 218 rows = 5014 values
    wide = rng.standard_normal(n_rows * len(RECORD_COLUMNS) - len(special) - bit_patterns.size)
    wide *= 10.0 ** rng.integers(-320, 308, wide.size)
    values = rng.permutation(np.concatenate([special, bit_patterns, wide]))
    record = RunRecord(data=dict(zip(RECORD_COLUMNS, values.reshape(len(RECORD_COLUMNS), -1))),
                       scenario=Scenario(seed=5), config_hash="0123456789abcdef")
    record.to_csv(tmp_path / "new.csv")
    _per_value_csv(record, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_different_seed_changes_noise_not_structure():
    r1 = run_experiment(replace(QUICK, seed=1), short_config())
    r2 = run_experiment(replace(QUICK, seed=2), short_config())
    assert not np.array_equal(r1.column("x_raw"), r2.column("x_raw"))
    assert r1.config_hash != r2.config_hash  # seed participates in the hash


@pytest.mark.parametrize("delay, lag", [(0.0, 0), (960e-6, 1), (2.5e-3, 3)],
                         ids=["0us", "960us", "2500us"])
def test_timing_fidelity_delay_samples(delay, lag):
    # with feedback on, the first nonzero command reaches the recorded trap
    # position loop.delay_samples samples later: the delay rounded up
    config = replace(NOISELESS, loop=LoopConfig(delay=delay))
    assert config.loop.delay_samples == lag
    sc = Scenario(kind="dipole_kick", feedback=True, kick_time=0.005,
                  enable_time=0.010, duration=0.05, seed=5)
    rec = run_experiment(sc, config)
    v_x = rec.column("v_x")
    trap_x = rec.column("trap_x")
    kick_i = int(round(sc.kick_time / 1e-3))
    first_cmd = int(np.flatnonzero(v_x != 0.0)[0])
    assert first_cmd >= int(round(sc.enable_time / 1e-3))
    actuator_part = trap_x - np.where(np.arange(len(rec)) >= kick_i, sc.kick_dx, 0.0)
    first_effect = int(np.flatnonzero(np.abs(actuator_part) > 1e-15)[0])
    assert first_effect == first_cmd + lag


def test_seed_streams_are_the_seed_sequence_children_in_order():
    # shot, hold, process, drift, spare, offline: children 0-5 of SeedSequence(seed)
    streams = harness.seed_streams(11)
    assert streams._fields == ("shot", "hold", "process", "drift", "spare", "offline")
    for rng, child in zip(streams, np.random.SeedSequence(11).spawn(6)):
        assert rng.random() == np.random.default_rng(child).random()


@pytest.mark.parametrize("tau", [1e-3, 0.5e-3, 0.1e-3])
@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_delay_samples_at_whole_periods(tau, k):
    # k periods, and k periods give or take 1e-13 s of rounding, are k samples
    assert LoopConfig(sample_period=tau, delay=k * tau).delay_samples == k
    assert LoopConfig(sample_period=tau, delay=k * tau + 1e-13).delay_samples == k
    assert LoopConfig(sample_period=tau, delay=max(0.0, k * tau - 1e-13)).delay_samples == k
    # a whole nanosecond either way is no rounding error
    assert LoopConfig(sample_period=tau, delay=k * tau + 1e-9).delay_samples == k + 1
    if k:
        assert LoopConfig(sample_period=tau, delay=k * tau - 1e-9).delay_samples == k


def test_absurd_delay_never_acts():
    # 1e300 s at 1e-300 s per sample is no integer a float can hold: the
    # commands still never act, and nothing overflows
    config = ExperimentConfig(loop=LoopConfig(sample_period=1e-300, delay=1e300))
    assert config.loop.delay_samples >= harness.MAX_RECORD_SAMPLES
    rec = run_experiment(Scenario(kind="quiet", enable_time=0.0, duration=4e-300, seed=2),
                         config)
    assert len(rec) == 4
    assert np.any(rec.column("v_z") != 0.0)  # shot noise makes commands
    for col in ("trap_x", "trap_z", "domega_x_sq"):
        assert np.all(rec.column(col) == 0.0)


def test_loop_sample_period_reaches_every_filter(monkeypatch):
    # the controller and estimator default to the 1 ms period: a run at 0.5 ms
    # must hand its own period to both
    made = {}

    class Controller(harness.DerivativeController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["controller"] = self

    class Estimator(harness.InSituEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["estimator"] = self

    monkeypatch.setattr(harness, "DerivativeController", Controller)
    monkeypatch.setattr(harness, "InSituEstimator", Estimator)
    tau = 0.5e-3
    config = replace(NOISELESS, loop=LoopConfig(sample_period=tau, delay=480e-6))
    run_experiment(Scenario(kind="quiet", duration=0.005), config)
    assert [lp.alpha for lp in made["controller"]._lp] == [LowPass(100, tau).alpha] * 2
    assert made["estimator"].lp_x.alpha == LowPass(60, tau).alpha
    assert made["estimator"].lp_w.alpha == LowPass(100, tau).alpha


def test_feedback_damps_kick_noiseless():
    sc = Scenario(kind="dipole_kick", feedback=True, duration=0.15, seed=0)
    rec_on = run_experiment(sc, NOISELESS)
    rec_off = run_experiment(replace(sc, feedback=False), NOISELESS)
    def amp(rec):
        return np.hypot(rec.column("x") - rec.column("trap_x"),
                        rec.column("vx") / (2 * np.pi * 20.3))
    assert amp(rec_on)[-1] < 0.05 * 8e-6
    assert amp(rec_off)[-1] > 0.9 * 8e-6


def test_quadrupole_drive_scenario_excites_width(trap):
    sc = Scenario(kind="quadrupole_drive", feedback=False, duration=0.1, seed=2)
    rec = run_experiment(sc, NOISELESS)
    w_amp = np.hypot(rec.column("w") - trap.w_eq0, rec.column("vw") / trap.omega_q)
    assert w_amp.max() > 1e-6  # a few-um width oscillation from the drive
    # and x/z stay quiet (drive couples only to the width mode)
    assert np.abs(rec.column("x")).max() < 1e-9


def _records_equal(a, b):
    return all(np.array_equal(a.column(c), b.column(c)) for c in RECORD_COLUMNS)


def test_process_velocity_noise_heats_the_modes_reproducibly(trap):
    # a quiet open-loop run rests at equilibrium; the per-sample velocity
    # kicks of noise.process_velocity_std are its only energy source
    heated = replace(NOISELESS, noise=replace(NOISELESS.noise, process_velocity_std=1e-6))
    rec = run_experiment(QUICK, heated)
    last = {c: rec.column(c)[-1] for c in RECORD_COLUMNS}
    state = PlantState(x=last["x"], vx=last["vx"], z=last["z"], vz=last["vz"],
                       w=last["w"], vw=last["vw"],
                       trap=SignalVector(last["trap_x"], last["trap_z"], last["domega_x_sq"]))
    assert all(e > 0 for e in mode_energies(state, trap).values())
    assert _records_equal(run_experiment(QUICK, heated), rec)
    # the default 0 is the run without the key
    config, _ = harness.config_from_flat({"noise.process_velocity_std": "0"})
    assert _records_equal(run_experiment(QUICK, config), run_experiment(QUICK))


def test_summarize_run_keys_and_determinism():
    rec = run_experiment(replace(QUICK, duration=0.08, seed=9), short_config())
    s1 = summarize_run(rec)
    s2 = summarize_run(rec)
    assert s1 == s2
    for key in ("n_x_meas", "n_x_true", "n_z_meas", "n_z_true", "n_w_meas", "n_w_true"):
        assert key in s1 and np.isfinite(s1[key])


def test_monte_carlo_single_run_matches_run_experiment():
    sc = replace(QUICK, duration=0.06)
    records, summaries, summary = monte_carlo(sc, short_config(), n_runs=1,
                                              base_seed=7, keep_records=True)
    direct = run_experiment(replace(sc, seed=records[0].scenario.seed), short_config())
    np.testing.assert_array_equal(records[0].column("x_raw"), direct.column("x_raw"))
    assert summary["n_runs"] == 1 and summary["n_failed"] == 0


def test_monte_carlo_reproducible_and_parallel_equivalent():
    sc = replace(QUICK, duration=0.06)
    cfg = short_config()
    _, _, s1 = monte_carlo(sc, cfg, n_runs=4, base_seed=3)
    _, _, s2 = monte_carlo(sc, cfg, n_runs=4, base_seed=3)
    _, _, s3 = monte_carlo(sc, cfg, n_runs=4, base_seed=3, parallel=True)
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
    assert json.dumps(s1, sort_keys=True) == json.dumps(s3, sort_keys=True)


def test_monte_carlo_records_individual_failures():
    # an empty noiseless object makes the very first frame degenerate ->
    # each run fails; the ensemble surfaces that instead of crashing midway
    cfg = replace(NOISELESS, phase=replace(NOISELESS.phase, phi0=0.0))
    sc = replace(QUICK, duration=0.02)
    with pytest.raises(RuntimeError):
        run_experiment(sc, cfg)
    with pytest.raises(RuntimeError, match="failed"):
        monte_carlo(sc, cfg, n_runs=2, base_seed=0)


def test_degenerate_frame_error_has_sample_context():
    cfg = replace(NOISELESS, phase=replace(NOISELESS.phase, phi0=0.0))
    with pytest.raises(RuntimeError, match="sample 0"):
        run_experiment(replace(QUICK, duration=0.02), cfg)


def test_config_flat_roundtrip(tmp_path):
    cfg = ExperimentConfig(noise=NoiseConfig(photons_per_pixel=3e6, g_drift_scale=0.01))
    sc = Scenario(kind="quadrupole_drive", feedback=False, duration=0.123,
                  hold_random=(0.0, 0.15), seed=99)
    p1, p2 = tmp_path / "a.cfg", tmp_path / "b.cfg"
    save_config(p1, cfg, sc)
    cfg2, sc2 = load_config(p1)
    # SI-verbatim storage round-trips exactly
    assert config_hash(cfg2, sc2) == config_hash(cfg, sc)
    assert sc2.kind == sc.kind and sc2.seed == 99
    assert sc2.duration == sc.duration
    assert sc2.hold_random == sc.hold_random
    assert cfg2.noise.photons_per_pixel == 3e6
    assert cfg2.noise.g_drift_scale == 0.01
    assert cfg2.trap.f_x == cfg.trap.f_x
    save_config(p2, cfg2, sc2)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_hash_is_pinned():
    # every output file carries this hash; a moved default, key or encoding moves it
    assert config_hash(ExperimentConfig()) == "0c37fc52e90dd4d3"
    assert config_hash(ExperimentConfig(), Scenario()) == "442a47de812370a2"


def test_config_bad_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("trap.f_x_hz : 20.3\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("noise.photons_per_pixle = 1\n")
    with pytest.raises(ValueError, match="noise.photons_per_pixle"):
        load_config(path)


def test_config_render_model_validated(tmp_path):
    with pytest.raises(ValueError, match="render model"):
        LoopConfig(render_model="lineer")
    path = tmp_path / "bad.cfg"
    path.write_text("optics.render_model = lineer\n")
    with pytest.raises(ValueError, match="render model"):
        load_config(path)


def test_config_gain_mode_validated():
    with pytest.raises(ValueError, match="gain mode"):
        ExperimentConfig(gain_mode="calibrate")


@pytest.mark.parametrize("bad", [dict(hold=-0.01), dict(hold_random=(0.05, 0.01)),
                                 dict(hold_random=(-0.01, 0.02))])
def test_scenario_hold_ranges_validated(bad):
    with pytest.raises(ValueError):
        Scenario(**bad)


# NaN fails every guard, and each time the loop turns into a sample count
# must also be finite
@pytest.mark.parametrize("bad", [
    dict(duration=math.nan), dict(kick_time=math.nan), dict(hold=math.nan),
    dict(enable_time=math.nan), dict(hold_random=(math.nan, 0.1)),
    dict(hold_random=(0.0, math.nan)), dict(seed=math.nan),
    dict(duration=math.inf), dict(kick_time=math.inf), dict(hold=math.inf),
    dict(hold_random=(0.0, math.inf)),
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_scenario_rejects_nan_and_infinite_times(bad):
    with pytest.raises(ValueError):
        Scenario(**bad)


def test_infinite_enable_time_never_engages_feedback():
    sc = replace(QUICK, kind="dipole_kick", feedback=True, enable_time=math.inf)
    on, off = run_experiment(sc, NOISELESS), run_experiment(replace(sc, feedback=False), NOISELESS)
    np.testing.assert_array_equal(np.column_stack(list(on.data.values())),
                                  np.column_stack(list(off.data.values())))


@pytest.mark.parametrize("call, match", [
    (lambda: monte_carlo(QUICK, n_runs=math.nan), "n_runs"),
    (lambda: monte_carlo(QUICK, n_runs=1, base_seed=math.nan), "base_seed"),
    (lambda: measure_pipeline_noise(n_frames=math.nan), "at least 2 frames"),
], ids=["n_runs", "base_seed", "n_frames"])
def test_harness_guards_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_readme_config_table_lists_every_key():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        section = f.read().split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == set(harness._KEYS)


# phase is left out: the camera takes phase.r_x, x0 and z0 from the plant state
@pytest.mark.parametrize("section", ["trap", "controller", "estimator", "loop", "noise",
                                     "grid", "optics"])
def test_every_config_field_has_a_file_key(section):
    names = {f.name for f in fields(getattr(ExperimentConfig(), section))}
    assert names == {name for sec, name, *_ in harness._KEYS.values() if sec == section}


def test_random_hold_adds_to_fixed_hold():
    sc = Scenario(kind="quiet", feedback=False, duration=0.03, hold_random=(0.0, 0.01),
                  seed=5)
    drawn = run_experiment(sc, NOISELESS)
    held = run_experiment(replace(sc, hold=0.05), NOISELESS)
    assert len(held) == len(drawn) + 50


@pytest.mark.parametrize("parallel", [False, True])
def test_monte_carlo_records_short_runs_as_failures(parallel):
    # runs shorter than the 50-sample x-mode accounting window are recorded
    # as failures; the long runs of the same ensemble are still summarized
    sc = Scenario(kind="quiet", feedback=False, duration=0.03, hold_random=(0.0, 0.05))
    records, summaries, summary = monte_carlo(sc, n_runs=6, base_seed=0,
                                              parallel=parallel, keep_records=True)
    assert 0 < summary["n_failed"] < 6
    assert len(summary["failed_runs"]) == summary["n_failed"]
    assert len(records) == len(summaries) == 6 - summary["n_failed"]
    assert all(len(rec) >= 50 for rec in records)
    assert summary["stats"]["n_x_true"]["n"] == len(summaries)


def test_serial_and_parallel_ensembles_identical_with_failures(tmp_path):
    sc = Scenario(kind="quiet", feedback=False, duration=0.03, hold_random=(0.0, 0.05))
    out = {}
    for parallel in (False, True):
        records, summaries, summary = monte_carlo(sc, n_runs=6, base_seed=0,
                                                  parallel=parallel, keep_records=True)
        csvs = []
        for k, rec in enumerate(records):
            rec.to_csv(tmp_path / f"run_{parallel}_{k}.csv")
            csvs.append((tmp_path / f"run_{parallel}_{k}.csv").read_bytes())
        # the summary JSON carries failed_runs
        out[parallel] = (json.dumps(summaries, sort_keys=True),
                         json.dumps(summary, sort_keys=True), csvs)
    assert 0 < summary["n_failed"] < 6
    assert out[True] == out[False]


def test_monte_carlo_all_short_runs_fail():
    sc = Scenario(kind="quiet", feedback=False, duration=0.03)
    with pytest.raises(RuntimeError, match="all 2 runs failed"):
        monte_carlo(sc, n_runs=2)


def _camera_fails(monkeypatch, when):
    """Make the loop's shot-noise stage raise ValueError on the calls ``when`` picks."""
    real, calls = harness.add_shot_noise, itertools.count()

    def add_shot_noise(*args):
        if when(next(calls)):
            raise ValueError("camera fault")
        return real(*args)

    monkeypatch.setattr(harness, "add_shot_noise", add_shot_noise)


def test_failing_sample_outside_estimator_and_plant_names_the_sample(monkeypatch):
    _camera_fails(monkeypatch, lambda call: call == 3)
    with pytest.raises(RuntimeError, match=r"^sample 3 \(t=3\.0 ms\) failed: camera fault$"):
        run_experiment(QUICK)


def test_monte_carlo_camera_fault_on_every_frame_fails_every_run(monkeypatch):
    _camera_fails(monkeypatch, lambda call: True)
    with pytest.raises(RuntimeError, match="all 2 runs failed; first: sample 0 "):
        monte_carlo(QUICK, n_runs=2)


def test_monte_carlo_records_a_failing_sample_as_one_failed_run(monkeypatch):
    # QUICK runs 50 frames: the 4th frame of the ensemble is run 0's sample 3
    _camera_fails(monkeypatch, lambda call: call == 3)
    _, summaries, summary = monte_carlo(QUICK, n_runs=2)
    assert summary["failed_runs"] == [0] and len(summaries) == 1


def test_degenerate_frame_holds_every_measurement_column(monkeypatch):
    # an all-ones frame over the fringe-free reference has no rho^6 mass: its
    # row repeats the previous frame's filtered and raw estimates
    real, calls, k = harness.add_shot_noise, itertools.count(), 5

    def add_shot_noise(image, *args):
        if next(calls) == k:
            return ImageGrid(image.grid, np.ones_like(image.data))
        return real(image, *args)

    monkeypatch.setattr(harness, "add_shot_noise", add_shot_noise)
    config = ExperimentConfig(noise=NoiseConfig(reference_fringes=False))
    record = run_experiment(QUICK, config)
    assert list(record.column("degenerate")[k - 1:k + 2]) == [0, 1, 0]
    for name in ("x_hat", "z_hat", "w_hat", "x_raw", "z_raw", "w_raw", "wz_raw"):
        column = record.column(name)
        assert column[k] == column[k - 1], name


def test_monte_carlo_records_non_finite_kicks_as_failed_runs():
    # the kick's SignalVector rejects NaN inside the loop, at the kick sample
    with pytest.raises(RuntimeError, match=r"all 2 runs failed; first: sample 10 \(t=10\.0 ms\)"):
        monte_carlo(Scenario(kick_dx=math.nan, duration=0.02), n_runs=2)


def test_measure_pipeline_noise_levels():
    # at the calibrated default photon budget the in-situ noise sits at the
    # sub-0.1 um scale for the centroids
    probe = measure_pipeline_noise(n_frames=25, seed=1)
    assert probe["sigma_x"] < 0.12e-6
    assert probe["sigma_z"] < 0.12e-6
    assert probe["sigma_w"] < 0.3e-6
    assert probe["mean_w"] == pytest.approx(4.3e-6, rel=0.1)


def test_write_summary_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"b": 1, "a": [1.5, 2.5]}
    write_summary_json(payload, p1)
    write_summary_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == payload


# --- CLI ---------------------------------------------------------------------


def _write_quick_config(tmp_path, **scenario_overrides):
    sc = replace(Scenario(kind="quiet", feedback=False, duration=0.06, seed=3),
                 **scenario_overrides)
    path = tmp_path / "exp.cfg"
    save_config(path, ExperimentConfig(), sc)
    return path


def test_cli_run(tmp_path, capsys):
    cfgp = _write_quick_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfgp), "--out", str(out), "--seed", "11"])
    assert code == 0
    assert (out / "run_11.csv").exists() and (out / "run_11.json").exists()
    assert "n_x" in capsys.readouterr().out


def test_cli_ensemble_and_analyze(tmp_path, capsys):
    cfgp = _write_quick_config(tmp_path)
    out = tmp_path / "ens"
    code = cli.main(["ensemble", "--config", str(cfgp), "--out", str(out),
                     "--runs", "2"])
    assert code == 0
    assert (out / "ensemble.json").exists() and (out / "ensemble.csv").exists()
    # analyze needs run CSVs: produce two
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    for seed in (1, 2):
        rec = run_experiment(replace(Scenario(kind="quiet", feedback=False,
                                              duration=0.06), seed=seed))
        rec.to_csv(run_dir / f"run_{seed}.csv")
    out2 = tmp_path / "ana"
    code = cli.main(["analyze", "--records", str(run_dir), "--out", str(out2)])
    assert code == 0
    assert (out2 / "analysis.json").exists()


def test_cli_parallel_ensemble_matches_serial(tmp_path):
    # the short-run ensemble, so failed runs are compared too
    cfgp = _write_quick_config(tmp_path, duration=0.03, hold_random=(0.0, 0.05))
    outputs = []
    for flags in ([], ["--parallel"]):
        out = tmp_path / f"ens{len(flags)}"
        assert cli.main(["ensemble", "--config", str(cfgp), "--out", str(out),
                         "--runs", "6", *flags]) == 0
        outputs.append([(out / name).read_bytes() for name in ("ensemble.json", "ensemble.csv")])
    assert json.loads(outputs[0][0])["n_failed"] > 0
    assert outputs[1] == outputs[0]


def _die(scenario, config, seed):
    os._exit(3)


def test_cli_parallel_ensemble_dead_worker_exits_1(tmp_path, monkeypatch, capsys):
    # spawn workers import this module by name to find _die, and die in it
    monkeypatch.setattr(harness, "_ensemble_run", _die)
    out = tmp_path / "ens"
    assert cli.main(["ensemble", "--scenario", "quiet", "--runs", "2", "--parallel",
                     "--out", str(out)]) == 1
    assert _single_config_error(capsys)["kind"] == "runtime"
    assert not (out / "ensemble.json").exists()


def test_cli_calibrate_gains(capsys):
    assert cli.main(["calibrate", "--what", "gains"]) == 0
    out = capsys.readouterr().out
    assert "calibrated K" in out and "L_xx=11.8" in out


def test_cli_error_paths(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    assert json.loads(err.split(" ", 1)[1])["kind"] == "config"
    assert cli.main(["analyze", "--records", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path)]) == 2


def _single_config_error(capsys):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ")
    return json.loads(lines[0].split(" ", 1)[1])


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["run", "--scenario", "bogus"],
    ["run", "--nope"],
    ["ensemble", "--runs", "two"],
    ["ensemble", "--runs", "-1"],
    ["calibrate", "--frames", "x"],
])
def test_cli_usage_error_is_one_error_line(argv, capsys):
    assert cli.main(argv) == 2
    assert _single_config_error(capsys)["kind"] == "usage"


@pytest.mark.parametrize("command", [["run"], ["ensemble", "--runs", "1"],
                                     ["calibrate", "--what", "noise"]])
def test_cli_negative_seed_is_one_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    out = ["--out", "D"] if command[0] != "calibrate" else []
    assert cli.main(command + ["--seed", "-1"] + out) == 2
    payload = _single_config_error(capsys)
    assert payload["kind"] == "usage" and "--seed" in payload["message"]
    assert list(tmp_path.iterdir()) == []


def test_monte_carlo_rejects_negative_base_seed():
    with pytest.raises(ValueError, match="base_seed must be >= 0"):
        monte_carlo(QUICK, n_runs=1, base_seed=-1)


def test_cli_ensemble_zero_runs_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "ens"
    assert cli.main(["ensemble", "--runs", "0", "--out", str(out)]) == 2
    assert _single_config_error(capsys)["kind"] == "usage"
    assert not out.exists()


def test_cli_help_exits_0(capsys):
    assert cli.main(["ensemble", "--help"]) == 0
    captured = capsys.readouterr()
    assert "--parallel" in captured.out and captured.err == ""


def test_cli_out_path_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["run", "--scenario", "quiet", "--out", str(taken)]) == 2
    assert _single_config_error(capsys)["kind"] == "config"


def test_cli_config_path_is_a_directory_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert _single_config_error(capsys)["kind"] == "config"


def test_cli_dump_frames(tmp_path):
    cfgp = _write_quick_config(tmp_path, duration=0.012)
    out = tmp_path / "dump"
    code = cli.main(["run", "--config", str(cfgp), "--out", str(out),
                     "--dump-frames"])
    assert code == 0
    frames = os.listdir(out / "frames")
    assert "frame_00000.txt" in frames and "frame_00010.txt" in frames


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    cfgp = _write_quick_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + "noise.photons_per_pixle = 1\n")
    code = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    payload = json.loads(err.split(" ", 1)[1])
    assert payload["kind"] == "config"
    assert "noise.photons_per_pixle" in payload["message"]


@pytest.mark.parametrize("kind, seed", [("dipole_kick", 3), ("quadrupole_drive", 11)])
def test_cli_analyze_reproduces_run_phonons(tmp_path, kind, seed):
    runs, ana = tmp_path / "runs", tmp_path / "ana"
    assert cli.main(["run", "--scenario", kind, "--seed", str(seed),
                     "--out", str(runs)]) == 0
    assert cli.main(["analyze", "--records", str(runs), "--out", str(ana)]) == 0
    phonons = json.loads((runs / f"run_{seed}.json").read_text())["phonons"]
    stats = json.loads((ana / "analysis.json").read_text())["stats"]
    # one record, so each mean is its occupancy; the CSV's %.10e round-off
    # of the trajectory is the only difference
    assert set(stats) == {k for k in phonons if k.startswith("n_")}
    for key, st in stats.items():
        assert st["mean"] == pytest.approx(phonons[key], abs=1e-9)


def test_cli_analyze_rejects_incomplete_header(tmp_path, capsys):
    (tmp_path / "run_3.csv").write_text("# beccool-run seed=3\nt,x\n0.0,0.0\n")
    code = cli.main(["analyze", "--records", str(tmp_path), "--out", str(tmp_path / "a")])
    assert code == 2
    assert "run header lacks config_hash, feedback, scenario" in capsys.readouterr().err


def _header_and_columns(columns):
    return ("# beccool-run config_hash=0 seed=3 scenario=quiet feedback=0\n"
            + ",".join(columns) + "\n")


def test_cli_analyze_rejects_record_missing_a_column(tmp_path, capsys):
    columns = [c for c in RECORD_COLUMNS if c != "trap_x"]
    (tmp_path / "run_3.csv").write_text(
        _header_and_columns(columns) + ",".join(["0.0"] * len(columns)) + "\n")
    code = cli.main(["analyze", "--records", str(tmp_path), "--out", str(tmp_path / "a")])
    assert code == 2
    message = _single_config_error(capsys)["message"]
    assert "run_3.csv" in message and "trap_x" in message


@pytest.mark.parametrize("rows", ["", "0.0,0.0\n"], ids=["header_only", "short_row"])
def test_cli_analyze_rejects_record_without_full_rows(tmp_path, capsys, rows):
    (tmp_path / "run_3.csv").write_text(_header_and_columns(RECORD_COLUMNS) + rows)
    code = cli.main(["analyze", "--records", str(tmp_path), "--out", str(tmp_path / "a")])
    assert code == 2
    message = _single_config_error(capsys)["message"]
    assert "run_3.csv" in message and "no data rows" in message


def test_cli_analyze_names_a_record_too_short_to_account(tmp_path, capsys):
    # the x-mode window needs 50 samples: run_1 has 30, run_2 enough
    run_experiment(replace(QUICK, duration=0.03, seed=1)).to_csv(tmp_path / "run_1.csv")
    run_experiment(replace(QUICK, duration=0.06, seed=2)).to_csv(tmp_path / "run_2.csv")
    code = cli.main(["analyze", "--records", str(tmp_path), "--out", str(tmp_path / "a")])
    assert code == 2
    message = _single_config_error(capsys)["message"]
    assert "run_1.csv" in message and "need at least 50 samples, got 30" in message
    assert not (tmp_path / "a").exists()


def test_cli_analyze_names_a_record_with_a_non_numeric_value(tmp_path, capsys):
    (tmp_path / "run_3.csv").write_text(
        _header_and_columns(RECORD_COLUMNS) + ",".join(["x"] * len(RECORD_COLUMNS)) + "\n")
    code = cli.main(["analyze", "--records", str(tmp_path), "--out", str(tmp_path / "a")])
    assert code == 2
    assert "run_3.csv" in _single_config_error(capsys)["message"]


_BAD_VALUES = [
    ("optics.nx", "12.5"),
    ("scenario.feedback", "yes"),
    ("scenario.hold_random_s", "0.1"),
]


@pytest.mark.parametrize("key, text", _BAD_VALUES)
def test_config_bad_value_names_key(tmp_path, key, text):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {text}\n")
    with pytest.raises(ValueError, match=f"^config key {re.escape(key)}: "):
        load_config(path)


@pytest.mark.parametrize("text", ["0.1", "0:0.1:0.2", "0;0.1", ":"])
def test_config_hold_random_needs_lo_hi(text):
    with pytest.raises(ValueError, match="scenario.hold_random_s"):
        harness.config_from_flat({"scenario.hold_random_s": text})


def _is_float_key(key):
    section, name, *codec = harness._KEYS[key]
    default = getattr(harness._section(ExperimentConfig(), Scenario(), section), name)
    return not codec and isinstance(default, float)


_FLOAT_KEYS = [key for key in harness._KEYS if _is_float_key(key)]
_NON_FINITE = ([(key, text) for key in _FLOAT_KEYS for text in ("nan", "inf", "-inf")]
               + [("scenario.hold_random_s", text) for text in ("0:inf", "nan:0.1", "-inf:0")])


def test_non_finite_cases_cover_every_float_key():
    assert len(_FLOAT_KEYS) == 34 and "scenario.enable_time_s" in _FLOAT_KEYS


@pytest.mark.parametrize("key, text", _NON_FINITE)
def test_config_rejects_non_finite_numbers(key, text):
    with pytest.raises(ValueError, match=rf"^config key {re.escape(key)}: must be a finite "
                                         rf"number, got '{re.escape(text)}'$"):
        harness.config_from_flat({key: text})


@pytest.mark.parametrize("key, text", _NON_FINITE)
def test_cli_non_finite_config_value_exits_2_before_out(tmp_path, capsys, key, text):
    cfgp = _write_quick_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + f"{key} = {text}\n")
    assert cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    payload = _single_config_error(capsys)
    assert payload["kind"] == "config"
    assert payload["message"].startswith(f"config key {key}: must be a finite number")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, text", _BAD_VALUES)
def test_cli_bad_config_value_names_key(tmp_path, capsys, key, text):
    cfgp = _write_quick_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + f"{key} = {text}\n")
    code = cli.main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    payload = json.loads(err.split(" ", 1)[1])
    assert payload["kind"] == "config"
    assert key in payload["message"]


@pytest.mark.parametrize("key, name", [("gains.saturation_volts", "saturation"),
                                       ("gains.output_cutoff_hz", "output_cutoff_hz")])
@pytest.mark.parametrize("command", [["run"], ["ensemble", "--runs", "2"]])
def test_cli_negative_output_stage_value_exits_2(tmp_path, capsys, command, key, name):
    # 0 in the file disables the stage; a negative value is a config error,
    # not a run whose clamp inverts the trap
    cfgp = _write_quick_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + f"{key} = -1\n")
    assert cli.main(command + ["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    payload = _single_config_error(capsys)
    assert payload["kind"] == "config" and name in payload["message"]


# values their dataclass rejects: each must fail at load, naming its file key,
# also in commands that build no loop
_REJECTED_VALUES = [
    ("estimator.x_cutoff_hz", "-1"),
    ("loop.sample_period_s", "0"),
    ("loop.delay_s", "-1"),
    ("gains.saturation_volts", "-1"),
    ("optics.r_x_m", "2e-05"),
    ("noise.photons_per_pixel", "-1"),
    ("noise.offline_sigma_m", "-1"),
    ("noise.process_velocity_std", "-1"),
    ("noise.g_drift_scale", "-1"),
    ("scenario.seed", "-1"),
    ("estimator.region_halfwidth_px", "0"),
    ("estimator.background_margin_frac", "0.6"),
    ("estimator.degenerate_mass_fraction", "-1"),
    ("scenario.drive_periods", "0"),
    ("scenario.drive_freq_rad_s", "-5"),
]


@pytest.mark.parametrize("key, text", _REJECTED_VALUES)
@pytest.mark.parametrize("command", [["run"], ["calibrate", "--what", "gains"]])
def test_cli_rejected_config_value_names_key(tmp_path, monkeypatch, capsys, command, key, text):
    monkeypatch.chdir(tmp_path)
    cfgp = _write_quick_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + f"{key} = {text}\n")
    assert cli.main(command + ["--config", str(cfgp)]) == 2
    payload = _single_config_error(capsys)
    assert payload["kind"] == "config"
    assert payload["message"].startswith(f"config key {key}: ")
    assert not (tmp_path / "out").exists()


def test_config_r_x_names_the_key_that_sets_the_cloud_width():
    with pytest.raises(ValueError, match="trap.w_eq0_m"):
        harness.config_from_flat({"optics.r_x_m": "17.31e-6"})
    with pytest.raises(ValueError, match="trap.w_eq0_m"):
        ExperimentConfig(phase=PhaseParams(r_x=2e-5))
    config, _ = harness.config_from_flat({"optics.r_x_m": repr(PhaseParams.r_x)})
    assert config == ExperimentConfig()
    # the cloud's centre is the plant's too
    with pytest.raises(ValueError, match="phase.x0 has no effect"):
        ExperimentConfig(phase=PhaseParams(x0=5e-6))
    with pytest.raises(ValueError, match="phase.z0 has no effect"):
        ExperimentConfig(phase=PhaseParams(z0=-3e-6))


@pytest.mark.parametrize("make", [
    lambda: harness.EstimatorConfig(x_cutoff_hz=0.0),
    lambda: harness.EstimatorConfig(w_cutoff_hz=-100.0),
    lambda: LoopConfig(sample_period=0.0),
    lambda: LoopConfig(sample_period=float("nan")),
    lambda: LoopConfig(delay=-1e-6),
    lambda: LoopConfig(delay=math.inf),
])
def test_loop_timing_and_filter_rules_hold_in_the_dataclasses(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("n_frames", [-1, 0, 1])
def test_measure_pipeline_noise_needs_two_frames(n_frames):
    with pytest.raises(ValueError, match="at least 2 frames"):
        measure_pipeline_noise(n_frames=n_frames)


@pytest.mark.parametrize("frames", ["0", "1", "-3"])
def test_cli_calibrate_noise_needs_two_frames(capsys, frames):
    code = cli.main(["calibrate", "--what", "noise", "--frames", frames])
    assert code == 2
    captured = capsys.readouterr()
    assert "sigma_x" not in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0].split("ERROR ", 1)[1])
    assert payload["kind"] == "usage" and "--frames" in payload["message"]


def test_measure_pipeline_noise_noiseless_is_zero():
    probe = measure_pipeline_noise(
        ExperimentConfig(noise=NoiseConfig(photons_per_pixel=0.0)), n_frames=5)
    assert probe["sigma_x"] == probe["sigma_z"] == probe["sigma_w"] == 0.0
    assert probe["photons_per_pixel"] == 0.0
    assert probe["mean_w"] == pytest.approx(4.3e-6, rel=0.1)


def test_cli_calibrate_noise_noiseless(tmp_path, capsys):
    path = tmp_path / "noiseless.cfg"
    path.write_text("noise.photons_per_pixel = 0\n")
    code = cli.main(["calibrate", "--what", "noise", "--config", str(path), "--frames", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    for key in ("sigma_x", "sigma_z", "sigma_w"):
        assert f"{key} = 0.0000 um" in captured.out


def test_noise_probe_images_the_first_frame_of_a_run():
    # both take the cloud width from the plant (trap.w_eq0 at rest), not from
    # config.phase.r_x
    config = replace(NOISELESS, trap=replace(NOISELESS.trap, w_eq0=20e-6))
    probe = measure_pipeline_noise(config, n_frames=2)
    record = run_experiment(Scenario(kind="quiet", feedback=False, duration=0.002), config)
    assert probe["mean_w"] == record.column("w_raw")[0]


def _quiet_run_raw_stats(config, n_frames, seed):
    """The probe's dict, read off the raw columns of a quiet feedback-off run."""
    assert config.noise.process_velocity_std == 0.0
    record = run_experiment(Scenario(kind="quiet", feedback=False, seed=seed,
                                     duration=n_frames * config.loop.sample_period), config)
    ws = record.column("w_raw")
    return {"sigma_x": float(np.std(record.column("x_raw"))),
            "sigma_z": float(np.std(record.column("z_raw"))),
            "sigma_w": float(np.std(ws)), "mean_w": float(np.mean(ws)),
            "photons_per_pixel": config.noise.photons_per_pixel}


def test_measure_pipeline_noise_uses_fresnel_camera():
    # the probe reports on exactly the frames a run at the same seed images
    config = ExperimentConfig(loop=LoopConfig(render_model="fresnel"))
    n_frames, seed = 6, 4
    probe = measure_pipeline_noise(config, n_frames=n_frames, seed=seed)
    assert probe == _quiet_run_raw_stats(config, n_frames, seed)
    linear = measure_pipeline_noise(ExperimentConfig(), n_frames=n_frames, seed=seed)
    assert linear == _quiet_run_raw_stats(ExperimentConfig(), n_frames, seed)
    assert probe["mean_w"] != linear["mean_w"]


def test_noise_probe_ignores_process_noise_and_gain_drift():
    # process noise is switched off, and with feedback off the drifted G
    # never acts: the cloud stays at rest
    heated = ExperimentConfig(noise=NoiseConfig(process_velocity_std=1e-4, g_drift_scale=0.2))
    assert measure_pipeline_noise(heated, n_frames=20, seed=5) == \
        measure_pipeline_noise(ExperimentConfig(), n_frames=20, seed=5)


def test_cli_calibrate_noise_failing_sample_is_a_runtime_error(monkeypatch, capsys):
    _camera_fails(monkeypatch, lambda call: call == 3)
    assert cli.main(["calibrate", "--what", "noise", "--frames", "10"]) == 1
    payload = _single_config_error(capsys)
    assert payload["kind"] == "runtime"
    assert payload["message"].startswith("sample 3 (t=3.0 ms) failed: camera fault")


def test_record_length_cap_is_inclusive_and_counts_the_longest_random_hold(monkeypatch):
    monkeypatch.setattr(harness, "MAX_RECORD_SAMPLES", 10)
    assert len(run_experiment(replace(QUICK, duration=0.010), NOISELESS)) == 10
    for over in (dict(duration=0.011), dict(duration=0.005, hold=0.006),
                 dict(duration=0.005, hold_random=(0.0, 0.006))):
        with pytest.raises(ValueError, match="exceeds 10 samples: shorten scenario.duration_s"):
            run_experiment(replace(QUICK, **over), NOISELESS)


@pytest.mark.parametrize("command, lines", [
    (["run"], "scenario.duration_s = 1e306\n"),
    (["run"], "scenario.duration_s = 1e9\nloop.sample_period_s = 1e-9\n"),
    (["ensemble", "--runs", "2"], "scenario.duration_s = 1e306\n"),
    (["calibrate", "--what", "noise", "--frames", "100000000000000000000"], ""),
    (["calibrate", "--what", "noise", "--frames", "1" + "0" * 400], ""),
], ids=["run-overflow", "run-too-big", "ensemble", "calibrate-noise",
        "calibrate-noise-overflow"])
def test_cli_record_over_the_cap_is_one_config_error(tmp_path, capsys, command, lines):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(lines)
    out = ["--out", str(tmp_path / "o")] if command[0] != "calibrate" else []
    assert cli.main(command + ["--config", str(cfg)] + out) == 2
    payload = _single_config_error(capsys)
    assert payload["kind"] == "config"
    for key in ("scenario.duration_s", "scenario.hold_s", "loop.sample_period_s"):
        assert key in payload["message"]


@pytest.mark.parametrize("line", ["scenario.duration_s = 2000\n",
                                  "estimator.region_halfwidth_px = 60\n"],
                         ids=["record-over-the-cap", "atom-region-in-background"])
@pytest.mark.parametrize("command", [["run", "--dump-frames"], ["ensemble", "--runs", "2"]],
                         ids=["run", "ensemble"])
def test_cli_config_failing_before_sample_0_leaves_no_out(tmp_path, capsys, command, line):
    # the file loads, and the run rejects it before its first sample
    cfgp = _write_quick_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + line)
    out = tmp_path / "o"
    assert cli.main(command + ["--config", str(cfgp), "--out", str(out)]) == 2
    assert _single_config_error(capsys)["kind"] == "config"
    assert not out.exists()


def test_noise_probe_frame_default_shared_by_api_and_cli():
    api = inspect.signature(measure_pipeline_noise).parameters["n_frames"].default
    assert cli.build_parser().parse_args(["calibrate"]).frames == api


def test_ensemble_run_default_shared_by_api_and_cli():
    api = inspect.signature(monte_carlo).parameters["n_runs"].default
    assert cli.build_parser().parse_args(["ensemble"]).runs == api


# --- save_config -> load_config round-trips every key -----------------------

_CHOICES = {
    "optics.render_model": ["linear", "fresnel"],
    "gains.mode": ["nominal", "calibrated"],
    "scenario.kind": ["dipole_kick", "quadrupole_drive", "quiet"],
    "optics.nx": [2, 64, 128, 1024],
    "optics.nz": [2, 32, 128],
    "optics.r_x_m": [PhaseParams.r_x],  # any other value has no effect and is rejected
}
# fields the dataclasses require to be non-negative, some strictly: drawn positive
_NON_NEGATIVE = {"trap.f_x_hz", "trap.f_y_hz", "trap.f_z_hz", "trap.w_eq0_m",
                 "trap.width_damping_hz", "optics.pitch_m", "optics.eta_m",
                 "optics.wavelength_m", "optics.r_z_m", "estimator.x_cutoff_hz",
                 "estimator.w_cutoff_hz", "loop.sample_period_s", "loop.delay_s",
                 "scenario.enable_time_s", "scenario.kick_time_s", "scenario.duration_s",
                 "scenario.hold_s", "noise.photons_per_pixel", "noise.offline_sigma_m",
                 "noise.process_velocity_std", "noise.g_drift_scale"}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# fields whose dataclass rule admits less than their type (0 is off, or resonant)
_DOMAINS = {
    "gains.output_cutoff_hz": st.just(0.0) | _POSITIVE,
    "gains.saturation_volts": st.just(0.0) | _POSITIVE,
    "scenario.drive_freq_rad_s": st.just(0.0) | _POSITIVE,
    "scenario.drive_periods": st.integers(1, 2**63),
    "estimator.region_halfwidth_px": st.integers(1, 2**63),
    "estimator.background_margin_frac": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    "estimator.degenerate_mass_fraction": st.floats(0.0, 1.0, exclude_max=True),
}


def _key_values():
    """One strategy per _KEYS entry, for values the dataclasses accept."""
    out = {}
    for key, (section, name, *codec) in harness._KEYS.items():
        default = getattr(harness._section(ExperimentConfig(), Scenario(), section), name)
        if key in _CHOICES:
            out[key] = st.sampled_from(_CHOICES[key])
        elif key in _DOMAINS:
            out[key] = _DOMAINS[key]
        elif codec and codec[0] is harness._BOOL:
            out[key] = st.booleans()
        elif codec:
            out[key] = st.none() | st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2).map(
                lambda v: tuple(sorted(v)))
        elif isinstance(default, int):
            out[key] = st.integers(0, 2**63)
        else:
            out[key] = _POSITIVE if key in _NON_NEGATIVE else _FINITE
    return st.fixed_dictionaries(out)


def _build(values):
    config, scenario = ExperimentConfig(), Scenario()
    updates = {}
    for key, value in values.items():
        section, name, *_ = harness._KEYS[key]
        updates.setdefault(section, {})[name] = value
    scenario = replace(scenario, **updates.pop("scenario"))
    config = replace(config, **updates.pop(""),
                     **{s: replace(getattr(config, s), **kw) for s, kw in updates.items()})
    return config, scenario


@settings(max_examples=150, deadline=None)
@given(values=_key_values(), with_scenario=st.booleans())
def test_config_file_roundtrip_property(values, with_scenario):
    config, scenario = _build(values)
    scenario = scenario if with_scenario else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        save_config(path, config, scenario)
        config2, scenario2 = load_config(path)
    assert config2 == config
    assert scenario2 == scenario
    assert config_hash(config2, scenario2) == config_hash(config, scenario)
