"""Experiment orchestration: scenario configuration, the 1 kHz sample loop
(plant -> imaging -> estimator -> controller -> delay line -> plant),
Monte-Carlo ensembles with independent seeded streams, and persistence.

Axis convention: the imaging path reports camera-frame coordinates, related to
the actuation axes by an overall sign flip (image inversion for the positions;
the measured-width calibration sign is absorbed into the loop the same way).
With that convention the nominal gain matrix damps all three modes; only
measurement *differences* ever reach the controller, so offsets are harmless.
"""

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import analysis
from .constants import SAMPLE_PERIOD
from .controller import ControllerConfig, DerivativeController, calibrate_gains, nominal_gain_matrix
from .estimator import EstimatorConfig, InSituEstimator, LowPass
from .optics import (
    DEFAULT_FRINGES,
    FrameRenderer,
    GridSpec,
    OpticsParams,
    PhaseParams,
    add_shot_noise,
    make_reference,
    write_ascii_grid,
)
from .plant import (
    DelayLine,
    TrapConfig,
    dipole_kick,
    equilibrium_state,
    nominal_transfer_matrix,
    perturb_transfer_matrix,
    quadrupole_drive,
    step,
    width_equilibrium,
)

NOISE_PROBE_FRAMES = 400  # frames behind each measure_pipeline_noise std
MAX_RECORD_SAMPLES = 10**6  # 1000 s at 1 kHz; a record holds 184 B per sample
ENSEMBLE_RUNS = 200  # runs in a monte_carlo ensemble


@dataclass
class NoiseConfig:
    # effective per-pixel photon budget of the camera model; calibrated so the
    # in-situ centroid noise sits at the sub-0.1 um scale of the real loop
    photons_per_pixel: float = 2e7
    # std of independent post-processing position noise used by the phonon
    # accounting (per channel, meters); the value reproducing the documented
    # occupancy biases
    offline_sigma: float = 0.12e-6
    reference_fringes: bool = True
    process_velocity_std: float = 0.0  # m/s per sample, optional mode heating
    g_drift_scale: float = 0.0         # per-run multiplicative jitter on G

    def __post_init__(self):
        for name in ("photons_per_pixel", "offline_sigma", "process_velocity_std",
                     "g_drift_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


@dataclass
class LoopConfig:
    sample_period: float = SAMPLE_PERIOD
    delay: float = 960e-6  # s, measured latency from frame to actuation
    meas_sign: float = -1.0   # camera-to-actuator axis calibration
    render_model: str = "linear"  # 'linear' (alias-free) or 'fresnel'

    def __post_init__(self):
        if self.render_model not in ("linear", "fresnel"):
            raise ValueError(f"unknown render model {self.render_model!r}")
        if not self.sample_period > 0:
            raise ValueError(f"sample_period must be positive, got {self.sample_period!r}")
        if not 0 <= self.delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {self.delay!r}")

    @property
    def delay_samples(self):
        """The delay rounded up to whole samples (1 for 960 us at 1 ms); k periods
        plus up to 1e-12 s is k, and the count stops at MAX_RECORD_SAMPLES."""
        return max(0, math.ceil(min((self.delay - 1e-12) / self.sample_period, MAX_RECORD_SAMPLES)))


@dataclass
class ExperimentConfig:
    trap: TrapConfig = field(default_factory=TrapConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    optics: OpticsParams = field(default_factory=OpticsParams)
    phase: PhaseParams = field(default_factory=PhaseParams)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    loop: LoopConfig = field(default_factory=LoopConfig)
    gain_mode: str = "nominal"  # 'nominal' or 'calibrated'

    def __post_init__(self):
        if self.gain_mode not in ("nominal", "calibrated"):
            raise ValueError(f"unknown gain mode {self.gain_mode!r}")
        for name in ("r_x", "x0", "z0"):
            value, default = getattr(self.phase, name), getattr(PhaseParams, name)
            if value != default:
                raise ValueError(
                    f"phase.{name} has no effect (got {value!r}, not the default "
                    f"{default!r}): the camera takes the cloud's x radius and centre from "
                    "the plant, whose width at rest is trap.w_eq0 (file key trap.w_eq0_m)")

    def gain_matrix(self):
        """The gain matrix K implied by gain_mode, from the configuration alone.

        'calibrated' solves for K against the nominal transfer matrix at its
        per-channel loop-gain targets (nominal sag coupling zeroed), as an
        experiment calibrates against the G it knows, not a run's drift;
        'nominal' uses the documented matrix verbatim.
        """
        if self.gain_mode == "nominal":
            return nominal_gain_matrix()
        g = nominal_transfer_matrix()
        l_nom = g @ nominal_gain_matrix()
        return calibrate_gains(g, l_nom[0, 0], l_nom[1, 1], l_nom[2, 2])


@dataclass
class Scenario:
    kind: str = "dipole_kick"  # dipole_kick | quadrupole_drive | quiet
    feedback: bool = True
    enable_time: float = 0.020
    kick_time: float = 0.010
    kick_dx: float = -8e-6
    kick_dz: float = -2.5e-6
    kick_domega_frac: float = 0.10   # fraction of omega_x^2
    drive_amp_frac: float = 0.05     # fraction of omega_x^2
    drive_freq: float = 0.0          # rad/s; 0 = resonant at omega_q
    drive_periods: int = 4
    duration: float = 0.200
    hold: float = 0.0
    hold_random: tuple = None        # (lo, hi) seconds, drawn per run, added to hold
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("dipole_kick", "quadrupole_drive", "quiet"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not (0 < self.duration < math.inf and 0 <= self.kick_time < math.inf
                and 0 <= self.hold < math.inf and self.enable_time >= 0):
            raise ValueError("scenario times must be non-negative, duration positive, and all "
                             "but enable_time finite (an infinite one never engages feedback)")
        lo, hi = self.hold_random or (0.0, 0.0)  # None: no random hold
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"hold_random needs 0 <= lo <= hi < inf, got {self.hold_random!r}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not self.drive_periods >= 1:
            raise ValueError(f"drive_periods must be >= 1, got {self.drive_periods!r}")
        for name in ("kick_dx", "kick_dz", "kick_domega_frac", "drive_amp_frac", "drive_freq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.drive_freq >= 0:
            raise ValueError(f"drive_freq must be >= 0 (0 is resonant), got {self.drive_freq!r}")


RECORD_COLUMNS = (
    "t x vx z vz w vw trap_x trap_z domega_x_sq w_eq "
    "x_hat z_hat w_hat x_raw z_raw w_raw wz_raw "
    "v_x v_z v_64 v_90 degenerate"
).split()


@dataclass
class RunRecord:
    """Per-sample time series plus the scenario/config provenance."""

    data: dict                 # column name -> ndarray, uniform tau spacing
    scenario: Scenario
    config_hash: str

    def __len__(self):
        return len(self.data["t"])

    def column(self, name):
        return self.data[name]

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write(f"# beccool-run config_hash={self.config_hash} seed={self.scenario.seed} "
                    f"scenario={self.scenario.kind} feedback={int(self.scenario.feedback)}\n")
            f.write(",".join(RECORD_COLUMNS) + "\n")
            np.savetxt(f, np.column_stack([self.data[c] for c in RECORD_COLUMNS]),
                       fmt="%.10e", delimiter=",")

    @classmethod
    def from_csv(cls, path):
        """The record ``to_csv`` wrote to ``path``; a malformed file raises ValueError.

        Of the scenario, only kind, feedback and seed come from the header;
        its other fields keep their defaults.
        """
        with open(path) as f:
            tags = dict(tok.split("=", 1) for tok in f.readline().split() if "=" in tok)
            names = f.readline().strip().split(",")
            lines = [line for line in f if line.strip()]
        missing = {"config_hash", "seed", "scenario", "feedback"} - tags.keys()
        if missing:
            raise ValueError(f"run header lacks {', '.join(sorted(missing))}")
        if names != RECORD_COLUMNS:
            raise ValueError("run columns differ from RECORD_COLUMNS: missing "
                             f"{[c for c in RECORD_COLUMNS if c not in names]}, "
                             f"unexpected {[c for c in names if c not in RECORD_COLUMNS]}")
        rows = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, 0))
        if rows.shape[1:] != (len(names),):
            raise ValueError(f"run record has no data rows of {len(names)} values")
        return cls(data=dict(zip(names, rows.T)), config_hash=tags["config_hash"],
                   scenario=Scenario(kind=tags["scenario"], feedback=tags["feedback"] == "1",
                                     seed=int(tags["seed"])))


def config_hash(config, scenario=None):
    """Stable hash of the full configuration (and optionally the scenario)."""
    text = json.dumps(_flatten(config, scenario), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SeedStreams = namedtuple("SeedStreams", "shot hold process drift spare offline")


def seed_streams(seed):
    """Run ``seed``'s Generators: SeedSequence(seed)'s children in field order.
    Nothing draws ``spare`` yet, so a new stream there moves no output."""
    return SeedStreams(*map(np.random.default_rng, np.random.SeedSequence(seed).spawn(6)))


def run_experiment(scenario, config=None, collect_frames=None):
    """One deterministic closed-loop run.

    Per sample: synthesize the camera frame from the plant state, add shot
    noise, run the in-situ pipeline, low-pass filter its x and w moments (a
    degenerate frame updates neither filter), apply the control law (when
    enabled), queue the command in the delay line, and advance the plant one
    sample with the command due: the one from sample i acts from sample i +
    ``config.loop.delay_samples`` (i+1 at the default 960 us, i at zero delay).
    A scenario that could run past MAX_RECORD_SAMPLES raises ValueError
    before anything is built.
    """
    config = config or ExperimentConfig()
    trap = config.trap
    tau = config.loop.sample_period
    longest = scenario.duration + scenario.hold + (scenario.hold_random or (0, 0))[1]
    if not longest / tau <= MAX_RECORD_SAMPLES:
        raise ValueError(
            f"a record of {longest:g} s at {tau:g} s per sample exceeds {MAX_RECORD_SAMPLES} "
            "samples: shorten scenario.duration_s, scenario.hold_s or scenario.hold_random_s, "
            "or lengthen loop.sample_period_s")
    rng = seed_streams(scenario.seed)

    # the run's drifted G acts in the plant only; K never sees it
    g = perturb_transfer_matrix(nominal_transfer_matrix(), rng.drift,
                                config.noise.g_drift_scale)
    controller = DerivativeController(config.gain_matrix(), scenario.enable_time,
                                      config.controller, tau)
    estimator = InSituEstimator(config.grid, config.estimator)
    # the feedback reads x and w low-pass filtered, z not: extra delay would
    # degrade its loop
    lp_x = LowPass(config.estimator.x_cutoff_hz, tau)
    lp_w = LowPass(config.estimator.w_cutoff_hz, tau)
    shoot, reference = _camera(config, rng.shot)
    delay = DelayLine(config.loop.delay_samples)

    state = equilibrium_state(trap)
    if scenario.kind == "quadrupole_drive":
        amp = scenario.drive_amp_frac * trap.omega_x**2
        freq = scenario.drive_freq or trap.omega_q
        state = quadrupole_drive(state, amp, freq, scenario.drive_periods, trap, dt=tau)

    hold = scenario.hold
    if scenario.hold_random is not None:
        lo, hi = scenario.hold_random
        hold += rng.hold.uniform(lo, hi)
    n_samples = int(round((scenario.duration + hold) / tau))
    kick_sample = int(round(scenario.kick_time / tau))

    rows = np.empty((n_samples, len(RECORD_COLUMNS)))
    for i in range(n_samples):
        t = i * tau
        try:
            if scenario.kind == "dipole_kick" and i == kick_sample:
                state = dipole_kick(state, (scenario.kick_dx, scenario.kick_dz,
                                            scenario.kick_domega_frac * trap.omega_x**2))

            frame = shoot(state)
            if collect_frames is not None:
                collect_frames(i, frame)

            m = estimator.process(frame, reference, t)
            if not m.degenerate:  # a held frame repeats the last filtered values
                x_hat, w_hat = lp_x.update(m.x), lp_w.update(m.w_x)

            u = (controller.step(config.loop.meas_sign * np.array([x_hat, m.z, w_hat]), t)
                 if scenario.feedback else np.zeros(4))
            delay.push(u)
            held = delay.pop_due()

            s_total = state.trap + g @ held  # (dx_trap, dz_trap, domega_x_sq)
            rows[i] = (t, state.x, state.vx, state.z, state.vz, state.w, state.vw,
                       *s_total, width_equilibrium(trap, s_total[2]),
                       x_hat, m.z, w_hat, m.x, m.z, m.w_x, m.w_z,
                       *u, m.degenerate)

            state = step(state, s_total, tau, trap)
            if config.noise.process_velocity_std:
                dv = config.noise.process_velocity_std * rng.process.standard_normal(3)
                state = replace(state, vx=state.vx + dv[0], vz=state.vz + dv[1],
                                vw=state.vw + dv[2])
        except ValueError as exc:
            raise RuntimeError(f"sample {i} (t={t * 1e3:.1f} ms) failed: {exc}")

    return RunRecord(data=dict(zip(RECORD_COLUMNS, rows.T)), scenario=scenario,
                     config_hash=config_hash(config, scenario))


def _camera(config, rng):
    """(shoot, reference): shoot(state) is the camera frame of the plant's cloud.

    The cloud is ``config.phase`` with the plant state's width and centre.  It
    renders with ``config.loop.render_model``, applies the reference frame's
    fringes and, unless the photon budget is 0, adds shot noise drawn from
    ``rng``.
    """
    renderer = FrameRenderer(config.grid, config.optics)
    render = renderer.render if config.loop.render_model == "linear" \
        else renderer.render_fresnel
    reference = make_reference(
        config.grid, DEFAULT_FRINGES if config.noise.reference_fringes else ())
    photons = config.noise.photons_per_pixel

    def shoot(state):
        frame = render(replace(config.phase, r_x=state.w, x0=state.x, z0=state.z))
        frame.data *= reference.data
        if photons:
            frame = add_shot_noise(frame, photons, rng)
        return frame

    return shoot, reference


def summarize_run(record, config=None):
    """Phonon accounting for one run: measured and bias-corrected occupancies.

    n_meas is computed from the true trajectory plus independent white
    position noise at the configured offline-analysis level, then corrected
    back with the same sigma, mirroring the two-stage (in-situ vs offline)
    measurement chain.
    """
    config = config or ExperimentConfig()
    trap = config.trap
    tau = config.loop.sample_period
    sig = config.noise.offline_sigma
    rng = seed_streams(record.scenario.seed).offline
    out = {"seed": record.scenario.seed, "feedback": record.scenario.feedback}
    for mode, omega, r_col, trap_col in (
        ("x", trap.omega_x, "x", "trap_x"),
        ("z", trap.omega_z, "z", "trap_z"),
        ("w", trap.omega_q, "w", None),
    ):
        r = record.column(r_col).copy()
        if sig:
            r += sig * rng.standard_normal(r.size)
        n_meas = analysis.phonon_occupancy(
            r, omega, tau, r_trap=record.column(trap_col) if trap_col else None)
        out[f"n_{mode}_meas"] = n_meas
        out[f"n_{mode}_true"] = float(
            analysis.bias_correct(n_meas, sig, omega, tau, analysis.a_ho(omega)))
    return out


def monte_carlo(scenario, config=None, n_runs=ENSEMBLE_RUNS, base_seed=0, parallel=False,
                keep_records=False):
    """Seeded ensemble of independent runs plus the aggregate summary.

    Run i draws its stream from SeedSequence((base_seed, i)), so results are
    independent of execution order.  ``parallel`` runs the seeds on a pool of
    ``spawn`` processes, one per core, and gives the same results as serial.
    """
    if not n_runs >= 1:
        raise ValueError("need n_runs >= 1")
    if not base_seed >= 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed!r}")
    config = config or ExperimentConfig()
    seeds = [int(np.random.SeedSequence((base_seed, i)).generate_state(1)[0])
             for i in range(n_runs)]

    run = partial(_ensemble_run, scenario, config)
    if parallel:
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        workers = min(os.cpu_count() or 1, n_runs)
        spawn = multiprocessing.get_context("spawn")  # fastest here; on every platform
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            results = list(pool.map(run, seeds, chunksize=-(-n_runs // workers)))
    else:
        results = list(map(run, seeds))

    summaries = [s for _, s, e in results if e is None]
    failures = [(i, e) for i, (_, s, e) in enumerate(results) if e is not None]
    if not summaries:
        raise RuntimeError(f"all {n_runs} runs failed; first: {failures[0][1]}")
    summary = {
        "n_runs": n_runs,
        "n_failed": len(failures),
        "failed_runs": [i for i, _ in failures],
        "base_seed": base_seed,
        "config_hash": config_hash(config, scenario),
        "feedback": scenario.feedback,
        "stats": phonon_stats(summaries),
    }
    records = [r for r, _, e in results if e is None] if keep_records else None
    return records, summaries, summary


def phonon_stats(summaries):
    """ensemble_stats of every n_* phonon number across per-run summaries."""
    return analysis.ensemble_stats(
        {key: [s[key] for s in summaries] for key in summaries[0] if key.startswith("n_")})


def _ensemble_run(scenario, config, seed):
    """(record, summary, None) of one ensemble run, or (None, None, error).

    ``run_experiment`` is looked up in this module at call time, so a caller
    that swaps ``harness.run_experiment`` sees every serial run.
    """
    try:
        record = run_experiment(replace(scenario, seed=seed), config)
    except RuntimeError as exc:
        return None, None, str(exc)
    try:
        return record, summarize_run(record, config), None
    except ValueError as exc:  # record shorter than the accounting window
        return None, None, str(exc)


def write_summary_json(summary, path):
    with open(path, "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def write_summary_csv(summaries, path):
    """One row per ``summarize_run`` result, its keys in order as the header."""
    keys = list(summaries[0])
    with open(path, "w") as f:
        f.write(",".join(keys) + "\n")
        for s in summaries:
            f.write(",".join(f"{s[k]:.10e}" if isinstance(s[k], float) else str(int(s[k]))
                             for k in keys) + "\n")


def measure_pipeline_noise(config=None, n_frames=NOISE_PROBE_FRAMES, seed=0):
    """Std of the raw in-situ estimates over a quiet, feedback-off run.

    The run has ``n_frames`` samples at ``seed`` with process noise off, so
    the cloud stays at rest and these are exactly the frames that
    ``run_experiment`` images for that scenario; a photon budget of 0 gives
    zero noise.  Used to calibrate the photon budget against a target
    measurement noise.  It takes 2 frames up to MAX_RECORD_SAMPLES.
    """
    if not 2 <= n_frames <= MAX_RECORD_SAMPLES:  # before n_frames * tau, which can overflow
        raise ValueError(f"pipeline noise needs at least 2 frames and at most {MAX_RECORD_SAMPLES}"
                         ", the record cap on scenario.duration_s + scenario.hold_s at "
                         "loop.sample_period_s")
    config = config or ExperimentConfig()
    config = replace(config, noise=replace(config.noise, process_velocity_std=0.0))
    record = run_experiment(Scenario(kind="quiet", feedback=False, seed=seed,
                                     duration=n_frames * config.loop.sample_period), config)
    xs, zs, ws = (record.column(c) for c in ("x_raw", "z_raw", "w_raw"))
    return {
        "sigma_x": float(np.std(xs)), "sigma_z": float(np.std(zs)),
        "sigma_w": float(np.std(ws)),
        "mean_w": float(np.mean(ws)),
        "photons_per_pixel": config.noise.photons_per_pixel,
    }


def dump_frames_writer(out_dir):
    """collect_frames callback writing every 10th frame in the ASCII format;
    ``out_dir`` is made at the first write."""
    import os

    def cb(i, frame):
        if i % 10 == 0:
            os.makedirs(out_dir, exist_ok=True)
            write_ascii_grid(frame, os.path.join(out_dir, f"frame_{i:05d}.txt"))

    return cb


# ---------------------------------------------------------------------------
# flat key=value config files


# the two file encodings that are not the field's own type
_Codec = namedtuple("_Codec", "encode decode")
_BOOL = _Codec(int, lambda text: bool(int(text)))


def _decode_range(text):
    if not text:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


_RANGE = _Codec(lambda v: f"{v[0]!r}:{v[1]!r}" if v else "", _decode_range)

# flat key -> (section, field[, codec]); section "" is the ExperimentConfig
# itself and "scenario" the Scenario.  Values are stored in SI verbatim so a
# file round-trips exactly; defaults come only from the dataclasses.
_KEYS = {
    "trap.f_x_hz": ("trap", "f_x"),
    "trap.f_y_hz": ("trap", "f_y"),
    "trap.f_z_hz": ("trap", "f_z"),
    "trap.w_eq0_m": ("trap", "w_eq0"),
    "trap.width_damping_hz": ("trap", "width_damping"),
    "optics.nx": ("grid", "nx"),
    "optics.nz": ("grid", "nz"),
    "optics.pitch_m": ("grid", "pitch"),
    "optics.xi_m": ("optics", "xi"),
    "optics.eta_m": ("optics", "eta"),
    "optics.wavelength_m": ("optics", "wavelength"),
    "optics.phi0": ("phase", "phi0"),
    "optics.r_x_m": ("phase", "r_x"),
    "optics.r_z_m": ("phase", "r_z"),
    "optics.render_model": ("loop", "render_model"),
    "noise.photons_per_pixel": ("noise", "photons_per_pixel"),
    "noise.offline_sigma_m": ("noise", "offline_sigma"),
    "noise.reference_fringes": ("noise", "reference_fringes", _BOOL),
    "noise.process_velocity_std": ("noise", "process_velocity_std"),
    "noise.g_drift_scale": ("noise", "g_drift_scale"),
    "gains.mode": ("", "gain_mode"),
    "gains.output_cutoff_hz": ("controller", "output_cutoff_hz"),
    "gains.saturation_volts": ("controller", "saturation"),
    "gains.clamp_before_filter": ("controller", "clamp_before_filter", _BOOL),
    "estimator.region_halfwidth_px": ("estimator", "region_halfwidth_px"),
    "estimator.background_margin_frac": ("estimator", "background_margin_frac"),
    "estimator.x_cutoff_hz": ("estimator", "x_cutoff_hz"),
    "estimator.w_cutoff_hz": ("estimator", "w_cutoff_hz"),
    "estimator.degenerate_mass_fraction": ("estimator", "degenerate_mass_fraction"),
    "loop.sample_period_s": ("loop", "sample_period"),
    "loop.delay_s": ("loop", "delay"),
    "loop.meas_sign": ("loop", "meas_sign"),
    "scenario.kind": ("scenario", "kind"),
    "scenario.feedback": ("scenario", "feedback", _BOOL),
    "scenario.enable_time_s": ("scenario", "enable_time"),
    "scenario.kick_time_s": ("scenario", "kick_time"),
    "scenario.kick_dx_m": ("scenario", "kick_dx"),
    "scenario.kick_dz_m": ("scenario", "kick_dz"),
    "scenario.kick_domega_frac": ("scenario", "kick_domega_frac"),
    "scenario.drive_amp_frac": ("scenario", "drive_amp_frac"),
    "scenario.drive_freq_rad_s": ("scenario", "drive_freq"),
    "scenario.drive_periods": ("scenario", "drive_periods"),
    "scenario.duration_s": ("scenario", "duration"),
    "scenario.hold_s": ("scenario", "hold"),
    "scenario.hold_random_s": ("scenario", "hold_random", _RANGE),
    "scenario.seed": ("scenario", "seed"),
}


def _section(config, scenario, section):
    if section == "scenario":
        return scenario
    return getattr(config, section) if section else config


def _flatten(config, scenario=None):
    flat = {}
    for key, (section, name, *codec) in _KEYS.items():
        obj = _section(config, scenario, section)
        if obj is not None:
            value = getattr(obj, name)
            flat[key] = codec[0].encode(value) if codec else value
    return flat


def save_config(path, config, scenario=None):
    flat = _flatten(config, scenario)
    with open(path, "w") as f:
        f.write("# beccool experiment configuration (flat key = value)\n")
        for key in sorted(flat):
            f.write(f"{key} = {flat[key]}\n")


def load_config(path):
    """Parse a flat config file; returns (ExperimentConfig, Scenario or None)."""
    flat = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            flat[key] = val
    return config_from_flat(flat)


def config_from_flat(flat):
    """(ExperimentConfig, Scenario or None) from flat key -> text values.

    Absent keys keep the dataclass defaults; a Scenario is built only when
    some scenario.* key is present.  Unknown keys, and NaN or infinite
    numbers, are rejected.  Keys apply one at a time, so a value that does
    not parse, or that its dataclass rejects, raises a ValueError naming its
    key (every dataclass rule checks a single value).
    """
    unknown = sorted(set(flat) - _KEYS.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    config, scenario = ExperimentConfig(), None
    for key, text in flat.items():
        section, name, *codec = _KEYS[key]
        obj = _section(config, scenario or Scenario(), section)
        try:
            if codec:
                value = codec[0].decode(text)
            else:
                value = next(f.type for f in fields(obj) if f.name == name)(text)
            if any(isinstance(v, float) and not math.isfinite(v) for v in np.ravel(value)):
                raise ValueError(f"must be a finite number, got {text!r}")
            obj = replace(obj, **{name: value})
            if section == "scenario":
                scenario = obj
            else:
                config = replace(config, **{section: obj}) if section else obj
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    return config, scenario
