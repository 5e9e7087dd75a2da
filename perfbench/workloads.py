"""The benchmark's three workloads, their inputs and their output checks.

Every input is drawn from the workload seed: item ``k`` of a run uses the
stream ``SeedSequence((seed, k))``, so the same seed always gives the same
items, and item 0 (the one whose outputs are hashed) is always run.  All
three workloads are closed-loop and single-process: the next item starts only
when the previous one has finished.

- ``ensemble_cool``: one item is ``monte_carlo`` with feedback on and then off
  (criterion 10 and demo 07 traffic, random holds so run lengths differ).
  An operation is one loop sample.
- ``fresnel_drive``: one item is a CLI-equivalent ``beccool run`` of a
  quadrupole drive on the Fresnel renderer, with its CSV and JSON written.
  An operation is one loop sample.
- ``offline_fit``: one item is one shadowgraph fit of a 4-frame-averaged
  noisy Fresnel frame (criterion 9 traffic).  An operation is one fit.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from beccool import analysis, harness, optics
from beccool.harness import ExperimentConfig, LoopConfig, Scenario

import tracing

# Input synthesis is not part of the measured program path: keep the original
# functions, which tracing replaces, so fit inputs are made outside any wrapper.
_fresnel_image = optics.fresnel_image
_tf_phase = optics.tf_phase


def item_seed(seed, k):
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


@dataclass
class Item:
    """What one unit of work did, and what its outputs look like."""

    ops: int                # operations completed (loop samples or fits)
    seconds: float          # wall time of the program calls, input synthesis excluded
    attempted: int          # runs or fits attempted
    failed: int             # runs or fits that raised, failed or did not converge
    op_seconds: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # failed output checks
    files: list = field(default_factory=list)      # written outputs
    nfev: int = 0


class FrameClock:
    """``collect_frames`` hook: the interval between successive loop samples."""

    def __init__(self):
        self.periods = []
        self.frames = 0
        self._last = 0.0

    def __call__(self, i, frame):
        now = time.perf_counter()
        if i:
            self.periods.append(now - self._last)
        self._last = now
        self.frames += 1


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is good


def check_ensemble(summary_on, summary_off, energy_on, energy_off):
    """Criterion-10 checks on one on/off ensemble pair.

    ``energy_*`` map 'x'/'z' to the mean phonon number of the true
    trajectories (no measurement noise), as criterion 10 computes it.
    """
    problems = []
    for label, s in (("on", summary_on), ("off", summary_off)):
        if s["n_failed"]:
            problems.append(f"feedback-{label} ensemble has {s['n_failed']} failed runs")
    for mode in "xz":
        mean = summary_on["stats"][f"n_{mode}_true"]["mean"]
        if not mean < 1.0:
            problems.append(f"feedback-on mean n_{mode}_true = {mean:.4g}, want < 1")
        ratio = energy_off[mode] / energy_on[mode] if energy_on[mode] > 0 else math.inf
        if not 5.0 < ratio < math.inf:
            problems.append(f"off/on energy ratio {mode} = {ratio:.4g}, want > 5")
    return problems


def check_run(summary, paths):
    """A CLI-equivalent run: finite phonon numbers and non-empty output files."""
    problems = [f"{key} = {val!r} is not finite" for key, val in sorted(summary.items())
                if key.startswith("n_") and not math.isfinite(val)]
    problems += [f"missing or empty output {os.path.basename(p)}" for p in paths
                 if not (os.path.isfile(p) and os.path.getsize(p) > 0)]
    return problems


def check_fit(result, xi_true):
    """Criterion-9 checks on a noisy fit: converged, defocus within 5%."""
    problems = []
    if not result.converged:
        problems.append("fit did not converge")
    xi_err = abs(result.xi / xi_true - 1.0)
    if not xi_err <= 0.05:
        problems.append(f"fitted xi off by {100 * xi_err:.2f}%, want <= 5%")
    return problems


def true_energy(records, trap, tau):
    """Mean phonon number of the noiseless x and z trajectories (criterion 10)."""
    return {
        mode: float(np.mean([analysis.phonon_occupancy(
            r.column(mode), omega, tau, r_trap=r.column(f"trap_{mode}")) for r in records]))
        for mode, omega in (("x", trap.omega_x), ("z", trap.omega_z))
    }


# ---------------------------------------------------------------------------
# workloads


class EnsembleCool:
    op = "frame"

    def __init__(self, seed, workdir, runs=3):
        self.seed, self.workdir, self.runs = seed, workdir, runs
        self.config = ExperimentConfig()
        self.scenario = Scenario(kind="dipole_kick", duration=0.18, hold_random=(0.0, 0.05))

    def config_hash(self):
        return harness.config_hash(self.config, self.scenario)

    def warm_up(self):
        harness.run_experiment(replace(self.scenario, duration=self.config.loop.sample_period,
                                       hold_random=None), self.config)

    def item(self, k):
        clock = FrameClock()
        run_experiment = harness.run_experiment

        def run_clocked(scenario, config=None):
            return run_experiment(scenario, config, collect_frames=clock)

        base_seed = item_seed(self.seed, k)
        out = {}
        start = time.perf_counter()
        # monte_carlo looks run_experiment up in harness, so the clock goes there
        with tracing.patched(harness, "run_experiment", run_clocked):
            for feedback in (True, False):
                try:
                    records, _, summary = harness.monte_carlo(
                        replace(self.scenario, feedback=feedback), self.config,
                        n_runs=self.runs, base_seed=base_seed, keep_records=True)
                except RuntimeError as exc:  # every run of the ensemble failed
                    out[feedback] = exc
                    continue
                path = os.path.join(self.workdir,
                                    f"ensemble_{k}_{'on' if feedback else 'off'}.json")
                harness.write_summary_json(summary, path)
                out[feedback] = (records, summary, path)
        seconds = time.perf_counter() - start

        item = Item(ops=clock.frames, seconds=seconds, attempted=2 * self.runs, failed=0,
                    op_seconds=clock.periods)
        for feedback, res in out.items():
            if isinstance(res, Exception):
                item.failed += self.runs
                item.problems.append(f"ensemble feedback={feedback} failed: {res}")
            else:
                item.failed += res[1]["n_failed"]
                item.files.append(res[2])
        if not item.problems:
            tau = self.config.loop.sample_period
            (rec_on, sum_on, _), (rec_off, sum_off, _) = out[True], out[False]
            item.problems = check_ensemble(
                sum_on, sum_off, true_energy(rec_on, self.config.trap, tau),
                true_energy(rec_off, self.config.trap, tau))
        return item


class FresnelDrive:
    op = "frame"

    def __init__(self, seed, workdir, duration=0.2):
        self.seed, self.workdir = seed, workdir
        self.config = ExperimentConfig(loop=LoopConfig(render_model="fresnel"))
        self.scenario = Scenario(kind="quadrupole_drive", duration=duration)

    def config_hash(self):
        return harness.config_hash(self.config, self.scenario)

    def warm_up(self):
        harness.run_experiment(replace(self.scenario, duration=self.config.loop.sample_period),
                               self.config)

    def item(self, k):
        """The ``beccool run`` path: run, CSV, phonon accounting, summary JSON."""
        clock = FrameClock()
        scenario = replace(self.scenario, seed=item_seed(self.seed, k))
        csv_path = os.path.join(self.workdir, f"run_{scenario.seed}.csv")
        json_path = os.path.join(self.workdir, f"run_{scenario.seed}.json")
        start = time.perf_counter()
        try:
            record = harness.run_experiment(scenario, self.config, collect_frames=clock)
            record.to_csv(csv_path)
            summary = harness.summarize_run(record, self.config)
            harness.write_summary_json({"config_hash": record.config_hash, "phonons": summary},
                                       json_path)
        except (RuntimeError, ValueError) as exc:
            return Item(ops=clock.frames, seconds=time.perf_counter() - start, attempted=1,
                        failed=1, op_seconds=clock.periods, problems=[f"run failed: {exc}"])
        seconds = time.perf_counter() - start
        problems = check_run(summary, [csv_path, json_path])
        return Item(ops=clock.frames, seconds=seconds, attempted=1, failed=int(bool(problems)),
                    op_seconds=clock.periods, problems=problems, files=[csv_path, json_path])


class OfflineFit:
    op = "fit"

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.config = ExperimentConfig()
        self.grid, self.opt = self.config.grid, self.config.optics

    def config_hash(self):
        return harness.config_hash(self.config)

    def warm_up(self):
        # one solver step: a model frame plus its finite-difference Jacobian
        frame = _fresnel_image(_tf_phase(self.config.phase, self.grid), self.opt)
        analysis.fit_shadowgraph(frame, self.config.phase, self.opt, fit_xi=True, max_nfev=1)

    def problem(self, k):
        """Noisy frame and start guess for item k, as in criterion 9.

        The true cloud is the default Thomas-Fermi profile at a random centre
        within +-3 um; the start guess is criterion 9's (phi0 -0.095, radii
        -10%/+10%, centre off by (+1.5, -1) um) with each entry jittered by
        up to 3%.  Four shot-noise frames at 1e6 photons/pixel are averaged.
        """
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, k)))
        x0, z0 = rng.uniform(-3e-6, 3e-6, 2)
        true = replace(self.config.phase, x0=x0, z0=z0)
        jit = rng.uniform(0.97, 1.03, 5)
        start = replace(true, phi0=-0.095 * jit[0], r_x=0.9 * true.r_x * jit[1],
                        r_z=1.1 * true.r_z * jit[2], x0=x0 + 1.5e-6 * jit[3],
                        z0=z0 - 1.0e-6 * jit[4])
        clean = _fresnel_image(_tf_phase(true, self.grid), self.opt)
        frames = [optics.add_shot_noise(clean, 1e6, rng).data for _ in range(4)]
        return optics.ImageGrid(self.grid, np.mean(frames, axis=0)), start

    def item(self, k):
        image, start_guess = self.problem(k)
        start = time.perf_counter()
        result = analysis.fit_shadowgraph(image, start_guess, self.opt, fit_xi=True)
        seconds = time.perf_counter() - start
        path = os.path.join(self.workdir, f"fit_{k}.json")
        p = result.params
        with open(path, "w") as f:
            json.dump({"phi0": p.phi0, "r_x": p.r_x, "r_z": p.r_z, "x0": p.x0, "z0": p.z0,
                       "xi": result.xi, "residual_norm": result.residual_norm,
                       "converged": result.converged, "n_eval": result.n_eval}, f)
        problems = check_fit(result, self.opt.xi)
        return Item(ops=1, seconds=seconds, attempted=1, failed=int(bool(problems)),
                    op_seconds=[seconds], problems=problems, files=[path],
                    nfev=result.n_eval)


WORKLOADS = {
    "ensemble_cool": EnsembleCool,
    "fresnel_drive": FresnelDrive,
    "offline_fit": OfflineFit,
}


def warm_up(name):
    """Configuration plus one warm-up sample; what the set-up probe times."""
    WORKLOADS[name](0, None).warm_up()
