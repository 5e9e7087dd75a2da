"""Command-line front end: single runs, ensembles, offline analysis of saved
records, and gain/noise calibration.

Exit codes: 0 on success, 2 on bad usage or configuration, 1 on runtime
failure.  Failures print one machine-readable line: ERROR {json} on stderr.
"""

import argparse
import glob
import json
import os
import sys
from dataclasses import replace

from . import harness
from .controller import loop_gain
from .plant import nominal_transfer_matrix


def _fail(code, kind, message):
    print("ERROR " + json.dumps({"kind": kind, "message": message}), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so ``main`` reports them as one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _whole_number(least):
    """argparse type: a whole number >= ``least``."""
    def parse(text):
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"need a whole number >= {least}, got {text!r}")
        return int(text)
    return parse


def _load(args):
    """(config, scenario) from --config or the defaults, plus any overrides."""
    config, scenario = (harness.load_config(args.config) if args.config
                        else (harness.ExperimentConfig(), None))
    scenario = scenario or harness.Scenario()
    if getattr(args, "scenario", None):
        scenario = replace(scenario, kind=args.scenario)
    if getattr(args, "feedback", None):
        scenario = replace(scenario, feedback=args.feedback == "on")
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    return config, scenario


def cmd_run(args):
    config, scenario = _load(args)
    collect = harness.dump_frames_writer(os.path.join(args.out, "frames")) \
        if args.dump_frames else None
    record = harness.run_experiment(scenario, config, collect_frames=collect)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"run_{scenario.seed}.csv")
    record.to_csv(csv_path)
    try:
        summary = harness.summarize_run(record, config)
    except ValueError as exc:
        # record shorter than one oscillation period: no phonon accounting
        summary = None
        print(f"phonon accounting skipped: {exc}")
    harness.write_summary_json(
        {"config_hash": record.config_hash, "phonons": summary},
        os.path.join(args.out, f"run_{scenario.seed}.json"))
    print(f"wrote {csv_path}")
    if summary is not None:
        for mode in "xzw":
            print(f"n_{mode}: meas={summary[f'n_{mode}_meas']:.4f} "
                  f"true={summary[f'n_{mode}_true']:.4f}")
    return 0


def cmd_ensemble(args):
    config, scenario = _load(args)
    records, summaries, summary = harness.monte_carlo(
        scenario, config, n_runs=args.runs, base_seed=scenario.seed,
        parallel=args.parallel)
    os.makedirs(args.out, exist_ok=True)
    harness.write_summary_json(summary, os.path.join(args.out, "ensemble.json"))
    harness.write_summary_csv(summaries, os.path.join(args.out, "ensemble.csv"))
    st = summary["stats"]
    print(f"{args.runs} runs ({summary['n_failed']} failed), feedback="
          f"{'on' if scenario.feedback else 'off'}")
    for mode in "xzw":
        s = st[f"n_{mode}_true"]
        print(f"mean n_{mode},true = {s['mean']:.4f} +/- {s['sem']:.4f}")
    return 0


def cmd_analyze(args):
    paths = sorted(glob.glob(os.path.join(args.records, "run_*.csv")))
    if not paths:
        return _fail(2, "usage", f"no run_*.csv records under {args.records}")
    config, _ = _load(args)
    rows = []
    for p in paths:
        try:
            rows.append(harness.summarize_run(harness.RunRecord.from_csv(p), config))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    harness.write_summary_json({"n_runs": len(rows), "stats": harness.phonon_stats(rows)},
                               os.path.join(args.out, "analysis.json"))
    harness.write_summary_csv(rows, os.path.join(args.out, "analysis.csv"))
    print(f"analyzed {len(rows)} records -> {args.out}")
    return 0


def cmd_calibrate(args):
    config, _ = _load(args)
    if args.what == "gains":
        k = replace(config, gain_mode="calibrated").gain_matrix()
        l_cal = loop_gain(nominal_transfer_matrix(), k)
        print("calibrated K (V/um):")
        for row in k:
            print("  " + " ".join(f"{v * 1e-6:+9.4f}" for v in row))
        print(f"loop gains: L_xx={l_cal[0, 0]:.3f} L_zz={l_cal[1, 1]:.3f} "
              f"L_zw={l_cal[1, 2]:.3e} L_ww={l_cal[2, 2]:.4e} (rad/s)^2/m")
        return 0
    # noise: report pipeline noise at the configured photon budget
    probe = harness.measure_pipeline_noise(config, n_frames=args.frames, seed=args.seed or 0)
    print(f"photons/pixel = {probe['photons_per_pixel']:.3e}")
    for key in ("sigma_x", "sigma_z", "sigma_w"):
        print(f"{key} = {probe[key] * 1e6:.4f} um")
    print(f"mean w_hat = {probe['mean_w'] * 1e6:.4f} um")
    return 0


def build_parser():
    p = _Parser(prog="beccool", description="closed-loop feedback-cooling simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=_whole_number(0), help="override scenario seed")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--feedback", choices=["on", "off"])
        sp.add_argument("--scenario",
                        choices=["dipole_kick", "quadrupole_drive", "quiet"])

    sp = sub.add_parser("run", help="single closed-loop run")
    common(sp)
    sp.add_argument("--dump-frames", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("ensemble", help="seeded Monte-Carlo ensemble")
    common(sp)
    sp.add_argument("--runs", type=_whole_number(1), default=harness.ENSEMBLE_RUNS)
    sp.add_argument("--parallel", action="store_true")
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("analyze", help="phonon accounting over saved records")
    sp.add_argument("--records", required=True, help="directory of run_*.csv files")
    sp.add_argument("--config", help="flat config file (defaults otherwise)")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("calibrate", help="gain or noise calibration")
    sp.add_argument("--what", choices=["gains", "noise"], default="gains")
    sp.add_argument("--config")
    sp.add_argument("--frames", type=_whole_number(2), default=harness.NOISE_PROBE_FRAMES)
    sp.add_argument("--seed", type=_whole_number(0))
    sp.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        return _fail(2, "usage", str(exc))
    except SystemExit as exc:  # --help
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or made
        return _fail(2, "config", str(exc))
    except RuntimeError as exc:
        return _fail(1, "runtime", str(exc))


if __name__ == "__main__":
    sys.exit(main())
