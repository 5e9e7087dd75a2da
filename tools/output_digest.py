"""One sha256 over the outputs of a fixed matrix of 48 runs.

The matrix is linear/Fresnel camera x nominal/calibrated gains x the three
scenario kinds x feedback on/off x seeds 3 and 1234567, each at its default
settings.  Each run adds its CSV record's bytes and its sorted
``summarize_run`` JSON to the digest, so two trees that print the same
digest give byte-identical outputs on all 48 runs.

Usage, from the repository root: ``PYTHONPATH=src python tools/output_digest.py``

With numpy 2.4.6 and Python 3.11.7 it prints
``2aaf3f4e529036075074be26f6cbab0f95fe9dcdc3abb8edfdffea15ac6943de``.  CI
prints the digest without comparing it: a numpy build with other SIMD paths
may round differently and print another.
"""

import hashlib
import itertools
import json
import os
import tempfile

from beccool.harness import ExperimentConfig, LoopConfig, Scenario, run_experiment, summarize_run


def main():
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        for camera, gains, kind, feedback, seed in itertools.product(
                ("linear", "fresnel"), ("nominal", "calibrated"),
                ("dipole_kick", "quadrupole_drive", "quiet"), (True, False), (3, 1234567)):
            config = ExperimentConfig(gain_mode=gains, loop=LoopConfig(render_model=camera))
            record = run_experiment(Scenario(kind=kind, feedback=feedback, seed=seed), config)
            record.to_csv(path)
            with open(path, "rb") as f:
                digest.update(f.read())
            digest.update(json.dumps(summarize_run(record, config), sort_keys=True).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
