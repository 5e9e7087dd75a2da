"""Loop processes load no scipy; the least-squares solver loads with the first fit.

Loop processes (runs, ensembles, their workers) never fit, and the loop's FFTs
are numpy's, so `import beccool` and the loop itself must leave every `scipy`
module unloaded.
"""

import os
import subprocess
import sys

import beccool
from beccool import FrameRenderer, GridSpec, OpticsParams, PhaseParams, fit_shadowgraph

_CHILD = """
import sys
import beccool
from beccool import ExperimentConfig, LoopConfig, Scenario, run_experiment
from test_import_boundary import fit_once

assert "scipy.optimize" not in sys.modules, "loaded by import beccool"
quiet = Scenario(kind="quiet", feedback=False, duration=1e-3)
for model in ("linear", "fresnel"):
    record = run_experiment(quiet, ExperimentConfig(loop=LoopConfig(render_model=model)))
    assert len(record) == 1
assert "scipy.optimize" not in sys.modules, "loaded by a loop sample"
result = fit_once()
assert "scipy.optimize" in sys.modules
print(repr(result))
"""

_LOOP_CHILD = """
import sys
import beccool
from beccool import ExperimentConfig, LoopConfig, Scenario, run_experiment

quiet = Scenario(kind="quiet", feedback=False, duration=1e-3)
for model in ("linear", "fresnel"):
    record = run_experiment(quiet, ExperimentConfig(loop=LoopConfig(render_model=model)))
    assert len(record) == 1
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def fit_once():
    """One capped fit of a small noiseless Fresnel frame."""
    grid, opt = GridSpec(nx=32, nz=32), OpticsParams()
    truth = PhaseParams(phi0=-0.5, r_x=30e-6, r_z=20e-6, x0=2e-6, z0=-1e-6)
    image = FrameRenderer(grid, opt).render_fresnel(truth)
    init = PhaseParams(phi0=-0.4, r_x=27e-6, r_z=22e-6, x0=0.0, z0=0.0)
    return fit_shadowgraph(image, init, opt, max_nfev=1)


def test_solver_loads_on_first_fit_not_on_import():
    src = os.path.dirname(os.path.dirname(os.path.abspath(beccool.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(fit_once())


def test_loop_samples_load_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(beccool.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LOOP_CHILD],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
