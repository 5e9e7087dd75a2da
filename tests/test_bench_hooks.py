"""Guards for the hooks the benchmark in perfbench/ relies on.

The benchmark times the loop by swapping the names the callers look up
(``perfbench/tracing.PATCHES``) and by passing ``collect_frames`` through
``harness.run_experiment``.  A loop change that drops or bypasses one of those
names leaves the benchmark without figures, so these tests fail first.
"""

import importlib.util
import os

from beccool import FrameRenderer, estimator, harness, make_reference
from beccool.harness import Scenario


def _load_tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_patches_resolve():
    tracing = _load_tracing()
    missing = []
    for owner, attr, name in tracing.PATCHES:
        try:
            target = tracing._lookup(owner, attr)  # a class's own __dict__
        except (KeyError, AttributeError):
            target = None
        if not callable(target):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert not missing


def test_monte_carlo_calls_run_experiment_per_run(monkeypatch):
    original = harness.run_experiment
    runs = []

    def spy(scenario, config=None, collect_frames=None):
        samples = []
        record = original(scenario, config, collect_frames=lambda i, frame: samples.append(i))
        runs.append((len(record), samples))
        return record

    monkeypatch.setattr(harness, "run_experiment", spy)
    sc = Scenario(kind="quiet", feedback=False, duration=0.06)
    harness.monte_carlo(sc, n_runs=2, base_seed=5)
    assert len(runs) == 2
    for n_samples, samples in runs:
        assert samples == list(range(n_samples))


def test_process_reaches_stages_through_module_names(monkeypatch):
    calls = []
    for name in ("density_estimate", "nonlinear_filter", "extract_moments"):
        original = getattr(estimator, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(estimator, name, counted)
    cfg = harness.ExperimentConfig()
    renderer = FrameRenderer(cfg.grid, cfg.optics)
    reference = make_reference(cfg.grid)
    frame = renderer.render(cfg.phase)
    frame.data *= reference.data
    est = estimator.InSituEstimator(cfg.grid)
    for i in range(3):
        est.process(frame, reference, i * 1e-3)
    assert calls == ["density_estimate", "nonlinear_filter", "extract_moments"] * 3
