"""Guards for the hooks the benchmark in perfbench/ relies on.

The benchmark times the loop by swapping the names the callers look up
(``perfbench/tracing.PATCHES``) and by passing ``collect_frames`` through
``harness.run_experiment``.  A loop change that drops or bypasses one of those
names leaves the benchmark without figures, so these tests fail first.
"""

import importlib.util
import os
from dataclasses import replace

from beccool import (
    FrameRenderer,
    GridSpec,
    OpticsParams,
    PhaseParams,
    analysis,
    estimator,
    harness,
    make_reference,
)
from beccool.harness import LoopConfig, Scenario


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


def _traced_calls(tracer):
    """Span name -> calls, and (child, parent) span-name pairs."""
    names = [span[0] for span in tracer.spans]
    nesting = {(name, names[parent] if parent >= 0 else None)
               for name, _, _, parent in tracer.spans}
    return {name: calls for name, (calls, _, _) in tracer.totals().items()}, nesting


def test_render_fresnel_reaches_optics_names_once_per_frame():
    tracing = _load_tracing()
    cfg = harness.ExperimentConfig(loop=LoopConfig(render_model="fresnel"))
    frames = []
    with tracing.Tracer().installed() as tracer:
        harness.run_experiment(Scenario(kind="quiet", feedback=False, duration=0.006),
                               cfg, collect_frames=lambda i, frame: frames.append(i))
    calls, nesting = _traced_calls(tracer)
    assert len(frames) == 6
    for name in ("optics.render_fresnel", "optics.tf_phase", "optics.fresnel_image"):
        assert calls[name] == len(frames), name
    assert ("optics.tf_phase", "optics.render_fresnel") in nesting
    assert ("optics.fresnel_image", "optics.render_fresnel") in nesting


def test_fit_model_reaches_analysis_names_once_per_evaluation(monkeypatch):
    tracing = _load_tracing()
    evaluations = []
    solve = analysis.least_squares

    def spy(fun, x0, **kwargs):
        def counted(p):
            evaluations.append(1)
            return fun(p)
        return solve(counted, x0, **kwargs)

    monkeypatch.setattr(analysis, "least_squares", spy)
    reached = []
    for name in ("tf_phase", "fresnel_image"):
        assert (analysis, name, f"optics.{name}") in tracing.PATCHES

        def counted(*args, _name=name, _fn=getattr(analysis, name), **kwargs):
            reached.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    grid, opt = GridSpec(nx=32, nz=32), OpticsParams()
    truth = PhaseParams(phi0=-0.5, r_x=30e-6, r_z=20e-6, x0=2e-6, z0=-1e-6)
    image = FrameRenderer(grid, opt).render_fresnel(truth)
    with tracing.Tracer().installed() as tracer:
        analysis.fit_shadowgraph(image, replace(truth, phi0=-0.4, x0=0.0), opt, fit_xi=True,
                                 max_nfev=3)
    calls, nesting = _traced_calls(tracer)
    assert calls["analysis.fit"] == 1
    assert len(evaluations) > 3  # the Jacobian columns are evaluations too
    assert calls["optics.tf_phase"] == calls["optics.fresnel_image"] == len(evaluations)
    assert reached == ["tf_phase", "fresnel_image"] * len(evaluations)
    assert ("optics.tf_phase", "analysis.fit") in nesting
    assert ("optics.fresnel_image", "analysis.fit") in nesting
