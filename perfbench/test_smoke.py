"""Tiny-size smoke test of the benchmark: every metric named in BENCHMARK.json
is emitted, the output hash repeats, the tracing wrappers come off again, and
every output check can fail.

    python3 -m pytest perfbench/test_smoke.py -q      # ~15 s
"""

import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from beccool import analysis, harness, optics, plant  # noqa: E402
from beccool.analysis import FitResult  # noqa: E402

TINY = {"ensemble_cool": {"runs": 1}, "fresnel_drive": {"duration": 0.06}, "offline_fit": {}}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny_run(name, trace, seed=3):
    return run.run_benchmark(name, seed, 0, trace, sizes=TINY[name], setup_repeats=1)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted(name, trace):
    info, result = tiny_run(name, trace)
    assert result["correct"], info["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    assert len(info["outputs_sha256"]) == 64
    assert set(info["provenance"]) == {"python", "numpy", "scipy", "nproc", "git_commit",
                                       "config_hash"}


def test_output_hash_repeats_and_wrappers_come_off():
    untraced, _ = tiny_run("fresnel_drive", 0)
    traced, _ = tiny_run("fresnel_drive", 1)
    assert untraced["outputs_sha256"] == traced["outputs_sha256"]
    assert harness.step is plant.step
    assert analysis.fresnel_image is optics.fresnel_image
    for owner, attr, _ in tracing.PATCHES:
        assert not hasattr(tracing._lookup(owner, attr), "__wrapped__"), attr


def test_a_failed_check_marks_the_result_incorrect(monkeypatch):
    monkeypatch.setattr(workloads, "check_fit", lambda result, xi: ["forced failure"])
    info, result = tiny_run("offline_fit", 0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert info["problems"] == ["forced failure"]


def test_missing_program_is_a_setup_error(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    with pytest.raises(run.SetupError):
        run.import_program()


def _summary(n_failed=0, n_x=0.02, n_z=0.01):
    stats = {"n_x_true": {"mean": n_x}, "n_z_true": {"mean": n_z}}
    return {"n_failed": n_failed, "stats": stats}


def test_ensemble_checks_can_fail():
    good_on, good_off = {"x": 0.01, "z": 0.01}, {"x": 10.0, "z": 10.0}
    assert workloads.check_ensemble(_summary(), _summary(), good_on, good_off) == []
    assert workloads.check_ensemble(_summary(n_failed=1), _summary(), good_on, good_off)
    assert workloads.check_ensemble(_summary(), _summary(n_failed=2), good_on, good_off)
    assert workloads.check_ensemble(_summary(n_x=1.5), _summary(), good_on, good_off)
    assert workloads.check_ensemble(_summary(n_z=math.nan), _summary(), good_on, good_off)
    assert workloads.check_ensemble(_summary(), _summary(), good_on, {"x": 10.0, "z": 0.04})
    assert workloads.check_ensemble(_summary(), _summary(), {"x": 0.0, "z": 0.01}, good_off)


def test_run_checks_can_fail(tmp_path):
    path = tmp_path / "run_1.csv"
    path.write_text("t\n0\n")
    good = {"seed": 1, "n_w_true": 0.5, "n_x_meas": 0.1}
    assert workloads.check_run(good, [str(path)]) == []
    assert workloads.check_run({**good, "n_w_true": math.inf}, [str(path)])
    assert workloads.check_run(good, [str(tmp_path / "missing.json")])
    (tmp_path / "empty.json").write_text("")
    assert workloads.check_run(good, [str(tmp_path / "empty.json")])


def test_fit_checks_can_fail():
    params = optics.PhaseParams()
    good = FitResult(params=params, xi=800e-6 * 1.01, residual_norm=1.0, converged=True,
                     n_eval=20)
    assert workloads.check_fit(good, 800e-6) == []
    assert workloads.check_fit(FitResult(params, 800e-6, 1.0, False, 400), 800e-6)
    assert workloads.check_fit(FitResult(params, 800e-6 * 1.06, 1.0, True, 20), 800e-6)


def test_traced_outputs_must_match_untraced(monkeypatch):
    fake_digests = iter(range(100))
    monkeypatch.setattr(run, "digest", lambda paths: str(next(fake_digests)))
    info, result = tiny_run("offline_fit", 1)
    assert not result["correct"]
    assert info["problems"] == ["traced outputs differ from untraced outputs of items [0]"]
