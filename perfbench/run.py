"""beccool benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload ensemble_cool --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the program is imported
from the checkout's ``src/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with no
wrapper installed; with ``--trace 1`` they are the per-layer metrics from a
separate traced run, whose spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  The line before it
holds the provenance and the sha256 of the first item's outputs, which is the
same on every run with the same seed.

Exit status: 0 when every output check passed, 1 when one failed (the result
line is still printed), 2 when the program cannot be found or set up (no
result line).  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Every workload is one single-threaded process.  BLAS thread pools are pinned
# to one thread before numpy loads (the set-up probes inherit this): on a small
# shared machine a second BLAS thread made the least-squares fits slower and
# far noisier, not faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ensemble_cool", "fresnel_drive", "offline_fit")
SETUP_REPEATS = 7

# Runs in a fresh interpreter per repeat: import, config and one warm-up sample.
_SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.warm_up(sys.argv[3])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class SetupError(Exception):
    """The program under test is missing or cannot be set up."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "beccool", "__init__.py")):
        raise SetupError(f"no beccool package under {SRC}")
    sys.path.insert(0, SRC)
    import beccool

    if os.path.dirname(os.path.dirname(os.path.abspath(beccool.__file__))) != SRC:
        raise SetupError(f"imported beccool from {beccool.__file__}, not from {SRC}")


def measure_setup(name, repeats):
    """Median set-up time over ``repeats`` fresh interpreters."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, SRC, BENCH_DIR, name],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def measure(workload, seconds):
    """Run items 0, 1, ... until ``seconds`` have passed; at least item 0."""
    items = []
    deadline = time.perf_counter() + seconds
    while not items or time.perf_counter() < deadline:
        items.append(workload.item(len(items)))
    return items


def measure_pairs(workload, tracer, seconds):
    """Run each item untraced and traced, alternating which goes first.

    Both twins of a pair see the same machine state, so the difference of
    their wall times is the tracing overhead and not drift of the machine.
    Returns both lists and the items whose twins wrote different bytes.
    """
    untraced, traced, differ = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        k = len(traced)
        digests = []
        for with_trace in (k % 2 == 0, k % 2 == 1):
            if with_trace:
                with tracer.installed():
                    traced.append(workload.item(k))
                digests.append(digest(traced[-1].files))
            else:
                untraced.append(workload.item(k))
                digests.append(digest(untraced[-1].files))
        if digests[0] != digests[1]:
            differ.append(k)
    return untraced, traced, differ


def digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    """Commit of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "config_hash": workload.config_hash(),
    }


def _pct(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0]) if values else 0.0


def end_to_end_metrics(items, setup_s):
    busy = sum(it.seconds for it in items)
    op_seconds = [t for it in items for t in it.op_seconds]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(it.ops for it in items) / busy, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_seconds), "ms"),
        "op_ms_p90": (1e3 * _pct(op_seconds, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, items, op, overhead_s, untraced_s, span_cost_s):
    """Per-layer figures from the spans of a traced run.

    ``*_us``/``*_ms`` are per call; ``*.share`` is the layer's total time over
    the traced wall time.  Layers that did not run report 0.
    """
    totals = tracer.totals()
    wall = sum(it.seconds for it in items)
    ops = sum(it.ops for it in items)
    frames = ops if op == "frame" else 0
    fits = ops if op == "fit" else 0
    out = {}

    def timed(metric, span, unit, own=False, per=None):
        calls, total, own_total = totals.get(span, (0, 0.0, 0.0))
        t = own_total if own else total
        per = calls if per is None else per
        scale = 1e6 if unit == "us" else 1e3
        out[f"{metric}_{unit}"] = (t / per * scale if per else 0.0, unit)
        out[f"{metric}.share"] = (t / wall, "fraction")

    for layer in ("render", "render_fresnel", "fresnel_image", "tf_phase", "shot_noise"):
        timed(f"optics.{layer}", f"optics.{layer}", "us")
    calls = totals.get("optics.fresnel_image", (0,))[0]
    out["optics.fresnel_image_calls"] = (calls / ops if ops else 0.0, "count")
    for layer in ("process", "density", "filter", "moments"):
        timed(f"estimator.{layer}", f"estimator.{layer}", "us")
    timed("estimator.self", "estimator.process", "us", own=True)
    out["estimator.degenerate_frames"] = (tracer.degenerate_frames, "count")
    timed("controller.step", "controller.step", "us")
    timed("plant.step", "plant.step", "us")
    timed("plant.delay", "plant.delay", "us")
    out["analysis.fit_nfev"] = (sum(it.nfev for it in items) / fits if fits else 0.0, "count")
    timed("analysis.fit_self", "analysis.fit", "ms", own=True)
    timed("analysis.summarize", "analysis.summarize", "ms")
    timed("harness.loop_self", "harness.run", "us", own=True, per=frames)
    timed("harness.persist", "harness.persist", "ms", per=len(items))
    out["harness.frames"] = (frames, "count")
    out["harness.failed_runs"] = (sum(it.failed for it in items), "count")
    periods = [t for it in items for t in it.op_seconds] if op == "frame" else []
    out["harness.frame_ms_p50"] = (1e3 * _pct(periods, 50), "ms")
    out["harness.frame_ms_p99"] = (1e3 * _pct(periods, 99), "ms")
    runs = [end - start for name, start, end, _ in tracer.spans if name == "harness.run"]
    out["harness.run_ms_p50"] = (1e3 * _pct(runs, 50), "ms")
    out["trace.overhead_ms"] = (1e3 * overhead_s, "ms")
    out["trace.overhead.share"] = (overhead_s / untraced_s, "fraction")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.span_cost_us"] = (1e6 * span_cost_s, "us")
    return out


def run_benchmark(name, seed, seconds, trace, sizes=None, setup_repeats=SETUP_REPEATS):
    """Measure one workload; returns (info, result) as printed by main()."""
    import_program()
    setup_s = None if trace else measure_setup(name, setup_repeats)
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, **(sizes or {}))
        workload.warm_up()
        info = {"workload": name, "seed": seed, "trace": int(trace),
                "provenance": provenance(workload)}
        problems = []
        if trace:
            tracer = tracing.Tracer()
            untraced, items, differ = measure_pairs(workload, tracer, seconds)
            if differ:
                problems.append(f"traced outputs differ from untraced outputs of items {differ}")
            untraced_s = sum(it.seconds for it in untraced)
            overhead = sum(it.seconds for it in items) - untraced_s
            metrics = layer_metrics(tracer, items, workload.op, overhead, untraced_s,
                                    tracing.span_cost())
            trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
            with open(trace_path, "w") as f:
                json.dump({**info, **tracer.dump()}, f)
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            items = measure(workload, seconds)
            metrics = end_to_end_metrics(items, setup_s)
        info["outputs_sha256"] = digest(items[0].files)
        info["items"] = len(items)
        info["ops"] = sum(it.ops for it in items)
        problems += [p for it in items for p in it.problems]
        info["problems"] = problems[:20]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(it.failed for it in items)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(it.attempted for it in items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        info, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
