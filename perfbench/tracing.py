"""Out-of-band span tracing for the benchmark.

Spans are recorded by swapping the public functions and methods the beccool
loop calls for thin timing wrappers, for the duration of a ``with`` block only.
Each span is ``[name, start, end, parent]``, where ``parent`` indexes the span
that was open when this one started (-1 at the top).  Nothing under ``src/`` is
edited: every wrapper is installed on the name the *caller* looks up (for
example ``harness.step`` rather than ``plant.step``, since the loop calls the
name it imported into ``harness``).
"""

import contextlib
import functools
import time

from beccool import analysis, controller, estimator, harness, optics, plant

# (owner, attribute, span name).  Two attributes may share one span name when
# they are the same layer reached through two callers' namespaces.
PATCHES = (
    (optics.FrameRenderer, "render", "optics.render"),
    (optics.FrameRenderer, "render_fresnel", "optics.render_fresnel"),
    (optics, "fresnel_image", "optics.fresnel_image"),
    (analysis, "fresnel_image", "optics.fresnel_image"),
    (optics, "tf_phase", "optics.tf_phase"),
    (analysis, "tf_phase", "optics.tf_phase"),
    (harness, "add_shot_noise", "optics.shot_noise"),
    (estimator.InSituEstimator, "process", "estimator.process"),
    (estimator, "density_estimate", "estimator.density"),
    (estimator, "nonlinear_filter", "estimator.filter"),
    (estimator, "extract_moments", "estimator.moments"),
    (controller.DerivativeController, "step", "controller.step"),
    (harness, "step", "plant.step"),
    (plant.DelayLine, "push", "plant.delay"),
    (plant.DelayLine, "pop_due", "plant.delay"),
    (harness, "run_experiment", "harness.run"),
    (harness, "summarize_run", "analysis.summarize"),
    (analysis, "fit_shadowgraph", "analysis.fit"),
    (harness.RunRecord, "to_csv", "harness.persist"),
    (harness, "write_summary_json", "harness.persist"),
)


@contextlib.contextmanager
def patched(owner, attr, replacement):
    """Set ``owner.attr`` to ``replacement`` inside the block, then restore it."""
    original = _lookup(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; spans are written out once, after the run."""

    def __init__(self):
        self.spans = []
        self.degenerate_frames = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of PATCHES for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name in PATCHES:
                wrapper = self.wrap(name, _lookup(owner, attr))
                if name == "estimator.process":
                    wrapper = self._count_degenerate(wrapper)
                stack.enter_context(patched(owner, attr, wrapper))
            yield self

    def _count_degenerate(self, process):
        @functools.wraps(process)
        def counted(*args, **kwargs):
            m = process(*args, **kwargs)
            self.degenerate_frames += bool(m.degenerate)
            return m

        return counted

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - inner))
        return out

    def dump(self):
        """Spans as a compact JSON-able dict, times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                      for n, a, b, p in self.spans],
        }


def span_cost(repeats=20000):
    """Seconds one wrapper adds to a call, measured on a function that does nothing."""
    wrapped = Tracer().wrap("probe", _noop)
    times = []
    for fn in (_noop, wrapped):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        times.append(time.perf_counter() - start)
    return max(times[1] - times[0], 0.0) / repeats


def _noop():
    pass


def _lookup(owner, attr):
    # a class's own __dict__ entry is the plain function, not a bound method
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
