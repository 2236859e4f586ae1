"""Outside-in tracing of dirgaf's layers for the benchmark's traced child runs.

``Tracer.install`` replaces public functions and methods of the dirgaf modules
with wrappers that record ``perf_counter`` spans and counters.  Nothing under
``src/`` changes: a function is replaced in its defining module and in every
dirgaf module that imported it by name (``stats_harness`` and ``cli`` bind
``locate_zeros``, ``real_zeros`` and ``replicate_map`` that way).

Spans nest per thread (``sample_path`` > ``locate_zeros``/``real_zeros`` >
``winding`` > ``eval``) and carry the replicate id of the coefficient stream
the thread last touched.  A span's self time is its duration minus the part
covered by nested spans of other layers; spans of the same layer (a winding
count inside ``locate_zeros``) stay inside their parent's self time.
Counters and span totals are updated under a lock, so worker threads of
``replicate_map`` can share one tracer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class _Frame:
    __slots__ = ("id", "name", "layer", "rep", "t0", "nested")

    def __init__(self, span_id, name, rep, t0):
        self.id = span_id
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.rep = rep
        self.t0 = t0
        self.nested = 0.0


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self.totals: dict[str, float] = defaultdict(float)
        self.rep_s: list[float] = []
        self.spans: list[tuple] = []  # (id, parent id, name, replicate id, thread, t0, t1)

    # -- spans and counters -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_replicate(self, replicate_id: int) -> None:
        self._local.rep = replicate_id

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.totals[name] += amount

    def begin(self, name: str) -> _Frame:
        frame = _Frame(next(self._ids), name, getattr(self._local, "rep", None), perf_counter())
        self._stack().append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        t1 = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = t1 - frame.t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.nested += duration if parent.layer != frame.layer else frame.nested
        record = (frame.id, parent.id if parent else None, frame.name, frame.rep,
                  threading.get_ident(), frame.t0, t1)
        with self._lock:
            self.spans.append(record)
            self.totals[frame.name + ".calls"] += 1
            self.totals[frame.name + ".busy_s"] += duration
            self.totals[frame.name + ".self_s"] += duration - frame.nested

    def traced(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` may rewrite the arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        with self._lock:
            return {"totals": dict(self.totals), "rep_s": list(self.rep_s), "spans": list(self.spans)}

    # -- installation -------------------------------------------------------

    def _counted(self, prefix: str, f):
        """Wrap the analytic function handed to the zero finder, counting calls and points."""

        def counted(xs):
            self.count(prefix + ".fcalls")
            self.count(prefix + ".points", np.size(xs))
            return f(xs)

        return counted

    def install(self) -> None:
        """Replace the traced dirgaf functions in every module that binds them."""
        from dirgaf import coeff_models, limit_gaf, series_eval, stats_harness, zero_finder
        from scipy import stats

        def stream_method(name):
            def before(args, kwargs):
                self.set_replicate(args[0].replicate_id)
                return args, kwargs

            def after(args, kwargs, result):
                self.count("coeff_models.draws", len(result))

            return lambda fn: self.traced(name, fn, before, after)

        def bulk_generator(fn):
            @functools.wraps(fn)
            def wrapper(stream, *args, **kwargs):
                self.set_replicate(stream.replicate_id)
                return fn(stream, *args, **kwargs)

            return wrapper

        _patch(coeff_models.CoefficientStream, "pairs", stream_method("coeff_models.pairs"))
        _patch(coeff_models.CoefficientStream, "tail_normals", stream_method("coeff_models.tail_normals"))
        _patch(coeff_models.CoefficientStream, "bulk_generator", bulk_generator)
        _patch(coeff_models, "draw_pairs_bulk", lambda fn: self.traced(
            "coeff_models.draw_pairs_bulk", fn,
            after=lambda a, k, result: self.count("coeff_models.draws", len(result))))

        def sample_path_before(args, kwargs):
            self.set_replicate(args[1].replicate_id)
            return args, kwargs

        _patch(series_eval.ScaledSeriesSampler, "sample_path", lambda fn: self.traced(
            "series_eval.sample_path", fn, sample_path_before,
            lambda a, k, path: self.count("series_eval.atoms", len(path.freqs))))

        def eval_after(args, kwargs, result):
            points = np.size(result)
            self.count("series_eval.eval.points", points)
            self.count("series_eval.eval.point_atoms", points * len(args[0].freqs))

        _patch(series_eval.ExpSumPath, "eval", lambda fn: self.traced("series_eval.eval", fn, after=eval_after))

        def counting_f(prefix):
            def before(args, kwargs):
                return (self._counted(prefix, args[0]),) + args[1:], kwargs

            return lambda fn: self.traced(prefix, fn, before)

        _patch(zero_finder, "locate_zeros", counting_f("zero_finder.locate_zeros"))
        _patch(zero_finder, "real_zeros", counting_f("zero_finder.real_zeros"))

        def winding(fn):
            traced = self.traced("zero_finder.winding", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    result = traced(*args, **kwargs)
                except (zero_finder.BoundaryZeroError, zero_finder.NonConvergenceError):
                    self.count("zero_finder.winding.raised")
                    raise
                self.count("zero_finder.winding.ok")
                return result

            return wrapper

        _patch(zero_finder, "winding_count", winding)

        def integral(fn):
            signature = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count("limit_gaf.integral.normals", bound.arguments["n_draws"] * bound.arguments["cells"] * 2)

            return self.traced("limit_gaf.integral", fn, after=after)

        _patch(limit_gaf, "sample_gaf_integral", integral)
        _patch(limit_gaf, "sample_gaf_cholesky", lambda fn: self.traced("limit_gaf.cholesky", fn))
        _patch(limit_gaf, "sample_power_series_gaf", lambda fn: self.traced("limit_gaf.power_series", fn))

        def replicate_map(fn):
            signature = inspect.signature(fn)
            traced = self.traced("stats_harness.replicate_map", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                task = bound.arguments["fn"]

                def timed_task(rep):
                    t0 = perf_counter()
                    out = task(rep)
                    elapsed = perf_counter() - t0
                    with self._lock:
                        self.rep_s.append(elapsed)
                    return out

                bound.arguments["fn"] = timed_task
                t0 = perf_counter()
                result = traced(*bound.args, **bound.kwargs)
                self.count("stats_harness.replicate_map.thread_s",
                           max(1, bound.arguments["threads"]) * (perf_counter() - t0))
                return result

            return wrapper

        _patch(stats_harness, "replicate_map", replicate_map)
        for name in ("chi_square_vs_pmf", "two_sample_counts_chi2", "tv_distance"):
            _patch(stats_harness, name, lambda fn: self.traced("stats_harness.gof", fn))
        _patch(stats, "kstest", lambda fn: self.traced("stats_harness.gof", fn))


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` and every dirgaf module-level binding of the same object."""
    original = getattr(owner, attr)
    replacement = make(original)
    setattr(owner, attr, replacement)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "dirgaf" or mod_name.startswith("dirgaf."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
