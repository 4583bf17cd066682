"""Per-layer spans recorded from outside the package.

A Tracer replaces the listed public functions of ldsmix, at every module-level
binding that refers to them, with wrappers that time each call. Layers are
named by module so the names survive renames of the functions behind them;
a listed function that does not exist is reported as a missing span instead of
raising, so one benchmark can trace commits with different APIs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time


def _first_arg(bound):
    return next(iter(bound.arguments.values()))


def _file_bytes(bound, result):
    return {"bytes": os.path.getsize(_first_arg(bound))}


def _generated(bound, result):
    return {"trajectories": result.inputs.shape[0]}


def _one_trajectory(bound, result):
    return {"trajectories": 1}


def _stacked(bound, result):
    # computed from array shapes, not measured
    data = getattr(result, "data", result)
    return {"samples": data.X.shape[0], "bytes": data.X.nbytes + data.y.nbytes}


def _m3_samples(bound, result):
    return {"samples": len(_first_arg(bound).idx_m3)}


def _power_steps(bound, result):
    # computed: K rounds of (restarts + 1) power iterations of n_iters steps each
    args = bound.arguments
    K = args["K"]
    restarts = args["n_restarts"] if args["n_restarts"] is not None else 20 * K
    return {"power_steps": K * (restarts + 1) * args["n_iters"]}


# layer -> [(module, public function, work counter or None)]
LAYERS = {
    "lds.save": [("ldsmix.lds", "save_dataset", _file_bytes),
                 ("ldsmix.lds", "save_mixture", _file_bytes)],
    "lds.load": [("ldsmix.lds", "load_dataset", _file_bytes),
                 ("ldsmix.lds", "load_mixture", _file_bytes)],
    "lds.generate": [("ldsmix.lds", "generate_dataset", _generated)],
    "lds.rollout": [("ldsmix.lds", "rollout", _one_trajectory)],
    "pipeline.stack": [("ldsmix.pipeline", "build_stacked", _stacked)],
    "mlr.m2": [("ldsmix.mlr", "estimate_m2", None)],
    "mlr.whiten": [("ldsmix.mlr", "whitening_from_m2", None)],
    "mlr.m3": [("ldsmix.mlr", "estimate_whitened_m3", _m3_samples)],
    "mlr.fit": [("ldsmix.mlr", "mlr_fit", None)],
    "mlr.refine": [("ldsmix.mlr", "refine_first_moment", None)],
    "tensor3.tpm": [("ldsmix.tensor3", "robust_tpm", _power_steps)],
    "pipeline.fit": [("ldsmix.pipeline", "mlds_fit", None),
                     ("ldsmix.pipeline", "mlds_fit_refined", None)],
    "pipeline.ols": [("ldsmix.pipeline", "ols_markov", None)],
    "evaluate.baseline": [("ldsmix.evaluate", "baseline_error", None)],
    "pipeline.ho_kalman": [("ldsmix.pipeline", "ho_kalman", None)],
    "pipeline.estimate_io": [("ldsmix.pipeline", "estimate_text", None),
                             ("ldsmix.pipeline", "load_estimate", None)],
    "evaluate.match": [("ldsmix.evaluate", "match_components", None)],
    "evaluate.sweep": [("ldsmix.evaluate", "run_sweep", None)],
}

# The work counts each layer reports besides .s, .self_s and .calls.
EXTRA_COUNTS = {
    "lds.save": ("bytes",),
    "lds.load": ("bytes",),
    "lds.generate": ("trajectories",),
    "lds.rollout": ("trajectories",),
    "pipeline.stack": ("samples", "bytes"),
    "mlr.m3": ("samples",),
    "tensor3.tpm": ("power_steps",),
}


def empty_stats():
    """Zeroed statistics for every layer, extra counts included."""
    stats = {}
    for layer in LAYERS:
        stats[layer] = {"s": 0.0, "self_s": 0.0, "calls": 0}
        stats[layer].update({name: 0 for name in EXTRA_COUNTS.get(layer, ())})
    return stats


class Tracer:
    """Spans around the calls into each layer, kept in memory.

    A layer's .s sums its outermost spans only (a layer nested in itself is
    not counted twice); .self_s sums the time of each of its spans not covered
    by child spans. top_s is the time covered by spans opened with no span
    open, so the .self_s of all layers add up to top_s.
    """

    def __init__(self):
        self.stats = empty_stats()
        self.missing = []
        self.top_s = 0.0
        self._stack = []     # [start, seconds covered by child spans]
        self._depth = {layer: 0 for layer in LAYERS}
        self._patched = []   # (module, attribute, original)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ldsmix" or name.startswith("ldsmix."))]
        for layer, targets in LAYERS.items():
            for mod_name, fn_name, counter in targets:
                try:
                    fn = getattr(importlib.import_module(mod_name), fn_name)
                except (ImportError, AttributeError):
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(layer, fn, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        return self

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth[layer] += 1
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                self._depth[layer] -= 1
                st = self.stats[layer]
                st["calls"] += 1
                st["self_s"] += dur - frame[1]
                if self._depth[layer] == 0:
                    st["s"] += dur
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_s += dur
            if counter is not None:
                self._count(st, counter, sig, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _count(st, counter, sig, args, kwargs, result):
        # a signature or result shape this counter does not know leaves the count alone
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = counter(bound, result)
        except (AttributeError, KeyError, TypeError, ValueError, OSError, StopIteration):
            return
        for name, value in counts.items():
            st[name] += int(value)
