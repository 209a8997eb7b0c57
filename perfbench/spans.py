"""Span tracer that wraps wrightlens's public functions from outside.

``install`` replaces each public function of the layer modules (and
``cli.main``) with a wrapper, in every wrightlens namespace that holds it,
so names one module imported from another (``membership.phi_values``) are
covered too.  While ``active`` is set, each wrapped call records a span:
name, start, end, parent span and job id.  Spans stay in memory until
``save``.  A span's self time is its duration minus its direct children's;
calls nest strictly in one thread, so that is exactly the part its child
spans do not cover.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("special", "laurent", "bounds", "membership", "radii", "cli")

# Scalar helpers called once per coefficient: wrapping them would cost more
# than the work they do.  Their time stays in the caller's self time.
UNWRAPPED = {"special.phi", "special.gamma", "special.signed_lgamma"}


def _count_phi(tracer, args):
    params, n_max = args[0], args[1]
    tracer.counts["special.phi_values.coeffs"] += n_max
    tracer.phi_keys.add((params.alpha, params.beta, n_max))


def _count_points(tracer, args):
    tracer.counts["laurent.evaluate.points"] += int(np.size(args[1]))


def _count_solves(tracer, args):
    # A query with a weight model is bisected twice (n_max and 2 n_max) and
    # only the second solve is returned.
    tracer.counts["radii.solves_run"] += 1 if args[0].weight_model is None else 2


HOOKS = {
    "special.phi_values": _count_phi,
    "laurent.evaluate": _count_points,
    "radii.solve_radius": _count_solves,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.job_ids = array("i")
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception class) -> count
        self.phi_keys: set = set()
        self._last_exc = None
        self._patched: list = []

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.ends)
            tracer.name_ids.append(name_id)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.job_ids.append(tracer.job)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            if hook is not None:
                hook(tracer, args)
            tracer.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # The innermost span an exception leaves is where it arose.
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.stack.pop()

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("wrightlens")
        modules = {layer: importlib.import_module(f"wrightlens.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            names = list(getattr(module, "__all__", ())) + (["main"] if layer == "cli" else [])
            for attr in names:
                fn = getattr(module, attr)
                full = f"{layer}.{attr}"
                if (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
                        and full not in UNWRAPPED):
                    wrappers[id(fn)] = (fn, self._wrap(fn, full, layer))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.int32),
                np.frombuffer(self.starts, dtype=float),
                np.frombuffer(self.ends, dtype=float),
                np.frombuffer(self.parents, dtype=np.int32))

    def summary(self) -> dict:
        """{span name: (calls, self seconds)} over all recorded spans."""
        name_ids, starts, ends, parents = self._arrays()
        duration = ends - starts
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=len(duration))
        self_time = np.bincount(name_ids, weights=duration - children,
                                minlength=len(self.names))
        calls = np.bincount(name_ids, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_time[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        name_ids, starts, ends, parents = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_ids, start=starts, end=ends,
            parent=parents, job=np.frombuffer(self.job_ids, dtype=np.int32),
        )
