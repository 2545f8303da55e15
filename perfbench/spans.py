"""Span tracer that instruments the package from outside.

``Tracer.install`` replaces every public function of the layer modules, and
the public methods of their public classes, with a wrapper that records a
span (name, start, end, parent) and, for the point evaluators, the number of
points evaluated.  A function imported by name into another module (for
example ``semilinear.energy_functional``) is replaced in every namespace
that holds it, so calls through any route are seen.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

Spans are kept in flat in-memory arrays while the benchmark runs and are
aggregated and written out at the end.  A span's self time is
its duration minus the durations of its direct children; the program runs
on one thread, so children never overlap.
"""

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "linear", "extension", "semilinear", "bifurcation", "diagnostics", "cli")

# methods whose first argument after ``self`` is an array of points: their
# point count feeds the *_points metrics
POINT_ARG_METHODS = {
    "PeriodicFunction.__call__",
    "BesselProfile.value",
    "BesselProfile.deriv",
    "BesselProfile.weighted_deriv",
}


class Tracer:
    def __init__(self):
        self.names = []          # span name table; index is the name id
        self.layer_of = []       # layer of each name id
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.points = array("l")
        self.failed = array("b")
        self._stack = []
        self._patched = []       # (owner, attribute, original) for uninstall
        self.active = False

    # -- span recording -----------------------------------------------------

    def _id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def open(self, name, layer, points=0):
        """Start a span; returns its index for ``close``."""
        idx = len(self.start)
        self.name_id.append(self._id(name, layer))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.points.append(points)
        self.failed.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()   # last, so the bookkeeping is not in the span
        return idx

    def close(self, idx, failed=False):
        self.end[idx] = perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def _wrap(self, fn, name, layer):
        count_points = name in POINT_ARG_METHODS
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pts = int(np.size(args[1])) if count_points and len(args) > 1 else 0
            idx = tracer.open(name, layer, pts)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer.close(idx, failed=not ok)

        return functools.wraps(fn)(traced)

    # -- instrumentation ----------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"fracperiodic.{layer}") for layer in LAYERS]
        namespaces = [importlib.import_module("fracperiodic")] + modules
        replacement = {}   # id(original function) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    self._patch_class(obj, layer)
                elif inspect.isfunction(obj):
                    replacement[id(obj)] = self._wrap(obj, f"{layer}.{public}", layer)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                wrapper = replacement.get(id(val))
                if wrapper is not None:
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, wrapper)

    def _patch_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__call__", "__post_init__"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue  # properties, dataclass fields, constants
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def arrays(self):
        """Span table as numpy arrays: name id, parent, start, end, points, failed."""
        return (
            np.frombuffer(self.name_id, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
            np.frombuffer(self.points, dtype=np.int64),
            np.frombuffer(self.failed, dtype=np.int8),
        )

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        _, parent, start, end, _, _ = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def save(self, path):
        name_id, parent, start, end, points, failed = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name_id=name_id, parent=parent, start=start, end=end,
            points=points, failed=failed,
        )
