"""In-process span tracer for the traced benchmark run.

The tracer replaces lmcanal functions with wrappers from outside the
program: the defining module's attribute and every other name binding that
refers to the same function object (``from .curves import derive_frame`` in
``canal`` and ``scene``, the re-exports in ``lmcanal/__init__``, ...), so no
caller bypasses a span.  Methods are replaced on their class.

Each call records one span (name, parent span, start, end) in flat arrays.
``flush`` turns the spans collected so far into per-name totals and clears
them; a span's self time is its duration minus the time covered by its
child spans.  Calls are single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: (span name, module, attribute path) of every wrapped function.
#: minkowski.inner is deliberately absent: it runs tens of thousands of
#: times per scene at well under a microsecond each, so a wrapper would
#: cost more than it measures.
TARGETS = (
    ("expr.parse", "expr", "parse"),
    ("expr.eval_value", "expr", "eval_value"),
    ("expr.eval_s", "expr", "eval_s"),
    ("curves.derive_frame", "curves", "derive_frame"),
    ("curves.CurveSpec.point", "curves", "CurveSpec.point"),
    ("canal.evaluate_point", "canal", "evaluate_point"),
    ("canal.curvature_closed", "canal", "curvature_closed"),
    ("canal.weingarten_residuals", "canal", "weingarten_residuals"),
    ("oracle.numeric_jet", "oracle", "numeric_jet"),
    ("oracle.fundamental_forms", "oracle", "fundamental_forms"),
    ("oracle.curvatures_numeric", "oracle", "curvatures_numeric"),
    ("minkowski.triple_cross", "minkowski", "triple_cross"),
    ("scene.parse_scene", "scene", "parse_scene"),
    ("scene.closed_pair", "scene", "SceneSpec.closed_pair"),
    ("verify.check_envelope", "verify", "check_envelope"),
    ("verify.check_curvatures", "verify", "check_curvatures"),
    ("verify.check_epsilon_only", "verify", "check_epsilon_only"),
    ("verify.check_weingarten", "verify", "check_weingarten"),
    ("verify.verify_scene", "verify", "verify_scene"),
    ("mesh.sweep", "mesh", "sweep"),
    ("mesh.export_obj", "mesh", "export_obj"),
    ("mesh.export_field", "mesh", "export_field"),
    ("cli.main", "cli", "main"),
)


def self_times(names, parents, starts, ends, n_names: int):
    """Per-name (calls, inclusive seconds, self seconds) of a span list.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    names = np.asarray(names, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    own = dur - covered
    return (np.bincount(names, minlength=n_names),
            np.bincount(names, weights=dur, minlength=n_names),
            np.bincount(names, weights=own, minlength=n_names))


class Tracer:
    """Spans and per-name totals for the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: (span name, exception class name) -> count of raised exceptions
        self.raised: dict = {}
        #: observations made by hooks after a span closes
        self.observed: dict = {}
        self.calls = self.inclusive = self.own = None
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        ix = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end = (self._name_ix, self._parent,
                                       self._start, self._end)
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                end[sid] = clock()
                stack.pop()
                key = (name, type(e).__name__)
                raised[key] = raised.get(key, 0) + 1
                raise
            end[sid] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "lmcanal", hooks=None) -> None:
        """Wrap every target and rebind every reference to it inside the
        package's modules and classes."""
        hooks = hooks or {}
        modules = self._modules(package)
        for name, mod_name, attr_path in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            *cls_path, attr = attr_path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, hooks.get(name))
            bound = 0
            for namespace in self._namespaces(modules):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._originals.append((namespace, key, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {name} found")
        self.check_no_stale_bindings(package)

    @staticmethod
    def _modules(package):
        return [m for n, m in sorted(sys.modules.items())
                if (n == package or n.startswith(package + "."))
                and m is not None]

    @staticmethod
    def _namespaces(modules):
        for mod in modules:
            yield mod
            for value in list(vars(mod).values()):
                if (isinstance(value, type)
                        and value.__module__ == mod.__name__):
                    yield value

    def check_no_stale_bindings(self, package: str = "lmcanal") -> None:
        """Raise if any module or class of the package still refers to an
        unwrapped target, i.e. some caller would bypass its span."""
        originals = {id(orig) for _, _, orig in self._originals}
        for namespace in self._namespaces(self._modules(package)):
            for key, value in vars(namespace).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"{namespace.__name__}.{key} still unwrapped")

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._originals):
            setattr(namespace, key, original)
        self._originals.clear()

    # -- aggregation -------------------------------------------------------

    def flush(self, path: str | None = None) -> None:
        """Fold the closed spans into per-name totals and clear them,
        writing them first to ``path`` (an .npz file) when given.  Call
        only with no span open."""
        if len(self._stack) != 1:
            raise RuntimeError("flush with an open span")
        if path is not None:
            np.savez(path, names=np.array(self.names),
                     name=np.frombuffer(self._name_ix, dtype=np.uint16),
                     parent=np.frombuffer(self._parent, dtype=np.int32),
                     start=np.frombuffer(self._start, dtype=float),
                     end=np.frombuffer(self._end, dtype=float))
        n = len(self.names)
        calls, inclusive, own = self_times(self._name_ix, self._parent,
                                           self._start, self._end, n)
        if self.calls is None:
            self.calls, self.inclusive, self.own = calls, inclusive, own
        else:
            self.calls = self.calls + calls
            self.inclusive = self.inclusive + inclusive
            self.own = self.own + own
        for buf in (self._name_ix, self._parent, self._start, self._end):
            del buf[:]

    def totals(self) -> dict:
        """name -> {"calls", "inclusive_s", "self_s"} over all spans."""
        self.flush()
        return {name: {"calls": int(self.calls[i]),
                       "inclusive_s": float(self.inclusive[i]),
                       "self_s": float(self.own[i])}
                for i, name in enumerate(self.names)}
