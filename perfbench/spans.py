"""In-memory span tracer that wraps triact's public functions from outside.

Each wrapped call records a span (name, start, end, parent) in flat
arrays.  Nothing in the package changes: wrappers are installed on every
module attribute, and every value of a module-level dict, that refers to
a wrapped function.  That is needed because the package binds names with
``from .x import y``; patching the defining module alone would miss the
call sites ``triact.harness.random_mixed_hs`` or ``tensor`` and
``project_and_condition`` inside ``triact.protocols``.  ``patched()``
restores every original on exit.
"""

from __future__ import annotations

import functools
import inspect
import operator
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("states", "qcore", "criteria", "channels", "protocols", "harness")
NEAR_TIE = 1e-6


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "triact"
                                  or name.startswith("triact."))]


def call_sites():
    """Every (owner, key) -> object binding the tracer may patch.

    Owners are triact modules, their module-level dicts and the classes
    defined in the layer modules.  Used to prove that untraced passes see
    the original functions.
    """
    sites = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            sites[(mod.__name__, name)] = obj
            if isinstance(obj, dict):
                for key, val in obj.items():
                    sites[(mod.__name__, name, key)] = val
            elif (inspect.isclass(obj)
                  and obj.__module__ == mod.__name__):
                for key, val in vars(obj).items():
                    sites[(mod.__name__, name, "." + key)] = val
    return sites


def _hook_density_matrix(tr, args, kwargs, result, dur):
    dim = args[0].matrix.shape[0]
    if dim > tr.counts["qcore.largest_matrix_dim"]:
        tr.counts["qcore.largest_matrix_dim"] = dim


def _hook_classify_batch(tr, args, kwargs, result, dur):
    m = result["m_value"]
    margin = np.maximum(result["s_a"], result["s_b"]) - result["s_ab"]
    ties = (np.abs(m - 1) < NEAR_TIE) | (np.abs(margin) < NEAR_TIE)
    tr.counts["criteria.matrices_classified"] += int(m.shape[0])
    tr.counts["criteria.nlr_flags"] += int(np.sum(result["nonlocal_resource"]))
    tr.counts["criteria.near_tie_count"] += int(np.sum(ties))


def _hook_double_teleport(tr, args, kwargs, result, dur):
    d = args[2] if len(args) > 2 else kwargs["d"]
    tr.samples[f"protocols.double_teleport_d{d}"].append(dur)


def _hook_run_experiment(tr, args, kwargs, result, dur):
    if "records" in result:
        tr.counts["harness.records"] += len(result["records"])
    else:
        tr.counts["harness.records"] += int(result.get("n_states", 0))


HOOKS = {
    "qcore.DensityMatrix": _hook_density_matrix,
    "criteria.classify_batch": _hook_classify_batch,
    "protocols.double_teleport": _hook_double_teleport,
}


class Tracer:
    """Spans of one traced pass, kept in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples = defaultdict(list)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        hook = HOOKS.get(name)
        if hook is None and name.startswith("harness.run_"):
            hook = _hook_run_experiment

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            return result
        return wrapper

    def _count_chunks(self, gen_fn):
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for chunk in gen_fn(*args, **kwargs):
                self.counts["harness.chunks"] += 1
                yield chunk
        return wrapper

    @contextmanager
    def patched(self):
        """Install span wrappers on every call site; restore on exit."""
        import triact.harness
        wrappers = {}   # original function -> wrapper
        undo = []       # (setter, owner, key, original)
        try:
            for layer in LAYERS:
                mod = sys.modules[f"triact.{layer}"]
                for name, obj in vars(mod).items():
                    if name.startswith("_") or getattr(
                            obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                    elif inspect.isclass(obj):
                        self._patch_class(obj, f"{layer}.{name}", undo)
            wrappers[triact.harness._chunks] = self._count_chunks(
                triact.harness._chunks)
            for mod in _package_modules():
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        undo.append((setattr, mod, name, obj))
                        setattr(mod, name, wrappers[obj])
                    elif isinstance(obj, dict):
                        for key, val in list(obj.items()):
                            if inspect.isfunction(val) and val in wrappers:
                                undo.append((operator.setitem, obj, key, val))
                                obj[key] = wrappers[val]
            yield self
        finally:
            for setter, owner, key, val in reversed(undo):
                setter(owner, key, val)

    def _patch_class(self, cls, prefix: str, undo: list):
        for key, obj in list(vars(cls).items()):
            if key == "__post_init__":
                name = prefix
            elif key.startswith("_"):
                continue
            else:
                name = f"{prefix}.{key}"
            if inspect.isfunction(obj):
                new = self._wrap(obj, name)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, name))
            else:
                continue
            undo.append((setattr, cls, key, obj))
            setattr(cls, key, new)

    # ------------------------------------------------------------ analysis

    def by_name(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def to_json(self) -> dict:
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
        }
