"""Spans and call counts around facto's public functions.

Nothing in `facto` is changed on disk.  `Instrumentation` replaces each
listed function with a wrapper in every loaded `facto.*` module (and on the
owning class for methods) and puts the originals back on `restore()`.  The
library imports functions by name (`from .polymat import solve_right`), so a
wrapper is bound wherever the same function object is held.  Code outside
facto must look functions up through facto's modules at call time
(`factorizations.fac_validate(...)`); a name it imported itself keeps the
original.

Two wrapper kinds exist:

* `SpanRecorder` keeps one span per call in flat arrays (name id, start,
  end, parent index, operation id) and derives self time per layer.
* `CallCounter` only counts calls (and True results for the iso tests).
  It also counts the public `Polynomial` and `Field` methods, which are far
  too frequent to span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

# layer -> (function label, "module:qualname") in the order reported
TRACED = {
    "census": [
        ("class_census", "facto.census:class_census"),
        ("enumerate_factorizations", "facto.census:enumerate_factorizations"),
        ("enumerate_chains", "facto.census:enumerate_chains"),
        ("stable_graded_subspaces", "facto.census:stable_graded_subspaces"),
        ("hom_dim_compare", "facto.census:hom_dim_compare"),
    ],
    "factorizations": [
        ("fac_validate", "facto.factorizations:fac_validate"),
        ("fac_hom_basis", "facto.factorizations:fac_hom_basis"),
        ("fac_iso_test", "facto.factorizations:fac_iso_test"),
        ("direct_sum", "facto.factorizations:Factorization.direct_sum"),
        ("fac_stable_hom_dim", "facto.factorizations:fac_stable_hom_dim"),
        ("fac_projective_test", "facto.factorizations:fac_projective_test"),
        ("nu_resolution", "facto.factorizations:nu_resolution"),
        ("termwise_split_check", "facto.factorizations:termwise_split_check"),
        ("zigzag_check", "facto.factorizations:zigzag_check"),
        ("rotate", "facto.factorizations:rotate"),
        ("nu", "facto.factorizations:nu"),
        ("adjunction_transport", "facto.factorizations:adjunction_transport"),
    ],
    "chains": [
        ("chain_hom_basis", "facto.chains:chain_hom_basis"),
        ("chain_iso_test", "facto.chains:chain_iso_test"),
        ("chain_stable_hom_dim", "facto.chains:chain_stable_hom_dim"),
        ("chain_projective_test", "facto.chains:chain_projective_test"),
        ("chain_projective_cover", "facto.chains:chain_projective_cover"),
    ],
    "functors": [
        ("cok", "facto.functors:cok"),
        ("reconstruct", "facto.functors:reconstruct"),
        ("span_preimage_inclusion", "facto.functors:span_preimage_inclusion"),
        ("cok_exactness_check", "facto.functors:cok_exactness_check"),
    ],
    "modules": [
        ("hom_basis", "facto.modules:hom_basis"),
        ("map_ker_cok_im", "facto.modules:map_ker_cok_im"),
        ("presentation_cokernel", "facto.modules:presentation_cokernel"),
        ("decompose", "facto.modules:decompose"),
        ("stable_hom_dim", "facto.modules:stable_hom_dim"),
    ],
    "polymat": [
        ("matmul", "facto.polymat:PolyMatrix.__matmul__"),
        ("det", "facto.polymat:PolyMatrix.det"),
        ("solve_right", "facto.polymat:solve_right"),
        ("snf", "facto.polymat:snf"),
    ],
    "linalg": [
        ("rref", "facto.linalg:rref"),
        ("nullspace", "facto.linalg:nullspace"),
        ("echelon_add", "facto.linalg:Echelon.add"),
        ("mat_mul", "facto.linalg:mat_mul"),
    ],
    "cli": [
        ("main", "facto.cli:main"),
    ],
}

# functions whose True results are counted, for the *_true_ratio metrics
RESULT_COUNTED = ("fac_iso_test", "chain_iso_test")

# scalar layers: every public method and arithmetic operator is counted
SCALAR_CLASSES = {
    "poly": ["facto.poly:Polynomial"],
    "fields": ["facto.fields:Field", "facto.fields:Rationals",
               "facto.fields:PrimeField"],
}
_OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__floordiv__",
              "__mod__", "__eq__"}

LAYER_OF = {label: layer for layer, fns in TRACED.items() for label, _ in fns}


def _resolve(target):
    """(owner, attribute name, function) for a "module:qualname" target."""
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(mod_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _facto_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "facto" or name.startswith("facto.")) and m is not None]


class Instrumentation:
    """Binds wrappers in place of library functions until `restore()`."""

    def __init__(self):
        self._saved = []  # (namespace owner, attribute, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def wrap_function(self, target, make_wrapper):
        """Rebind a function or method everywhere facto holds it."""
        owner, attr, fn = _resolve(target)
        wrapper = make_wrapper(fn)
        if isinstance(owner, type):
            self._bind(owner, attr, fn, wrapper)
            return
        for mod in _facto_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._bind(mod, name, fn, wrapper)

    def wrap_class_methods(self, target, make_wrapper):
        """Wrap the public methods and operators a class defines itself."""
        mod_name, cls_name = target.split(":")
        cls = getattr(importlib.import_module(mod_name), cls_name)
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            if isinstance(value, classmethod):
                wrapped = classmethod(make_wrapper(value.__func__))
            elif callable(value):
                wrapped = make_wrapper(value)
            else:
                continue  # properties and constants
            self._bind(cls, name, value, wrapped)

    def restore(self):
        for owner, attr, original, _ in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """The originals for the duration (the benchmark's own checks)."""
        for owner, attr, original, _ in reversed(self._saved):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._saved:
                setattr(owner, attr, wrapper)


class SpanRecorder:
    """In-memory spans; one per call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # name id -> function label
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.current_op = -1
        self._stack = [-1]
        self._active = []

    def make_wrapper(self, label):
        nid = len(self.names)
        self.names.append(label)
        self._active.append(0)
        clock = self.clock
        stack, active = self._stack, self._active
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, outermost = self.parent, self.op, self.outermost

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                op.append(self.current_op)
                depth = active[nid]
                outermost.append(depth == 0)
                end.append(0.0)
                active[nid] = depth + 1
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                    active[nid] = depth
            return traced

        return decorate

    def install(self, inst: Instrumentation):
        for fns in TRACED.values():
            for label, target in fns:
                inst.wrap_function(target, self.make_wrapper(label))

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """(per-label self seconds, per-label outermost inclusive seconds)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = {label: 0.0 for label in self.names}
        incl_s = {label: 0.0 for label in self.names}
        for i in range(n):
            label = self.names[self.name_id[i]]
            dur = end[i] - start[i]
            self_s[label] += dur - child[i]
            if self.outermost[i]:
                incl_s[label] += dur
        return self_s, incl_s

    def layer_self_times(self):
        self_s, _ = self.self_times()
        out = {layer: 0.0 for layer in TRACED}
        for label, secs in self_s.items():
            out[LAYER_OF[label]] += secs
        return out

    def write(self, path):
        """Header JSON line, then the five arrays as raw machine values."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name_id:i", "start:d", "end:d", "parent:i",
                                 "op:i"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent,
                        self.op):
                arr.tofile(fh)


class CallCounter:
    """Exact call counts; deterministic for a fixed operation list."""

    def __init__(self):
        self.calls = {}
        self.true_results = {}
        self.scalar_ops = {layer: 0 for layer in SCALAR_CLASSES}

    @staticmethod
    def _counting(table, key):
        """Wrapper factory adding one to table[key] per call."""
        def decorate(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                table[key] += 1
                return fn(*args, **kwargs)
            return counted

        return decorate

    def _result_counting(self, label):
        self.true_results[label] = 0
        trues = self.true_results

        def decorate(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if out is True:
                    trues[label] += 1
                return out
            return self._counting(self.calls, label)(counted)

        return decorate

    def install(self, inst: Instrumentation):
        for fns in TRACED.values():
            for label, target in fns:
                self.calls[label] = 0
                make = (self._result_counting(label) if label in RESULT_COUNTED
                        else self._counting(self.calls, label))
                inst.wrap_function(target, make)
        for layer, classes in SCALAR_CLASSES.items():
            for target in classes:
                inst.wrap_class_methods(
                    target, self._counting(self.scalar_ops, layer))

    def true_ratio(self, label):
        calls = self.calls[label]
        return self.true_results[label] / calls if calls else 0.0
