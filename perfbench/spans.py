"""Timing spans around leftdef's public functions, installed from outside.

The tracer wraps every public function of each leftdef module, plus the
``__post_init__`` validation of ``Sequence`` and ``CoefficientSet``.  Modules
bind names with ``from ... import``, so a wrapper replaces the original on
every module (and in every module-level dict, such as ``verify.CAMPAIGNS``)
that holds it.  Spans keep name, start, end, parent and the command they
belong to in flat arrays and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children; a layer's time is the summed self time of its module's spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("coeffs", "calculus", "operators", "space", "spectrum", "verify", "cli")


class Tracer:
    """Records spans for the leftdef calls made between install() and uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(
            ("coeffs.entries", "operators.recurrence_steps", "spectrum.pencil.no_finite",
             "spectrum.shooting.brackets", "spectrum.shooting.found",
             "spectrum.shooting.grid_points"), 0)
        self.cases: dict[str, int] = {}
        self.command = -1
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}    # id(original) -> wrapper
        self._undo: list = []

        verify = sys.modules["leftdef.verify"]
        campaigns = {id(fn): name for name, fn in verify.CAMPAIGNS.items()}
        self.campaigns = [f"verify.{name}" for name in verify.CAMPAIGNS]
        for layer in LAYERS:
            mod = sys.modules[f"leftdef.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    label = f"verify.{campaigns[id(fn)]}" if id(fn) in campaigns \
                        else f"{layer}.{attr}"
                    self._wrappers[id(fn)] = self._wrap(label, fn)
        coeffs = sys.modules["leftdef.coeffs"]
        self._classes = (coeffs.Sequence, coeffs.CoefficientSet)
        for cls in self._classes:
            post_init = cls.__dict__["__post_init__"]
            self._wrappers[id(post_init)] = self._wrap(f"coeffs.{cls.__name__}", post_init)

    def _counter(self, label, fn):
        """The count a wrapped call adds, read from its arguments or result."""
        counts = self.counts
        if label == "coeffs.Sequence":
            def count(args, kwargs, result):
                counts["coeffs.entries"] += args[0].values.size
        elif label == "operators.solve_recurrence":
            def count(args, kwargs, result):
                counts["operators.recurrence_steps"] += len(result.values) - 2
        elif label == "spectrum.eigen_pencil":
            def count(args, kwargs, result):
                counts["spectrum.pencil.no_finite"] += result.no_finite_count
        elif label == "spectrum.eigen_shooting":
            signature = inspect.signature(fn)

            def count(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                counts["spectrum.shooting.brackets"] += len(result.brackets)
                counts["spectrum.shooting.found"] += len(result.eigenvalues)
                # Points the sign scan evaluates: --grid, else its 512 * N default.
                counts["spectrum.shooting.grid_points"] += \
                    bound.get("grid") or 512 * bound["N"]
        elif label in self.campaigns:
            cases = self.cases

            def count(args, kwargs, result):
                cases[label] = cases.get(label, 0) + result.cases
        else:
            return None
        return count

    def _wrap(self, label, fn):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name, op, parent, start, end = self.name, self.op, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        count = self._counter(label, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            op.append(self.command)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Swap every reference leftdef holds to a wrapped function."""
        self._undo = self._swap()

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo = []

    def _swap(self):
        swap, undo = self._wrappers, []
        owners = [m for n, m in sys.modules.items()
                  if n == "leftdef" or n.startswith("leftdef.")]
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if id(value) in swap and inspect.isfunction(value):
                    undo.append((mod, attr, value))
                    setattr(mod, attr, swap[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in swap and inspect.isfunction(item):
                            undo.append((value, key, item))
                            value[key] = swap[id(item)]
        for cls in self._classes:
            original = cls.__dict__["__post_init__"]
            undo.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", swap[id(original)])
        return undo

    # -- results -------------------------------------------------------------

    def summary(self, commands: int):
        """Per-command metrics keyed by per_layer name, and each layer's time share."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        k = len(self.names)
        own = dict(zip(self.names, np.bincount(name, weights=self_time, minlength=k)))
        total = dict(zip(self.names, np.bincount(name, weights=dur, minlength=k)))
        calls = dict(zip(self.names, np.bincount(name, minlength=k)))

        def layer(prefix):
            return [label for label in self.names if label.startswith(prefix + ".")]

        def per_op(table, labels):
            return sum(table[label] for label in labels) / commands

        count = {key: value / commands for key, value in self.counts.items()}
        grid = self.counts["spectrum.shooting.grid_points"]
        m = {
            "coeffs.load_s": per_op(own, layer("coeffs")),
            "coeffs.calls": per_op(calls, layer("coeffs")),
            "coeffs.entries": count["coeffs.entries"],
            "operators.solve_recurrence_s": per_op(own, ["operators.solve_recurrence"]),
            "operators.recurrence_steps": count["operators.recurrence_steps"],
            "operators.wronskian_s": per_op(own, [
                "operators.wronskian", "operators.wronskian_sequence",
                "operators.wronskian_constancy_report"]),
            "operators.apply_L_s": per_op(own, ["operators.apply_L"]),
            "calculus.residual_s": per_op(own, layer("calculus")),
            "space.check_s": per_op(own, layer("space")),
            "spectrum.eigen_shooting_s": per_op(own, ["spectrum.eigen_shooting"]),
            "spectrum.shooting_range_s": per_op(own, ["spectrum.shooting_range"]),
            "spectrum.shooting.brackets": count["spectrum.shooting.brackets"],
            "spectrum.shooting.yield":
                self.counts["spectrum.shooting.found"] / grid if grid else 0.0,
            "spectrum.eigen_pencil_s": per_op(own, ["spectrum.eigen_pencil"]),
            "spectrum.finite_section_s": per_op(own, ["spectrum.finite_section"]),
            "spectrum.pencil.no_finite": count["spectrum.pencil.no_finite"],
        }
        for label in self.campaigns:
            cases = self.cases.get(label, 0)
            m[f"{label}.case_s"] = total[label] / cases if cases else 0.0
        m["verify.self_s"] = per_op(own, layer("verify"))
        m["cli.self_s"] = per_op(own, layer("cli"))
        root_time = float(dur[~child].sum())
        shares = {prefix: per_op(own, layer(prefix)) * commands / root_time
                  for prefix in LAYERS}
        return m, shares

    def save(self, path):
        """Write every span: name table, name id, command index, parent, start, end."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
