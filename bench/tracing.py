"""Spans around entrate's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces module-level functions in the module namespaces
that look them up (for example ``eof`` in ``entrate.cli`` and
``entrate.rate``) with wrappers that record a span: name, start, end,
parent span, operation id and whether an exception crossed it.  A span's
layer is the module that defines the wrapped function.  Spans stay in
memory in flat arrays until ``save`` writes them out.  No file of the
package changes.
"""

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "qstate", "lindblad", "entanglement", "rate", "blochsun", "kraus")

# Namespace -> names looked up there at call time.
PATCHES = {
    "entrate.cli": (
        "main", "build_parser", "cmd_fig1", "cmd_fig2", "cmd_fig3", "cmd_evolve", "cmd_rate",
        "cmd_criterion", "_csv", "_json_doc", "_emit", "_parse_state", "_evolve_rows",
        "_three_route_report", "eof", "integrate", "rhs_damped_xy", "default_step",
        "new_density", "werner_state", "xy_state", "xy_positivity", "criterion_threshold_value",
        "rate_chain", "rate_numeric", "rate_werner", "rate_xy", "rate_xy_value",
    ),
    "entrate.rate": ("eof", "eof_gradient"),
    "entrate.qstate": ("new_density", "xy_positivity"),
    "entrate.lindblad": ("unchecked_density", "rhs_generic"),
    "entrate.blochsun": ("decompose", "recompose", "coefficient_rates", "new_density"),
    "entrate.kraus": ("apply_channel", "amplitude_damping", "completeness_defect", "new_density"),
}


def _generator_products(args) -> int:
    n, m = args[1], args[2]
    a, b = n * n - 1, m * m - 1
    return a * b + a + b


# Counters taken from a wrapped call's arguments or result.
HOOKS = {
    "lindblad.integrate": lambda args, result: ("lindblad.steps", len(result) - 1),
    "blochsun.decompose": lambda args, result: ("blochsun.generator_products",
                                                _generator_products(args)),
    "blochsun.coefficient_rates": lambda args, result: ("blochsun.generator_products",
                                                        _generator_products(args)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.counters: Counter = Counter()
        self.enabled = False
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.error.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                key, amount = hook(args, result)
                tracer.counters[key] += amount
            return result

        return traced

    def _wrap_build_parser(self, fn):
        """build_parser also gets the returned parser's parse_args traced."""
        traced_build = self.wrap(fn, "cli.build_parser")
        tracer = self

        @functools.wraps(fn)
        def build(*args, **kwargs):
            parser = traced_build(*args, **kwargs)
            parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
            return parser

        return build

    def install(self) -> None:
        for module_name, names in PATCHES.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                if name == "build_parser":
                    wrapped = self._wrap_build_parser(fn)
                else:
                    wrapped = self.wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{name}")
                self._saved.append((module, name, fn))
                setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def table(self) -> dict:
        """Spans as numpy columns, with duration and self time derived."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=float).copy()
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        names = np.array(self.names + [""])
        layer = np.array([n.split(".", 1)[0] for n in self.names] + [""])
        return {
            "name": names[name_id],
            "layer": layer[name_id],
            "start": start,
            "dur": dur,
            "self": dur - child,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).astype(bool),
        }

    def save(self, path, op_labels: list[str]) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
            op_labels=np.array(op_labels),
        )
