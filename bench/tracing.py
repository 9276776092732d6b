"""In-memory spans around the public functions of every phonon_gauge module.

`cli` and `dynamics` import library functions by name, so a wrapper is bound
in every module namespace that holds the original, not only where it is
defined.  numpy's `eigh` and `eigvalsh` are wrapped as the `linalg` layer;
`np.linalg.norm` is left alone because the integrator calls it hundreds of
thousands of times per run and timing it would swamp the result.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

MODULES = ("config", "model", "couplings", "fock", "dynamics", "spectra", "cli")


def _evolve_t_final(args, kwargs):
    return kwargs["t_final"] if "t_final" in kwargs else args[2]


#: Span attributes taken from a call's arguments, by span name.
_ATTRIBUTES = {"dynamics.evolve": _evolve_t_final}


class Tracer:
    """Records one span per traced call: [name, parent, start, end, attribute]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attribute = _ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0,
                          attribute(args, kwargs) if attribute else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()

        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES and numpy's eigh/eigvalsh."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"phonon_gauge.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for name in sorted(sys.modules):
            module = sys.modules[name]
            if name != "phonon_gauge" and not name.startswith("phonon_gauge."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        for attr in ("eigh", "eigvalsh"):
            setattr(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def summary(self) -> dict:
        """{span name: {"calls", "self_s", "total_s", "attribute_sum"}}."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, _, start, end, attribute) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                        "attribute_sum": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[k]
            if attribute is not None:
                row["attribute_sum"] += float(attribute)
        return out
