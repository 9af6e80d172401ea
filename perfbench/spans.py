"""Layer spans installed from outside the program.

``Tracer.install`` wraps every public function (no leading underscore)
defined in each qoneshot layer module and rebinds the wrapper under every
name a layer module imported it as, so calls between layers go through the
spans.  It also wraps ``numpy.linalg.eigh``/``eigvalsh`` and
``scipy.optimize.minimize``/``linprog`` and charges each call to the
innermost open span.  Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np
import scipy.optimize

LAYERS = ("cli", "qcore", "divergences", "jordan", "coding", "composite")
OUTSIDE = ("bench", "-")
_SIMULATIONS = frozenset({"simulate_uninformed", "simulate_informed"})
# public functions returning (value, TestOperator): their test's
# ``iterations`` is the solver work behind the value
_ITERATED = frozenset({"i_h", "beta_exact"})


class Tracer:
    def __init__(self):
        # span: [op, parent index, layer, name, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._where = OUTSIDE
        self._open_simulations = 0
        self.op = -1
        self.eigh_calls: Counter = Counter()
        self.eigh_work_d3: Counter = Counter()
        self.solver_calls: Counter = Counter()
        self.iterations: Counter = Counter()
        self.decoder_dim_max = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        is_sim = name in _SIMULATIONS
        iterated = name in _ITERATED
        where = (layer, name)

        def wrapper(*args, **kwargs):
            rec = [self.op, stack[-1] if stack else -1, layer, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            outer, self._where = self._where, where
            self._open_simulations += is_sim
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
                self._where = outer
                self._open_simulations -= is_sim
            if iterated:
                self.iterations[name] += out[1].iterations
            return out

        return wrapper

    def _eigensolver(self, fn):
        calls, work = self.eigh_calls, self.eigh_work_d3

        def wrapper(a, *args, **kwargs):
            d = np.shape(a)[-1]
            calls[self._where] += 1
            work[self._where] += d ** 3 * (np.size(a) // (d * d) if d else 0)
            if self._open_simulations and d > self.decoder_dim_max:
                self.decoder_dim_max = d
            return fn(a, *args, **kwargs)

        return wrapper

    def _solver(self, kind: str, fn):
        calls = self.solver_calls

        def wrapper(*args, **kwargs):
            calls[self._where[0], kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qoneshot.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._span(layer, name, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        np.linalg.eigh = self._eigensolver(np.linalg.eigh)
        np.linalg.eigvalsh = self._eigensolver(np.linalg.eigvalsh)
        scipy.optimize.minimize = self._solver("minimize", scipy.optimize.minimize)
        scipy.optimize.linprog = self._solver("linprog", scipy.optimize.linprog)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[5] - s[4]
        return own

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "parent", "layer", "name", "start", "end"],
                       "spans": self.spans}, fh)
