"""Span tracer for the traced benchmark run.

Every public function of the measured bayesbag modules is wrapped by object
identity in every ``bayesbag.*`` namespace, so names that ``cli`` imported
with ``from .linreg import ...`` are timed too.  The callable returned by
``linreg.make_evaluator`` is wrapped as ``linreg.evaluator``.  Spans
(name, start, end, parent, item id) stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.

Not wrapped: ``compare`` and ``errors`` (no ROADMAP item targets them), and
``linreg.log_marginal_likelihood_from_stats``, which runs once per model
(thousands of calls per item at ~50 us each).  Its time stays in
``linreg.model_log_marginals``, the layer a batched engine replaces.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "linreg", "simgen", "asymptotics", "mismatch")
PER_MODEL = {"linreg.log_marginal_likelihood_from_stats"}
EVALUATOR = "linreg.evaluator"


def _bound(sig, args, kwargs, param):
    """Argument ``param`` of a call, or None if the signature lost it."""
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(param)
    except TypeError:
        return None


def _count_models(sig, args, kwargs):
    models = _bound(sig, args, kwargs, "models")
    return {"linreg.models_evaluated": len(models)} if models is not None else {}


def _count_stats_bytes(sig, args, kwargs):
    data = _bound(sig, args, kwargs, "data")
    if data is None:
        return {}
    return {"linreg.weighted_stats.bytes": data.n * (data.d + 2) * 8}


def _count_replicates(sig, args, kwargs):
    config = _bound(sig, args, kwargs, "config")
    return {"core.replicates": config.b} if config is not None else {}


# per-call work counters, keyed by the traced function's name
COUNTERS = {
    "linreg.model_log_marginals": _count_models,
    "linreg.weighted_stats": _count_stats_bytes,
    "core.bagged_model_posterior": _count_replicates,
}


class Tracer:
    """Installs span-recording wrappers into the bayesbag modules and
    removes them again; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.counts: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []
        self.functions: set[str] = set()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(sig, args, kwargs).items():
                    self.counts[key] += value
            if name == "linreg.make_evaluator":
                result = self._wrap(EVALUATOR, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bayesbag" or key.startswith("bayesbag."))]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__ and name not in PER_MODEL):
                    wrappers[id(value)] = (value, self._wrap(name, value))
                    self.functions.add(name)
        self.functions.add(EVALUATOR)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value, hit[1]))

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self, n_items: int) -> dict[str, float]:
        """Totals per item: ``<fn>.calls``, ``<fn>.self_s``, ``<fn>.total_s``
        for each traced function, ``<layer>.self_s`` for each layer, and the
        work counters."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, parent, _ = span
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.total_s"] += end - start
            out[f"{name.partition('.')[0]}.self_s"] += self_s
        for key, value in self.counts.items():
            out[key] += value
        return {key: value / n_items for key, value in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)
