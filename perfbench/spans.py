"""Per-layer spans and work counters, recorded from outside the package.

``install`` replaces each public function named in ``TARGETS`` by a timing
wrapper at every binding that refers to it: the defining module, every
``liprec`` module that imported it by name, the ``acceptance.ALL_CRITERIA``
table, and every class attribute that aliases a method (such as
``MwetHypothesis.__call__``). Classmethods are rewrapped as classmethods.
Nothing under ``src/`` changes. Spans stay in memory; ``summary`` turns them
into per-function self time (duration minus the wrapped calls made inside)
and call counts, plus work counts derived from the call arguments.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Counter = Callable[[Dict[str, float], tuple, dict, Any], None]


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_pairs(counters, args, kwargs, result):
    counters["lipschitz.pairs"] += _pairs(len(args[0]))


def _count_from_arrays(counters, args, kwargs, result):
    if kwargs.get("check_duplicates", True):
        counters["core.dup_pairs"] += _pairs(len(result))


def _count_validate(counters, args, kwargs, result):
    counters["core.dup_pairs"] += _pairs(len(args[0]))


def _count_evaluate(counters, args, kwargs, result):
    hypothesis, y = args[0], args[1]
    shape = np.shape(y)
    queries = 1 if len(shape) == 1 else shape[0]
    counters["mwet.distance_terms"] += queries * len(hypothesis.training)


def _count_cover(counters, args, kwargs, result):
    counters["covering.points"] += len(args[0])
    counters["covering.cells_occupied"] += len(result)


def _count_subsets(counters, args, kwargs, result):
    operator = args[0]
    n = np.shape(getattr(operator, "matrix", operator))[1]
    s = args[1] if len(args) > 1 else kwargs["S"]
    counters["rip.subsets"] += sum(math.comb(n, k) for k in range(1, s + 1))


# (module, qualified name, work counter). Module names double as layer names.
TARGETS: Tuple[Tuple[str, str, Optional[Counter]], ...] = (
    ("lipschitz", "tight_omega", _count_pairs),
    ("lipschitz", "verify_lipschitz", _count_pairs),
    ("lipschitz", "check_relaxed_lipschitz", _count_pairs),
    ("core", "LabeledSet.from_arrays", _count_from_arrays),
    ("core", "validate_labeled_set", _count_validate),
    ("mwet", "fit", None),
    ("mwet", "MwetHypothesis.evaluate", _count_evaluate),
    ("mwet", "MwetHypothesis.lipschitz_audit", None),
    ("covering", "build_cover", _count_cover),
    ("covering", "cover_pipeline", None),
    ("svdrec", "svd_factor", None),
    ("svdrec", "fit_reduced", None),
    ("svdrec", "SvdRecoveryMap.recover", None),
    ("svdrec", "SvdRecoveryMap.consistency_residuals", None),
    ("rip", "rip_delta", _count_subsets),
    ("rip", "spectral_balance", _count_subsets),
    ("rip", "verify_sparse_lipschitz", None),
) + tuple(("acceptance", f"criterion_{k}", None) for k in range(1, 9)) + (
    ("cli", "load_problem", None),
    ("cli", "execute", None),
    ("cli", "write_json", None),
)

COUNTERS = ("lipschitz.pairs", "core.dup_pairs", "mwet.distance_terms",
            "covering.points", "covering.cells_occupied", "rip.subsets")


def labels() -> List[str]:
    return [f"{module}.{name}" for module, name, _ in TARGETS]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric ``summary`` reports, with its unit."""
    units: Dict[str, str] = {}
    for label in labels():
        units[f"{label}.self_s"] = "s"
        units[f"{label}.calls"] = "count"
        if label.startswith("acceptance."):
            units[f"{label}.total_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["covering.kept_ratio"] = "ratio"
    return units


class Tracer:
    """Spans as (label, start, end, parent span index or None)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int]]] = []
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self._open: List[List[Any]] = []  # [span index, seconds in wrapped children]

    def wrap(self, label: str, func: Callable, counter: Optional[Counter]) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else None
            self.spans.append((label, 0.0, 0.0, parent))
            frame = [index, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (label, start, end, parent)
                if self._open:
                    self._open[-1][1] += end - start
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        traced.__wrapped_label__ = label
        return traced

    def summary(self) -> Dict[str, float]:
        """Per-label self and total seconds, calls, and the work counters."""
        self_s = {label: 0.0 for label in labels()}
        total_s = dict(self_s)
        calls = {label: 0 for label in labels()}
        children = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        for (label, start, end, _), inner in zip(self.spans, children):
            self_s[label] += (end - start) - inner
            total_s[label] += end - start
            calls[label] += 1
        out: Dict[str, float] = {}
        for label in labels():
            out[f"{label}.self_s"] = self_s[label]
            out[f"{label}.calls"] = calls[label]
            if label.startswith("acceptance."):
                out[f"{label}.total_s"] = total_s[label]
        out.update(self.counters)
        points = self.counters["covering.points"]
        out["covering.kept_ratio"] = (self.counters["covering.cells_occupied"] / points
                                      if points else 0.0)
        return out

    def self_total(self) -> float:
        """Sum of every span's self time: the traced share of the run."""
        top = [end - start for _, start, end, parent in self.spans if parent is None]
        return float(sum(top))


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding inside the loaded ``liprec`` modules."""
    importlib.import_module("liprec.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "liprec" or name.startswith("liprec.")]
    replaced: Dict[int, Callable] = {}
    for module_name, qualname, counter in TARGETS:
        module = importlib.import_module(f"liprec.{module_name}")
        label = f"{module_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(label, raw.__func__, counter)))
                continue
            traced = tracer.wrap(label, raw, counter)
            for name, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, name, traced)
            continue
        func = getattr(module, qualname)
        traced = tracer.wrap(label, func, counter)
        replaced[id(func)] = traced
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, name, traced)
    acceptance = importlib.import_module("liprec.acceptance")
    acceptance.ALL_CRITERIA = tuple((task, replaced.get(id(runner), runner))
                                    for task, runner in acceptance.ALL_CRITERIA)
    unwrapped = [runner.__name__ for _, runner in acceptance.ALL_CRITERIA
                 if not hasattr(runner, "__wrapped_label__")]
    if unwrapped:
        raise RuntimeError(f"criteria left untraced: {unwrapped}")
