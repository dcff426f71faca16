"""Outside-in tracing of the dmabeam layers.

The benchmark wraps public functions of the package's modules; nothing
under src/ knows about it.  A function is wrapped at *every* module that
binds it, because ``from .x import y`` copies the binding: a wrapper on
the defining module alone would miss the calls made through the copy.

Each call of a span function records (id, pass, name, start, end,
parent).  Kernels called tens of thousands of times per pass are
aggregated into calls, total time and self time instead, and their time
is charged to the enclosing span so that its self time stays exact.
Calls made while no pass is active (installation, checks) are not
recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

PACKAGE = "dmabeam"
# The traced functions, as <module>.<function> of their defining module.
SPAN_FUNCTIONS = (
    "cli.main",
    "scenario.load_scenario",
    "link_rate.compare_rates",
    "link_rate.achievable_rate",
    "frequency_planner.optimal_operating_freq",
    "gain_optimizer.solve_p1a",
    "binary_tuning.solve_p4",
    "array_training.build_codebook",
    "array_training.probe",
    "array_training.array_gain_dma",
    "bandwidth_analysis.array_cutoff_frequencies",
    "oracle.grid_max_gain",
    "oracle.dense_p_scan",
    "oracle.enumerate_binary",
)
KERNEL_FUNCTIONS = (    # > ~10k calls per pass on some workload
    "channel.combined_phases",
    "channel.dirichlet_of_p",
    "core_model.beamformer_weight",
)
TRACED = SPAN_FUNCTIONS + KERNEL_FUNCTIONS
# Functions whose repeated work is measured: distinct argument tuples / calls.
DISTINCT = ("frequency_planner.optimal_operating_freq",
            "gain_optimizer.solve_p1a", "array_training.probe")
# Functions each workload must call at least once in a traced pass.  A
# zero count means the tracer missed a binding or the workload no longer
# exercises the layer it was chosen for; either way the traced run fails.
EXPECTED_CALLS = {
    "rate-reference": (
        "cli.main", "scenario.load_scenario", "link_rate.compare_rates",
        "link_rate.achievable_rate", "channel.combined_phases",
        "core_model.beamformer_weight", "frequency_planner.optimal_operating_freq",
        "gain_optimizer.solve_p1a", "array_training.probe",
        "array_training.array_gain_dma", "array_training.build_codebook"),
    "gain-sweep-reference": (
        "cli.main", "scenario.load_scenario",
        "frequency_planner.optimal_operating_freq", "channel.dirichlet_of_p",
        "gain_optimizer.solve_p1a", "binary_tuning.solve_p4"),
    "binary-wide": (
        "cli.main", "scenario.load_scenario",
        "frequency_planner.optimal_operating_freq", "channel.dirichlet_of_p",
        "gain_optimizer.solve_p1a", "binary_tuning.solve_p4"),
    "figure-set": (
        "cli.main", "scenario.load_scenario", "gain_optimizer.solve_p1a",
        "array_training.probe", "array_training.array_gain_dma",
        "array_training.build_codebook", "oracle.grid_max_gain",
        "oracle.dense_p_scan", "oracle.enumerate_binary",
        "bandwidth_analysis.array_cutoff_frequencies"),
}


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    pass_id: int
    name: str
    start: float
    end: float
    parent: int          # -1 for a root span
    # Time directly inside that is not the span's own: aggregated kernel
    # calls and the tracer's argument keys of its DISTINCT children.
    excluded_s: float = 0.0


class Tracer:
    """Wrappers, span records and per-pass counters; one per traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        # pass_id -> name -> [calls, raised, self_s, argument keys]; self_s
        # is kept for kernels only, spans give it for the rest.
        self.stats: Dict[int, Dict[str, list]] = {}
        self._pass = None
        self._active = None                  # stats of the running pass
        self._stack: List[list] = []         # frames: [span_id, child_s, excluded_s]
        self._ids = itertools.count()
        self._originals: Dict[str, object] = {}
        self._bindings: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def modules(self) -> List[object]:
        """Every module of the package, imported."""
        root = importlib.import_module(PACKAGE)
        names = [PACKAGE] + [f"{PACKAGE}.{m.name}"
                             for m in pkgutil.iter_modules(root.__path__)]
        return [importlib.import_module(n) for n in names]

    def install(self) -> None:
        modules = self.modules()
        wrappers = {}
        for name in TRACED:
            module, func = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            self._originals[name] = original
            wrappers[id(original)] = self._wrap(name, original,
                                                kernel=name in KERNEL_FUNCTIONS)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def unwrapped_bindings(self) -> List[str]:
        """Module attributes still bound to an original traced function."""
        originals = {id(fn) for fn in self._originals.values()}
        return [f"{module.__name__}.{attr}" for module in self.modules()
                for attr, value in vars(module).items() if id(value) in originals]

    # --------------------------------------------------------- recording

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._active = self.stats.setdefault(
            pass_id, {name: [0, 0, 0.0, set()] for name in TRACED})

    def end_pass(self) -> None:
        self._pass = self._active = None

    def _wrap(self, name: str, fn, kernel: bool):
        stack, spans, ids = self._stack, self.spans, self._ids
        distinct = name in DISTINCT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = self._active
            if active is None:
                return fn(*args, **kwargs)
            stat = active[name]
            stat[0] += 1
            if distinct:
                # The key is tracer work: take it out of the enclosing
                # frame's self time, as a kernel call would be.
                key_start = clock()
                stat[3].add(argument_key((args, sorted(kwargs.items()))))
                if stack:
                    key_s = clock() - key_start
                    stack[-1][1] += key_s
                    stack[-1][2] += key_s
            frame = [-1 if kernel else next(ids), 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat[1] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                    if kernel:
                        stack[-1][2] += duration
                if kernel:
                    stat[2] += duration - frame[1]
                else:
                    spans.append(Span(frame[0], self._pass, name, start, end,
                                      _enclosing_span(stack), frame[2]))
        return wrapper

    # ----------------------------------------------------------- results

    def pass_metrics(self, pass_id: int) -> Dict[str, float]:
        """calls, raised and self_s of every traced function in one pass,
        plus distinct_ratio where measured."""
        span_self = self_times([s for s in self.spans if s.pass_id == pass_id])
        out = {}
        for name in TRACED:
            calls, raised, kernel_self, keys = self.stats[pass_id][name]
            out[f"{name}.self_s"] = kernel_self if name in KERNEL_FUNCTIONS \
                else span_self.get(name, 0.0)
            out[f"{name}.calls"] = calls
            out[f"{name}.raised"] = raised
            if name in DISTINCT:
                out[f"{name}.distinct_ratio"] = len(keys) / calls if calls else 0.0
        return out


def _enclosing_span(stack: List[list]) -> int:
    for frame in reversed(stack):
        if frame[0] >= 0:
            return frame[0]
    return -1


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Sum of self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlaps counted once) and minus the
    time excluded directly inside it (kernel calls, tracer key work).
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s.name] += (s.end - s.start) - covered - s.excluded_s
    return dict(totals)


def argument_key(value):
    """Hashable, content-based key of a call's arguments."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            argument_key(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(argument_key(v) for v in value)
    return value
