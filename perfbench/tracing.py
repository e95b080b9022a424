"""Per-layer tracing for the benchmark's traced run.

The tracer rebinds the public functions listed in ``LAYERS`` in every
``toric_gac`` module namespace that holds them, inside this process only.
Each wrapped call records a span (id, name, start, end, parent id, request
id) in memory; self time is the span's duration minus the time its child
spans cover.  Observers attached to some functions read arguments and
results to derive counts (field rows evaluated, accepted steps, cells
visited, ...), so ratios are measured where the work happens.

A name that no longer exists is reported as absent with zero calls.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer (module of src/toric_gac) -> wrapped public functions
LAYERS: dict[str, tuple[str, ...]] = {
    "network": ("parse_network", "stoichiometric_subspace", "cycle_cover"),
    "dynamics": ("mass_action_field", "integrate", "RateSchedule.random"),
    "equilibria": ("tree_constants", "solve_complex_balanced", "birch_point",
                   "lyapunov_value"),
    "geometry": ("inclusion_cone", "cone_membership", "polar_cone",
                 "locate_cell"),
    "embedding": ("build_embedding", "verify_embedding_at",
                  "sample_verify_embedding"),
    "surfaces": ("build_zero_separating_curve_2d", "verify_zero_separating",
                 "trajectory_crossing_test", "signed_distance_to_curve"),
    "experiments": ("run_persistence_experiment",
                    "run_global_attractor_experiment"),
    "cli": ("cli_dispatch",),
    "jsonio": ("report_json",),
}

SUBCOMMANDS = ("analyze", "equilibrium", "simulate", "embed-verify", "curve2d",
               "certify-surface", "persist", "gac")

_EXPERIMENTS = ("experiments.run_persistence_experiment",
                "experiments.run_global_attractor_experiment")


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _rows(x) -> int:
    """States in one field call: 1 for a state vector, B for a (B, n) batch."""
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1  # id of the benchmark call in progress
        # per function: calls, self seconds, span seconds
        self.stats = {name: [0, 0.0, 0.0] for name in function_names()}
        self.absent: list[str] = []
        self.counts: Counter = Counter()
        self.dispatch_s: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._ids = itertools.count()
        self._cells: set = set()
        self._arrangements: dict = {}  # keeps keyed arrangements alive
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "toric_gac" or name.startswith("toric_gac.")]
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"toric_gac.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(attr)
                    if not isinstance(raw, staticmethod):
                        self.absent.append(name)
                        continue
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr,
                            staticmethod(self._wrap(name, raw.__func__)))
                    continue
                orig = getattr(mod, fn, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack, open_, spans = self._stack, self._open, self.spans
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[name] -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += dur
                if parent is not None:
                    parent[1] += dur
                spans.append((sid, name, t0, t1,
                              -1 if parent is None else parent[0],
                              self.request))
            if observe is not None:
                try:
                    observe(self, args, kwargs, result, dur)
                except (AttributeError, TypeError, ValueError, IndexError):
                    # a changed signature or result type loses one derived
                    # count, never the run
                    self.counts["observer_errors"] += 1
            return result

        return wrapper

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-function calls/self time/self share plus derived counts."""
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, self_s, _) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.self_share"] = (_ratio(self_s, wall_s), "ratio")
        c = self.counts
        field_self = self.stats["dynamics.mass_action_field"][1]
        cell_calls = self.stats["geometry.locate_cell"][0]
        starts = c["starts"]
        experiment_s = sum(self.stats[n][2] for n in _EXPERIMENTS)
        derived = {
            "dynamics.mass_action_field.states": (c["states"], "count"),
            "dynamics.mass_action_field.us_per_state": (
                _ratio(1e6 * field_self, c["states"]), "us"),
            "dynamics.integrate.accepted_steps": (c["accepted_steps"],
                                                  "count"),
            "dynamics.integrate.field_states_per_step": (
                _ratio(c["integrate_states"], c["accepted_steps"]),
                "states/step"),
            "equilibria.solves_per_start": (
                _ratio(c["experiment_solves"], starts), "solves/start"),
            "geometry.distinct_cells": (len(self._cells), "count"),
            "geometry.cell_repeat_share": (
                _ratio(cell_calls - len(self._cells), cell_calls), "ratio"),
            "embedding.contained_ratio": (
                _ratio(c["passes"], c["trials"]), "ratio"),
            "surfaces.scale_halvings": (c["scale_halvings"], "count"),
            "surfaces.segments": (c["segments"], "count"),
            "experiments.ms_per_start": (_ratio(1e3 * experiment_s, starts),
                                         "ms"),
            "jsonio.report_bytes": (c["report_bytes"], "bytes"),
            "trace.absent_functions": (len(self.absent), "count"),
            "trace.observer_errors": (c["observer_errors"], "count"),
        }
        out.update(derived)
        for sub in SUBCOMMANDS:
            times = self.dispatch_s.get(sub, [])
            out[f"cli.dispatch_ms.{sub}"] = (
                1e3 * sum(times) / len(times) if times else 0.0, "ms")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent",
                             "request"))
            writer.writerows(self.spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- observers: derived counts read from arguments and results -----------

def _obs_field(tr: Tracer, args, kwargs, result, dur):
    x = args[2] if len(args) > 2 else kwargs.get("x")
    rows = _rows(x)
    tr.counts["states"] += rows
    if tr.inside("dynamics.integrate"):
        tr.counts["integrate_states"] += rows


def _obs_integrate(tr: Tracer, args, kwargs, result, dur):
    times = np.asarray(result.times)
    steps = times.shape[-1] - 1
    tr.counts["accepted_steps"] += steps * (times.shape[0] if times.ndim == 2
                                            else 1)


def _obs_solve(tr: Tracer, args, kwargs, result, dur):
    if any(tr.inside(n) for n in _EXPERIMENTS):
        tr.counts["experiment_solves"] += 1


def _obs_cell(tr: Tracer, args, kwargs, result, dur):
    arr = args[0] if args else kwargs.get("arr")
    delta = args[2] if len(args) > 2 else kwargs.get("delta")
    tr._arrangements[id(arr)] = arr
    tr._cells.add((id(arr), delta, tuple(result)))


def _obs_sample(tr: Tracer, args, kwargs, result, dur):
    tr.counts["trials"] += result.trials
    tr.counts["passes"] += result.passes


def _obs_curve(tr: Tracer, args, kwargs, result, dur):
    scale = args[2] if len(args) > 2 else kwargs.get("scale", 1e-3)
    tr.counts["scale_halvings"] += round(math.log2(scale / result.scale))
    tr.counts["segments"] += len(result.segments)


def _obs_experiment(tr: Tracer, args, kwargs, result, dur):
    tr.counts["starts"] += len(result.records)


def _obs_report(tr: Tracer, args, kwargs, result, dur):
    tr.counts["report_bytes"] += len(result.encode("utf-8"))


def _obs_dispatch(tr: Tracer, args, kwargs, result, dur):
    argv = args[0] if args else kwargs.get("argv")
    if argv:
        tr.dispatch_s[argv[0]].append(dur)


_OBSERVERS = {
    "dynamics.mass_action_field": _obs_field,
    "dynamics.integrate": _obs_integrate,
    "equilibria.solve_complex_balanced": _obs_solve,
    "geometry.locate_cell": _obs_cell,
    "embedding.sample_verify_embedding": _obs_sample,
    "surfaces.build_zero_separating_curve_2d": _obs_curve,
    "experiments.run_persistence_experiment": _obs_experiment,
    "experiments.run_global_attractor_experiment": _obs_experiment,
    "jsonio.report_json": _obs_report,
    "cli.cli_dispatch": _obs_dispatch,
}
