"""Per-layer tracing of padic_affine from outside the package.

The tracer replaces the package's public functions and methods with thin
wrappers that record one span per call: (span id, parent span id, name,
start, end). A layer's self time is its span's duration minus the time its
child spans cover; calls are single-threaded, so child spans never overlap
and the covered time is the sum of their durations. Counts, self times and
a few work counters accumulate for every call. Full span records are kept
in memory only for the first SPANS_PER_NAME calls of each name, because the
hot leaves (Ball.relation, Ball.contains) run millions of times in a run;
they are written to a JSON file when the run ends.

A function bound with `from .x import f` lives under its own name in every
importing module, so a module-level target is replaced wherever the
original object is found in the package's loaded modules.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

PACKAGE = "padic_affine"
SPANS_PER_NAME = 2000

# (label, module, attribute path). The label names the layer in metrics.
TARGETS = [
    ("padic.Ball.relation", "padic", "Ball.relation"),
    ("padic.Ball.contains", "padic", "Ball.contains"),
    ("padic.Ball.image", "padic", "Ball.image"),
    ("padic.ClopenSet.of", "padic", "ClopenSet.of"),
    ("padic.ClopenSet.subtract", "padic", "ClopenSet.subtract"),
    ("stepfn.StepFunction.make", "stepfn", "StepFunction.make"),
    ("stepfn.StepFunction.combine", "stepfn", "StepFunction.combine"),
    ("stepfn.StepFunction.evaluate", "stepfn", "StepFunction.evaluate"),
    ("affine.multiply", "affine", "multiply"),
    ("affine.AffineElement.inverse", "affine", "AffineElement.inverse"),
    ("affine.AffineElement.act_function", "affine", "AffineElement.act_function"),
    ("affine.AffineElement.pieces", "affine", "AffineElement.pieces"),
    ("affine.composition_defect", "affine", "composition_defect"),
    ("measure.pushforward", "measure", "pushforward"),
    ("poisson.refine_window", "poisson", "refine_window"),
    ("poisson.laplace_exponent", "poisson", "laplace_exponent"),
    ("poisson.sample_config", "poisson", "sample_config"),
    ("poisson.mc_atoms", "poisson", "mc_atoms"),
    ("poisson.mc_run", "poisson", "mc_run"),
    ("representation.check_laplace", "representation", "check_laplace"),
    ("representation.check_laplace_mc", "representation", "check_laplace_mc"),
    ("representation.check_rn_identity", "representation", "check_rn_identity"),
    ("representation.check_rn_identity_mc", "representation", "check_rn_identity_mc"),
    ("representation.check_isometry", "representation", "check_isometry"),
    ("representation.check_isometry_mc", "representation", "check_isometry_mc"),
    ("representation.check_dual_pairing", "representation", "check_dual_pairing"),
    ("representation.check_factorization", "representation", "check_factorization"),
    ("representation.check_ergodic_inequality", "representation",
     "check_ergodic_inequality"),
    ("grammar.parse_affine", "grammar", "parse_affine"),
    ("grammar.parse_step", "grammar", "parse_step"),
    ("grammar.format_affine", "grammar", "format_affine"),
    ("grammar.format_step", "grammar", "format_step"),
    ("suite.group_axiom_trials", "suite", "group_axiom_trials"),
    ("suite.orientation_trials", "suite", "orientation_trials"),
    ("suite.mass_conservation_trials", "suite", "mass_conservation_trials"),
    ("suite.worked_density_report", "suite", "worked_density_report"),
    ("suite.laplace_trials", "suite", "laplace_trials"),
    ("suite.rn_trials", "suite", "rn_trials"),
    ("suite.isometry_reports", "suite", "isometry_reports"),
    ("suite.decoupling_reports", "suite", "decoupling_reports"),
    ("suite.composition_reports", "suite", "composition_reports"),
    ("suite.support_shift_trials", "suite", "support_shift_trials"),
    ("suite.sampler_reports", "suite", "sampler_reports"),
    ("cli.main", "cli", "main"),
]

# work counters kept by the hooks below: metric name -> unit
COUNTERS = {
    "padic.relation.overlap_ratio": "ratio",
    "measure.pushforward.out_parts": "count",
    "poisson.refine_window.cells": "count",
    "poisson.sample_config.points": "count",
    "poisson.mc_run.draws": "count",
}


def _count_overlap(counts, args, result):
    if result != "disjoint":
        counts["padic.relation.overlap_ratio"] += 1


def _count_out_parts(counts, args, result):
    counts["measure.pushforward.out_parts"] += len(result.density.parts)


def _count_cells(counts, args, result):
    counts["poisson.refine_window.cells"] += len(result)


def _count_points(counts, args, result):
    counts["poisson.sample_config.points"] += len(result.points)


def _count_draws(counts, args, result):
    # mc_run(atoms, eval_counts, n, seed): one Poisson variate per atom per sample
    counts["poisson.mc_run.draws"] += len(args[0]) * args[2]


_HOOKS = {
    "padic.Ball.relation": _count_overlap,
    "measure.pushforward": _count_out_parts,
    "poisson.refine_window": _count_cells,
    "poisson.sample_config": _count_points,
    "poisson.mc_run": _count_draws,
}


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for label, _, _ in TARGETS:
        names += [f"{label}.calls", f"{label}.self_s"]
    return names + list(COUNTERS) + ["trace.overhead"]


class Tracer:
    """Wraps every target on install(); records only while active."""

    def __init__(self):
        self.labels = [label for label, _, _ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.stored = [0] * len(TARGETS)
        self.counts = {name: 0 for name in COUNTERS}
        self.spans = []
        self.active = False
        self._stack = []
        self._next_id = 1
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        for idx, (label, module, path) in enumerate(TARGETS):
            mod = sys.modules[f"{PACKAGE}.{module}"]
            owner_name, _, attr = path.rpartition(".")
            hook = _HOOKS.get(label)
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(idx, raw.__func__, hook))
                else:
                    new = self._wrap(idx, raw, hook)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(idx, original, hook)
            for name, loaded in list(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._undo.append((loaded, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, idx, fn, hook):
        perf = time.perf_counter
        stack = self._stack
        calls, self_s, stored = self.calls, self.self_s, self.stored
        spans, counts = self.spans, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                self_s[idx] += duration - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += duration
                if stored[idx] < SPANS_PER_NAME:
                    stored[idx] += 1
                    spans.append((sid, parent, idx, t0, t1))
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        """Run result checks without spans, inside or outside a recording."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- results ------------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        out = {}
        for idx, label in enumerate(self.labels):
            out[f"{label}.calls"] = {"value": self.calls[idx], "unit": "count"}
            out[f"{label}.self_s"] = {"value": self.self_s[idx], "unit": "s"}
        relation_calls = self.calls[self.labels.index("padic.Ball.relation")]
        for name, unit in COUNTERS.items():
            value = self.counts[name]
            if name == "padic.relation.overlap_ratio":
                value = value / relation_calls if relation_calls else 0.0
            out[name] = {"value": value, "unit": unit}
        out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        return out

    def write(self, path: str, header: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "header": header,
            "names": self.labels,
            "spans_per_name_cap": SPANS_PER_NAME,
            "calls": dict(zip(self.labels, self.calls)),
            "self_s": dict(zip(self.labels, self.self_s)),
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class NullTracer:
    """Stand-in for untraced runs: checks pause nothing."""

    active = False

    @contextmanager
    def paused(self):
        yield
