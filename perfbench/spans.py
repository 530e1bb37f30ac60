"""Per-layer spans recorded from outside spillsim.

``traced()`` installs wrappers around the public functions that ``cli`` and
``harness`` call into, each under the name of the module that owns the
layer, and removes them on exit. Every wrapper records a span (name, start,
end, parent) in memory and may add counters at the same boundary. After a
call, ``Tracer.call_metrics`` turns the spans into per-layer self times: a
span's duration minus the part of it that its child spans cover.

A wrapped name that no longer exists where the callers look it up raises
``SpanError`` at install time, and ``check_fired`` raises when a span a
workload relies on did not fire, so a refactor cannot silently zero a layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics: name -> (unit, how the value is obtained). "measured"
# values come from clocks or the file system; "computed" ones are derived from
# array shapes and sizes and ignore caches.
METRICS = {
    "weights.build_s": ("s", "measured"),
    "weights.builds": ("count", "measured"),
    "weights.build_bytes": ("bytes", "computed"),
    "weights.useful_build_ratio": ("ratio", "measured"),
    "weights.apply_s": ("s", "measured"),
    "weights.apply_calls": ("count", "measured"),
    "weights.apply_bytes": ("bytes", "computed"),
    "dynamics.evolve_s": ("s", "measured"),
    "dynamics.unit_rounds": ("count", "computed"),
    "estimators.fit_s": ("s", "measured"),
    "estimators.fits": ("count", "measured"),
    "estimators.fit_rows": ("count", "computed"),
    "estimators.propagate_s": ("s", "measured"),
    "estimators.classical_s": ("s", "measured"),
    "estimators.missing": ("count", "measured"),
    "design.assign_s": ("s", "measured"),
    "design.assign_calls": ("count", "measured"),
    "harness.run_once_self_s": ("s", "measured"),
    "harness.aggregate_s": ("s", "measured"),
    "harness.replications": ("count", "measured"),
    "panel.write_s": ("s", "measured"),
    "panel.read_s": ("s", "measured"),
    "panel.cells_written": ("count", "computed"),
    "panel.cells_read": ("count", "computed"),
    "panel.bytes_written": ("bytes", "measured"),
    "config.parse_s": ("s", "measured"),
    "cli.self_s": ("s", "measured"),
    "trace.call_s": ("s", "measured"),
    "trace.unattributed_s": ("s", "measured"),
    "trace.overhead_pct": ("%", "measured"),
}

# Span name -> self-time metric. These self times plus trace.unattributed_s
# make up the traced call's wall time.
SELF_TIME = {
    "weights.build": "weights.build_s",
    "weights.apply": "weights.apply_s",
    "dynamics.evolve": "dynamics.evolve_s",
    "estimators.fit": "estimators.fit_s",
    "estimators.propagate": "estimators.propagate_s",
    "estimators.classical": "estimators.classical_s",
    "design.assign": "design.assign_s",
    "harness.run_once": "harness.run_once_self_s",
    "harness.aggregate": "harness.aggregate_s",
    "panel.write": "panel.write_s",
    "panel.read": "panel.read_s",
    "config.parse": "config.parse_s",
    "cli": "cli.self_s",
}

# Span name -> metric that counts how often it fired.
CALL_COUNT = {
    "weights.build": "weights.builds",
    "weights.apply": "weights.apply_calls",
    "estimators.fit": "estimators.fits",
    "design.assign": "design.assign_calls",
    "harness.run_once": "harness.replications",
}


class SpanError(RuntimeError):
    """A wrapped name is missing or an expected span did not fire."""


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays a weight set holds as dataclass fields."""
    if not dataclasses.is_dataclass(obj):
        return 0
    total = 0
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


class Tracer:
    """In-memory spans and counters for one call at a time."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.descriptors: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(bound_args, result)`` runs
        after the span closes, so its cost lands in the parent's self time."""
        sig = inspect.signature(fn) if count is not None else None

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}

    def call_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the call traced since the last reset."""
        if self.stack or any(s[2] is None for s in self.spans):
            raise SpanError("a span was left open")
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out = {m: 0.0 for m in METRICS}
        root = 0.0
        for i, s in enumerate(self.spans):
            self_s = dur[i] - child[i]
            if self_s < -1e-9:
                raise SpanError(f"span {s[0]} has negative self time {self_s}")
            out[SELF_TIME[s[0]]] += self_s
            if s[0] in CALL_COUNT:
                out[CALL_COUNT[s[0]]] += 1
            if s[3] < 0:
                root += dur[i]
        out.update(self.counts)
        builds = out["weights.builds"]
        out["weights.useful_build_ratio"] = len(self.descriptors) / builds if builds else 0.0
        out["trace.call_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - root
        attributed = sum(out[m] for m in SELF_TIME.values()) + out["trace.unattributed_s"]
        if abs(attributed - wall_s) > 1e-6 * max(1.0, wall_s):
            raise SpanError(f"self times sum to {attributed} s, traced wall time is {wall_s} s")
        return out

    def check_fired(self, expected) -> None:
        missing = sorted(set(expected) - self.fired())
        if missing:
            raise SpanError(f"expected span(s) did not fire: {', '.join(missing)}")

    # --- counters at the layer boundaries ---------------------------------

    def _on_build(self, a, ws) -> None:
        self.counts["weights.build_bytes"] += held_bytes(ws)
        self.descriptors.add(json.dumps(ws.to_descriptor(), sort_keys=True))

    def _on_apply(self, a, out) -> None:
        gv = np.asarray(a["gv"])
        self.counts["weights.apply_bytes"] += held_bytes(a["self"]) + gv.nbytes + np.asarray(out).nbytes

    def _on_evolve(self, a, result) -> None:
        scenarios = a["scenarios"] if "scenarios" in a else [a["w"]]
        for w in scenarios:
            self.counts["dynamics.unit_rounds"] += w.n_units * w.n_rounds

    def _on_fit(self, a, coeffs) -> None:
        self.counts["estimators.fit_rows"] += coeffs.n_rows

    def _on_write(self, a, result) -> None:
        values = a["panel"].values if "panel" in a else np.asarray(a["matrix"])
        self.counts["panel.cells_written"] += values.size
        self.counts["panel.bytes_written"] += os.path.getsize(a["path"])

    def _on_read(self, a, panel) -> None:
        self.counts["panel.cells_read"] += panel.values.size


def _targets(tracer: Tracer):
    """(owner, attribute, span name, counter) for every wrapped function, at
    the place its callers look it up."""
    from spillsim import cli, design, estimators, harness, weights

    t = tracer
    out = [
        (cli, "parse_config", "config.parse", None),
        (harness.WeightConfig, "build", "weights.build", t._on_build),
        (design, "assign", "design.assign", None),
        (harness, "counterfactual_suite", "dynamics.evolve", t._on_evolve),
        (cli, "simulate_panel", "dynamics.evolve", t._on_evolve),
        (harness, "run_once", "harness.run_once", None),
        (harness, "replicate", "harness.aggregate", None),
        (cli, "replicate", "harness.aggregate", None),
        (harness, "failure_sweep", "harness.aggregate", None),
        (cli, "failure_sweep", "harness.aggregate", None),
        (cli, "write_outcome_csv", "panel.write", t._on_write),
        (cli, "write_treatment_csv", "panel.write", t._on_write),
        (cli, "write_matrix_csv", "panel.write", t._on_write),
        (cli, "read_outcome_csv", "panel.read", t._on_read),
        (cli, "read_treatment_csv", "panel.read", t._on_read),
    ]
    # cli.estimate imports these from spillsim.estimators at call time.
    for owner in (harness, estimators):
        out += [
            (owner, "fit_ese", "estimators.fit", t._on_fit),
            (owner, "propagate", "estimators.propagate", None),
            (owner, "dm_estimate", "estimators.classical", None),
            (owner, "ht_estimate", "estimators.classical", None),
        ]
    appliers = [c for c in weights.WeightSet.__subclasses__() if "apply" in vars(c)]
    if not appliers:
        raise SpanError("no WeightSet subclass defines apply")
    out += [(c, "apply", "weights.apply", t._on_apply) for c in appliers]
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets(tracer):
            if attr not in vars(owner):
                raise SpanError(f"span {name}: {getattr(owner, '__name__', owner)}.{attr} does not exist")
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
