"""Span tracer that wraps the public vmvp names from outside the package.

Each wrapped function or method records one span (name, parent span, start,
end) per call in memory; counters attached to a span name are updated at the
same boundary, from the call's arguments and result.  Nothing is written
until the caller summarises the trace at the end of the run.

A function is wrapped at every place a vmvp module looks it up: a name
imported with ``from .x import f`` is rebound in the importing module too,
so calls between modules go through the wrapper.  ``patched`` restores
every binding on exit.  A few private helpers of ``multifluid`` are wrapped
too, to split ``ck_iterate``; one that a later version no longer has is
skipped, and its metric reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from vmvp import config, fields, harness, lagrangian, multifluid, spectral, transport

_NAME, _PARENT, _T0, _T1 = range(4)


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][_NAME] if self.stack else None

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid][_T0] = t0
                spans[sid][_T1] = t1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper


# ----------------------------------------------------------------------
# counters: exact counts computed from arguments and results
# ----------------------------------------------------------------------

def _count_evaluate_at(tr, args, kwargs, result):
    field, points = args[0], np.atleast_2d(args[1])
    n = points.shape[0]
    tr.counters["spectral.evaluate_at.points"] += n
    tr.counters["spectral.evaluate_at.macs"] += n * (2 * field.cutoff + 1) ** field.dim * field.components
    if tr.parent_name() == "transport.rejection":
        tr.counters["transport.rejection.proposed"] += n


def _count_to_grid(tr, args, kwargs, result):
    tr.counters["spectral.fft.points"] += result.size


def _count_from_grid(tr, args, kwargs, result):
    tr.counters["spectral.fft.points"] += np.asarray(args[1]).size


def _count_cost_matrix(tr, args, kwargs, result):
    tr.counters["transport.cost_matrix_sq.entries"] += result.size


def _count_assignment(tr, args, kwargs, result):
    rows, cols = result
    tr.counters["transport.assignment.n"] += rows.size
    tr.counters["transport.assignment.identity"] += int((rows == cols).sum())


def _count_rejection(tr, args, kwargs, result):
    tr.counters["transport.rejection.accepted"] += result.shape[0]


def _count_save_cloud(tr, args, kwargs, result):
    tr.counters["lagrangian.save_cloud.bytes"] += os.path.getsize(args[1])


def _count_emit(tr, args, kwargs, result):
    # emit_run and emit_sweep write only plain files at the top of out_dir
    out = Path(args[1])
    tr.counters["harness.emit.bytes"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# (span name, module or class, attribute, counter hook); attributes starting
# with "_" are private helpers and may be missing
_FUNCTIONS = (
    ("harness.run_sweep", harness, "run_sweep", None),
    ("harness.run_pair", harness, "run_pair", None),
    ("harness.osgood_diagnostic", harness, "osgood_diagnostic", None),
    ("harness.emit", harness, "emit_run", _count_emit),
    ("harness.emit", harness, "emit_sweep", _count_emit),
    ("config.build", config, "build_ensemble", None),
    ("config.build", config, "build_em_state", None),
    ("multifluid.vm_step_full", multifluid, "vm_step_full", None),
    ("multifluid.vp_step_full", multifluid, "vp_step_full", None),
    ("multifluid.moments", multifluid, "moments", None),
    ("multifluid.total_energy", multifluid, "total_energy", None),
    ("multifluid.ck_iterate", multifluid, "ck_iterate", None),
    ("multifluid.velocity_grid", multifluid, "_velocity_grid", None),
    ("multifluid.duhamel_series", multifluid, "_duhamel_series", None),
    ("multifluid.cumint", multifluid, "_cumint", None),
    ("fields", fields, "assemble_b", None),
    ("fields", fields, "gauge_residuals", None),
    ("fields", fields, "field_energy", None),
    ("fields", fields, "mean_momentum_ledger", None),
    ("lagrangian.flow_vm_step", lagrangian, "flow_vm_step", None),
    ("lagrangian.flow_vp_step", lagrangian, "flow_vp_step", None),
    ("lagrangian.sample_cloud", lagrangian, "sample_cloud", None),
    ("lagrangian.save_cloud", lagrangian, "save_cloud", _count_save_cloud),
    ("transport.loeper_check", transport, "loeper_check", None),
    ("transport.w2_exact", transport, "w2_exact", None),
    ("transport.cost_matrix_sq", transport, "cost_matrix_sq", _count_cost_matrix),
    ("transport.assignment", transport, "linear_sum_assignment", _count_assignment),
    ("transport.rejection", transport, "rejection_sample_positions", _count_rejection),
    ("spectral.solve_poisson", spectral, "solve_poisson", None),
    ("spectral.leray_project", spectral, "leray_project", None),
    ("spectral.shrinking_norm", spectral, "shrinking_norm", None),
)

_METHODS = (
    ("spectral.to_grid", "to_grid", _count_to_grid),
    ("spectral.from_grid", "from_grid", _count_from_grid),
    ("spectral.evaluate_at", "evaluate_at", _count_evaluate_at),
)


def _vmvp_modules():
    return [m for n, m in list(sys.modules.items()) if n == "vmvp" or n.startswith("vmvp.")]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every traced vmvp name through the tracer for the duration."""
    undo = []
    try:
        for name, owner, attr, count in _FUNCTIONS:
            original = getattr(owner, attr, None) if attr.startswith("_") else getattr(owner, attr)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original, count)
            for mod in _vmvp_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        undo.append((mod, key, val))
                        setattr(mod, key, wrapper)
        cls = spectral.SpectralField
        for name, attr, count in _METHODS:
            raw = cls.__dict__[attr]
            undo.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw, count))
        yield tracer
    finally:
        for owner, key, val in reversed(undo):
            setattr(owner, key, val)


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------

# Per-layer metric names are those of BENCHMARK.json.  "X.s" is the time of a
# span with no traced children and "X.self_s" a span's time minus its traced
# children; both, with trace.unattributed_s, sum to the traced wall time.
# "X.calls" counts a span's calls; the other names are computed below.

def summarize(tracer: Tracer, traced_wall: float, untraced_wall: float, names) -> dict:
    """The values of the per-layer metrics ``names`` from a finished trace."""
    spans = tracer.spans
    dur = np.array([s[_T1] - s[_T0] for s in spans]) if spans else np.zeros(0)
    parent = np.array([s[_PARENT] for s in spans], dtype=int)
    self_t = dur.copy()
    nested = parent >= 0
    np.subtract.at(self_t, parent[nested], dur[nested])

    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for i, s in enumerate(spans):
        calls[s[_NAME]] += 1
        self_s[s[_NAME]] += self_t[i]
        durations[s[_NAME]].append(dur[i])
    unattributed = traced_wall - float(dur[~nested].sum())
    # the outermost spans are the workload's entry calls (run_sweep,
    # loeper_check, ck_iterate); their self time is work no layer span splits
    entry_self = float(self_t[~nested].sum())
    c = tracer.counters

    def pct(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    computed = {
        "spectral.evaluate_at.macs": c["spectral.evaluate_at.macs"],
        "spectral.fft.points": c["spectral.fft.points"],
        "multifluid.vm_step_full.ms_p50": pct("multifluid.vm_step_full", 50),
        "multifluid.vm_step_full.ms_p90": pct("multifluid.vm_step_full", 90),
        "lagrangian.save_cloud.bytes": c["lagrangian.save_cloud.bytes"],
        "transport.cost_matrix_sq.entries": c["transport.cost_matrix_sq.entries"],
        "transport.assignment.n": c["transport.assignment.n"],
        "transport.assignment.identity_frac": _ratio(c["transport.assignment.identity"], c["transport.assignment.n"]),
        "transport.rejection.acceptance": _ratio(c["transport.rejection.accepted"], c["transport.rejection.proposed"]),
        "harness.emit.bytes": c["harness.emit.bytes"],
        "harness.self_s": self_s.get("harness.run_sweep", 0.0) + self_s.get("harness.run_pair", 0.0),
        "trace.overhead": traced_wall / untraced_wall - 1.0,
        "trace.coverage": 1.0 - (entry_self + unattributed) / traced_wall,
        "trace.unattributed_s": unattributed,
        "trace.wall_s": traced_wall,
    }
    out = {}
    for metric in names:
        span, _, kind = metric.rpartition(".")
        if metric in computed:
            out[metric] = computed[metric]
        elif kind in ("s", "self_s"):
            out[metric] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(span, 0)
        else:
            raise KeyError(f"no rule computes the per-layer metric {metric!r}")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
