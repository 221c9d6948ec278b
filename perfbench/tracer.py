"""Span tracer for the traced benchmark run.

Wraps the public functions of each vptwin module where their callers look
them up (nothing under src/ is changed), records one span per call with
its parent span, and turns the spans into the per-layer metrics named in
BENCHMARK.json. Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from statistics import median_low, quantiles

IO_SPANS = ("harness.write_records", "harness.write_manifest", "transport.save_cloud")


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index, count]
        self.spans = []
        self._stack = []
        self._installed = []

    def wrap(self, owner, attr, name, count=None, io_path=None):
        """Replace owner.attr by a spanning wrapper.

        count(args, kwargs, result) gives the work the call did, computed
        from argument shapes; io_path(args, result) names a file the call
        wrote, whose size is the count. A missing attribute raises, so a
        rename fails the benchmark instead of silently zeroing a layer.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), 0.0, parent, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = -1  # marks a call that raised
                raise
            else:
                if count is not None:
                    span[4] = count(args, kwargs, result)
                elif io_path is not None:
                    span[4] = os.path.getsize(io_path(args, result))
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()


def _fft_cells(args, kwargs, result):
    # 1 forward + 3 inverse transforms on the domain-doubled (2n)^3 grid
    nx, ny, nz = result.spec.dims
    return 4 * (2 * nx) * (2 * ny) * (2 * nz)


def install(tracer: Tracer):
    """Wrap every layer boundary the twin and certify commands cross."""
    from vptwin import certify, dynamics, fields, harness, transport

    t = tracer
    # fields: harness and dynamics call fields.<name>; dynamics and certify
    # also bind some names with `from .fields import`, so wrap those too
    for owner in (fields, certify):
        t.wrap(owner, "solve_field_grid", "fields.solve_field_grid", count=_fft_cells)
    for owner in (fields, dynamics):
        t.wrap(owner, "deposit_cic", "fields.deposit_cic")
    t.wrap(fields.GridField, "interpolate", "fields.interpolate",
           count=lambda a, k, r: len(r))
    # one result row per target; the sources are the first argument
    t.wrap(fields, "solve_field_direct", "fields.solve_field_direct",
           count=lambda a, k, r: len(r) * len(a[0]))
    t.wrap(fields, "loglip_modulus", "fields.loglip_modulus")
    # transport: harness calls transport.w2_exact, which calls _lp_plan
    # for non-uniform weights
    t.wrap(transport, "w2_exact", "transport.w2_exact",
           count=lambda a, k, r: a[0].n * a[1].n)
    t.wrap(transport, "_lp_plan", "transport.lp_plan")
    # dynamics: the run_twin span keeps the step loop out of harness.self_s;
    # run_twin and CrossingDetector look the next two up as module globals
    t.wrap(dynamics, "run_twin", "dynamics.run_twin")
    t.wrap(dynamics, "step_leapfrog", "dynamics.step_leapfrog")
    t.wrap(dynamics, "cell_velocity_dispersion", "dynamics.cell_velocity_dispersion")
    # the evaluators' accel calls inside compute_T1_T2 give field_evals
    for cls in (dynamics.GridFieldEvaluator, dynamics.DirectSumEvaluator,
                dynamics.ZeroFieldEvaluator):
        t.wrap(cls, "accel", "dynamics.accel")
    # certify: harness calls certify.<name>
    t.wrap(certify, "compute_T1_T2", "certify.compute_T1_T2")
    t.wrap(certify, "certify_records", "certify.certify_records")
    # harness: cli calls harness.emit_*; emit_twin calls the rest as globals
    t.wrap(harness, "emit_twin", "harness.emit_twin")
    t.wrap(harness, "emit_certification", "harness.emit_certification")
    t.wrap(harness, "run_twin_config", "harness.run_twin_config")
    t.wrap(harness._TwinObserver, "__call__", "harness.observe")
    t.wrap(harness, "write_records", "harness.write_records",
           io_path=lambda a, r: a[0])
    t.wrap(harness, "write_manifest", "harness.write_manifest",
           io_path=lambda a, r: r)
    t.wrap(transport, "save_cloud", "transport.save_cloud",
           io_path=lambda a, r: a[1])


def layer_metrics(spans, n_steps):
    """Per-layer metrics of one traced verdict (see README.md for meanings)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def busy(name):
        return sum(dur[i] for i in idx(name))

    def total(name):
        return sum(spans[i][4] for i in idx(name))

    def nested_in(name, outer):
        return sum(1 for i in idx(name) if outer in ancestors(i))

    m = {}
    grid = "fields.solve_field_grid"
    m[grid + ".calls"] = calls(grid)
    m[grid + ".busy_s"] = busy(grid)
    m[grid + ".fft_cells"] = total(grid)
    m[grid + ".diag_calls"] = nested_in(grid, "harness.observe")
    m[grid + ".step_calls"] = nested_in(grid, "dynamics.step_leapfrog")

    dep = "fields.deposit_cic"
    m[dep + ".calls"] = calls(dep)
    m[dep + ".busy_s"] = busy(dep)
    m[dep + ".per_step"] = calls(dep) / (n_steps + 1)

    interp = "fields.interpolate"
    m[interp + ".calls"] = calls(interp)
    m[interp + ".busy_s"] = busy(interp)
    m[interp + ".points"] = total(interp)

    t12 = "certify.compute_T1_T2"
    m[t12 + ".calls"] = calls(t12)
    m[t12 + ".busy_s"] = busy(t12)
    m[t12 + ".field_evals"] = nested_in("dynamics.accel", t12) / max(calls(t12), 1)

    direct = "fields.solve_field_direct"
    m[direct + ".calls"] = calls(direct)
    m[direct + ".busy_s"] = busy(direct)
    m[direct + ".pairs"] = total(direct)

    lip = "fields.loglip_modulus"
    m[lip + ".calls"] = calls(lip)
    m[lip + ".busy_s"] = busy(lip)
    useful = sum(1 for i in idx(lip) if spans[i][4] >= 0)
    m[lip + ".useful_frac"] = useful / calls(lip) if calls(lip) else 0.0

    w2 = "transport.w2_exact"
    m[w2 + ".calls"] = calls(w2)
    m[w2 + ".busy_s"] = busy(w2)
    m[w2 + ".cost_entries"] = total(w2)
    m[w2 + ".lp_calls"] = calls("transport.lp_plan")

    step = "dynamics.step_leapfrog"
    step_ms = sorted(1e3 * dur[i] for i in idx(step))
    m[step + ".calls"] = len(step_ms)
    m[step + ".self_s"] = sum(dur[i] - child[i] for i in idx(step))
    if len(step_ms) >= 2:
        pct = quantiles(step_ms, n=100, method="inclusive")
        m[step + ".p50_ms"] = pct[49]
        m[step + ".p95_ms"] = pct[94]
    else:
        m[step + ".p50_ms"] = m[step + ".p95_ms"] = median_low(step_ms or [0.0])

    disp = "dynamics.cell_velocity_dispersion"
    m[disp + ".calls"] = calls(disp)
    m[disp + ".busy_s"] = busy(disp)

    m["certify.certify_records.busy_s"] = busy("certify.certify_records")

    m["harness.self_s"] = sum(
        dur[i] - child[i]
        for i, s in enumerate(spans)
        if s[0].startswith("harness.") and s[0] not in IO_SPANS
    )
    m["harness.io_s"] = sum(busy(name) for name in IO_SPANS)
    m["harness.io_bytes"] = sum(total(name) for name in IO_SPANS)
    return m


# metrics that are counts of work, computed from argument shapes or call
# structure: they must repeat exactly across traced runs of one seed
EXACT_SUFFIXES = (
    ".calls", ".fft_cells", ".diag_calls", ".step_calls", ".per_step",
    ".points", ".field_evals", ".pairs", ".useful_frac", ".cost_entries",
    ".lp_calls", ".io_bytes",
)


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)
