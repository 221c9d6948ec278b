"""The benchmark's tracer must find every hook point it wraps.

perfbench/tracer.py wraps vptwin functions and methods by attribute name,
and a missing name aborts the benchmark. Installing and uninstalling the
tracer here makes a rename fail in this suite, and checks that uninstall
puts back exactly the objects it replaced.
"""

import importlib.util
import pathlib

from vptwin import certify, dynamics, fields, harness, transport

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    owners = [certify, dynamics, fields, harness, transport, fields.GridField,
              dynamics.GridFieldEvaluator, dynamics.DirectSumEvaluator,
              dynamics.ZeroFieldEvaluator, harness._TwinObserver]
    before = [dict(vars(owner)) for owner in owners]
    try:
        tracing.install(tracer)
        installed = list(tracer._installed)
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert installed
    assert {id(owner) for owner, _, _ in installed} <= {id(o) for o in owners}
    for owner, was in zip(owners, before):
        now = vars(owner)
        changed = [k for k in was.keys() | now.keys() if was.get(k) is not now.get(k)]
        assert not changed, f"{owner.__name__}: not restored {sorted(changed)}"


def test_tracer_reaches_the_twin_loop():
    # harness calls dynamics.run_twin, and run_twin calls step_leapfrog,
    # where the tracer wraps them: every step of both branches is a span
    # under the run_twin span
    tracing = load_tracer()
    tracer = tracing.Tracer()
    cfg = harness.ScenarioConfig(
        n_particles=64,
        grid_dims=8,
        dt=0.05,
        t_final=0.15,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=1,
    ).validate()
    try:
        tracing.install(tracer)
        harness.run_twin_config(cfg)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    metrics = tracing.layer_metrics(spans, cfg.n_steps)
    assert cfg.n_steps == 3
    assert metrics["dynamics.step_leapfrog.calls"] == 2 * cfg.n_steps
    assert metrics["fields.solve_field_grid.diag_calls"] > 0

    def ancestors(span):
        while span[3] >= 0:
            span = spans[span[3]]
            yield span[0]

    steps = [s for s in spans if s[0] == "dynamics.step_leapfrog"]
    assert all("dynamics.run_twin" in ancestors(s) for s in steps)
