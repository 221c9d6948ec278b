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
