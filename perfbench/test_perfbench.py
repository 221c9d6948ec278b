"""Tests of the twin-verdict benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

They run real (traced) verdicts, about two minutes in all, so they are
kept out of the package's own test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3

# layer metric -> workloads where it must be nonzero (work expected) and
# where it must be zero (the layer is bypassed); see README.md
ACTIVE = {
    "fields.solve_field_grid.calls": ("blob-grid", "stream-ot", "merger-direct"),
    "fields.solve_field_grid.fft_cells": ("blob-grid", "stream-ot", "merger-direct"),
    "fields.solve_field_grid.diag_calls": ("blob-grid", "stream-ot", "merger-direct"),
    "fields.solve_field_grid.step_calls": ("blob-grid",),
    "fields.deposit_cic.calls": ("blob-grid", "stream-ot", "merger-direct"),
    "fields.interpolate.calls": ("blob-grid", "merger-direct"),
    "certify.compute_T1_T2.calls": ("blob-grid", "merger-direct"),
    "certify.compute_T1_T2.field_evals": ("blob-grid", "merger-direct"),
    "fields.solve_field_direct.calls": ("merger-direct",),
    "fields.solve_field_direct.pairs": ("merger-direct",),
    "fields.loglip_modulus.calls": ("blob-grid", "stream-ot", "merger-direct"),
    "fields.loglip_modulus.useful_frac": ("blob-grid", "merger-direct"),
    "transport.w2_exact.calls": ("blob-grid", "stream-ot", "merger-direct"),
    "transport.w2_exact.cost_entries": ("blob-grid", "stream-ot", "merger-direct"),
    "transport.w2_exact.lp_calls": (),
    "dynamics.step_leapfrog.calls": ("blob-grid", "stream-ot", "merger-direct"),
    "dynamics.cell_velocity_dispersion.calls": ("blob-grid", "stream-ot", "merger-direct"),
    "certify.certify_records.busy_s": ("blob-grid", "stream-ot", "merger-direct"),
    "harness.io_bytes": ("blob-grid", "stream-ot", "merger-direct"),
}


def _bench(*args, cwd=None):
    cmd = [sys.executable, os.path.join(cwd or run.ROOT, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd or run.ROOT, capture_output=True, text=True,
                          timeout=180)


@pytest.fixture(scope="module")
def traced():
    """One traced benchmark run per workload, shared by the tests below."""
    out = {}
    for name in workloads.WORKLOADS:
        proc = _bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[name] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrappers_reach_every_layer(traced, workload):
    details, result = traced[workload]
    assert result["correct"] and result["failed"] == 0, details
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, active in ACTIVE.items():
        if workload in active:
            assert values[name] > 0, f"{name} is zero on {workload}"
        else:
            assert values[name] == 0, f"{name} is {values[name]} on {workload}"


def test_traced_metrics_match_benchmark_json(traced):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    for _, result in traced.values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(traced, workload):
    details, result = traced[workload]
    layers = details["samples"]["layers"]
    assert len(layers) >= 2
    for name in layers[0]:
        if run.is_exact(name):
            assert len({lay[name] for lay in layers}) == 1, name


def test_layer_summary_flags_a_count_that_moved():
    a = {"fields.solve_field_grid.calls": 224, "fields.solve_field_grid.busy_s": 5.0}
    b = {"fields.solve_field_grid.calls": 223, "fields.solve_field_grid.busy_s": 6.0}
    metrics, moved = run.layer_summary([a, dict(a, **{"fields.solve_field_grid.busy_s": 7.0})])
    assert moved == [] and metrics["fields.solve_field_grid.busy_s"][0] == 6.0
    _, moved = run.layer_summary([a, b])
    assert moved == ["fields.solve_field_grid.calls"]


def test_gate_rejects_each_kind_of_wrong_output(tmp_path):
    workload = "merger-direct"
    config_path = tmp_path / "config.txt"
    config_path.write_text(workloads.config_text(workload, SEED))
    runner = run.Runner(str(tmp_path), str(config_path), time.perf_counter() + 170)
    _, result, outdir = runner.spawn("verdict")
    reference = run.load_reference(workload)
    assert run.check_verdict(workload, SEED, outdir, result, reference) == []

    records = os.path.join(outdir, "twin", "records.csv")
    summary = os.path.join(outdir, "cert", "summary.txt")
    good_records = open(records).read()
    good_summary = open(summary).read()
    lines = good_records.splitlines(keepends=True)

    def rejected(records_text=good_records, summary_text=good_summary, res=result):
        with open(records, "w") as fh:
            fh.write(records_text)
        with open(summary, "w") as fh:
            fh.write(summary_text)
        return run.check_verdict(workload, SEED, outdir, res, reference) != []

    assert not rejected()
    assert rejected(records_text="".join(lines[:-1]))  # a row missing
    cells = lines[11].split(",")  # step 10, an OT step
    cells[10] = ""  # W2_rho
    assert rejected(records_text="".join(lines[:11] + [",".join(cells)] + lines[12:]))
    cells = lines[51].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-5))  # Q off by 1e-5 relative
    assert rejected(records_text="".join(lines[:51] + [",".join(cells)] + lines[52:]))
    failed_prop31 = [
        ln.replace("-> PASS", "-> FAIL") if ln.startswith("prop31:") else ln
        for ln in good_summary.splitlines(keepends=True)
    ]
    assert rejected(summary_text="".join(failed_prop31))
    assert rejected(res=dict(result, twin_rc=3))
    assert rejected(res=None)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "blob-grid", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
