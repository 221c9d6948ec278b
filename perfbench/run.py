"""Twin-verdict benchmark for vptwin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a workload the way a user does, `vptwin twin <cfg> --out D` then
`vptwin certify D/records.csv`, on a config generated from the workload
definition (workloads.py) and the seed. Every verdict runs in a fresh
process (child.py), one process at a time, with every threading library
pinned to one thread. Verdicts are started until S seconds have passed,
and at least two are run.

--trace 0 reports the end-to-end metrics: verdict_s, setup_s,
peak_rss_mb and pass_frac. --trace 1 alternates untraced and traced
verdicts (at least one untraced and two traced) and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

Each verdict passes the correctness gate or counts as failed (see
check_verdict). The last line of stdout is the result JSON; the line
before it holds the machine facts and every sample. Run it from the root
of a vptwin source tree; it needs src/vptwin and exits with code 2
without a result when that is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import is_exact  # noqa: E402

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
MIN_VERDICTS = 2
SETUP_ONLY_SAMPLES = 2  # fresh set-up processes besides one per verdict
DEADLINE_S = 170.0  # the whole run must end within 180 s
VERDICT_NAMES = ("lemma_w2", "remark_phase", "prop31", "gronwall", "osgood")
OT_COLUMNS = ("W2_rho", "W2_phase", "Q_sub", "S_sub", "field_l2_diff", "prop31_rhs")
REFERENCE_COLUMNS = ("W2_rho", "W2_phase", "field_l2_diff")
# the reference series are compared with a relative tolerance, not by hash:
# FFT-derived columns drift by an ulp across platforms; the absolute floor
# covers the exact zeros at step 0
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12


class Runner:
    """Starts the fresh child processes of one benchmark run."""

    def __init__(self, workdir, config_path, deadline):
        self.workdir = workdir
        self.config_path = config_path
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREAD_ENV)
        self.count = 0
        self.longest = 0.0  # the longest child so far, to keep to the deadline

    def spawn(self, mode, traced=False):
        """Run one child; return (set-up seconds, result dict or None, outdir)."""
        self.count += 1
        outdir = os.path.join(self.workdir, f"{self.count:03d}-{mode}")
        os.makedirs(outdir)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
               self.config_path, outdir] + (["--trace"] if traced else [])
        t0 = time.perf_counter()
        with open(os.path.join(outdir, "child.err"), "w") as err, subprocess.Popen(
                cmd, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True) as proc:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            try:
                proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                err.write("killed at the run's deadline\n")
        self.longest = max(self.longest, time.perf_counter() - t0)
        if ready.strip() != "ready":
            return None, None, outdir
        result_path = os.path.join(outdir, "result.json")
        if mode != "verdict" or proc.returncode != 0 or not os.path.exists(result_path):
            return setup_s, None, outdir
        with open(result_path) as fh:
            return setup_s, json.load(fh), outdir


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_verdict(workload, seed, outdir, result, reference):
    """Return a list of reasons the verdict is wrong; empty when it passed."""
    if result is None:
        return ["child process failed before printing a result"]
    problems = []
    if result["error"]:
        problems.append(result["error"])
    if result["twin_rc"] != 0 or result["certify_rc"] != 0:
        problems.append(f"exit codes twin={result['twin_rc']} certify={result['certify_rc']}")
        return problems
    summary_path = os.path.join(outdir, "cert", "summary.txt")
    with open(summary_path) as fh:
        summary = fh.read().splitlines()
    for name in VERDICT_NAMES:
        line = next((ln for ln in summary if ln.startswith(name + ":")), "")
        if not line.endswith("-> PASS"):
            problems.append(f"verdict {name} is not PASS: {line!r}")
    rows = read_rows(os.path.join(outdir, "twin", "records.csv"))
    n = workloads.n_steps(workload)
    if [r["step"] for r in rows] != [str(k) for k in range(n + 1)]:
        problems.append(f"records.csv has {len(rows)} rows, expected steps 0..{n}")
        return problems
    for k in workloads.ot_steps(workload):
        empty = [c for c in OT_COLUMNS if rows[k][c] == ""]
        if empty:
            problems.append(f"step {k}: empty OT columns {empty}")
    if reference is None or problems:
        return problems
    ref = reference.get(str(workloads.config_seed(workload, seed)))
    if ref is None:
        return problems + ["no reference series for this config seed"]
    for col, values in reference_series(workload, rows).items():
        if len(values) != len(ref[col]):
            problems.append(f"{col}: {len(values)} values, reference has {len(ref[col])}")
            continue
        for i, (got, want) in enumerate(zip(values, ref[col])):
            if abs(got - want) > REFERENCE_RTOL * abs(want) + REFERENCE_ATOL:
                problems.append(f"{col}[{i}] = {got!r} differs from reference {want!r}")
                break
    return problems


def reference_series(workload, rows):
    """Q at every step; W2_rho, W2_phase and field_l2_diff on the OT steps."""
    series = {"Q": [float(r["Q"]) for r in rows]}
    for col in REFERENCE_COLUMNS:
        series[col] = [float(rows[k][col]) for k in workloads.ot_steps(workload)]
    return series


def records_digest(outdir):
    with open(os.path.join(outdir, "twin", "records.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def machine_facts(workload, seed):
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "cpu_flags": None,
        "thread_env": THREAD_ENV,
        "workload": workload,
        "seed": seed,
        "config_seed": workloads.config_seed(workload, seed),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    facts["cpu_model"] = value.strip()
                elif key == "flags":
                    facts["cpu_flags"] = value.split()
                    break
    except OSError:
        pass
    return facts


def load_reference(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["series"]


def run(workload, seed, seconds, traced):
    """One benchmark run; returns (result line dict, facts and samples dict)."""
    start = time.perf_counter()
    reference = load_reference(workload)
    workdir = os.path.join(ROOT, ".bench_runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        config_path = os.path.join(workdir, "config.txt")
        with open(config_path, "w") as fh:
            fh.write(workloads.config_text(workload, seed))
        runner = Runner(workdir, config_path, start + DEADLINE_S)

        warm, _, outdir = runner.spawn("setup")  # fills bytecode and file caches
        if warm is None:
            with open(os.path.join(outdir, "child.err")) as fh:
                raise RuntimeError("set-up failed:\n" + fh.read())
        setup = []
        if not traced:
            for _ in range(SETUP_ONLY_SAMPLES):
                s, _, _ = runner.spawn("setup")
                if s is not None:
                    setup.append(s)

        verdicts = []  # (traced, result, problems)
        digests = set()
        measure_start = time.perf_counter()
        plan = [False, True, True] if traced else [False] * MIN_VERDICTS
        while plan or time.perf_counter() - measure_start < seconds:
            if verdicts and time.perf_counter() + runner.longest > runner.deadline:
                break
            with_trace = plan.pop(0) if plan else (traced and not verdicts[-1][0])
            s, result, outdir = runner.spawn("verdict", traced=with_trace)
            if s is not None:
                setup.append(s)
            problems = check_verdict(workload, seed, outdir, result, reference)
            if not problems:
                digests.add(records_digest(outdir))
                if len(digests) > 1:
                    problems.append("records.csv differs from an earlier run of this seed")
            for p in problems:
                print(f"verdict {len(verdicts) + 1}: {p}", file=sys.stderr)
            verdicts.append((with_trace, result, problems))
            shutil.rmtree(outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts)
    failed = sum(1 for _, _, p in verdicts if p)
    correct = failed == 0 and attempted > 0
    # times come from the verdicts that passed; if none did, from every
    # verdict that finished, so a failing program still gets a result
    timed = [(t, r) for t, r, p in verdicts if not p] or [
        (t, r) for t, r, _ in verdicts if r is not None]
    if not timed:
        raise RuntimeError("no verdict finished")
    samples = {"setup_s": setup}
    for key in ("verdict_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for _, r in timed]
    samples["traced"] = [t for t, _ in timed]

    if not traced:
        metrics = {
            "verdict_s": (median(samples["verdict_s"]), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB"),
            "pass_frac": ((attempted - failed) / attempted, "fraction"),
        }
    else:
        layers = [r["layers"] for t, r in timed if t]
        plain = [r["verdict_s"] for t, r in timed if not t]
        traced_s = [r["verdict_s"] for t, r in timed if t]
        if not layers or not plain:
            raise RuntimeError("need a finished traced and untraced verdict")
        metrics, moved = layer_summary(layers)
        for name in moved:
            print(f"count {name} differs across traced runs", file=sys.stderr)
            correct = False
        metrics["trace.overhead_s"] = (median(traced_s) - median(plain), "s")
        samples["layers"] = layers

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    facts = machine_facts(workload, seed)
    facts.update(timed[0][1]["versions"])
    return line, {"facts": facts, "samples": samples}


def layer_summary(layers):
    """Medians of the traced verdicts' layer times and their exact counts.

    Returns ({name: (value, unit)}, names of counts that differ between
    the traced verdicts); the counts must repeat exactly.
    """
    metrics, moved = {}, []
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if is_exact(name):
            if len(set(values)) > 1:
                moved.append(name)
            metrics[name] = (values[0], unit_of(name))
        else:
            metrics[name] = (median(values), unit_of(name))
    return metrics, moved


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vptwin", "__init__.py")):
        print(f"no vptwin source tree at {ROOT}/src", file=sys.stderr)
        return 2
    line, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
