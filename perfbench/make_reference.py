"""Write the reference series the benchmark's correctness gate compares with.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (all by default) and each of its REFERENCE_SEEDS config
seeds, runs one untraced verdict, requires it to pass every other check of
the gate, and stores its Q, W2_rho, W2_phase and field_l2_diff series in
perfbench/reference/<workload>.json. Regenerate only after a change that
is meant to move these numbers, and say why in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main(names):
    for workload in names or sorted(workloads.WORKLOADS):
        series = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            workdir = os.path.join(run.ROOT, ".bench_runs", f"reference-{workload}-{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            try:
                config_path = os.path.join(workdir, "config.txt")
                with open(config_path, "w") as fh:
                    fh.write(workloads.config_text(workload, seed))
                runner = run.Runner(workdir, config_path, time.perf_counter() + 600)
                _, result, outdir = runner.spawn("verdict")
                problems = run.check_verdict(workload, seed, outdir, result, None)
                if problems:
                    raise SystemExit(f"{workload} seed {seed}: {problems}")
                rows = run.read_rows(os.path.join(outdir, "twin", "records.csv"))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            series[str(workloads.config_seed(workload, seed))] = run.reference_series(
                workload, rows)
            print(f"{workload} seed {seed}: {result['verdict_s']:.2f} s", flush=True)
        path = os.path.join(run.HERE, "reference", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": workload, "series": series}, fh, indent=0)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
