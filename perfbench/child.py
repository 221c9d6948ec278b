"""One fresh benchmark process: set up, then optionally run one verdict.

    python3 child.py setup   <config> <outdir>
    python3 child.py verdict <config> <outdir> [--trace]

Set-up is importing vptwin (numpy, scipy) and loading and validating the
config; the process writes "ready" to stdout when it is done, and the
parent times that. A verdict then runs `vptwin twin <config> --out
<outdir>/twin` and `vptwin certify <outdir>/twin/records.csv` through the
CLI entry point in this process, and writes <outdir>/result.json with
the exit codes, the verdict's wall and CPU seconds, the peak resident
memory and, with --trace, the span-derived per-layer metrics. Command
output goes to <outdir>/cli.log.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def main(argv):
    mode, config, outdir = argv[:3]
    traced = "--trace" in argv[3:]

    from vptwin import cli, harness

    cfg = harness.load_config(config)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import resource

    import numpy
    import scipy

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    twin_out = os.path.join(outdir, "twin")
    rc_twin = rc_cert = None
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with open(os.path.join(outdir, "cli.log"), "w") as log, \
            redirect_stdout(log), redirect_stderr(log):
        try:
            rc_twin = cli.main(["twin", config, "--out", twin_out])
            if rc_twin == 0:
                rc_cert = cli.main([
                    "certify", os.path.join(twin_out, "records.csv"),
                    "--out", os.path.join(outdir, "cert"),
                ])
        except Exception as err:  # an escape from the CLI's own handlers
            error = f"{type(err).__name__}: {err}"
    verdict_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "twin_rc": rc_twin,
        "certify_rc": rc_cert,
        "error": error,
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans, cfg.n_steps)
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
