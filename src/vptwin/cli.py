"""Command-line entry points.

Subcommands: simulate, twin, ot (exact W2 only: an entropic solve has no
optimality certificate), certify, report. Exit codes: 0 = pass, 1 = a
FAIL verdict from certify, 2 = usage/config error or bad input (an
unknown option included), 3 = numerical failure. Every package error
carries its own code and stderr prefix (see errors.py); OSError and
ValueError exit 2. The determinism contract is stated once, in the
README's manifest notes.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, presets, transport
# all four codes stay importable as cli.EXIT_*
from .errors import EXIT_CHECK, EXIT_DIVERGED, EXIT_PASS, EXIT_USAGE, ConfigError, VptwinError


def _load_config(arg):
    if arg.startswith("preset:"):
        try:
            return presets.bundled(arg.split(":", 1)[1])
        except KeyError as err:
            raise ConfigError(str(err)) from err
    return harness.load_config(arg)


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    manifest = harness.emit_simulation(cfg, args.out)
    print(f"wrote {manifest}")
    return EXIT_PASS


def _cmd_twin(args):
    cfg = _load_config(args.config)
    manifest = harness.emit_twin(cfg, args.out)
    print(f"wrote {manifest}")
    return EXIT_PASS


def _cmd_ot(args):
    a = transport.load_cloud(args.cloud_a)
    b = transport.load_cloud(args.cloud_b)
    dist, plan = transport.w2_exact(a, b)
    print(f"{dist:.17g}")
    if args.plan_out:
        transport.save_plan(plan, args.plan_out)
    return EXIT_PASS


def _cmd_certify(args):
    records = harness.read_records(args.records)
    result, cert_path, summary_path = harness.emit_certification(records, args.out)
    for line in result.summary_lines:
        print(line)
    print(f"wrote {cert_path} and {summary_path}")
    return EXIT_PASS if result.passed else EXIT_CHECK


def _cmd_report(args):
    path = harness.emit_report(args.manifest, args.out)
    print(f"wrote {path}")
    return EXIT_PASS


def build_parser():
    p = argparse.ArgumentParser(
        prog="vptwin",
        description="Twin-simulation laboratory for Vlasov-Poisson stability "
        "estimates via optimal transport",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run one flow, dump snapshots and grids")
    ps.add_argument("config", help="config path or preset:<name>")
    ps.add_argument("--out", default="out_simulate")
    ps.set_defaults(fn=_cmd_simulate)

    pt = sub.add_parser("twin", help="run a twin pair, emit the stability CSV")
    pt.add_argument("config", help="config path or preset:<name>")
    pt.add_argument("--out", default="out_twin")
    pt.set_defaults(fn=_cmd_twin)

    po = sub.add_parser("ot", help="exact Wasserstein-2 distance between cloud files")
    po.add_argument("cloud_a")
    po.add_argument("cloud_b")
    po.add_argument("--plan-out")
    po.set_defaults(fn=_cmd_ot)

    pc = sub.add_parser("certify", help="certify a records CSV")
    pc.add_argument("records")
    pc.add_argument("--out", default="out_certify")
    pc.set_defaults(fn=_cmd_certify)

    pr = sub.add_parser("report", help="consolidated report from a manifest")
    pr.add_argument("manifest")
    pr.add_argument("--out", default="out_report")
    pr.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except VptwinError as err:
        print(f"{err.prefix}: {err}", file=sys.stderr)
        return err.exit_code
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
