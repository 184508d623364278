"""Command-line surface: one subcommand per registered experiment.

Exit code 0 iff every check of the run passed, 1 if one failed, and 2, as
for a malformed flag, if the run raises ``ValueError`` or ``CapExceeded`` on
a malformed input (the usage and one error line on stderr).  Reports are
written as JSON (default) or CSV tables; identical (experiment, params,
seed) runs produce byte-identical reports apart from the wall-time field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

from .config import DEFAULT_CAPS, CapExceeded
from .experiments import EXPERIMENTS, ExperimentSpec, list_experiments, run


def _add_experiment_parser(sub, d):
    p = sub.add_parser(d.name, help=d.help)
    for key, (typ, default, help_text) in d.params.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                       default=default, help=f"{help_text} (default {default})")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", type=str, default=None, help="report output path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--max-terms", type=int, default=None,
                   help="override the term-materialization cap")
    p.add_argument("--max-slice-points", type=int, default=None,
                   help="override the slice-enumeration cap")


def _report_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "passed", "details"])
    for c in report.checks:
        writer.writerow([c.name, c.passed, c.details])
    for name, rows in report.tables.items():
        if not rows:
            continue
        writer.writerow([])
        headers = list(rows[0].keys())
        writer.writerow([f"table:{name}"] + headers)
        for row in rows:
            writer.writerow([""] + [row.get(h, "") for h in headers])
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slicedeg",
        description="exact slice-distinguisher degree experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list-experiments", help="print the experiment registry")
    for d in sorted(EXPERIMENTS.values(), key=lambda e: e.name):
        _add_experiment_parser(sub, d)
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        print(json.dumps(list_experiments(), indent=2, sort_keys=True))
        return 0

    d = EXPERIMENTS[args.command]
    params = {k: getattr(args, k) for k in d.params}
    overrides = {cap: getattr(args, cap)
                 for cap in ("max_terms", "max_slice_points")
                 if getattr(args, cap) is not None}
    try:
        report = run(ExperimentSpec(name=args.command, params=params,
                                    seed=args.seed),
                     caps=replace(DEFAULT_CAPS, **overrides))
    except (ValueError, CapExceeded) as e:
        parser.error(str(e))
    text = report.to_json() if args.format == "json" else _report_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {args.command}: {c.name}  {c.details}",
              file=sys.stderr)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
