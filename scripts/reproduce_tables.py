#!/usr/bin/env python3
"""Reproduce the headline experiment reports into an output directory.

Writes one JSON report per experiment (deterministic for the fixed seeds),
mirroring what the acceptance gate checks.  Each line printed carries the
SHA-256 of the report without its ``elapsed_s`` field, so two runs' outputs
agree line for line apart from the time in parentheses when their reports
are byte-identical apart from ``elapsed_s``.  Usage:

    python scripts/reproduce_tables.py [outdir]
"""

import hashlib
import pathlib
import sys

from slicedeg.experiments import ExperimentSpec, run

RUNS = [
    ("hegedus-sweep", {"p": 2, "n_min": 6, "n_max": 14}, 0),
    ("hegedus-sweep", {"p": 3, "n_min": 6, "n_max": 14}, 0),
    ("extension-sweep", {"p": 2, "n_min": 6, "n_max": 14}, 0),
    ("extension-sweep", {"p": 3, "n_min": 6, "n_max": 14}, 0),
    ("niewang", {"trials": 200, "n_max": 12, "d_max": 4}, 7),
    ("claimA1", {"samples": 5000, "tol": 0.02}, 11),
    ("stringlemma", {"maxlen": 18}, 0),
    ("lemma33", {"n_max": 60}, 0),
    ("claimC", {"n_max": 40}, 0),
    ("construct-sample", {"n": 4096, "k": 2048, "q": 256,
                          "ln_inv_eps": 4.0, "C": 0}, 20240809),
    ("coin-verify", {"p": 2, "delta": "1/8", "eps": "1/100"}, 0),
    ("galvin-verify", {"n": 64, "eps": 0.05}, 3),
    ("robust-frontier", {"n_min": 6, "n_max": 14, "cand_n": 64,
                         "cand_t": 8, "candidates": 10000}, 13),
]


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "reports")
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for i, (name, params, seed) in enumerate(RUNS):
        report = run(ExperimentSpec(name=name, params=params, seed=seed))
        path = outdir / f"{i:02d}_{name}.json"
        path.write_text(report.to_json())
        status = "PASS" if report.all_passed else "FAIL"
        digest = hashlib.sha256(
            report.to_json(include_time=False).encode()).hexdigest()
        print(f"[{status}] {name} -> {path} sha256={digest} "
              f"({report.elapsed_s:.1f}s)")
        worst += 0 if report.all_passed else 1
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
