#!/usr/bin/env python3
"""Count the eliminations of one pass of each benchmark workload.

    PYTHONPATH=src python3 scripts/count_eliminations.py [--seed S] [W ...]

The pass is the one ``perfbench/workloads.py`` generates for seed S
(default 0) and each workload W (default: all three), and each of its
operation groups runs in its own fresh interpreter, as the benchmark runs
it.  In that interpreter ``RankOracle.extend`` (calls, rows and cells,
the sum of rows x cols) and ``RankOracle.from_rows`` (calls) are counted;
the constructors absorb their block with one ``extend``, so it is counted
too.  ``fallback_rows`` counts the rows extended into an oracle of nonzero
rank: the rank certificate's chunks after its head
(``distinguish._slice_oracle``), so a change of row order shows there.
An exact question is one call of ``distinguish._exact_report`` or, from the
sweeps, of ``distinguish._escape_degree``, the degree-only answer;
``exact_questions`` counts them and ``exact_rungs_read`` the rungs their
ascents (``distinguish._ascent``) read: one for a degree-only answer where
Hegedus's lemma fixes the degree (``distinguish._hegedus_degree``), and
one per rung of a bottom-up climb outside its range or for a witness.
Prints one JSON line per workload.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

from slicedeg import distinguish
from slicedeg.experiments import ExperimentSpec, run
from slicedeg.linalg import RankOracle

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
KEYS = ("extend_calls", "extend_rows", "extend_cells", "fallback_rows",
        "from_rows_calls", "exact_questions", "exact_rungs_read")


def count(ops: list) -> Counter:
    """Run ``ops`` in this interpreter and count its eliminations."""
    counts: Counter = Counter()
    extend, from_rows = RankOracle.extend, RankOracle.from_rows.__func__
    ascent = distinguish._ascent
    depth = [0]  # exact questions in progress: one asks the other

    def counted_extend(self, block):
        counts["extend_calls"] += 1
        counts["extend_rows"] += len(block)
        counts["extend_cells"] += len(block) * self.cols
        if self.rank:
            counts["fallback_rows"] += len(block)
        return extend(self, block)

    def counted_from_rows(cls, field, rows):
        counts["from_rows_calls"] += 1
        return from_rows(cls, field, rows)

    def question(fn):
        def asked(*args, **kwargs):
            counts["exact_questions"] += not depth[0]
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return asked

    def counted_ascent(*args):
        for step in ascent(*args):
            counts["exact_rungs_read"] += depth[0] > 0
            yield step

    RankOracle.extend = counted_extend
    RankOracle.from_rows = classmethod(counted_from_rows)
    distinguish._escape_degree = question(distinguish._escape_degree)
    distinguish._exact_report = question(distinguish._exact_report)
    distinguish._ascent = counted_ascent
    for o in ops:
        run(ExperimentSpec(o["name"], o["params"], o["seed"]))
    return counts


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def count_in_fresh_process(ops: list) -> Counter:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, __file__, "--worker"],
                          input=json.dumps(ops), capture_output=True,
                          text=True, env=env, cwd=ROOT, check=True)
    return Counter(json.loads(proc.stdout))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        counts = count(json.load(sys.stdin))
        print(json.dumps({key: counts[key] for key in KEYS}))
        return 0
    wl = _workloads()
    golden = wl.load_golden()
    for name in args.workloads or wl.WORKLOADS:
        total: Counter = Counter()
        for group in wl.generate(name, args.seed, golden):
            total += count_in_fresh_process(group)
        print(json.dumps({"workload": name, "seed": args.seed,
                          **{key: total[key] for key in KEYS}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
