#!/usr/bin/env python3
"""Record the golden report digest and time of every benchmark operation.

    python3 perfbench/make_golden.py    # rewrite perfbench/golden.json

Run it at the commit whose outputs are the reference; a later commit that
must keep every report byte-identical (apart from ``elapsed_s``) is checked
against the recorded digests by every benchmark run.  The recorded times
only order each query kind for stratified sampling (see ``workloads``).
"""

from __future__ import annotations

import json
import sys

import workloads
from run import run_worker


def main() -> int:
    # a worker per sweep or frontier report, and one per query kind
    kinds = {kind for kind, _ in workloads.QUERY_MIX}
    groups: dict = {}
    for i, o in enumerate(workloads.all_ops()):
        groups.setdefault(o["name"] if o["name"] in kinds else i, []).append(o)
    golden = {}
    for group in groups.values():
        rec = run_worker(group)
        for o, r in zip(group, rec["ops"]):
            if "error" in r:
                print(f"operation failed: {workloads.op_key(o)}: {r['error']}",
                      file=sys.stderr)
                return 1
            golden[workloads.op_key(o)] = {"digest": r["digest"],
                                           "cost_s": round(r["elapsed_s"], 6)}
        print(f"{group[0]['name']}: {len(group)} operations, "
              f"{sum(r['elapsed_s'] for r in rec['ops']):.1f} s", file=sys.stderr)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True)
                                + "\n")
    print(f"wrote {len(golden)} digests to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
