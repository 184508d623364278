#!/usr/bin/env python3
"""Time the odd-p kernels on the work of the F_3 sweeps.

    PYTHONPATH=src python3 scripts/bench_rref.py [--repeat R]

The set is every block ``RankOracle.from_array`` receives while the two
p = 3 sweep reports run (``hegedus-sweep`` and ``extension-sweep``, n in
[6, 14], each from an empty degree ladder as in its own process): the
rank-certificate heads of ``distinguish._slice_oracle``, 0/1 uint8 blocks.
The sweeps answer slice k > n/2 on slice n - k's ladder
(``distinguish._escape_degree``), so every block is of a slice k <= n/2,
and they request each ladder's top rung, one below its largest expected
degree, first and read the rungs below it as projections, so every block
is a ladder's top: 86 blocks, the largest 123 x 106, 2,857 pivots in all.
Each is reduced the way ``from_array`` reduces it: one ``_rref_array``
call, so the timed region includes the kernel's widening of the block's
dtype to hold p and its first reduction mod p.  The sweeps'
``RankOracle.members`` calls, the membership kernel, are counted and timed
while they run.  Prints one JSON line: the block count, the largest shape,
the best total elimination time over R repeats, the membership calls and
their total time in the one sweep pass, and a SHA-256 digest of every
elimination output (reduced array, rank, pivot columns), so two checkouts
can be compared for speed and for identical results.  The reduced array is
hashed in the block's dtype, RREF rows first and zero rows after them, the
layout of an in-place elimination, which keeps the digest comparable with
earlier versions of the kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import numpy as np

from slicedeg import distinguish
from slicedeg.experiments import ExperimentSpec, run
from slicedeg.linalg import PrimeField, RankOracle, _rref_array

SWEEPS = ("hegedus-sweep", "extension-sweep")


def sweep_blocks() -> tuple[list[np.ndarray], list[float]]:
    """Copies of the blocks ``from_array`` receives in the p = 3 sweeps, and
    the duration of each ``RankOracle.members`` call they make."""
    blocks, member_s = [], []
    build, members = RankOracle.from_array.__func__, RankOracle.members

    def capture(cls, field, a):
        blocks.append(a.copy())
        return build(cls, field, a)

    def timed(self, block):
        t0 = time.perf_counter()
        out = members(self, block)
        member_s.append(time.perf_counter() - t0)
        return out

    RankOracle.from_array, RankOracle.members = classmethod(capture), timed
    try:
        for name in SWEEPS:
            distinguish._ladder.clear()
            run(ExperimentSpec(name, {"p": 3, "n_min": 6, "n_max": 14}))
    finally:
        RankOracle.from_array, RankOracle.members = classmethod(build), members
    return blocks, member_s


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    p = PrimeField(3).p
    blocks, member_s = sweep_blocks()
    best = float("inf")
    for _ in range(args.repeat):
        digest = hashlib.sha256()
        total = 0.0
        for m in blocks:
            t0 = time.perf_counter()
            rows, pivots, _ = _rref_array(m, p)
            total += time.perf_counter() - t0
            a = np.zeros_like(m)
            a[:len(rows)] = rows
            digest.update(a.tobytes())
            digest.update(repr((len(pivots), pivots)).encode())
        best = min(best, total)
    print(json.dumps({"blocks": len(blocks),
                      "dtypes": sorted({str(m.dtype) for m in blocks}),
                      "largest": max((m.shape for m in blocks),
                                     key=lambda s: s[0] * s[1]),
                      "repeat": args.repeat, "best_kernel_s": round(best, 3),
                      "members_calls": len(member_s),
                      "members_s": round(sum(member_s), 3),
                      "digest": digest.hexdigest()}))


if __name__ == "__main__":
    main()
