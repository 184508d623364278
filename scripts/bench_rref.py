#!/usr/bin/env python3
"""Time the odd-p elimination kernel on the F_3 slice evaluation matrices.

    PYTHONPATH=src python3 scripts/bench_rref.py [--repeat R]

The set is every slice-k evaluation matrix with n in [12, 14], k in
[1, n - 1] and degree d <= 3 (144 matrices), each reduced the way
``RankOracle.from_array`` reduces it.  Prints one JSON line: the best total
kernel time over R repeats and a SHA-256 digest of every output (reduced
array, rank, pivot columns), so two checkouts can be compared for speed and
for identical results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import numpy as np

from slicedeg.closure import EvaluationMatrix
from slicedeg.cube import slice_masks
from slicedeg.linalg import PrimeField, _rref_array


def matrices(field):
    for n in range(12, 15):
        for k in range(1, n):
            for d in range(4):
                ev = EvaluationMatrix(field, n, d, slice_masks(n, k))
                yield ev.bool_matrix().astype(np.int64)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    field = PrimeField(3)
    blocks = list(matrices(field))
    best = float("inf")
    for _ in range(args.repeat):
        digest = hashlib.sha256()
        total = 0.0
        for m in blocks:
            a = m.copy()
            t0 = time.perf_counter()
            rank, pivots = _rref_array(a, field.p)
            total += time.perf_counter() - t0
            digest.update(a.tobytes())
            digest.update(repr((rank, pivots)).encode())
        best = min(best, total)
    print(json.dumps({"matrices": len(blocks), "repeat": args.repeat,
                      "best_kernel_s": round(best, 3),
                      "digest": digest.hexdigest()}))


if __name__ == "__main__":
    main()
