#!/usr/bin/env python3
"""Time the two GF(2) eliminations on the F_2 slice evaluation matrices.

    PYTHONPATH=src python3 scripts/bench_gf2.py [--repeat R]

The set is every slice-k evaluation matrix with n in [12, 15], k in
[1, n - 1] and degree d <= 4, each both as the rank-certificate head that
``distinguish._slice_oracle`` builds (the first C(n, min(d, k, n - k)) + 32
rows in ``_row_order``) and as the full slice (500 blocks).  Each block
is reduced from its 0/1 form by the absorb path (``RankOracle.extend`` fed
one row at a time) and by the batch path (``_rref_words`` on
``_pack_words``), and the two must give the same pivot rows.  Prints one
JSON line: the best total kernel time of each path over R repeats, the same
totals per band of row counts (where the batch path starts to win), and a
SHA-256 digest of every block's pivots, so two checkouts can be compared for
speed and for identical results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from math import comb

import numpy as np

from slicedeg.closure import evaluation_bool_matrix
from slicedeg.cube import monomial_array, slice_array
from slicedeg.distinguish import _HEAD_MARGIN, _row_order
from slicedeg.linalg import PrimeField, RankOracle, _pack_words, _rref_words

F2 = PrimeField(2)
BANDS = (0, 100, 200, 300, 400, 600, 1000, 2000, 10**9)


def blocks():
    for n in range(12, 16):
        for k in range(1, n):
            pts = slice_array(n, k)
            pts = pts[_row_order(len(pts))]
            for d in range(5):
                full = evaluation_bool_matrix(monomial_array(n, d), pts)
                yield full[:comb(n, min(d, k, n - k)) + _HEAD_MARGIN]
                yield full


def absorb(block):
    # one row per extend: a larger block into an empty oracle would take
    # the batch path
    o = RankOracle(F2, block.shape[1])
    for i in range(len(block)):
        o.extend(block[i:i + 1])
    return o._impl.pivots


def batch(block):
    return _rref_words(_pack_words(block))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    data = list(blocks())
    band_of = [np.searchsorted(BANDS, len(b), side="right") - 1 for b in data]
    best = {}
    for path in (absorb, batch):
        runs = []
        for _ in range(args.repeat):
            times, digest = [], hashlib.sha256()
            for b in data:
                t0 = time.perf_counter()
                pivots = path(b)
                times.append(time.perf_counter() - t0)
                digest.update(repr(sorted(pivots.items())).encode())
            runs.append((sum(times), times, digest.hexdigest()))
        best[path.__name__] = min(runs, key=lambda r: r[0])
    if best["absorb"][2] != best["batch"][2]:
        raise SystemExit("the absorb and batch paths gave different pivots")
    bands = {}
    for i, (lo, hi) in enumerate(zip(BANDS, BANDS[1:])):
        members = [j for j, b in enumerate(band_of) if b == i]
        bands[f"{lo}-{hi}"] = {
            "blocks": len(members),
            **{f"{p}_s": round(sum(best[p][1][j] for j in members), 4)
               for p in best}}
    print(json.dumps({"blocks": len(data), "repeat": args.repeat,
                      "best_absorb_s": round(best["absorb"][0], 3),
                      "best_batch_s": round(best["batch"][0], 3),
                      "rows_bands": bands, "digest": best["batch"][2]}))


if __name__ == "__main__":
    main()
