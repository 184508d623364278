#!/usr/bin/env python3
"""Time the exact rational sums of the coin and junta constructions.

    PYTHONPATH=src python3 scripts/bench_exact_sums.py [--repeat R]

The inputs are the ``construct-coin`` and ``construct-sample`` requests of
the benchmark's query stream: coin instances for p in {2, 3} and delta in
{1/8, 1/10} (eps = 1/100, C = 2, so n = 590 and 922), and sampled juntas
for n in {1024, 2048, 4096} with k = n/2, q = n/16, eps = e^-4, C = 2.
Each repeat builds them through ``coin_build``/``coin_verify_errors`` and
``sampling_poly``/``junta_exact_slice_error``, and the time spent inside the
mod-p window interpolant (``interpolate_window_mod``), its Newton
differences (``ecoeffs_from_weight_values``), the weight tables
(``cube.weight_values_from_ecoeffs``) and the exact sums
(``coin_error_exact``, ``junta_exact_slice_error``) is summed per function.
Prints one JSON line: the best time per function and the best repeat total
over R repeats (counting the differences, which run inside the interpolant,
once), and a SHA-256 digest of the results (each instance's size, the
junta's inner e-coefficients and the exact error fractions), so two
checkouts can be compared for speed and for identical results.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import time
from collections import Counter
from fractions import Fraction

from slicedeg import constructions as cons
from slicedeg import cube

# function name -> the module whose global the timed callers look it up in
TIMED = {"interpolate_window_mod": cons, "ecoeffs_from_weight_values": cons,
         "weight_values_from_ecoeffs": cube, "coin_error_exact": cons,
         "junta_exact_slice_error": cons}
# timed inside ``interpolate_window_mod`` too, so left out of the total
NESTED = {"ecoeffs_from_weight_values"}
COINS = [(p, Fraction(1, d)) for p in (2, 3) for d in (8, 10)]
JUNTAS = (1024, 2048, 4096)


def run_once(digest) -> None:
    for p, delta in COINS:
        inst = cons.CoinInstance.from_sizing(p, delta, Fraction(1, 100), 2)
        errs = cons.coin_verify_errors(inst, cons.coin_build(inst))
        digest.update(repr((inst.n, errs)).encode())
    for n in JUNTAS:
        k, q = n // 2, n // 16
        junta = cons.sampling_poly(n, k, q, math.exp(-4.0), 2, 0)
        errs = (cons.junta_exact_slice_error(junta, k, "zero"),
                cons.junta_exact_slice_error(junta, k + q, "nonzero"))
        digest.update(repr((n, junta.m, junta.inner_ecoeffs, errs)).encode())


def timed(name, fn, busy: Counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        busy[name] += time.perf_counter() - t0
        return out
    return wrapper


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    originals = {name: getattr(mod, name) for name, mod in TIMED.items()}
    best = {name: float("inf") for name in TIMED}
    best_total = float("inf")
    for _ in range(args.repeat):
        busy, digest = Counter(), hashlib.sha256()
        for name, fn in originals.items():
            setattr(TIMED[name], name, timed(name, fn, busy))
        try:
            run_once(digest)
        finally:
            for name, fn in originals.items():
                setattr(TIMED[name], name, fn)
        best = {name: min(best[name], busy[name]) for name in TIMED}
        best_total = min(best_total, sum(t for name, t in busy.items()
                                         if name not in NESTED))
    print(json.dumps({"repeat": args.repeat,
                      "best_s": {name: round(t, 4) for name, t in best.items()},
                      "best_total_s": round(best_total, 4),
                      "digest": digest.hexdigest()}))


if __name__ == "__main__":
    main()
