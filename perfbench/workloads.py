"""The benchmark's workloads: their operation spaces, the seeded generators
that draw from them, and the key that indexes golden digests.

An operation is one experiment request, ``{"name", "params", "seed"}``, as
a CLI or notebook user would pass it to ``slicedeg.experiments.run``.  A
workload's seed is the only input to its generator; the library receives
only the generated operations.  Every operation a generator can emit lies
in the workload's finite space, and ``golden.json`` holds the report digest
of every operation in every space, so any seed can be verified exactly.

``generate`` returns groups of operations.  Each group runs in its own
fresh worker process, one group after another (a single client).
"""

from __future__ import annotations

import json
import pathlib
import random

WORKLOADS = ("sweep", "frontier", "queries")

# sweep: the reports of criteria 01-02 (p in {2, 3}, n in [6, 14]) and the
# two p = 2 reports at n = 15.  Each report is its own CLI-style process, so
# no oracle is requested twice in a process.
SWEEP_REPORTS = tuple(
    [(name, {"p": p, "n_min": 6, "n_max": 14})
     for name in ("hegedus-sweep", "extension-sweep") for p in (2, 3)]
    + [(name, {"p": 2, "n_min": 15, "n_max": 15})
       for name in ("hegedus-sweep", "extension-sweep")])

# frontier: criterion 10 one sweep size smaller and with 6,000 instead of
# 10^4 candidates, so that one report fits a run.  The shares shift: in a
# traced run at seed 0, oracle builds took 45% of its time and from_sym 40%
# (in criterion 10 itself about 70% and 28%).  About 65% of its oracle
# requests still repeat an earlier one.  The experiment seed is drawn from a fixed set so that every seed has a golden
# digest; 13 is criterion 10's own seed.
FRONTIER_PARAMS = {"n_min": 6, "n_max": 13, "cand_n": 64, "cand_t": 8,
                   "candidates": 6000}
FRONTIER_SEEDS = tuple(range(13, 21))

# queries: request kind -> share of the stream (exact counts per stream).
QUERY_MIX = (("mindeg", 0.40), ("closure", 0.25), ("symfun-analyze", 0.15),
             ("construct-coin", 0.10), ("construct-sample", 0.10))
QUERY_REQUESTS = 400
SAMPLE_SEEDS = tuple(range(8))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    """op key -> {"digest": report digest, "cost_s": time at recording}."""
    return json.loads(GOLDEN.read_text())


def op(name: str, params: dict, seed: int = 0) -> dict:
    return {"name": name, "params": dict(params), "seed": seed}


def op_key(o: dict) -> str:
    """Canonical text of an operation; golden digests are keyed by it."""
    return json.dumps([o["name"], o["params"], o["seed"]], sort_keys=True,
                      separators=(",", ":"))


def _p_powers(p: int, limit: int):
    q = 1
    while q <= limit:
        yield q
        q *= p


def query_space(kind: str) -> list:
    """All requests of one kind, in a fixed order."""
    if kind == "mindeg":
        return [op("mindeg", {"n": n, "p": p, "k": k, "K": k + q})
                for p in (2, 3) for n in range(8, 14)
                for q in _p_powers(p, n // 2) for k in range(q, n - q + 1)]
    if kind == "closure":
        return [op("closure", {"n": n, "p": p, "D": D, "e_slices": str(w),
                               "cand": "full"})
                for p in (2, 3) for n in range(8, 13) for D in (1, 2, 3)
                for w in range(1, n)]
    if kind == "symfun-analyze":
        families = (["maj"] + [f"thr:{t}" for t in (2, 3, 5)]
                    + [f"ethr:{t}" for t in (2, 3, 5)]
                    + [f"mod:{b}:{i}" for b in (2, 3, 4, 8, 9) for i in (0, 1)])
        return [op("symfun-analyze", {"family": fam, "n": n, "p": p,
                                      "eps": 0.01})
                for n in (12, 24, 48, 96) for p in (2, 3) for fam in families]
    if kind == "construct-coin":
        return [op("construct-coin", {"p": p, "delta": delta, "eps": "1/100",
                                      "C": 2})
                for p in (2, 3) for delta in ("1/8", "1/10")]
    if kind == "construct-sample":
        return [op("construct-sample", {"n": n, "k": n // 2, "q": n // 16,
                                        "ln_inv_eps": 4.0, "C": 2}, s)
                for n in (1024, 2048, 4096) for s in SAMPLE_SEEDS]
    raise ValueError(f"unknown request kind {kind!r}")


def spread_pick(items: list, count: int, rng: random.Random) -> list:
    """``count`` items drawn evenly across ``items`` (kept in their order).

    Whole copies of the list first, then one random item from each of
    ``rest`` equal-size bins, so every stream has the same cost profile.
    """
    full, rest = divmod(count, len(items))
    out = list(items) * full
    for i in range(rest):
        lo, hi = i * len(items) // rest, (i + 1) * len(items) // rest
        out.append(items[rng.randrange(lo, hi)])
    return out


def query_counts(total: int = QUERY_REQUESTS) -> dict:
    """Exact request count of each kind in a stream of ``total``."""
    counts = {kind: round(share * total) for kind, share in QUERY_MIX}
    counts[QUERY_MIX[0][0]] += total - sum(counts.values())
    return counts


def generate(workload: str, seed: int, golden: dict) -> list:
    """Groups of operations for one pass of ``workload`` under ``seed``.

    A query stream is stratified: each kind's space is ordered by the time
    each request took when the golden digests were recorded, and
    ``spread_pick`` draws evenly along that order.  The seed picks within
    each stratum and sets the order of the stream, while every stream keeps
    the same mix and nearly the same total work.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        reports = [op(name, params) for name, params in SWEEP_REPORTS]
        rng.shuffle(reports)
        return [[r] for r in reports]
    if workload == "frontier":
        s = FRONTIER_SEEDS[seed % len(FRONTIER_SEEDS)]
        return [[op("robust-frontier", FRONTIER_PARAMS, s)]]
    if workload == "queries":
        stream = []
        for kind, count in query_counts().items():
            ops = sorted(query_space(kind), key=lambda o: (
                golden[op_key(o)]["cost_s"], op_key(o)))
            stream.extend(spread_pick(ops, count, rng))
        rng.shuffle(stream)
        return [stream]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def all_ops() -> list:
    """Every operation any seed of any workload can emit (the golden set)."""
    ops = [op(name, params) for name, params in SWEEP_REPORTS]
    ops += [op("robust-frontier", FRONTIER_PARAMS, s) for s in FRONTIER_SEEDS]
    for kind, _ in QUERY_MIX:
        ops += query_space(kind)
    return ops
