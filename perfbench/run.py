#!/usr/bin/env python3
"""The slicedeg benchmark.

    python3 perfbench/run.py --workload {sweep,frontier,queries} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout root: the library is imported from ``src/`` there.  A
run repeats passes of the workload until ``--seconds`` would be exceeded
(at least one pass).  Before the first pass and after each pass it times
``SETUP_SAMPLES`` fresh interpreters that only import the library, so the
set-up samples span the same stretch of time as the passes.  A pass runs
every operation group of the seeded workload in its own fresh worker
process, one after another, so there is one client and never more than two
processes of the benchmark.

Every operation's report digest is checked against ``golden.json`` after
its timed section.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  In a
traced run every pass is traced; the tracing overhead is estimated from the
span count and the tracer's cost per span, timed in each traced worker.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit; every run with --trace 0 reports exactly these.  The median
# request latency is printed but not listed: on the reference machine it
# varies between runs by more than the largest bound a metric may have.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "req_p90_ms": "ms"}

# per-layer name -> unit; every run with --trace 1 reports exactly these.
# A busy time is the self time of the tracer group of the same name.
PER_LAYER = {f"{group}.busy_s": "s" for group in tracer.GROUPS}
PER_LAYER.update(dict.fromkeys((
    "linalg.builds", "linalg.build_cells", "linalg.queries",
    "closure.evalmatrix_cells", "closure.batch_member_rows",
    "closure.oracle_requests", "cube.from_sym_calls", "cube.from_sym_terms",
    "distinguish.instances", "distinguish.degree_steps", "spectra.calls"),
    "count"))
PER_LAYER.update({
    "linalg.pivot_yield": "ratio",           # sum of ranks / sum of rows
    "closure.oracle_repeat_share": "ratio",  # repeated requests / requests
    "experiments.report_bytes": "bytes",
    "trace.overhead_share": "ratio",  # tracing time / (wall_s - tracing time)
})


class BenchError(RuntimeError):
    """The benchmark could not run (no library, or a worker crashed)."""


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_worker(ops: list, trace: bool = False, spans_path=None) -> dict:
    """Run ``ops`` in a fresh interpreter and return its result record."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({v: "1" for v in THREAD_VARS})
    job = {"root": str(ROOT), "ops": ops, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, env=env,
                          cwd=ROOT)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{lines[-1] if lines else 'no output'}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class LayerRecord:
    """Span summaries of one traced pass, summed over its workers."""

    def __init__(self, summaries: list, wall_s: float, report_bytes: int):
        self.self_times: dict = {}
        self.counts: dict = {}
        # time the tracer itself added: spans x cost per span, plus hooks
        self.tracing_s = sum(s["spans"] * s["span_cost_s"] + s["hook_s"]
                             for s in summaries)
        for s in summaries:
            for k, v in s["self_s"].items():
                self.self_times[k] = self.self_times.get(k, 0.0) + v
            for k, v in s["counts"].items():
                self.counts[k] = self.counts.get(k, 0) + v
        self.wall_s = wall_s
        self.report_bytes = report_bytes

    def ratio(self, num: str, den: str) -> float:
        den = self.counts.get(den, 0)
        return self.counts.get(num, 0) / den if den else 0.0

    def metrics(self) -> dict:
        """Every per-layer metric of this pass."""
        out = {f"{g}.busy_s": self.self_times.get(g, 0.0)
               for g in tracer.GROUPS}
        out.update({k: self.counts.get(k, 0) for k, unit in PER_LAYER.items()
                    if unit == "count"})
        out["linalg.pivot_yield"] = self.ratio("linalg.build_rank",
                                               "linalg.build_rows")
        out["closure.oracle_repeat_share"] = self.ratio(
            "closure.oracle_repeats", "closure.oracle_requests")
        out["experiments.report_bytes"] = self.report_bytes
        out["trace.overhead_share"] = self.tracing_s / (self.wall_s
                                                         - self.tracing_s)
        return out


def verify(ops: list, results: list, golden: dict) -> list:
    """Per operation: None when its digest matches the golden one, else why."""
    out = []
    for o, r in zip(ops, results):
        want = golden.get(workloads.op_key(o), {}).get("digest")
        if "error" in r:
            out.append(r["error"])
        elif want is None:
            out.append("no golden digest for this operation")
        elif r["digest"] != want:
            out.append("report digest differs from the golden digest")
        else:
            out.append(None)
    return out


def run_pass(groups: list, trace: bool, spans_stem=None) -> dict:
    """One pass: every group in its own worker; times exclude set-up."""
    records = []
    for g, ops in enumerate(groups):
        spans_path = f"{spans_stem}-group{g}.tsv" if spans_stem else None
        records.append(run_worker(ops, trace, spans_path))
    ops = [o for grp in groups for o in grp]
    results = [r for rec in records for r in rec["ops"]]
    out = {
        "ops": ops,
        "results": results,
        "wall_s": sum(r["elapsed_s"] for r in results),
        "peak_rss_mb": max(rec["peak_rss_mb"] for rec in records),
        "setup_s": [rec["setup_s"] for rec in records],
    }
    if trace:
        out["layers"] = LayerRecord(
            [rec["trace"] for rec in records], out["wall_s"],
            sum(r.get("report_bytes", 0) for r in results))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            golden: dict):
    """Run set-up samples and passes; return (passes, set-up samples)."""
    groups = workloads.generate(workload, seed, golden)

    def setup_samples():
        return [run_worker([])["setup_s"] for _ in range(SETUP_SAMPLES)]

    setups = setup_samples()
    spans_dir = ROOT / ".perfbench" / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        stem = (spans_dir / f"{workload}-seed{seed}-pass{len(passes)}"
                if trace else None)
        passes.append(run_pass(groups, trace, stem))
        setups += setup_samples()
        lap = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed + lap > seconds:
            break
    return passes, setups


def request_latencies(passes: list) -> list:
    """Each operation's median time over the passes, in ms."""
    return [1000 * statistics.median(p["results"][i]["elapsed_s"]
                                     for p in passes)
            for i in range(len(passes[0]["results"]))]


def end_to_end(passes: list, setups: list) -> dict:
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(
            setups + [s for p in passes for s in p["setup_s"]]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "req_p90_ms": percentile(request_latencies(passes), 0.9),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(passes: list) -> dict:
    traced = [p["layers"].metrics() for p in passes]
    values = {k: statistics.median(m[k] for m in traced) for k in PER_LAYER}
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def describe(workload: str, seed: int, passes: list, failures: list) -> None:
    ops = passes[0]["ops"]
    kinds: dict = {}
    for o in ops:
        kinds[o["name"]] = kinds.get(o["name"], 0) + 1
    print(f"workload={workload} seed={seed} passes={len(passes)} "
          f"ops_per_pass={len(ops)} "
          + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    latencies = request_latencies(passes)
    print(f"req_p50_ms={percentile(latencies, 0.5):.4f} over "
          f"{len(latencies)} operations")
    failed = [f for f in failures if f]
    print(f"fail_share={len(failed) / len(failures):.4f} "
          f"({len(failed)} of {len(failures)} operations)")
    for f in sorted(set(failed)):
        print(f"  failure: {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "slicedeg" / "__init__.py").is_file():
        print(f"no slicedeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    try:
        passes, setups = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), golden)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 3
    failures = [f for p in passes
                for f in verify(p["ops"], p["results"], golden)]
    describe(args.workload, args.seed, passes, failures)
    failed = sum(1 for f in failures if f)
    if args.trace:
        metrics = per_layer(passes)
        for k, v in metrics.items():
            print(f"  {k} = {v['value']:.6g} {v['unit']}")
    else:
        metrics = end_to_end(passes, setups)
    print(json.dumps({"correct": failed == 0, "attempted": len(failures),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
