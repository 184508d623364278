"""One benchmark worker: a fresh interpreter that runs a group of operations.

Reads a job as JSON on stdin::

    {"root": checkout root, "ops": [op, ...], "trace": bool,
     "spans_path": path or null}

and prints one JSON line on stdout with the set-up time, each operation's
time, report digest and size (or its error), the peak resident memory and,
when traced, the span summary and the tracer's cost per span, timed after
the operations.  Set-up is the import of ``slicedeg`` and of
its experiment registry; the report digest is the SHA-256 of the report
JSON without ``elapsed_s`` and is computed outside the timed section.
"""

import hashlib
import json
import pathlib
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    src = pathlib.Path(job["root"]).resolve() / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import slicedeg
    import slicedeg.experiments as experiments
    setup_s = time.perf_counter() - t0
    if src not in pathlib.Path(slicedeg.__file__).resolve().parents:
        print(f"slicedeg was imported from {slicedeg.__file__}, not {src}",
              file=sys.stderr)
        return 2

    recorder = None
    if job["trace"]:
        # this script's directory is on sys.path
        from tracer import Recorder, span_cost
        recorder = Recorder()
        recorder.install()

    results = []
    for i, o in enumerate(job["ops"]):
        spec = experiments.ExperimentSpec(o["name"], o["params"], o["seed"])
        if recorder is not None:
            recorder.op = i
        start = time.perf_counter()
        try:
            report = experiments.run(spec)
        except Exception as e:  # a failed operation is counted, not fatal
            results.append({"elapsed_s": time.perf_counter() - start,
                            "error": f"{type(e).__name__}: {e}"})
            continue
        elapsed = time.perf_counter() - start
        text = report.to_json(include_time=False).encode()
        results.append({"elapsed_s": elapsed,
                        "digest": hashlib.sha256(text).hexdigest(),
                        "report_bytes": len(text)})

    out = {"setup_s": setup_s, "ops": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        out["trace"] = recorder.summary()
        out["trace"]["span_cost_s"] = span_cost()
        if job.get("spans_path"):
            recorder.write(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
