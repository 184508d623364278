"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GOLDEN = workloads.load_golden()


# -- self time ----------------------------------------------------------------

def test_self_times_of_a_nested_call_tree():
    groups = ["experiments", "linalg.query", "cube.eval"]
    spans = [
        [0, 0.0, 10.0, -1, 0],   # run            10 s, children 3 + 4
        [1, 1.0, 4.0, 0, 0],     #   member        3 s, child 1
        [2, 2.0, 3.0, 1, 0],     #     evaluate    1 s
        [1, 5.0, 9.0, 0, 0],     #   member        4 s
        [0, 20.0, 22.0, -1, 1],  # run (next op)   2 s
    ]
    self_s = tracer.self_times(spans, groups)
    assert self_s["experiments"] == 3.0 + 2.0
    assert self_s["linalg.query"] == 2.0 + 4.0
    assert self_s["cube.eval"] == 1.0
    assert sum(self_s.values()) == 12.0  # the two root spans


def test_recorder_nests_spans_and_counts_outermost_calls():
    rec = tracer.Recorder()

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("spectra", "inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = rec.wrap("spectra", "outer", outer)
    rec.op = 7
    assert traced_outer(1) == 4
    assert traced_outer(2) == 6
    names = [rec.names[s[0]] for s in rec.spans]
    assert names == ["outer", "inner", "outer", "inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, -1, 2]
    assert {s[4] for s in rec.spans} == {7}
    assert rec.counts["spectra.calls"] == 2  # nested calls are not counted
    total = sum(s[2] - s[1] for s in rec.spans if s[3] == -1)
    assert abs(sum(tracer.self_times(rec.spans, rec.groups).values())
               - total) < 1e-9


def test_traced_worker_records_every_layer_it_touches():
    rec = run.run_worker([workloads.op("mindeg", {"n": 8, "p": 3, "k": 3,
                                                  "K": 6})], trace=True)
    assert "error" not in rec["ops"][0]
    layers = run.LayerRecord([rec["trace"]], rec["ops"][0]["elapsed_s"], 0)
    m = layers.metrics()
    assert set(m) == set(run.PER_LAYER)
    assert m["linalg.builds"] == m["closure.oracle_requests"] > 0
    assert m["linalg.oddp_build.busy_s"] > 0
    assert m["distinguish.instances"] == 1
    assert m["distinguish.degree_steps"] == 4  # degrees 0..3
    assert 0 < m["trace.overhead_share"] < 0.5
    # the layers' self times account for the traced time, within overhead
    busy = sum(v for k, v in m.items() if k.endswith(".busy_s"))
    assert 0 <= 1 - busy / layers.wall_s <= m["trace.overhead_share"]


# -- generator ----------------------------------------------------------------

def test_query_stream_is_deterministic_per_seed_and_keeps_the_mix():
    a = workloads.generate("queries", 5, GOLDEN)
    assert a == workloads.generate("queries", 5, GOLDEN)
    assert a != workloads.generate("queries", 6, GOLDEN)
    stream = a[0]
    assert len(stream) == workloads.QUERY_REQUESTS
    for kind, share in workloads.QUERY_MIX:
        count = sum(1 for o in stream if o["name"] == kind)
        assert abs(count / len(stream) - share) <= 0.01, kind


def test_every_generated_operation_has_a_golden_digest():
    for seed in range(20):
        for wl in workloads.WORKLOADS:
            for group in workloads.generate(wl, seed, GOLDEN):
                for o in group:
                    assert workloads.op_key(o) in GOLDEN, o
    assert set(GOLDEN) == {workloads.op_key(o) for o in workloads.all_ops()}


def test_sweep_runs_each_report_once_in_its_own_process():
    groups = workloads.generate("sweep", 3, GOLDEN)
    assert all(len(g) == 1 for g in groups)
    assert sorted(workloads.op_key(g[0]) for g in groups) == sorted(
        workloads.op_key(workloads.op(n, p)) for n, p in workloads.SWEEP_REPORTS)


# -- verification -------------------------------------------------------------

def test_a_corrupted_golden_digest_is_exactly_one_failed_operation():
    ops = workloads.generate("queries", 1, GOLDEN)[0][:20]
    results = [{"digest": GOLDEN[workloads.op_key(o)]["digest"]} for o in ops]
    assert run.verify(ops, results, GOLDEN) == [None] * len(ops)
    corrupted = json.loads(json.dumps(GOLDEN))
    corrupted[workloads.op_key(ops[4])]["digest"] = "0" * 64
    failures = run.verify(ops, results, corrupted)
    assert sum(1 for f in failures if f) == 1
    assert failures[4]


def test_errors_and_unknown_operations_fail():
    o = workloads.op("mindeg", {"n": 8, "p": 2, "k": 3, "K": 5})
    unknown = workloads.op("mindeg", {"n": 99, "p": 2, "k": 3, "K": 5})
    results = [{"error": "ValueError: x"},
               {"digest": GOLDEN[workloads.op_key(o)]["digest"]}]
    failures = run.verify([o, unknown], results, GOLDEN)
    assert failures[0] == "ValueError: x"
    assert failures[1] == "no golden digest for this operation"


# -- reporting ----------------------------------------------------------------

def test_percentile_interpolates():
    assert run.percentile([5.0], 0.9) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert abs(run.percentile(list(range(11)), 0.9) - 9.0) < 1e-12


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
