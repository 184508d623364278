"""Every script under ``scripts/`` still imports, the exact-sums benchmark
still computes the results it first recorded, the acceptance runner runs
the criteria it is given, and the elimination counter's worker counts the
builds and the rungs each exact question reads.

The bench scripts import private library names (``_rref_words``,
``_pack_words``, ``_rref_array``, ``_HEAD_MARGIN``, ``_row_order``).  A
rename or a move of one of them would only surface when someone runs the
script; this test loads each script by file path, as a module that is not
``__main__``, so its imports run and its ``main()`` does not.
"""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert {"bench_gf2.py", "bench_rref.py"} <= {s.name for s in SCRIPTS}


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda s: s.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_exact_sums_digest_is_pinned():
    # every coin and junta result of the exact-sums benchmark, as first
    # recorded; a faster transform or sum must leave each one as it was
    path = next(s for s in SCRIPTS if s.name == "bench_exact_sums.py")
    digest = hashlib.sha256()
    _load(path).run_once(digest)
    assert digest.hexdigest() == (
        "05ec7c1fcb469d8f00d7902c8b83b6a63be13fde6a75c3a5d702611b59e9232b")


def _acceptance(*ids):
    path = next(s for s in SCRIPTS if s.name == "run_acceptance.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(path.parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(path), *ids], env=env,
                          capture_output=True, text=True, timeout=300)


def test_acceptance_runs_the_named_criteria():
    # only the named criteria run, in the order given, and the exit code
    # counts their failures: 12b is red by design
    res = _acceptance("12c", "05")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "[PASS] 12c classifier branches and periodic exactness",
        "[PASS] 05 integer window interpolation"]
    assert lines[2:] == ["", "2/2 criteria passed"]
    res = _acceptance("05", "12b")
    assert res.returncode == 1 and res.stdout.endswith("1/2 criteria passed\n")


def test_acceptance_rejects_an_unknown_id():
    res = _acceptance("05", "13")
    assert res.returncode == 2 and res.stdout == ""
    assert "unknown criterion id(s): 13" in res.stderr


def test_count_eliminations_worker_counts_questions_and_rungs(monkeypatch):
    # one mindeg and one small hegedus-sweep op, both in the range of
    # Hegedus's lemma, and at this size every build is one extend, so
    # extend_calls is the number of builds the same ops make in this process
    from slicedeg import distinguish
    from slicedeg.experiments import ExperimentSpec, run
    from slicedeg.linalg import RankOracle

    ops = [{"name": "mindeg", "params": {"n": 8, "p": 2, "k": 3, "K": 5},
            "seed": 0},
           {"name": "hegedus-sweep", "params": {"p": 3, "n_min": 6,
                                                "n_max": 8}, "seed": 0}]
    path = next(s for s in SCRIPTS if s.name == "count_eliminations.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(path.parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, str(path), "--worker"],
                         input=json.dumps(ops), env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    counts = json.loads(res.stdout)
    assert list(counts) == [
        "extend_calls", "extend_rows", "extend_cells", "fallback_rows",
        "from_rows_calls", "exact_questions", "exact_rungs_read"]

    builds, rows = [], []
    from_rows = RankOracle.from_rows.__func__
    monkeypatch.setattr(RankOracle, "from_rows", classmethod(
        lambda cls, field, block: builds.append(1)
        or from_rows(cls, field, block)))
    distinguish._ladder.clear()
    for o in ops:
        rep = run(ExperimentSpec(o["name"], o["params"], o["seed"]))
        rows += rep.tables.get("sweep", rep.tables.get("report"))
    assert counts["extend_calls"] == counts["from_rows_calls"] == len(builds)
    assert counts["fallback_rows"] == 0
    assert counts["exact_questions"] == len(rows)
    # each sweep row reads one rung; the mindeg witness (degree 2) climbs
    # rungs 0, 1 and 2
    assert counts["exact_rungs_read"] == len(rows) + 2
