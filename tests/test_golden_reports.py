"""Report bytes of benchmark operations equal their recorded digests.

``perfbench/golden.json`` holds the SHA-256 of every benchmark operation's
report (``to_json(include_time=False)``).  This test loads the workload
definitions by file path, without editing or installing them, and runs a
few operations in process: the criterion-10 robust frontier at every seed
of the workload, and every coin and sampling construction.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from slicedeg.experiments import ExperimentSpec, run

WORKLOADS = (pathlib.Path(__file__).resolve().parent.parent
             / "perfbench" / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_wl = _load_workloads()
GOLDEN = _wl.load_golden()
OPS = ([_wl.op("robust-frontier", _wl.FRONTIER_PARAMS, s)
        for s in _wl.FRONTIER_SEEDS]
       + _wl.query_space("construct-coin")
       + _wl.query_space("construct-sample"))


@pytest.mark.parametrize("o", OPS, ids=_wl.op_key)
def test_report_matches_golden_digest(o):
    report = run(ExperimentSpec(o["name"], o["params"], o["seed"]))
    text = report.to_json(include_time=False).encode()
    assert hashlib.sha256(text).hexdigest() == GOLDEN[_wl.op_key(o)]["digest"]
