"""Every script under ``scripts/`` still imports, and the exact-sums
benchmark still computes the results it first recorded.

The bench scripts import private library names (``_rref_words``,
``_pack_words``, ``_rref_array``, ``_HEAD_MARGIN``, ``_row_order``).  A
rename or a move of one of them would only surface when someone runs the
script; this test loads each script by file path, as a module that is not
``__main__``, so its imports run and its ``main()`` does not.
"""

import hashlib
import importlib.util
import pathlib

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
