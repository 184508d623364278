"""Every script under ``scripts/`` still imports.

The bench scripts import private library names (``_rref_words``,
``_pack_words``, ``_rref_array``, ``_HEAD_MARGIN``, ``_row_order``).  A
rename or a move of one of them would only surface when someone runs the
script; this test loads each script by file path, as a module that is not
``__main__``, so its imports run and its ``main()`` does not.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert {"bench_gf2.py", "bench_rref.py"} <= {s.name for s in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda s: s.stem)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert callable(mod.main)
