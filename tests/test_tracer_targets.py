"""Every library name the benchmark's span recorder hooks still exists.

``perfbench/tracer.py`` wraps library functions by name from outside the
library.  A rename or deletion there would only surface when the traced
benchmark runs; this test loads the recorder by file path, without editing
or installing it, and resolves each of its targets.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    missing = []
    for group, targets in tracer.TARGETS.items():
        if targets is None:  # the recorder wraps every public spectra function
            mod = importlib.import_module("slicedeg.spectra")
            assert any(inspect.isfunction(v) and not name.startswith("_")
                       for name, v in vars(mod).items()), group
            continue
        for mod_name, path in targets:
            obj = importlib.import_module(f"slicedeg.{mod_name}")
            owner = None
            for part in path.split("."):
                owner, obj = obj, getattr(obj, part, None)
                if obj is None:
                    break
            # methods are patched in the class that defines them
            if obj is None or (inspect.isclass(owner) and
                               path.split(".")[-1] not in vars(owner)):
                missing.append(f"{group}: slicedeg.{mod_name}.{path}")
    assert not missing, missing
    assert set(tracer.HOOKS) <= {path for targets in tracer.TARGETS.values()
                                 if targets for _, path in targets}
