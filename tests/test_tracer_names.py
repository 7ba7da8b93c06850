"""The benchmark's tracer wraps morreykit functions by name and skips names
that no longer exist, so a renamed entry point would make its per-layer
metric read 0 without any error.  This test reads the tracer's table and
fails instead.  `perfbench/tracer.py` is only loaded here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# entry points deleted on purpose, which the tracer's table still names
DELETED = {"dyadic.ancestor", "dyadic.trace_boxes", "verify.peetre_maximal_of"}


def _traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{name}" for module, names in tracer.TRACED.items()
            for name in names}


def _resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"morreykit.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_traced_name_resolves():
    names = _traced_names()
    assert len(names) > len(DELETED)
    assert {name for name in names if not _resolves(name)} == DELETED
