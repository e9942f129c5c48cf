"""perfbench's tracer wraps cmikit functions by name from outside the package.

A rename in ``src/`` would otherwise surface only when a traced benchmark run
fails to install its wrappers.
"""

import importlib.util
from pathlib import Path

import cmikit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_cmikit():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, attr, _ in tracer.TRACED_FUNCTIONS:
        assert callable(getattr(getattr(cmikit, mod_name), attr, None)), f"cmikit.{mod_name}.{attr}"
    assert hasattr(cmikit.knn, "cKDTree")  # swapped for a timing subclass
