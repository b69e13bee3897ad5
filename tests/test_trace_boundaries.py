"""The benchmark's traced run (bench/run.py --trace 1) replaces uncstat
functions by module and attribute name, listed in ``BOUNDARIES`` of
bench/spans.py.  A rename in the package must not leave a boundary that
names nothing, which would crash traced runs."""

import importlib
import importlib.util
from pathlib import Path

import uncstat  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_boundary_resolves():
    listed = boundaries()
    assert listed
    for module_name, attr, *_ in listed:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is missing"
