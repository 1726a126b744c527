"""Every entry point the benchmark tracer wraps exists in hhx.

perfbench/tracer.py names the functions and methods it patches as
(module, class, attribute) strings, so renaming one in src/hhx would only
show when a traced benchmark run fails. This test resolves each of them,
and each hook a span names, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()
TARGETS = [(t.module, t.cls, t.attr) for t in TRACER.SPANS] + [
    (module, cls, attr) for module, cls, attr, _, _ in TRACER.COUNTERS
]


@pytest.mark.parametrize(
    "module,cls,attr", TARGETS, ids=[".".join(filter(None, t)) for t in TARGETS]
)
def test_traced_entry_point_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        assert hasattr(owner, cls), f"{module} has no {cls}"
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"{module}.{cls}.{attr} is gone"


def test_span_hooks_are_tracer_methods():
    for target in TRACER.SPANS:
        if target.hook is not None:
            assert callable(getattr(TRACER.Tracer, target.hook, None)), target
