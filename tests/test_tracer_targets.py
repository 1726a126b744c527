"""Every entry point the benchmark tracer wraps exists in hhx.

perfbench/tracer.py names the functions and methods it patches as
(module, class, attribute) strings, so renaming one in src/hhx would only
show when a traced benchmark run fails. These tests resolve each of them,
and each hook a span names, without installing the tracer; one more runs
`hhx actions --paranoid` under the installed tracer, so a hook that no
longer fits its target's arguments fails here too.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from helpers import SCAN_LIKE_DOC
from hhx.actions import scan_size
from hhx.cli import main
from hhx.simplicial import parse_space

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


def test_traced_paranoid_actions_run_records_its_span_and_counts(tmp_path, capsys):
    # a traced CLI run exercises each hook's unpacking of its call's arguments
    space_path = tmp_path / "scan.json"
    space_path.write_text(json.dumps(SCAN_LIKE_DOC), encoding="utf-8")
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        argv = ["actions", "--space", str(space_path), "--paranoid", "7", "--format", "json"]
        assert main(argv) == 0
        swept = tracer.counts["actions.scanned_simplices"]
        tracer.end_job()  # runs the deferred paranoid hook
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["paranoid"]["agrees"] is True
    assert "actions.paranoid" in {span.name for span in tracer.spans}
    space = parse_space(SCAN_LIKE_DOC)
    # one basepoint simplex in each dimension 2..7
    paranoid = tracer.counts["actions.scanned_simplices"] - swept
    assert paranoid == scan_size(space, 7) - 6
    assert tracer.counts["simplicial.face_calls"] > 0
