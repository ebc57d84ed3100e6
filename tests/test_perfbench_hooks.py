"""The traced benchmark run (``perfbench/spans.py``) wraps pipeline
entry points by replacing the bindings in their owners' ``__dict__``.
A wrapped method that moves into a base class no longer has such a
binding; this test makes that fail here rather than at benchmark time.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(targets):
    out = []
    for module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, \
            f"{module_name}:{path} is not bound on its owner"
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def test_every_target_is_wrapped_and_restored_by_identity():
    spans = _load_spans()
    originals = _bindings(spans.TARGETS)
    uninstall = spans.install(spans.SpanRecorder())
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    finally:
        uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr

