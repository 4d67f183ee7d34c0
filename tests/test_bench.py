"""The benchmark's span tracer wraps names that must exist in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans.TARGETS:
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        assert attr in owner.__dict__, f"span {name}: {owner!r} has no {attr}"
