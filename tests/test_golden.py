"""Seeded outputs against the SHA-256 digests pinned in tests/golden.json."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_outputs_match_golden_digests(golden):
    pinned = golden.load()
    if np.__version__ not in pinned:
        pytest.fail(
            f"tests/golden.json has no digests for numpy {np.__version__}: "
            f"the Philox white draw is bit-reproducible only for a fixed "
            f"numpy, so this install's outputs are unpinned; after checking "
            f"them, store its digests with {golden.COMMAND}")
    moved = golden.moved(pinned[np.__version__], golden.digests())
    assert not moved, (
        f"seeded outputs moved: {', '.join(moved)}. If the change is "
        f"intended, regenerate with {golden.COMMAND} and list the moved "
        f"outputs in CHANGES.md")


def test_moved_names_every_difference(golden):
    assert golden.moved({"a": "1", "b": "2", "c": "3"},
                        {"a": "1", "b": "x", "d": "4"}) == ["b", "c", "d"]
