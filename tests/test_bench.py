"""The benchmark's span tracer wraps names that must exist in the package,
and reads what it records from real runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import spinbath
from spinbath.experiments import method_config
from spinbath.model import SpinSystem, build_unit_frame

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for owner, attr, name, _ in spans.TARGETS:
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        assert attr in owner.__dict__, f"span {name}: {owner!r} has no {attr}"


def test_tracer_summarizes_an_exchange_coupled_run(spans):
    # the chain workload's path: the tracer reads n_sites and norms from the
    # Trajectory that integrate returns
    cfg = method_config("llg-classical", build_unit_frame(10.0, -1.76e11, 1),
                        1.0, t_max=15.0)
    pair = SpinSystem(spins=np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                      exchange={(0, 1): 0.5 * np.eye(3)})
    with spans.Tracer().installed() as tracer:
        spinbath.integrate(pair, cfg, seed=3)
    out, checks = spans.summarize([tracer.spans])
    assert cfg.n_steps == 100
    assert out["dynamics.member_steps"] == cfg.n_steps * pair.n_sites
    assert 0.0 <= out["dynamics.norm_drift_max"] < 1e-12
    assert out["dynamics.us_per_site_step.chain"] > 0.0
    assert all(ok for _, ok in checks), checks
