"""Span tracing from outside the package, and the per-layer metrics.

Each wrapper is installed on the public name in the namespace of the module
that calls it (``spinbath.experiments.integrate`` is what ensemble_average
looks up), and the originals are restored afterwards.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
child spans cover; with one thread, children never overlap, so the self
times of all spans of a repeat add up to the root span, the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spinbath import SET1
from spinbath.coupling import PowerSpectrum
from spinbath.model import OhmicParams

KINDS = ("classical-ohmic", "quantum-ohmic", "quantum-lorentzian")
METHODS = ("llg-classical", "llg-quantum", "lorentzian-set1", "lorentzian-set2")


def method_of(cfg) -> str:
    """The method tag an IntegratorConfig was built from."""
    if isinstance(cfg.bath, OhmicParams):
        return "llg-quantum" if cfg.noise_kind == "quantum-ohmic" else "llg-classical"
    return "lorentzian-set1" if cfg.bath == SET1 else "lorentzian-set2"


def _integrate_attrs(args, kwargs, traj):
    return {"steps": args[1].n_steps, "sites": args[0].n_sites,
            "method": method_of(args[1]), "norms": traj.norms}


# (module, attribute, span name, attributes recorded from the call)
TARGETS = (
    ("spinbath.cli", "main", "cli.main", None),
    ("spinbath.cli", "ensemble_average", "experiments.ensemble_average", None),
    ("spinbath.cli", "temperature_sweep", "experiments.temperature_sweep", None),
    ("spinbath", "integrate", "dynamics.integrate", _integrate_attrs),
    ("spinbath.cli", "integrate", "dynamics.integrate", _integrate_attrs),
    ("spinbath.experiments", "integrate", "dynamics.integrate", _integrate_attrs),
    ("spinbath.cli", "noise_traces", "noise.noise_traces", None),
    ("spinbath.dynamics", "noise_traces", "noise.noise_traces", None),
    ("spinbath.dynamics", "trace_for_run", "noise.trace_for_run",
     lambda a, kw, tr: {"retained": tr.n_samples}),
    ("spinbath.noise", "white_gaussian", "noise.white",
     lambda a, kw, r: {"samples": a[0].n_samples}),
    ("spinbath.noise", "colour", "noise.colour",
     lambda a, kw, r: {"samples": a[0].shape[1], "kind": a[1].kind}),
    ("spinbath.dynamics", "power_spectrum", "coupling.power_spectrum", None),
    (PowerSpectrum, "trace_density", "coupling.trace_density", None),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Records nested spans of the calls made through its wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
                if span.parent is not None:
                    spans[span.parent].child += span.duration
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs in TARGETS:
                if isinstance(owner, str):
                    owner = importlib.import_module(owner)
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def repeat_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one traced repeat; spans[0] is its root."""
    self_by = {}
    for s in spans:
        self_by[s.name] = self_by.get(s.name, 0.0) + s.self_time

    def total(prefix):
        return sum(v for k, v in self_by.items() if k.startswith(prefix))

    m = {
        "bench.check_s": self_by.get("bench", 0.0),
        "cli.self_s": total("cli."),
        "experiments.ensemble_self_s": total("experiments.ensemble_average"),
        "experiments.steady_self_s": total("experiments.temperature_sweep"),
        "dynamics.integrate_self_s": total("dynamics."),
        "noise.self_s": total("noise."),
        "noise.white_s": total("noise.white"),
        "noise.colour_s": total("noise.colour"),
        "coupling.spectrum_s": total("coupling."),
        "trace.wall_s": spans[0].duration,
    }
    samples = sum(s.attrs["samples"] for s in spans if s.name == "noise.white")
    retained = sum(s.attrs["retained"] for s in spans if s.name == "noise.trace_for_run")
    m["noise.samples"] = samples
    m["noise.margin_frac"] = 1.0 - retained / samples if samples else 0.0
    for kind in KINDS:
        calls = [s for s in spans if s.name == "noise.colour" and s.attrs["kind"] == kind]
        n = sum(s.attrs["samples"] for s in calls)
        m[f"noise.colour_us_per_sample.{kind}"] = (
            1e6 * sum(s.self_time for s in calls) / n if n else 0.0)
    calls = [s for s in spans if s.name == "dynamics.integrate"]
    m["dynamics.member_steps"] = sum(s.attrs["steps"] * s.attrs["sites"] for s in calls)
    for method in METHODS:
        mine = [s for s in calls if s.attrs["method"] == method and s.attrs["sites"] == 1]
        n = sum(s.attrs["steps"] for s in mine)
        m[f"dynamics.us_per_step.{method}"] = (
            1e6 * sum(s.self_time for s in mine) / n if n else 0.0)
    multi = [s for s in calls if s.attrs["sites"] > 1]
    n = sum(s.attrs["steps"] * s.attrs["sites"] for s in multi)
    m["dynamics.us_per_site_step.chain"] = (
        1e6 * sum(s.self_time for s in multi) / n if n else 0.0)
    return m


LAYER_SELF = ("bench.check_s", "cli.self_s", "experiments.ensemble_self_s",
              "experiments.steady_self_s", "dynamics.integrate_self_s",
              "noise.self_s", "coupling.spectrum_s")
COUNTS = ("noise.samples", "noise.margin_frac", "dynamics.member_steps")


def _percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(repeats: list[list[Span]]) -> tuple[dict, list[tuple[str, bool]]]:
    """Medians over traced repeats, counts and pooled per-call latencies, with
    the checks that counts repeat exactly and that the self times of each
    repeat add up to its traced wall time."""
    per = [repeat_metrics(spans) for spans in repeats]
    checks = [(f"count {key} repeats", len({p[key] for p in per}) == 1)
              for key in COUNTS]
    for p in per:
        gap = p["trace.wall_s"] - sum(p[k] for k in LAYER_SELF)
        checks.append(("self times add up to the traced wall time",
                       abs(gap) <= 1e-9 * max(1.0, p["trace.wall_s"])))
    out = {k: statistics.median(p[k] for p in per) for k in per[0]}
    out.update((k, per[0][k]) for k in COUNTS)
    calls = [s for spans in repeats for s in spans if s.name == "dynamics.integrate"]
    durations = [1e3 * s.duration for s in calls] or [0.0]
    out["dynamics.integrate_ms.p50"] = _percentile(durations, 50)
    out["dynamics.integrate_ms.p90"] = _percentile(durations, 90)
    out["dynamics.norm_drift_max"] = max(
        (float(np.max(np.abs(s.attrs["norms"] - 1.0))) for s in calls), default=0.0)
    return out, checks
