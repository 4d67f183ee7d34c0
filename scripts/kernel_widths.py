#!/usr/bin/env python3
"""Kernel cost per member-step, on float lanes and by array-lane width.

    python3 scripts/kernel_widths.py
    python3 scripts/kernel_widths.py --widths 25 50 64 --steps 2000 --repeats 5

Each method's RK4 kernel runs at 1 K (so every method has noise) for
--steps steps of dt 0.15 from s = -x, recording s_z as integrate_members
does: once on float lanes, one member, and once on array lanes of each
width.  The noise is drawn beforehand and copied into the lanes' buffer
untimed; every lane reads the same trace, and the lanes record s_z in the
noise rows they have read.  The table gives the best of --repeats runs in
microseconds per member-step.
"""

from __future__ import annotations

import argparse
import os
import time
from array import array

import numpy as np

from spinbath import build_unit_frame, dynamics
from spinbath.experiments import METHOD_TAGS, method_config

SPIN = (-1.0, 0.0, 0.0)
DT = 0.15


def float_seconds(cfg, trace) -> float:
    """Wall seconds of one float-lane run."""
    noise = dynamics._site_noise(trace, cfg.n_steps)
    sinks = [dynamics._skip] * 6
    sinks[2] = array("d").append
    t = time.perf_counter()
    next(dynamics._kernel(cfg, list(SPIN), noise, dynamics.FLOAT_LANES,
                          sinks), None)
    return time.perf_counter() - t


def lane_seconds(cfg, trace, width: int) -> float:
    """Wall seconds of one run on `width` array lanes, each reading trace.
    The noise buffer is filled untimed, and s_z is recorded into its spent
    rows, as integrate_members records it; a run overwrites the z noise, so
    each run gets a fresh buffer."""
    buf = dynamics._lane_noise([trace] * width, width, cfg.n_steps)
    sinks = [dynamics._skip] * 6
    sinks[2] = dynamics._row_sink(buf[2, :cfg.n_steps + 1])
    s = tuple(np.full(width, x) for x in SPIN)
    lanes = dynamics._member_lanes(np.zeros(width, dtype=np.int64))
    t = time.perf_counter()
    with np.errstate(all="ignore"):
        next(dynamics._kernel(cfg, s, buf[:, 1:], lanes, sinks), None)
    return time.perf_counter() - t


def member_step_us(cfg, widths, repeats: int) -> list:
    """Best-of-repeats microseconds per member-step: float lanes first,
    then each width."""
    trace = dynamics.noise_traces(cfg, 1, 1)[0]
    steps = cfg.n_steps
    out = [min(float_seconds(cfg, trace) for _ in range(repeats)) / steps]
    for width in widths:
        best = min(lane_seconds(cfg, trace, width) for _ in range(repeats))
        out.append(best / (steps * width))
    return [1e6 * x for x in out]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--widths", type=int, nargs="+",
                    default=[64, 100, 288, 1152])
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.steps < 1 or args.repeats < 1 or min(args.widths) < 1:
        ap.error("--steps, --repeats and every width must be at least 1")

    frame = build_unit_frame(10.0, -1.76e11, 1)
    print(f"# us per member-step, {args.steps} steps at dt {DT}, best of "
          f"{args.repeats}, noise excluded; numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs")
    print(f"{'method':16s}{'float':>9s}" + "".join(f"{w:>9d}"
                                                  for w in args.widths))
    for method in METHOD_TAGS:
        cfg = method_config(method, frame, 1.0, dt=DT, t_max=args.steps * DT)
        costs = member_step_us(cfg, args.widths, args.repeats)
        print(f"{method:16s}" + "".join(f"{c:9.3f}" for c in costs))


if __name__ == "__main__":
    main()
