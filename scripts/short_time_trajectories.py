#!/usr/bin/env python3
"""Single-spin short-time trajectories for all four methods, shared noise seed.

Produces one CSV per (spin length, temperature) pair with s_z for every
method plus s_x and |s| for the two resonant baths, all generated from the
same white-noise samples so the traces are directly comparable.
"""

import argparse
import math
from pathlib import Path

from spinbath import SpinSystem, build_unit_frame, integrate
from spinbath.cli import write_csv
from spinbath.experiments import METHOD_TAGS, method_config
from spinbath.noise import trace_for_run

PAIRS = ((1, 1.0), (200, 200.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--t-max", type=float, default=2 * math.pi * 8)
    ap.add_argument("--dt", type=float, default=0.15)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for n_halves, temp in PAIRS:
        frame = build_unit_frame(10.0, -1.76e11, n_halves)
        configs = {method: method_config(method, frame, temp, dt=args.dt,
                                         t_max=args.t_max)
                   for method in METHOD_TAGS}
        # a common lead-in, the longest any method needs, keeps the
        # white-sample block identical across methods
        lead_in = max(cfg.margin_time for cfg in configs.values())
        columns = {}
        for method, cfg in configs.items():
            traces = None if cfg.spectrum is None else [
                trace_for_run(cfg.spectrum, args.seed, cfg.dt, cfg.n_steps,
                              lead_in)]
            traj = integrate(SpinSystem.single((-1, 0, 0)), cfg,
                             traces=traces)
            columns[f"{method}_sz"] = traj.sz()
            if method.startswith("lorentzian"):
                columns[f"{method}_sx"] = traj.spins[0, :, 0]
                columns[f"{method}_norm"] = traj.norms[0]
            times = traj.times

        path = args.out / f"trajectories_n{n_halves}_T{temp:g}.csv"
        names = sorted(columns)
        meta = [f"spin_halves={n_halves} temperature={temp} "
                f"seed={args.seed} dt={args.dt} t_max={args.t_max}"]
        write_csv(path, meta, ",".join(["t"] + names),
                  [(times, *(columns[c] for c in names))])
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
