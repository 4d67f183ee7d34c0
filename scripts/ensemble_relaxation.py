#!/usr/bin/env python3
"""Ensemble-averaged relaxation curves <s_z>(t) for all four methods.

One CSV per (spin length, temperature) pair with the pointwise ensemble
mean and standard error per method, plus the measured equilibration times
in the metadata.  Desk scale uses 100 trajectories; pass --n-traj 500 for
the full-scale curves.
"""

import argparse
from pathlib import Path

from spinbath import build_unit_frame
from spinbath.cli import write_csv
from spinbath.experiments import (DESK_ENSEMBLE_T_MAX, DESK_N_TRAJ,
                                  METHOD_TAGS, ensemble_average,
                                  equilibration_time, method_config)

PAIRS = ((1, 1.0), (200, 200.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--n-traj", type=int, default=DESK_N_TRAJ)
    ap.add_argument("--t-max", type=float, default=DESK_ENSEMBLE_T_MAX)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for n_halves, temp in PAIRS:
        frame = build_unit_frame(10.0, -1.76e11, n_halves)
        curves = {}
        t_eq = {}
        for method in METHOD_TAGS:
            cfg = method_config(method, frame, temp, t_max=args.t_max)
            res = ensemble_average(cfg, args.n_traj, base_seed=args.seed,
                                   workers=args.workers)
            curves[method] = res
            t_eq[method] = equilibration_time(res.times, res.sz_mean, band=0.10)

        path = args.out / f"relaxation_n{n_halves}_T{temp:g}.csv"
        meta = [f"spin_halves={n_halves} temperature={temp} "
                f"n_traj={args.n_traj} seed={args.seed}",
                "t_eq: " + ", ".join(f"{m}={t_eq[m]:.2f}" for m in METHOD_TAGS)]
        names = ["t"]
        cols = [curves[METHOD_TAGS[0]].times]
        for m in METHOD_TAGS:
            names += [f"{m}_mean", f"{m}_err"]
            cols += [curves[m].sz_mean, curves[m].sz_stderr]
        write_csv(path, meta, ",".join(names), [cols])
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
