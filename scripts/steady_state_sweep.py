#!/usr/bin/env python3
"""Steady-state spin alignment versus temperature for all four methods.

Writes one CSV per spin length with the per-method steady s_z, its error
bar, the rescaled curve m(T) = s_z(T)/s_z(0) and the closed-form classical
oracle.  Desk scale by default; --full switches to the long runs
(t_max = 2*pi*7200), which take hours.
"""

import argparse
import math
from pathlib import Path

from spinbath import build_unit_frame
from spinbath.cli import sweep_table, write_csv
from spinbath.experiments import METHOD_TAGS, temperature_sweep

TEMPS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--spin-halves", type=int, nargs="+", default=[1, 200])
    ap.add_argument("--replicas", type=int, default=4)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--full", action="store_true",
                    help="full-scale run length instead of desk scale")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    t_max = 2 * math.pi * (7200 if args.full else 500)
    for n in args.spin_halves:
        frame = build_unit_frame(10.0, -1.76e11, n)
        results = temperature_sweep(METHOD_TAGS, TEMPS, frame, t_max=t_max,
                                    seed=args.seed, n_replicas=args.replicas,
                                    workers=args.workers)
        path = args.out / f"steady_state_n{n}.csv"
        meta = [f"spin_halves={n} t_max={t_max} seed={args.seed} "
                f"replicas={args.replicas}"]
        write_csv(path, meta, *sweep_table(TEMPS, frame, results))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
