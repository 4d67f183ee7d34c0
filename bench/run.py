"""spinbath benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; spinbath is imported from its src/.
Every measurement runs in fresh worker processes (bench/worker.py), one at a
time, with --workers 1.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it give
the provenance and a readable summary.  Workload names and metric units come
from BENCHMARK.json.  See bench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROCESSES = 12     # set-up-only processes, half before and half after
                         # the measuring one, to span the run's time window
TIME_LIMIT_S = 170.0


def run_worker(workload, seed, workdir, seconds, mode, deadline) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(workdir), str(seconds), mode]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"bench: {mode} worker for {workload} exited with "
                         f"status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(args, worker: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinbath").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **worker["versions"],
            "config": worker["config"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "spinbath" / "__init__.py").is_file():
        print(f"bench: no spinbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        def worker(mode):
            return run_worker(args.workload, args.seed, workdir, args.seconds,
                              mode, deadline)

        if args.trace:
            res = worker("trace")
            values, wanted = res["layers"], spec["per_layer"]
            summary = (f"traced wall {values['trace.wall_s']:.4f} s, "
                       f"overhead {values['trace.overhead_frac']:+.4f}")
        else:
            setups = [worker("setup")["setup_s"] for _ in range(SETUP_PROCESSES // 2)]
            res = worker("plain")
            setups.append(res["setup_s"])
            setups += [worker("setup")["setup_s"] for _ in range(SETUP_PROCESSES // 2)]
            values = {"wall_s": statistics.median(res["walls"]),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": res["peak_rss_mb"]}
            wanted = spec["end_to_end"]
            summary = (f"wall_s {values['wall_s']:.4f} s (median of "
                       f"{len(res['walls'])}), setup_s {values['setup_s']:.4f} s "
                       f"(median of {len(setups)}), peak_rss_mb "
                       f"{values['peak_rss_mb']:.1f} MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if values.keys() != {m["name"] for m in wanted}:
        raise SystemExit("bench: measured metrics do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = res["attempted"], len(res["failed"])
    print(json.dumps({"provenance": provenance(args, res)}))
    print(f"{args.workload}: {summary}, error_rate {failed}/{attempted} = "
          f"{failed / attempted:.4g}")
    for name in sorted(set(res["failed"])):
        print(f"failed: {name} (x{res['failed'].count(name)})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
