"""Paired bench runs of a base commit and the checkout, into BENCH_<n>.json.

    python3 scripts/bench_pairs.py --out BENCH_6.json \\
        --first-seed 6001 chain=10 ensemble=3 sweep=3 trajectory=3
    python3 scripts/bench_pairs.py --out BENCH_n.json --first-seed 1 \\
        c2=3 --command \\
        c2='python3 -m pytest -q -k criterion_02 tests/test_acceptance.py'

Each `workload=pairs` argument asks for that many pairs of runs of
`bench/run.py --trace 0`, each as long as BENCHMARK.json's `run_seconds`.
A `--command name='command line'` names a command, and `name=pairs` asks
for that many pairs of runs of it, each in the root of its tree with
PYTHONPATH=<tree>/src.  A fresh wrapper process runs the command once and
reports its wall seconds and, from RUSAGE_CHILDREN, the peak RSS of its
largest process.
The base commit (`--base`, default HEAD) is exported with `git archive` into
a temporary directory, and the change, the checkout as it stands, into a
sibling one: its tracked files with their uncommitted edits and its untracked
files that git does not ignore.  So the two sides differ only in their files,
not in where they sit or in byte-code caches.  Both sides of a pair use
the same workload seed, pair i of a workload seed first_seed + i, and the
side that runs first alternates from pair to pair.  Runs are sequential, so
no run competes with another for a core.

The JSON records both git shas, nproc, the Python, numpy and scipy versions
of the workload runs, every run's result, and per workload or command and
metric the median and quartiles of each side and the number of pairs the
change won.  For a workload's end-to-end metrics it also records whether
the change's median is within the metric's BENCHMARK.json bound; commands
have no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
COMMAND_METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
                   {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]

# Run by a fresh interpreter per command run, so that RUSAGE_CHILDREN covers
# that command's processes alone; the command's output goes to stderr.
WRAPPER = """
import json, resource, subprocess, sys, time
t = time.perf_counter()
status = subprocess.run(sys.argv[1:], stdout=sys.stderr).returncode
wall = time.perf_counter() - t
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss, "returncode": status}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the tree of commit `sha` into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path, root: Path = ROOT) -> None:
    """Copy the files of the checkout at root into dest: tracked files as
    they stand, uncommitted edits included, and untracked files that git
    does not ignore."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, stdout=subprocess.PIPE).stdout.split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        src = root / name
        # a tracked file deleted in the checkout is left out
        if src.is_file() or src.is_symlink():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run in the tree at root: its provenance,
    correctness, operation counts and metric values."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, text=True, stdout=subprocess.PIPE)
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    prov = next(l["provenance"] for l in lines if "provenance" in l)
    result = lines[-1]
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "src_sha256": prov["src_sha256"],
            "versions": {k: prov[k] for k in ("python", "numpy", "scipy")}}


def command_run(root: Path, argv: list) -> dict:
    """One run of the command argv in the tree at root, through WRAPPER."""
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, *argv], cwd=root, check=True,
        text=True, stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    result = json.loads(proc.stdout)
    ok = result.pop("returncode") == 0
    return {"correct": ok, "attempted": 1, "failed": int(not ok),
            "metrics": result}


def quartiles(values) -> dict:
    """Median and first and third quartiles (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(pairs: list, metrics: list) -> dict:
    """Per metric: quartiles of each side, pairs the change won, whether
    the medians differ by more than the base's interquartile range, and
    whether the change's median is within the metric's regression bound.

    pairs is a list of {"base": run, "change": run}; metrics are the
    BENCHMARK.json end-to-end entries (name, unit, better, bound).  A bound
    is a fraction of the base median by which the change may be worse; a
    metric without one gets no within_bound.
    """
    out = {"pairs": len(pairs),
           "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
           "metrics": {}}
    for m in metrics:
        name = m["name"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        stats = {s: quartiles(vals[s]) for s in SIDES}
        base, change = stats["base"]["median"], stats["change"]["median"]
        wins = sum(sign * (c - b) < 0
                   for b, c in zip(vals["base"], vals["change"]))
        base_iqr = stats["base"]["q3"] - stats["base"]["q1"]
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], **stats,
            "change_wins": wins,
            "median_change_frac": (change - base) / base if base else None,
            "gap_exceeds_base_iqr": abs(change - base) > base_iqr,
        }
        if "bound" in m:
            out["metrics"][name]["within_bound"] = (
                sign * (change - base) <= m["bound"] * abs(base))
    return out


def parse_pairs(specs) -> dict:
    pairs = {}
    for spec in specs:
        name, _, count = spec.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"bench_pairs: want workload=pairs, got {spec!r}")
        pairs[name] = int(count)
    return pairs


def parse_commands(specs) -> dict:
    """{name: argv} of each `name=command line` spec."""
    commands = {}
    for spec in specs:
        name, _, line = spec.partition("=")
        argv = shlex.split(line)
        if not name or not argv:
            raise SystemExit(f"bench_pairs: want name=command, got {spec!r}")
        commands[name] = argv
    return commands


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pairs", nargs="+",
                    help="workload=number_of_pairs or command=number_of_pairs")
    ap.add_argument("--command", action="append", default=[],
                    help="name='command line', timed as name=number_of_pairs")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--base", default="HEAD",
                    help="base commit (default HEAD)")
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = parse_pairs(args.pairs)
    commands = parse_commands(args.command)
    unknown = (set(wanted) - {w["name"] for w in spec["workloads"]}
               - set(commands))
    if unknown:
        raise SystemExit(f"bench_pairs: unknown workloads {sorted(unknown)}")

    base_sha = git("rev-parse", args.base)
    record = {
        "base": {"rev": args.base, "git_sha": base_sha},
        "change": {"git_sha": git("rev-parse", "HEAD"),
                   "uncommitted_edits": bool(git("status", "--porcelain"))},
        "nproc": os.cpu_count(), "seconds": spec["run_seconds"],
        "first_seed": args.first_seed, "workloads": {}, "commands": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # sibling directories with names of one length
        roots = {"base": Path(tmp) / "a", "change": Path(tmp) / "b"}
        for root in roots.values():
            root.mkdir()
        export(base_sha, roots["base"])
        export_worktree(roots["change"])
        for name, n in wanted.items():
            pairs = []
            for i in range(n):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"order": list(order)}
                for side in order:
                    if name in commands:
                        pair[side] = command_run(roots[side], commands[name])
                    else:
                        pair[side] = bench_run(roots[side], name,
                                               args.first_seed + i,
                                               spec["run_seconds"])
                    print(f"{name} pair {i} {side}: "
                          f"{pair[side]['metrics']}", file=sys.stderr)
                pairs.append(pair)
            if name in commands:
                record["commands"][name] = {
                    "argv": commands[name], "runs": pairs,
                    "summary": summarise(pairs, COMMAND_METRICS)}
            else:
                record["workloads"][name] = {
                    "runs": pairs,
                    "summary": summarise(pairs, spec["end_to_end"])}
    for side in SIDES:
        runs = [p[side] for w in record["workloads"].values()
                for p in w["runs"]]
        if runs:
            record[side]["src_sha256"] = sorted({r["src_sha256"]
                                                 for r in runs})
            record[side]["versions"] = runs[0]["versions"]
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
