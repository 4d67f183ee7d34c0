"""Smoke runs of the experiment scripts in scripts/, at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

from spinbath.experiments import METHOD_TAGS

ROOT = Path(__file__).resolve().parent.parent
STEPS = 20  # --t-max 3 at the default dt = 0.15


def run_script(name: str, out: Path, *flags: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                    "--out", str(out), *flags],
                   env=env, check=True, capture_output=True, timeout=600)


def table(path: Path):
    """Header fields and numeric rows of one CSV output."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = [[float(x) for x in l.split(",")] for l in lines[1:]]
    return lines[0].split(","), rows


def check(path: Path, header: list, n_rows: int) -> None:
    got, rows = table(path)
    assert got == header
    assert len(rows) == n_rows
    assert all(len(r) == len(header) for r in rows)


def test_short_time_trajectories(tmp_path):
    run_script("short_time_trajectories.py", tmp_path, "--t-max", "3")
    cols = [f"{m}_sz" for m in METHOD_TAGS]
    cols += [f"{m}_{c}" for m in METHOD_TAGS if m.startswith("lorentzian")
             for c in ("sx", "norm")]
    for name in ("trajectories_n1_T1.csv", "trajectories_n200_T200.csv"):
        check(tmp_path / name, ["t"] + sorted(cols), STEPS + 1)


def test_ensemble_relaxation(tmp_path):
    run_script("ensemble_relaxation.py", tmp_path, "--t-max", "3",
               "--n-traj", "2")
    cols = ["t"]
    for m in METHOD_TAGS:
        cols += [f"{m}_mean", f"{m}_err"]
    for name in ("relaxation_n1_T1.csv", "relaxation_n200_T200.csv"):
        check(tmp_path / name, cols, STEPS + 1)


def test_steady_state_sweep(tmp_path):
    run_script("steady_state_sweep.py", tmp_path, "--spin-halves", "1",
               "--replicas", "1")
    cols = ["temperature", "oracle"]
    for m in METHOD_TAGS:
        cols += [f"{m}_sz", f"{m}_err", f"{m}_m"]
    check(tmp_path / "steady_state_n1.csv", cols, 9)
    assert not (tmp_path / "steady_state_n200.csv").exists()
