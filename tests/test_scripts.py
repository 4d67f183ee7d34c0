"""Smoke runs of the experiment scripts in scripts/, at tiny sizes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinbath.experiments import METHOD_TAGS

ROOT = Path(__file__).resolve().parent.parent
STEPS = 20  # --t-max 3 at the default dt = 0.15


def run_script(name: str, *flags: str) -> str:
    """Run scripts/<name> with flags; its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *flags], env=env, check=True, capture_output=True,
                          text=True, timeout=600).stdout


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
    run_script("short_time_trajectories.py", "--out", str(tmp_path),
               "--t-max", "3")
    cols = [f"{m}_sz" for m in METHOD_TAGS]
    cols += [f"{m}_{c}" for m in METHOD_TAGS if m.startswith("lorentzian")
             for c in ("sx", "norm")]
    for name in ("trajectories_n1_T1.csv", "trajectories_n200_T200.csv"):
        check(tmp_path / name, ["t"] + sorted(cols), STEPS + 1)


def test_ensemble_relaxation(tmp_path):
    run_script("ensemble_relaxation.py", "--out", str(tmp_path),
               "--t-max", "3", "--n-traj", "2")
    cols = ["t"]
    for m in METHOD_TAGS:
        cols += [f"{m}_mean", f"{m}_err"]
    for name in ("relaxation_n1_T1.csv", "relaxation_n200_T200.csv"):
        check(tmp_path / name, cols, STEPS + 1)


def test_steady_state_sweep(tmp_path):
    run_script("steady_state_sweep.py", "--out", str(tmp_path),
               "--spin-halves", "1", "--replicas", "1")
    cols = ["temperature", "oracle"]
    for m in METHOD_TAGS:
        cols += [f"{m}_sz", f"{m}_err", f"{m}_m"]
    check(tmp_path / "steady_state_n1.csv", cols, 9)
    assert not (tmp_path / "steady_state_n200.csv").exists()


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_on_canned_runs():
    bench_pairs = load_bench_pairs()

    def run(wall, rate, rss, hits, failed=0):
        return {"correct": failed == 0, "failed": failed,
                "metrics": {"wall_s": wall, "rate": rate, "rss": rss,
                            "hits": hits}}
    pairs = [{"base": run(b, 1.0, 100.0, 10.0), "change": run(c, r, m, h)}
             for b, c, r, m, h in [(2.0, 0.4, 2.0, 104.0, 8.0),
                                   (2.4, 0.5, 0.5, 106.0, 9.5),
                                   (2.2, 0.3, 1.0, 107.0, 8.5),
                                   (1.8, 2.0, 3.0, 105.0, 8.8)]]
    pairs[3]["change"]["failed"] = 1
    pairs[3]["change"]["correct"] = False
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower",
                "bound": 0.24},
               {"name": "rate", "unit": "1/s", "better": "higher",
                "bound": 0.1},
               {"name": "rss", "unit": "MB", "better": "lower",
                "bound": 0.05},
               {"name": "hits", "unit": "1", "better": "higher",
                "bound": 0.1}]
    out = bench_pairs.summarise(pairs, metrics)
    assert out["pairs"] == 4
    assert out["correct"] is False
    assert out["failed"] == {"base": 0, "change": 1}
    wall = out["metrics"]["wall_s"]
    assert wall["base"] == pytest.approx({"q1": 1.95, "median": 2.1,
                                          "q3": 2.25})
    assert wall["change"]["median"] == pytest.approx(0.45)
    assert wall["change_wins"] == 3
    assert wall["median_change_frac"] == pytest.approx((0.45 - 2.1) / 2.1)
    assert wall["gap_exceeds_base_iqr"] is True
    assert wall["within_bound"] is True
    rate = out["metrics"]["rate"]
    assert rate["change_wins"] == 2  # higher is better; a tie is no win
    assert rate["base"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert rate["gap_exceeds_base_iqr"] is True  # 1.5 against 1.0, IQR 0
    assert rate["within_bound"] is True
    # lower is better: median 105.5 is 5.5% above the base, bound 5%
    assert out["metrics"]["rss"]["within_bound"] is False
    # higher is better: median 8.65 is 13.5% below the base, bound 10%
    assert out["metrics"]["hits"]["within_bound"] is False
    pairs[0]["change"]["metrics"]["rss"] = 102.0
    pairs[1]["change"]["metrics"]["rss"] = 104.0
    pairs[1]["change"]["metrics"]["hits"] = 9.8
    pairs[2]["change"]["metrics"]["hits"] = 9.6
    out = bench_pairs.summarise(pairs, metrics)
    # 104.5 is 4.5% above the base; 9.2 is 8% below it
    assert out["metrics"]["rss"]["within_bound"] is True
    assert out["metrics"]["hits"]["within_bound"] is True
    assert bench_pairs.parse_pairs(["chain=10", "sweep=3"]) == {
        "chain": 10, "sweep": 3}
    with pytest.raises(SystemExit):
        bench_pairs.parse_pairs(["chain"])


def test_bench_pairs_commands_parse_and_summarise_without_bounds():
    bench_pairs = load_bench_pairs()
    assert bench_pairs.parse_commands([
        "criterion2=python3 -m pytest -q tests/test_acceptance.py "
        "-k 'criterion_02 or criterion_03'", "noop=true"]) == {
        "criterion2": ["python3", "-m", "pytest", "-q",
                       "tests/test_acceptance.py", "-k",
                       "criterion_02 or criterion_03"],
        "noop": ["true"]}
    for bad in ("criterion2", "criterion2=", "=python3"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_commands([bad])

    def run(wall, rss, returncode=0):
        ok = returncode == 0
        return {"correct": ok, "attempted": 1, "failed": int(not ok),
                "metrics": {"wall_s": wall, "peak_rss_mb": rss}}
    pairs = [{"base": run(90.0, 300.0), "change": run(40.0, 320.0)},
             {"base": run(88.0, 310.0), "change": run(38.0, 330.0, 1)},
             {"base": run(86.0, 305.0), "change": run(41.0, 325.0)}]
    out = bench_pairs.summarise(pairs, bench_pairs.COMMAND_METRICS)
    assert out["pairs"] == 3 and out["correct"] is False
    assert out["failed"] == {"base": 0, "change": 1}
    wall = out["metrics"]["wall_s"]
    assert wall["base"] == {"q1": 87.0, "median": 88.0, "q3": 89.0}
    assert wall["change"]["median"] == 40.0
    assert wall["change_wins"] == 3 and wall["gap_exceeds_base_iqr"] is True
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0
    assert rss["median_change_frac"] == pytest.approx(20.0 / 305.0)
    # no BENCHMARK.json bound applies to a command
    assert "within_bound" not in wall and "within_bound" not in rss


def test_bench_pairs_exports_the_checkout_as_it_stands(tmp_path):
    bench_pairs = load_bench_pairs()
    repo, dest = tmp_path / "repo", tmp_path / "export"
    dest.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)
    (repo / "sub").mkdir(parents=True)
    files = {".gitignore": "ignored/\n*.pyc\n", "edited.txt": "old\n",
             "sub/kept.txt": "kept\n", "deleted.txt": "gone\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "files")
    (repo / "edited.txt").write_text("new\n")
    (repo / "deleted.txt").unlink()
    (repo / "untracked.txt").write_text("untracked\n")
    (repo / "ignored").mkdir()
    (repo / "ignored" / "out.csv").write_text("1\n")
    (repo / "sub" / "cache.pyc").write_bytes(b"\0")
    bench_pairs.export_worktree(dest, root=repo)
    got = {p.relative_to(dest).as_posix(): p.read_text()
           for p in dest.rglob("*") if p.is_file()}
    assert got == {".gitignore": "ignored/\n*.pyc\n", "edited.txt": "new\n",
                   "sub/kept.txt": "kept\n", "untracked.txt": "untracked\n"}
