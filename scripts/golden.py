#!/usr/bin/env python3
"""SHA-256 digests of small seeded runs, pinned in tests/golden.json.

    python3 scripts/golden.py           # list the outputs whose digest moved
    python3 scripts/golden.py --write   # store this install's digests

The runs cover every seeded output the package writes: the CLI trajectory
of each method with its noise dump, the ensemble and sweep CSVs at one and
two workers, the arrays of an exchange-coupled chain, and the noise traces
of each method at 0, 1 and 25 K.  The ensemble has 64 members, which run
as one batch at one worker and as two at two workers.

Digests are stored under the numpy version, because the Philox white draw
is bit-reproducible only for a fixed numpy; --write replaces this
version's entry and keeps the others.  A change that moves outputs on
purpose rewrites the file and names the moved digests in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from spinbath import cli
from spinbath.dynamics import integrate, noise_traces
from spinbath.experiments import METHOD_TAGS, method_config
from spinbath.model import SpinSystem, build_unit_frame

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
COMMAND = "python3 scripts/golden.py --write"

FRAME_INI = """
[frame]
b_ext_tesla = 10.0
spin_halves = 1
"""

# (bath section, noise kind) of each method's CLI trajectory
CLI_METHODS = {
    "llg-classical": ("kind = ohmic", "classical-ohmic"),
    "llg-quantum": ("kind = ohmic", "quantum-ohmic"),
    "lorentzian-set1": ("kind = lorentzian\npreset = set1",
                        "quantum-lorentzian"),
    "lorentzian-set2": ("kind = lorentzian\npreset = set2",
                        "quantum-lorentzian"),
}

TEMPERATURES = (0.0, 1.0, 25.0)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _cli(tmp: Path, name: str, text: str, *flags: str) -> Path:
    """Run the CLI on config text in a fresh directory; its output dir."""
    out = tmp / name
    out.mkdir()
    ini = out / "run.ini"
    ini.write_text(FRAME_INI + text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["--config", str(ini), "--out", str(out), *flags])
    if status != 0:
        raise RuntimeError(f"golden run {name} exited {status}")
    return out


def cli_digests(tmp: Path) -> dict:
    got = {}
    runs = [(m, bath, kind, 1.0) for m, (bath, kind) in CLI_METHODS.items()]
    runs.append(("llg-classical-T0", *CLI_METHODS["llg-classical"], 0.0))
    for name, bath, kind, temp in runs:
        out = _cli(tmp, f"trajectory-{name}", f"""
[bath]
{bath}
[noise]
kind = {kind}
temperature = {temp}
[run]
mode = trajectory
t_max = 30
seed = 42
""", "--dump-noise")
        for csv in ("trajectory.csv", "trajectory.noise0.csv"):
            got[f"cli-{name}/{csv}"] = sha256((out / csv).read_bytes())
    for workers in ("1", "2"):
        out = _cli(tmp, f"ensemble-w{workers}", f"""
[bath]
kind = lorentzian
preset = set2
[noise]
kind = quantum-lorentzian
temperature = 1.0
[run]
mode = ensemble
t_max = 15
n_traj = 64
seed = 7
""", "--workers", workers)
        got[f"cli-ensemble-workers{workers}"] = sha256(
            (out / "ensemble.csv").read_bytes())
        out = _cli(tmp, f"sweep-w{workers}", f"""
[noise]
temperatures = {", ".join(map(str, TEMPERATURES))}
[run]
mode = sweep
t_max = 2000
seed = 11
""", "--workers", workers)
        got[f"cli-sweep-workers{workers}"] = sha256(
            (out / "sweep.csv").read_bytes())
    return got


def chain_digests() -> dict:
    frame = build_unit_frame(10.0, -1.76e11, 1)
    spins = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, -0.8]])
    j = 0.3 * np.eye(3)
    system = SpinSystem(spins=spins, exchange={(0, 1): j, (1, 2): j})
    got = {}
    for method in ("llg-quantum", "lorentzian-set2"):
        traj = integrate(system, method_config(method, frame, 1.0, t_max=30.0),
                         seed=5)
        arrays = [traj.times, traj.spins, traj.norms]
        if traj.aux_v is not None:
            arrays.append(traj.aux_v)
        got[f"chain-{method}"] = sha256(*(a.tobytes() for a in arrays))
    return got


def trace_digests() -> dict:
    """Digest of each method's single-site noise trace; a method without
    noise at that temperature digests to that of no bytes."""
    frame = build_unit_frame(10.0, -1.76e11, 1)
    got = {}
    for method in METHOD_TAGS:
        for temp in TEMPERATURES:
            traces = noise_traces(method_config(method, frame, temp,
                                                t_max=30.0), 3, 1)
            got[f"noise-{method}-T{temp:g}"] = sha256(
                *(tr.components.tobytes() for tr in traces or ()))
    return got


def digests() -> dict:
    """Every golden output's SHA-256, by name."""
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        got = cli_digests(Path(tmp))
    got.update(chain_digests())
    got.update(trace_digests())
    return got


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def moved(want: dict, got: dict) -> list:
    """Names whose digest differs, or that only one side has."""
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="store this numpy version's digests")
    args = ap.parse_args()
    golden = load() if GOLDEN.exists() else {}
    got = digests()
    if args.write:
        golden[np.__version__] = got
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(got)} digests for numpy {np.__version__}")
        return 0
    if np.__version__ not in golden:
        print(f"no digests for numpy {np.__version__}; run {COMMAND}")
        return 1
    names = moved(golden[np.__version__], got)
    print("\n".join(names) if names else "all digests match")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
