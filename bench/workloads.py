"""The four benchmark workloads: inputs made from a seed, set-up, the timed
entry call into spinbath, and the checks on its outputs.

Outputs are checked against physics invariants and shapes, never against
fixed hashes, so a deliberate change of seeded output is not a failure.  A
digest of each repeat's output is still compared between the repeats of one
run, because repeated runs of one config must be byte-identical.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import random

import numpy as np

import spinbath
import spinbath.cli
from spinbath import SpinSystem
from spinbath.experiments import METHOD_TAGS, method_config

NORM_TOL = 1e-5          # |1 - |s|| gate of the module and acceptance suites
WARMUP_T_MAX = 15.0      # 100 steps: enough to run every code path once

FRAME = """\
[frame]
b_ext_tesla = 10.0
gamma = -1.76e11
spin_halves = 1
"""


def program_seed(seed: int) -> int:
    """The seed handed to spinbath, derived from the workload seed."""
    return random.Random(seed).getrandbits(32)


class Tally:
    """Operations attempted and failed in one repeat, with output counts."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.rows = 0
        self.bytes = 0
        self.digest = hashlib.sha256()

    def op(self, name: str, ok: bool, n: int = 1):
        self.attempted += n
        if not ok:
            self.failed += [name] * n


def read_csv(path, tally: Tally):
    """Metadata, header and numeric rows of one CSV output; adds its bytes
    to the tally's digest and counts."""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            tally.digest.update(block)
            tally.bytes += len(block)
    meta = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                header = line.rstrip("\n")
                break
            meta.append(line[2:].rstrip("\n"))
    data = np.loadtxt(path, delimiter=",", skiprows=len(meta) + 1, ndmin=2)
    tally.rows += data.shape[0]
    return meta, header, data


def norm_drift(spins) -> float:
    """max |1 - |s|| over spin vectors on the last axis."""
    return float(np.max(np.abs(np.linalg.norm(spins, axis=-1) - 1.0)))


def check_table(tally: Tally, label: str, header: str, data, want_header: str,
                want_rows: int):
    tally.op(f"{label}:header", header == want_header)
    tally.op(f"{label}:rows", data.shape[0] == want_rows)
    tally.op(f"{label}:finite", bool(np.isfinite(data).all()))


class CliWorkload:
    """A run of the spinbath command line on a generated INI config."""

    extra_args: tuple = ()

    def setup(self, text: str):
        cfg = spinbath.cli.parse_config(text)
        self.warm_up(cfg)
        return cfg

    def warm_up(self, cfg):
        icfg = dataclasses.replace(cfg.integrator_config(), t_max=WARMUP_T_MAX)
        spinbath.integrate(SpinSystem.single(cfg.initial_spin), icfg, seed=cfg.seed)

    def run(self, cfg, config_path, out):
        return spinbath.cli.main(["--config", str(config_path), "--out", str(out),
                                  "--workers", "1", *self.extra_args])

    def check(self, cfg, out, status, tally: Tally):
        tally.op("exit-status", status == 0)
        if status != 0:
            tally.op("program", False, n=self.program_ops(cfg))
            return
        self.check_outputs(cfg, out, tally)


class Ensemble(CliWorkload):
    """CLI ensemble mode: 100 short members on one Lorentzian bath."""

    steps = 2011

    def config(self, seed: int) -> str:
        return FRAME + f"""
[bath]
kind = lorentzian
preset = set2

[noise]
kind = quantum-lorentzian
temperature = 1.0

[run]
mode = ensemble
dt = 0.15
t_max = 301.6
n_traj = 100
seed = {program_seed(seed)}
initial_spin = -1, 0, 0
"""

    def program_ops(self, cfg):
        return cfg.n_traj

    def check_outputs(self, cfg, out, tally):
        meta, header, data = read_csv(out / "ensemble.csv", tally)
        n_used = int(next(m for m in meta if m.startswith("n_used="))[7:])
        tally.op("member", True, n=n_used)
        tally.op("member diverged", False, n=cfg.n_traj - n_used)
        check_table(tally, "ensemble", header, data, "t,sz_mean,sz_stderr",
                    self.steps + 1)
        # every member starts in the x-y plane, so the t = 0 spread is nil
        tally.op("sz-at-zero", data[0, 1] == 0.0 and data[0, 2] == 0.0)
        tally.op("n-used", n_used == cfg.n_traj)


class Sweep(CliWorkload):
    """CLI sweep mode: four methods at three temperatures, long traces."""

    temperatures = (0.0, 1.0, 25.0)

    def config(self, seed: int) -> str:
        return FRAME + f"""
[noise]
temperatures = {", ".join(map(str, self.temperatures))}

[run]
mode = sweep
dt = 0.15
t_max = 3141.6
n_replicas = 1
seed = {program_seed(seed)}
initial_spin = -1, 0, 0
methods = {", ".join(METHOD_TAGS)}
"""

    def warm_up(self, cfg):
        for method in cfg.methods:
            icfg = method_config(method, cfg.frame(), 1.0, t_max=WARMUP_T_MAX)
            spinbath.integrate(SpinSystem.single(cfg.initial_spin), icfg,
                               seed=cfg.seed)

    def program_ops(self, cfg):
        return len(cfg.methods) * len(cfg.temperatures)

    def check_outputs(self, cfg, out, tally):
        _, header, data = read_csv(out / "sweep.csv", tally)
        cols = ["temperature", "oracle"]
        for m in cfg.methods:
            cols += [f"{m}_sz", f"{m}_err", f"{m}_m"]
        check_table(tally, "sweep", header, data, ",".join(cols),
                    len(self.temperatures))
        for m in cfg.methods:
            sz = data[:, cols.index(f"{m}_sz")]
            err = data[:, cols.index(f"{m}_err")]
            for ti in range(len(self.temperatures)):
                tally.op(f"point:{m}:{ti}", bool(np.isfinite(sz[ti])
                                                 and np.isfinite(err[ti])))
            tally.op(f"sz-bound:{m}", bool(np.all(np.abs(sz) <= 1.0)))
        tally.op("oracle", bool(np.all((data[:, 1] > 0) & (data[:, 1] <= 1))))


class Trajectory(CliWorkload):
    """CLI trajectory mode at full scale, with the noise traces dumped."""

    extra_args = ("--dump-noise",)
    steps = 301593

    def config(self, seed: int) -> str:
        return FRAME + f"""
[bath]
kind = ohmic

[noise]
kind = quantum-ohmic
temperature = 1.0

[run]
mode = trajectory
dt = 0.15
t_max = 45239
seed = {program_seed(seed)}
initial_spin = -1, 0, 0
"""

    def program_ops(self, cfg):
        return 1

    def check_outputs(self, cfg, out, tally):
        _, header, data = read_csv(out / "trajectory.csv", tally)
        tally.op("trajectory", True)
        check_table(tally, "trajectory", header, data,
                    "t,site,s_x,s_y,s_z,norm", self.steps + 1)
        tally.op("norm-drift", norm_drift(data[:, 2:5]) < NORM_TOL)
        _, header, data = read_csv(out / "trajectory.noise0.csv", tally)
        check_table(tally, "noise", header, data, "t,b_x,b_y,b_z", self.steps + 1)


@dataclasses.dataclass
class ChainInput:
    system: SpinSystem
    configs: list
    seed: int


class Chain:
    """Library integrate() on an exchange-coupled chain; no CLI mode runs it."""

    sites = 4
    steps = 3000

    def config(self, seed: int) -> str:
        rng = random.Random(seed)
        spins = []
        for _ in range(self.sites):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            spins.append(" ".join(f"{x:.6f}" for x in v))
        return FRAME + f"""
[chain]
exchange = 0.3
methods = lorentzian-set2, llg-quantum
temperature = 1.0
dt = 0.15
t_max = 450
seed = {program_seed(seed)}
spins = {", ".join(spins)}
"""

    def setup(self, text: str) -> ChainInput:
        ini = configparser.ConfigParser()
        ini.read_string(text)
        frame_s, chain = ini["frame"], ini["chain"]
        frame = spinbath.build_unit_frame(frame_s.getfloat("b_ext_tesla"),
                                          frame_s.getfloat("gamma"),
                                          frame_s.getint("spin_halves"))
        spins = np.array([[float(x) for x in s.split()]
                          for s in chain["spins"].split(",")])
        spins /= np.linalg.norm(spins, axis=1, keepdims=True)
        j = chain.getfloat("exchange") * np.eye(3)
        exchange = {}
        for n in range(self.sites - 1):
            exchange[(n, n + 1)] = j
            exchange[(n + 1, n)] = j
        system = SpinSystem(spins=spins, exchange=exchange)
        configs = [method_config(m.strip(), frame, chain.getfloat("temperature"),
                                 dt=chain.getfloat("dt"),
                                 t_max=chain.getfloat("t_max"))
                   for m in chain["methods"].split(",")]
        state = ChainInput(system, configs, chain.getint("seed"))
        for icfg in configs:
            spinbath.integrate(system, dataclasses.replace(icfg, t_max=WARMUP_T_MAX),
                               seed=state.seed)
        return state

    def program_ops(self, state: ChainInput):
        return len(state.configs)

    def run(self, state: ChainInput, config_path, out):
        return [spinbath.integrate(state.system, icfg, seed=state.seed)
                for icfg in state.configs]

    def check(self, state: ChainInput, out, trajs, tally: Tally):
        for icfg, traj in zip(state.configs, trajs):
            tally.op("trajectory", True)
            label = f"chain:{icfg.noise_kind}"
            tally.op(f"{label}:shape",
                     traj.spins.shape == (self.sites, self.steps + 1, 3))
            tally.op(f"{label}:finite", bool(np.isfinite(traj.spins).all()))
            tally.op(f"{label}:norm-drift", norm_drift(traj.spins) < NORM_TOL)
            tally.digest.update(traj.spins.tobytes())
            tally.digest.update(traj.norms.tobytes())


WORKLOADS = {"ensemble": Ensemble(), "sweep": Sweep(),
             "trajectory": Trajectory(), "chain": Chain()}
