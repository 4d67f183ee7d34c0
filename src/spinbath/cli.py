"""Configuration-driven runs: trajectories, ensembles, sweeps, validation.

Configs are INI-style key = value text (UTF-8).  Every emitted CSV starts
with '#'-prefixed metadata lines carrying the full configuration and the
tool version, so a job can be re-run exactly from its output file.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import (DEFAULT_CUTOFF, SPECTRUM_KINDS, fdt_residuals,
                       moment_quadrature_error, power_spectrum, psd_expansion)
from .dynamics import IntegratorConfig, integrate, noise_traces
from .experiments import (DEFAULT_ETA, DESK_ENSEMBLE_T_MAX, DESK_N_TRAJ,
                          DESK_SWEEP_T_MAX, METHOD_TAGS, ensemble_average,
                          method_config, statphys_oracle, temperature_sweep)
from .model import (GAMMA_ELECTRON, SET1, SET2, ConfigurationError,
                    IntegrationDivergedError, LorentzianParams, OhmicParams,
                    ParameterError, SpinSystem, UnitFrame, build_unit_frame,
                    require_finite)
from .noise import WhiteSeed, banded_psd_error

MODES = ("trajectory", "ensemble", "sweep", "validate")

PRESETS = {"set1": SET1, "set2": SET2}

_SCHEMA = {
    "frame": {"b_ext_tesla", "gamma", "spin_halves"},
    "bath": {"kind", "eta", "preset", "omega0", "gamma_width", "alpha"},
    "noise": {"kind", "temperature", "temperatures", "cutoff"},
    "run": {"mode", "dt", "t_max", "n_traj", "seed", "initial_spin",
            "methods", "downsample", "n_replicas", "workers"},
    "output": {"path"},
}


@dataclass
class ExperimentConfig:
    mode: str = "trajectory"
    b_ext_tesla: float = 10.0
    gamma: float = GAMMA_ELECTRON
    spin_halves: int = 1
    bath_kind: str | None = None
    eta: float | None = None
    preset: str | None = None
    omega0: float | None = None
    gamma_width: float | None = None
    alpha: float | None = None
    noise_kind: str | None = None
    temperature: float = 0.0
    temperatures: tuple = ()
    cutoff: float | None = None
    dt: float = 0.15
    t_max: float | None = None
    n_traj: int = DESK_N_TRAJ
    n_replicas: int = 1
    seed: int = 0
    initial_spin: tuple = (-1.0, 0.0, 0.0)
    methods: tuple = METHOD_TAGS
    downsample: int = 1
    workers: int = 1
    out_path: str | None = None
    dump_noise: bool = False

    def frame(self) -> UnitFrame:
        return build_unit_frame(self.b_ext_tesla, self.gamma, self.spin_halves)

    def bath(self):
        if self.bath_kind is None:
            raise ConfigurationError("bath required")
        if self.bath_kind == "ohmic":
            return OhmicParams(self.eta if self.eta is not None else DEFAULT_ETA)
        if self.preset is not None:
            return PRESETS[self.preset]
        missing = [k for k in ("omega0", "gamma_width", "alpha")
                   if getattr(self, k) is None]
        if missing:
            raise ConfigurationError(
                f"lorentzian bath needs a preset or explicit {missing}")
        return LorentzianParams(self.omega0, self.gamma_width, self.alpha)

    def integrator_config(self) -> IntegratorConfig:
        t_max = self.t_max if self.t_max is not None else DESK_ENSEMBLE_T_MAX
        return IntegratorConfig(frame=self.frame(), bath=self.bath(),
                                noise_kind=self.noise_kind,
                                temperature=self.temperature, dt=self.dt,
                                t_max=t_max, cutoff=self.cutoff)

    def metadata(self) -> list[str]:
        pairs = []
        for f in dataclasses.fields(self):
            pairs.append(f"{f.name}={getattr(self, f.name)!r}")
        return [f"version={__version__}"] + pairs


def _parse_float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(",", " ").split())


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an INI-style experiment description."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"malformed config: {err}") from err

    unknown = []
    for section in parser.sections():
        if section not in _SCHEMA:
            unknown.append(section)
            continue
        unknown.extend(f"{section}.{key}" for key in parser[section]
                       if key not in _SCHEMA[section])
    if unknown:
        raise ConfigurationError("unknown config keys: " + ", ".join(sorted(unknown)))

    cfg = ExperimentConfig()

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                value = cast(raw)
            except Exception as err:
                raise ConfigurationError(f"bad value for {section}.{key}: {raw!r}") from err
            if cast in (float, _parse_float_list):
                # checked here, since a mode or bath may leave the key unused
                require_finite(**{key: value})
            return value
        return default

    cfg.b_ext_tesla = get("frame", "b_ext_tesla", float, cfg.b_ext_tesla)
    cfg.gamma = get("frame", "gamma", float, cfg.gamma)
    cfg.spin_halves = get("frame", "spin_halves", int, cfg.spin_halves)

    if parser.has_section("bath") and parser.options("bath"):
        cfg.bath_kind = get("bath", "kind", str, None)
        if cfg.bath_kind not in ("ohmic", "lorentzian"):
            raise ConfigurationError(
                f"bath.kind must be 'ohmic' or 'lorentzian', got {cfg.bath_kind!r}")
        cfg.eta = get("bath", "eta", float, None)
        preset = get("bath", "preset", str, None)
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigurationError(f"unknown bath.preset {preset!r}")
            cfg.preset = preset
        cfg.omega0 = get("bath", "omega0", float, None)
        cfg.gamma_width = get("bath", "gamma_width", float, None)
        cfg.alpha = get("bath", "alpha", float, None)

    kind = get("noise", "kind", str, None)
    if kind is not None and kind != "none":
        if kind not in SPECTRUM_KINDS:
            raise ConfigurationError(f"unknown noise.kind {kind!r}")
        cfg.noise_kind = kind
    cfg.temperature = get("noise", "temperature", float, cfg.temperature)
    cfg.temperatures = get("noise", "temperatures", _parse_float_list,
                           cfg.temperatures)
    cfg.cutoff = get("noise", "cutoff", float, None)

    cfg.mode = get("run", "mode", str, cfg.mode)
    if cfg.mode not in MODES:
        raise ConfigurationError(f"run.mode must be one of {MODES}, got {cfg.mode!r}")
    cfg.dt = get("run", "dt", float, cfg.dt)
    if not cfg.dt > 0:
        raise ConfigurationError("run.dt must be positive")
    cfg.t_max = get("run", "t_max", float, cfg.t_max)
    cfg.n_traj = get("run", "n_traj", int, cfg.n_traj)
    cfg.n_replicas = get("run", "n_replicas", int, cfg.n_replicas)
    cfg.seed = get("run", "seed", int, cfg.seed)
    cfg.workers = get("run", "workers", int, cfg.workers)
    if cfg.workers < 1:
        raise ConfigurationError("run.workers must be >= 1")
    cfg.downsample = get("run", "downsample", int, cfg.downsample)
    if cfg.downsample < 1:
        raise ConfigurationError("run.downsample must be >= 1")
    spin = get("run", "initial_spin", _parse_float_list, cfg.initial_spin)
    if len(spin) != 3:
        raise ConfigurationError("run.initial_spin must have three components")
    cfg.initial_spin = spin
    methods = get("run", "methods", lambda s: tuple(
        m.strip() for m in s.split(",") if m.strip()), cfg.methods)
    bad = [m for m in methods if m not in METHOD_TAGS]
    if bad:
        raise ConfigurationError(f"unknown methods {bad}; choose from {METHOD_TAGS}")
    cfg.methods = methods

    cfg.out_path = get("output", "path", str, None)

    if cfg.mode in ("trajectory", "ensemble"):
        cfg.bath()        # raises "bath required" / field errors now
        cfg.integrator_config()
    if cfg.mode == "sweep" and not cfg.temperatures:
        raise ConfigurationError("sweep mode needs noise.temperatures")
    return cfg


def write_csv(path: Path, metadata: list[str], header: str, blocks) -> None:
    """Write '# '-prefixed metadata lines, the header, then the rows.

    blocks is an iterable of column blocks, each a sequence of equal-length
    1-d columns of numbers, written block after block.  Every cell is
    formatted '%.17g', which for an integer below 2**53 is str(n).  Rows are
    formatted CHUNK_ROWS at a time, by one % on the row format repeated
    over the chunk.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fmt = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in metadata)
        fh.write(header + "\n")
        for columns in blocks:
            for start in range(0, len(columns[0]), CHUNK_ROWS):
                chunk = np.column_stack(
                    [c[start:start + CHUNK_ROWS] for c in columns])
                fh.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


# write_csv converts and formats rows this many at a time, so a long run
# never holds its whole table as Python objects: the six columns of a
# 301,593-step trajectory took about 48 MB as lists.  With one tuple and one
# % per row, writing that trajectory and its noise dump (2 cores, local disk,
# four runs each) took 2.16-2.85 s with whole columns and 2.26-2.48 s at
# 4,096 rows; 256 and 65,536 rows fell in the same spread.  One % per chunk
# cut the traced CLI self time of that run from 2.51-2.64 s to 2.12-2.14 s
# (two runs each).  A chunk of 4,096 rows holds about 1 MB.
CHUNK_ROWS = 4096


def sweep_table(temperatures, frame: UnitFrame, results) -> tuple[str, list]:
    """Header and the one column block of a temperature sweep: temperature,
    the classical oracle, then per method s_z, its error and, if attached,
    m(T)."""
    temps = [float(t) for t in temperatures]
    names = ["temperature", "oracle"]
    cols = [temps, [statphys_oracle(frame.n_halves, t, frame) for t in temps]]
    for r in results:
        names += [f"{r.method}_sz", f"{r.method}_err"]
        cols += [r.sz_mean.tolist(), r.sz_stderr.tolist()]
        if r.rescaled is not None:
            names.append(f"{r.method}_m")
            cols.append(r.rescaled.tolist())
    return ",".join(names), [cols]


def _run_trajectory(cfg: ExperimentConfig, out_dir: Path) -> Path:
    icfg = cfg.integrator_config()
    sys_ = SpinSystem.single(cfg.initial_spin)
    traces = noise_traces(icfg, cfg.seed, sys_.n_sites)
    traj = integrate(sys_, icfg, seed=cfg.seed, traces=traces)
    path = Path(cfg.out_path) if cfg.out_path else out_dir / "trajectory.csv"
    ds = cfg.downsample
    times = traj.times[::ds]
    blocks = ((times, np.broadcast_to(site, times.shape), *spins[::ds].T,
               norms[::ds])
              for site, (spins, norms) in enumerate(zip(traj.spins, traj.norms)))
    write_csv(path, cfg.metadata(), "t,site,s_x,s_y,s_z,norm", blocks)
    if cfg.dump_noise and traces is not None:
        for site, tr in enumerate(traces):
            write_csv(path.with_suffix(f".noise{site}.csv"),
                      [f"dt={tr.dt!r}", f"provenance={tr.provenance[1]}"],
                      "t,b_x,b_y,b_z",
                      [(np.arange(tr.n_samples) * tr.dt, *tr.components)])
    return path


def _run_ensemble(cfg: ExperimentConfig, out_dir: Path) -> Path:
    icfg = cfg.integrator_config()
    res = ensemble_average(icfg, cfg.n_traj, base_seed=cfg.seed,
                           initial_spin=cfg.initial_spin, workers=cfg.workers)
    path = Path(cfg.out_path) if cfg.out_path else out_dir / "ensemble.csv"
    meta = cfg.metadata() + [f"n_used={res.n_used}",
                             f"n_diverged={len(res.diverged)}"]
    write_csv(path, meta, "t,sz_mean,sz_stderr",
              [(res.times, res.sz_mean, res.sz_stderr)])
    return path


def _run_sweep(cfg: ExperimentConfig, out_dir: Path) -> Path:
    frame = cfg.frame()
    t_max = cfg.t_max if cfg.t_max is not None else DESK_SWEEP_T_MAX
    results = temperature_sweep(cfg.methods, cfg.temperatures, frame,
                                dt=cfg.dt, t_max=t_max, seed=cfg.seed,
                                n_replicas=cfg.n_replicas, cutoff=cfg.cutoff,
                                initial_spin=cfg.initial_spin,
                                workers=cfg.workers)
    path = Path(cfg.out_path) if cfg.out_path else out_dir / "sweep.csv"
    write_csv(path, cfg.metadata(),
              *sweep_table(cfg.temperatures, frame, results))
    return path


def _validate_checks(cfg: ExperimentConfig):
    """Invariant suite: yields (name, passed, detail).  The measurements are
    library functions; the sizes and gates here are validate's own."""
    frame = build_unit_frame(cfg.b_ext_tesla, cfg.gamma, cfg.spin_halves)

    for name, res in fdt_residuals().items():
        yield f"fdt-identity-{name}", res < 1e-10, f"residual={res:.2e}"

    for name, p in (("set1", SET1), ("set2", SET2)):
        worst = moment_quadrature_error(p)
        yield f"kernel-moments-{name}", worst < 1e-6, f"max rel err={worst:.2e}"

    # quick spectral fidelity: banded Welch density vs target
    kinds = [("classical-ohmic", OhmicParams(DEFAULT_ETA), 200.0, None),
             ("quantum-ohmic", OhmicParams(DEFAULT_ETA), 1.0, 10.0),
             ("quantum-lorentzian", SET1, 1.0, None),
             ("quantum-lorentzian", SET2, 1.0, None)]
    for i, (kind, params, temp, cut) in enumerate(kinds):
        psd = power_spectrum(kind, params, temp, frame, cutoff=cut)
        rel = banded_psd_error(
            psd, WhiteSeed(seed=1234 + i, n_samples=2 ** 18, dt=0.15),
            nperseg=2 ** 13, band=20)
        label = kind if params is not SET2 else kind + "-set2"
        yield f"noise-psd-{label}", rel < 0.15, f"max banded rel err={rel:.3f}"

    # norm conservation, all four methods, 1e4 steps at dt = 0.15
    fr = build_unit_frame(10.0, GAMMA_ELECTRON, 1)
    for method in METHOD_TAGS:
        icfg = method_config(method, fr, 1.0, t_max=1500.0)
        traj = integrate(SpinSystem.single((-1, 0, 0)), icfg, seed=7)
        drift = traj.max_norm_drift()
        yield f"norm-conservation-{method}", drift < 1e-5, f"max drift={drift:.2e}"

    # determinism
    icfg = method_config("lorentzian-set2", fr, 1.0, t_max=30.0)
    a = integrate(SpinSystem.single((-1, 0, 0)), icfg, seed=3)
    b = integrate(SpinSystem.single((-1, 0, 0)), icfg, seed=3)
    same = bool(np.array_equal(a.spins, b.spins))
    yield "determinism", same, "bit-identical repeat" if same else "mismatch"

    # the paper's Ohmic limit: the leading moment term of the set-2 spectrum
    # is the quantum-Ohmic density at eta = -kappa_1 = 50/2401
    om = np.linspace(-2.5, 2.5, 501)
    lead = psd_expansion(SET2, 0, om, 1.0, frame)
    ohmic = power_spectrum("quantum-ohmic", OhmicParams(DEFAULT_ETA), 1.0,
                           frame, cutoff=DEFAULT_CUTOFF)(om)
    gap = float(np.max(np.abs(lead - ohmic) / ohmic))
    yield "ohmic-limit-set2", gap <= 1e-12, f"max rel gap={gap:.2e}"


def _run_validate(cfg: ExperimentConfig) -> int:
    failures = 0
    for name, ok, detail in _validate_checks(cfg):
        print(f"{'PASS' if ok else 'FAIL'}  {name:32s} {detail}")
        failures += not ok
    print(f"FAILED: {failures} failing check(s)" if failures
          else "OK: all checks passed")
    return 0 if failures == 0 else 1


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> int:
    """Execute the configured job; returns a process exit status."""
    out = Path(out_dir)
    try:
        if cfg.mode == "validate":
            return _run_validate(cfg)
        if cfg.mode == "trajectory":
            path = _run_trajectory(cfg, out)
        elif cfg.mode == "ensemble":
            path = _run_ensemble(cfg, out)
        elif cfg.mode == "sweep":
            path = _run_sweep(cfg, out)
        else:
            raise ConfigurationError(f"unknown mode {cfg.mode!r}")
    except (IntegrationDivergedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="spinbath",
        description="Spin dynamics with memory kernels and coloured quantum noise")
    ap.add_argument("--config", type=Path, help="experiment config file")
    ap.add_argument("--mode", choices=MODES, help="override run.mode")
    ap.add_argument("--seed", type=int, help="override run.seed")
    ap.add_argument("--workers", type=int, help="override run.workers")
    ap.add_argument("--out", type=Path, default=Path("."), help="output directory")
    ap.add_argument("--dump-noise", action="store_true",
                    help="also write the generated noise traces (trajectory mode)")
    args = ap.parse_args(argv)

    try:
        if args.config is not None:
            cfg = parse_config(args.config.read_text(encoding="utf-8"))
        else:
            if args.mode != "validate":
                ap.error("--config is required except for --mode validate")
            cfg = ExperimentConfig(mode="validate")
        if args.mode:
            cfg.mode = args.mode
        if args.seed is not None:
            cfg.seed = args.seed
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigurationError("--workers must be >= 1")
            cfg.workers = args.workers
        if args.dump_noise:
            cfg.dump_noise = True
        return run(cfg, out_dir=args.out)
    except (ParameterError, ConfigurationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
