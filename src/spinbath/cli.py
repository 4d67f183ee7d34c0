"""Configuration-driven runs: trajectories, ensembles, sweeps, validation.

Configs are INI-style key = value text (UTF-8).  Every emitted CSV starts
with '#'-prefixed metadata lines carrying the full configuration and the
tool version, so a job can be re-run exactly from its output file.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import (SPECTRUM_KINDS, fdt_residuals, moment_quadrature_error,
                       psd_expansion)
from .dynamics import (IntegratorConfig, integrate, noise_traces,
                       precession_mode)
from .experiments import (DEFAULT_ETA, DESK_ENSEMBLE_T_MAX, DESK_N_TRAJ,
                          DESK_SWEEP_T_MAX, METHOD_TAGS, ensemble_average,
                          method_config, statphys_oracle, temperature_sweep)
from .model import (GAMMA_ELECTRON, SET1, SET2, ConfigurationError,
                    IntegrationDivergedError, LorentzianParams, OhmicParams,
                    ParameterError, SpinSystem, UnitFrame, build_unit_frame,
                    require_finite, spin_length)
from .noise import WhiteSeed, banded_psd_error

MODES = ("trajectory", "ensemble", "sweep", "validate")

PRESETS = {"set1": SET1, "set2": SET2}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigurationError(message)


def _parse_float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _parse_names(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _key(key: str, cast, default=None, check=None):
    """A field read from config key "section.name": the text is cast, checked
    finite if it holds floats, then passed to check, which raises
    ConfigurationError or ParameterError, naming the key, if the value is
    out of its domain."""
    return dataclasses.field(default=default, metadata={
        "key": key, "cast": cast, "check": check})


@dataclass
class ExperimentConfig:
    """A run's configuration.  A field set from the config file declares its
    key with _key, and parse_config reads the keys in field order.  metadata()
    writes the fields in this order too, so reordering them changes every
    output file."""

    mode: str = _key("run.mode", str, "trajectory", lambda v: _require(
        v in MODES, f"run.mode must be one of {MODES}, got {v!r}"))
    b_ext_tesla: float = _key("frame.b_ext_tesla", float, 10.0)
    gamma: float = _key("frame.gamma", float, GAMMA_ELECTRON)
    spin_halves: int = _key("frame.spin_halves", int, 1,
                            lambda v: spin_length(v, "frame.spin_halves"))
    bath_kind: str | None = _key("bath.kind", str)
    eta: float | None = _key("bath.eta", float)
    preset: str | None = _key("bath.preset", str, check=lambda v: _require(
        v in PRESETS, f"unknown bath.preset {v!r}"))
    omega0: float | None = _key("bath.omega0", float)
    gamma_width: float | None = _key("bath.gamma_width", float)
    alpha: float | None = _key("bath.alpha", float)
    noise_kind: str | None = _key(
        "noise.kind", lambda s: None if s == "none" else s,
        check=lambda v: _require(v is None or v in SPECTRUM_KINDS,
                                 f"unknown noise.kind {v!r}"))
    temperature: float = _key("noise.temperature", float, 0.0)
    temperatures: tuple = _key("noise.temperatures", _parse_float_list, ())
    cutoff: float | None = _key("noise.cutoff", float)
    dt: float = _key("run.dt", float, 0.15, lambda v: _require(
        v > 0, "run.dt must be positive"))
    t_max: float | None = _key("run.t_max", float)
    n_traj: int = _key("run.n_traj", int, DESK_N_TRAJ)
    n_replicas: int = _key("run.n_replicas", int, 1)
    seed: int = _key("run.seed", int, 0)
    initial_spin: tuple = _key(
        "run.initial_spin", _parse_float_list, (-1.0, 0.0, 0.0),
        lambda v: _require(len(v) == 3,
                           "run.initial_spin must have three components"))
    methods: tuple = _key(
        "run.methods", _parse_names, METHOD_TAGS, lambda v: _require(
            set(v) <= set(METHOD_TAGS),
            f"unknown methods {[m for m in v if m not in METHOD_TAGS]}; "
            f"choose from {METHOD_TAGS}"))
    downsample: int = _key("run.downsample", int, 1, lambda v: _require(
        v >= 1, "run.downsample must be >= 1"))
    workers: int = _key("run.workers", int, 1, lambda v: _require(
        v >= 1, "run.workers must be >= 1"))
    out_path: str | None = _key("output.path", str)
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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an INI-style experiment description."""
    # "" names no section, so [DEFAULT] is an unknown section, not inherited
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"malformed config: {err}") from err

    keyed = [f for f in dataclasses.fields(ExperimentConfig) if f.metadata]
    keys = {f.metadata["key"] for f in keyed}
    sections = {key.split(".")[0] for key in keys}
    unknown = []
    for section in parser.sections():
        if section not in sections:
            unknown.append(section)
            continue
        unknown.extend(f"{section}.{name}" for name in parser[section]
                       if f"{section}.{name}" not in keys)
    if unknown:
        raise ConfigurationError("unknown config keys: " + ", ".join(sorted(unknown)))

    cfg = ExperimentConfig()
    for f in keyed:
        key, cast, check = (f.metadata[k] for k in ("key", "cast", "check"))
        section, name = key.split(".")
        if not parser.has_option(section, name):
            continue
        raw = parser.get(section, name)
        try:
            value = cast(raw)
        except ValueError as err:
            raise ConfigurationError(f"bad value for {key}: {raw!r}") from err
        if cast in (float, _parse_float_list):
            # checked here, since a mode or bath may leave the key unused
            require_finite(**{name: value})
        if check is not None:
            check(value)
        setattr(cfg, f.name, value)

    if parser.has_section("bath") and parser.options("bath"):  # needs a kind
        _require(cfg.bath_kind in ("ohmic", "lorentzian"), "bath.kind must be "
                 f"'ohmic' or 'lorentzian', got {cfg.bath_kind!r}")
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


def _run_trajectory(cfg: ExperimentConfig, path: Path) -> None:
    icfg = cfg.integrator_config()
    sys_ = SpinSystem.single(cfg.initial_spin)
    traces = noise_traces(icfg, cfg.seed, sys_.n_sites)
    traj = integrate(sys_, icfg, seed=cfg.seed, traces=traces)
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


def _run_ensemble(cfg: ExperimentConfig, path: Path) -> None:
    icfg = cfg.integrator_config()
    res = ensemble_average(icfg, cfg.n_traj, base_seed=cfg.seed,
                           initial_spin=cfg.initial_spin, workers=cfg.workers)
    meta = cfg.metadata() + [f"n_used={res.n_used}",
                             f"n_diverged={len(res.diverged)}"]
    write_csv(path, meta, "t,sz_mean,sz_stderr",
              [(res.times, res.sz_mean, res.sz_stderr)])


def _run_sweep(cfg: ExperimentConfig, path: Path) -> None:
    frame = cfg.frame()
    t_max = cfg.t_max if cfg.t_max is not None else DESK_SWEEP_T_MAX
    results = temperature_sweep(cfg.methods, cfg.temperatures, frame,
                                dt=cfg.dt, t_max=t_max, seed=cfg.seed,
                                n_replicas=cfg.n_replicas, cutoff=cfg.cutoff,
                                initial_spin=cfg.initial_spin,
                                workers=cfg.workers)
    write_csv(path, cfg.metadata(),
              *sweep_table(cfg.temperatures, frame, results))


def _tilt_mode(bath, frame: UnitFrame, dt: float) -> complex:
    """lambda fitted to s+ = s_x + i s_y of a noiseless run from a 1e-4 tilt
    off +z: the slopes of least-squares lines through log|s+| and its
    unwrapped phase over t in [100, 400], once the bath modes have died."""
    cfg = IntegratorConfig(frame=frame, bath=bath, dt=dt, t_max=400.0)
    traj = integrate(SpinSystem.single((math.sin(1e-4), 0.0,
                                        math.cos(1e-4))), cfg)
    late = traj.times >= 100.0
    t = traj.times[late]
    s_plus = traj.spins[0, late, 0] + 1j * traj.spins[0, late, 1]
    return complex(np.polyfit(t, np.log(np.abs(s_plus)), 1)[0],
                   np.polyfit(t, np.unwrap(np.angle(s_plus)), 1)[0])


def _validate_checks(cfg: ExperimentConfig):
    """Invariant suite: yields (name, passed, detail).  The measurements are
    library functions; the sizes and gates here are validate's own."""
    frame = cfg.frame()

    for name, res in fdt_residuals().items():
        yield f"fdt-identity-{name}", res < 1e-10, f"residual={res:.2e}"

    for name, p in (("set1", SET1), ("set2", SET2)):
        worst = moment_quadrature_error(p)
        yield f"kernel-moments-{name}", worst < 1e-6, f"max rel err={worst:.2e}"

    # quick spectral fidelity: banded Welch density vs target
    temps = (200.0, 1.0, 1.0, 1.0)
    for i, (method, temp) in enumerate(zip(METHOD_TAGS, temps)):
        psd = method_config(method, frame, temp).spectrum
        rel = banded_psd_error(
            psd, WhiteSeed(seed=1234 + i, n_samples=2 ** 18, dt=0.15),
            nperseg=2 ** 13, band=20)
        label = psd.kind if psd.params is not SET2 else psd.kind + "-set2"
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

    # the noiseless small-tilt mode at dt = 0.15 against its closed form;
    # the rate and frequency err by up to 9.3e-6 (numpy 2.4.6)
    for name, bath in (("ohmic", OhmicParams(DEFAULT_ETA)), ("set1", SET1),
                       ("set2", SET2)):
        want = precession_mode(bath, fr.sign_gamma)
        got = _tilt_mode(bath, fr, 0.15)
        err = max(abs(got.real - want.real) / abs(want.real),
                  abs(got.imag - want.imag) / abs(want.imag))
        yield (f"linear-response-{name}", err < 2e-5,
               f"lambda={got.real:.7f}{got.imag:+.7f}i max rel err={err:.2e}")

    # the paper's Ohmic limit: the leading moment term of the set-2 spectrum
    # is the quantum-Ohmic density at eta = -kappa_1 = 50/2401
    om = np.linspace(-2.5, 2.5, 501)
    lead = psd_expansion(SET2, 0, om, 1.0, frame)
    ohmic = method_config("llg-quantum", frame, 1.0).spectrum(om)
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
    path = (Path(cfg.out_path) if cfg.out_path
            else Path(out_dir) / f"{cfg.mode}.csv")
    try:
        if cfg.mode == "validate":
            return _run_validate(cfg)
        if cfg.mode == "trajectory":
            _run_trajectory(cfg, path)
        elif cfg.mode == "ensemble":
            _run_ensemble(cfg, path)
        elif cfg.mode == "sweep":
            _run_sweep(cfg, path)
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
