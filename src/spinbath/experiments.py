"""Ensemble statistics, steady-state extraction and temperature sweeps.

The four standard method tags pair a bath with its matching noise:

    llg-classical     memory-free damping + white noise
    llg-quantum       memory-free damping + quantum-statistics noise
    lorentzian-set1   resonant bath, near-memory-free regime, quantum noise
    lorentzian-set2   resonant bath, strongly non-Markovian, quantum noise

All four share the same effective damping 50/2401, so their steady states
are directly comparable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# integrate is unused here, but bench/spans.py traces runs under this name
from .dynamics import IntegratorConfig, integrate, integrate_members
from .model import (HBAR, KB, SET1, SET2, IntegrationDivergedError,
                    OhmicParams, ParameterError, UnitFrame)
from .noise import derive_seed

METHOD_TAGS = ("llg-classical", "llg-quantum", "lorentzian-set1",
               "lorentzian-set2")

DEFAULT_ETA = SET1.eta_equivalent  # 50/2401, shared by both parameter sets

# Desk-scale defaults: long enough for converged steady states in CI runs.
# Full-scale figure reproduction uses FULL_SWEEP_T_MAX and 500 trajectories.
DESK_SWEEP_T_MAX = 2.0 * math.pi * 500.0
DESK_ENSEMBLE_T_MAX = 2.0 * math.pi * 48.0
FULL_SWEEP_T_MAX = 2.0 * math.pi * 7200.0
DESK_N_TRAJ = 100

DEFAULT_INITIAL_SPIN = (-1.0, 0.0, 0.0)

# Steady states average s_z over the trailing STEADY_WINDOW_FRACTION of the
# run, with error bars from blocks of STEADY_BLOCK_LENGTH unit-free time.
STEADY_WINDOW_FRACTION = 0.25
STEADY_BLOCK_LENGTH = 50.0


def method_config(method: str, frame: UnitFrame, temperature: float,
                  dt: float = 0.15, t_max: float = DESK_SWEEP_T_MAX,
                  cutoff: float | None = None,
                  noise_margin: float | None = None) -> IntegratorConfig:
    """IntegratorConfig for one of the standard method tags."""
    if method not in METHOD_TAGS:
        raise ParameterError(f"unknown method {method!r}; choose from {METHOD_TAGS}")
    if method == "llg-classical":
        bath, kind = OhmicParams(DEFAULT_ETA), "classical-ohmic"
    elif method == "llg-quantum":
        bath, kind = OhmicParams(DEFAULT_ETA), "quantum-ohmic"
    elif method == "lorentzian-set1":
        bath, kind = SET1, "quantum-lorentzian"
    else:
        bath, kind = SET2, "quantum-lorentzian"
    if kind == "classical-ohmic" and temperature == 0.0:
        kind = None  # the white spectrum vanishes identically at T = 0
    return IntegratorConfig(frame=frame, bath=bath, noise_kind=kind,
                            temperature=temperature, dt=dt, t_max=t_max,
                            cutoff=cutoff, noise_margin=noise_margin)


def _langevin(x: float) -> float:
    if x != x:
        raise ParameterError("NaN argument")
    if x > 350.0:
        return 1.0 - 1.0 / x
    if x < 1e-4:
        return x / 3.0 - x ** 3 / 45.0
    return 1.0 / math.tanh(x) - 1.0 / x


def statphys_oracle(n: float, temperature: float, frame: UnitFrame) -> float:
    """Boltzmann-average alignment of a fixed-length classical spin.

    coth(n hbar w_L / 2 kB T) - 2 kB T / (n hbar w_L); equals 1 at T = 0.
    """
    if temperature < 0.0:
        raise ParameterError("temperature must be >= 0")
    if temperature == 0.0:
        return 1.0
    return _langevin(n / frame.thermal_ratio(temperature))


def equivalent_classical_temperature(frame: UnitFrame) -> float:
    """Temperature whose white-noise level equals the zero-point noise at
    the precession frequency: hbar larmor / (2 kB)."""
    return HBAR * frame.larmor / (2.0 * KB)


@dataclass
class EnsembleResult:
    times: np.ndarray
    sz_mean: np.ndarray
    sz_stderr: np.ndarray
    n_used: int
    diverged: list


# Members run in batches through dynamics.integrate_members, a batch of at
# least MIN_LANES as the lanes of one array kernel.  A batch of lanes holds
# its noise, three components, and its recorded s_z: 32*(n_steps+1) bytes
# per member.  16 MB fits 248 members at the desk ensemble t_max (2,011
# steps) and 23 at the desk sweep t_max (20,944 steps); at full scale
# (301,593 steps) it fits one, and members run on float lanes one by one.
LANE_BUDGET_BYTES = 16_000_000


def _ensemble_batches(n_traj: int, n_steps: int, workers: int):
    """Contiguous (start, stop) member ranges: as few as the byte budget
    allows, but at least one per worker."""
    cap = max(1, LANE_BUDGET_BYTES // (32 * (n_steps + 1)))
    n_batches = max(-(-n_traj // cap), min(workers, n_traj))
    edges = [n_traj * k // n_batches for k in range(n_batches + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _pmap(job, items, workers: int):
    """[job(*args) for args in items], over a process pool if workers > 1."""
    if workers <= 1:
        return [job(*args) for args in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(job, *zip(*items)))


def _run_members(cfg: IntegratorConfig, seeds, initial_spin, workers: int = 1):
    """(s_z column, divergence step or 0) of each seeded single-spin run, in
    member order; no column depends on `workers` or on the batch split."""
    bounds = _ensemble_batches(len(seeds), cfg.n_steps, workers)
    jobs = [(cfg, seeds[a:b], tuple(initial_spin)) for a, b in bounds]
    for sz, steps in _pmap(integrate_members, jobs, workers):
        yield from zip(sz.T, steps)


def ensemble_average(cfg: IntegratorConfig, n_traj: int, base_seed: int = 0,
                     initial_spin=DEFAULT_INITIAL_SPIN,
                     workers: int = 1) -> EnsembleResult:
    """Pointwise mean and standard error of s_z over seeded trajectories.

    Member i uses seed base_seed XOR i.  The reduction is ordered by member
    index, so the result depends neither on `workers` nor on the batch
    split.  Diverged members are excluded with a warning; more than 1%
    diverging raises IntegrationDivergedError naming the first diverged
    member and its step.
    """
    if n_traj < 2:
        raise ParameterError("n_traj must be >= 2")
    seeds = [derive_seed(base_seed, i) for i in range(n_traj)]
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    mean = np.zeros(len(times))
    m2 = np.zeros(len(times))
    n_used = 0
    diverged = []
    members = _run_members(cfg, seeds, initial_spin, workers)
    for i, (sz, step) in enumerate(members):
        if step:
            diverged.append((i, step))
            continue
        # Welford update: exactly zero spread for identical members
        n_used += 1
        delta = sz - mean
        mean += delta / n_used
        m2 += delta * (sz - mean)
    if diverged:
        warnings.warn(f"{len(diverged)} of {n_traj} trajectories diverged")
        if len(diverged) > 0.01 * n_traj:
            member, step = diverged[0]
            raise IntegrationDivergedError(
                step, f"integration diverged at step {step} in ensemble "
                f"member {member} ({len(diverged)} of {n_traj} members "
                f"diverged, more than 1%)")
    stderr = np.sqrt(m2 / max(n_used - 1, 1)) / math.sqrt(n_used)
    return EnsembleResult(times=times, sz_mean=mean, sz_stderr=stderr,
                          n_used=n_used, diverged=diverged)


def _steady_blocks(cfg: IntegratorConfig) -> tuple[int, int]:
    """(n_blocks, block_steps) of the averaging window: the run's trailing
    STEADY_WINDOW_FRACTION, cut to whole blocks of STEADY_BLOCK_LENGTH."""
    start = int(math.ceil((1.0 - STEADY_WINDOW_FRACTION) * cfg.t_max / cfg.dt))
    block_steps = max(1, int(round(STEADY_BLOCK_LENGTH / cfg.dt)))
    n_blocks = (cfg.n_steps + 1 - start) // block_steps
    if n_blocks < 10:
        raise ParameterError(
            f"averaging window holds only {n_blocks} blocks of "
            f"{STEADY_BLOCK_LENGTH}; need at least 10")
    return n_blocks, block_steps


def averaged_steady_state(cfg: IntegratorConfig, n_replicas: int,
                          base_seed: int = 0,
                          initial_spin=DEFAULT_INITIAL_SPIN) -> tuple[float, float]:
    """(value, error) of s_z averaged over the _steady_blocks window of
    replicas seeded derive_seed(base_seed, r << 8), replica 0 on base_seed.

    Block averaging absorbs the autocorrelation of s_z in each replica's
    error; the error of several is the larger of their standard error and
    the propagated block errors.  A diverged replica raises
    IntegrationDivergedError naming it and its step.
    """
    if n_replicas < 1:
        raise ParameterError("n_replicas must be >= 1")
    n_blocks, block_steps = _steady_blocks(cfg)
    seeds = [derive_seed(base_seed, r << 8) for r in range(n_replicas)]
    vals, errs = [], []
    for r, (sz, step) in enumerate(_run_members(cfg, seeds, initial_spin)):
        if step:
            raise IntegrationDivergedError(
                step, f"integration diverged at step {step} in steady-state "
                f"replica {r}")
        trimmed = sz[len(sz) - n_blocks * block_steps:]
        blocks = trimmed.reshape(n_blocks, block_steps).mean(axis=1)
        vals.append(float(trimmed.mean()))
        errs.append(float(np.std(blocks, ddof=1) / math.sqrt(n_blocks)))
    if n_replicas == 1:
        return vals[0], errs[0]
    sem = float(np.std(vals, ddof=1) / math.sqrt(n_replicas))
    propagated = float(math.sqrt(np.mean(np.square(errs)) / n_replicas))
    return float(np.mean(vals)), max(sem, propagated)


@dataclass
class SweepResult:
    """Steady-state alignment versus temperature for one method."""

    method: str
    temperatures: np.ndarray
    sz_mean: np.ndarray
    sz_stderr: np.ndarray
    rescaled: np.ndarray | None = None


def _sweep_seed(base: int, mi: int, ti: int) -> int:
    return derive_seed(base, ((mi + 1) * 1024 + ti) << 32)


def temperature_sweep(methods, temperatures, frame: UnitFrame, *,
                      dt: float = 0.15, t_max: float = DESK_SWEEP_T_MAX,
                      seed: int = 0, n_replicas: int = 1,
                      cutoff: float | None = None,
                      initial_spin=DEFAULT_INITIAL_SPIN,
                      workers: int = 1) -> list[SweepResult]:
    """Steady-state s_z for every (method, temperature) pair.

    Temperatures must be sorted ascending; if the grid starts at 0 the
    rescaled curve m(T) = sz(T)/sz(0) is attached to each result.  Points
    are independent work items with index-derived seeds, so the output does
    not depend on `workers`.  Too short a run fails before any point runs.
    """
    temps = np.asarray(temperatures, dtype=float)
    if temps.ndim != 1 or len(temps) == 0:
        raise ParameterError("temperatures must be a non-empty 1-d sequence")
    if np.any(np.diff(temps) < 0):
        raise ParameterError("temperatures must be sorted ascending")
    if np.any(temps < 0):
        raise ParameterError("temperatures must be >= 0")
    methods = list(methods)
    jobs = []
    for mi, method in enumerate(methods):
        for ti, temp in enumerate(temps):
            cfg = method_config(method, frame, float(temp), dt=dt, t_max=t_max,
                                cutoff=cutoff)
            _steady_blocks(cfg)
            jobs.append((cfg, n_replicas, _sweep_seed(seed, mi, ti),
                         tuple(initial_spin)))
    results = _pmap(averaged_steady_state, jobs, workers)
    out = []
    n = len(temps)
    for mi, method in enumerate(methods):
        means, errs = map(np.array, zip(*results[mi * n:(mi + 1) * n]))
        rescaled = means / means[0] if temps[0] == 0.0 else None
        out.append(SweepResult(method=method, temperatures=temps.copy(),
                               sz_mean=means, sz_stderr=errs,
                               rescaled=rescaled))
    return out


def equilibration_time(times, mean_trace, band: float = 0.05) -> float:
    """First time after which the trace stays within +-band of its plateau.

    The plateau is the mean over the last quarter; the band is relative to
    the plateau magnitude.  A trace that never settles reports the final
    time.
    """
    t = np.asarray(times, dtype=float)
    m = np.asarray(mean_trace, dtype=float)
    if t.shape != m.shape or len(t) < 8:
        raise ParameterError("times and mean_trace must match and be non-trivial")
    plateau = float(m[3 * len(m) // 4:].mean())
    tol = band * (abs(plateau) if plateau != 0.0 else 1.0)
    outside = np.abs(m - plateau) > tol
    if not outside.any():
        return float(t[0])
    last_out = int(np.nonzero(outside)[0][-1])
    if last_out == len(m) - 1:
        return float(t[-1])
    return float(t[last_out + 1])
