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
from .model import (SET1, SET2, IntegrationDivergedError, OhmicParams,
                    ParameterError, UnitFrame)
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
                  cutoff: float | None = None) -> IntegratorConfig:
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
                            cutoff=cutoff)


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


@dataclass
class EnsembleResult:
    times: np.ndarray
    sz_mean: np.ndarray
    sz_stderr: np.ndarray
    n_used: int
    diverged: list


# Most members (n_traj), or replicas per point (n_replicas), of one run: the
# seed list, 44 bytes a seed, is built before any member runs, and a million
# desk ensemble members take 8 minutes at 0.24-0.25 us a member-step, noise
# and averaging included (2,000 members of each method, 2-core x86-64).  The
# paper's ensembles have 500 members.
_MAX_MEMBERS = 1_000_000


# Members run in batches through dynamics.integrate_members, one member at
# a time, each batch returning its s_z block of 8*(n_steps+1) bytes per
# member.  128 MB fits 7,952 members at the desk ensemble t_max (2,011
# steps), 763 at the desk sweep t_max (20,944 steps) and 53 at full scale
# (301,593 steps).
SZ_BLOCK_BUDGET_BYTES = 128_000_000


def _ensemble_batches(n_traj: int, cfg: IntegratorConfig, workers: int):
    """Contiguous (start, stop) ranges of n_traj members of cfg: as few as
    keep every batch's s_z block within SZ_BLOCK_BUDGET_BYTES, but at least
    one per worker while there are members to go round."""
    cap = max(1, SZ_BLOCK_BUDGET_BYTES // (8 * (cfg.n_steps + 1)))
    n_batches = max(-(-n_traj // cap), min(workers, n_traj))
    edges = [n_traj * k // n_batches for k in range(n_batches + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _usable_workers(workers: int) -> int:
    """min(workers, CPU count): the most processes _pmap starts."""
    import os
    return min(workers, os.cpu_count() or 1)


def _pmap(job, items, workers: int):
    """job(*args) for each of the list items, yielded in order as the caller
    consumes them; over a pool of min(workers, len(items), CPU count)
    processes, open until the last result, if that is above 1.  workers
    below 1 raise ParameterError before any job runs."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    # a fork-based pool starts all its processes at the first submit
    workers = min(_usable_workers(workers), len(items))
    if workers <= 1:
        yield from (job(*args) for args in items)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(job, *zip(*items))


def _run_members(points, initial_spin, workers: int = 1):
    """(s_z column, divergence step or 0) of each seeded single-spin run of
    each (cfg, seeds) point, in point and then member order.  Every point's
    _ensemble_batches become integrate_members jobs of the one _pmap, so a
    point's members may split across workers; no column depends on
    `workers` or on the batch split, and no job raises on a divergence.
    Batches are cut for the processes that run them, so a `workers` above
    the CPU count does not cut more batches than there are processes."""
    spin = tuple(initial_spin)
    processes = _usable_workers(workers)
    jobs = [(cfg, seeds[a:b], spin) for cfg, seeds in points
            for a, b in _ensemble_batches(len(seeds), cfg, processes)]
    for sz, steps in _pmap(integrate_members, jobs, workers):
        # copies, and the batch dropped before the next is fetched: no column
        # the caller still holds keeps a finished batch alive meanwhile
        for k, step in enumerate(steps):
            yield sz[:, k].copy(), step
        del sz


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
    if not 2 <= n_traj <= _MAX_MEMBERS:
        raise ParameterError(f"n_traj must be >= 2 and <= {_MAX_MEMBERS}")
    seeds = [derive_seed(base_seed, i) for i in range(n_traj)]
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    mean = np.zeros(len(times))
    m2 = np.zeros(len(times))
    n_used = 0
    diverged = []
    members = _run_members([(cfg, seeds)], initial_spin, workers)
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


def _replica_seeds(base_seed: int, n_replicas: int) -> list[int]:
    """derive_seed(base_seed, r << 8) of each replica r; replica 0 is on
    base_seed."""
    if not 1 <= n_replicas <= _MAX_MEMBERS:
        raise ParameterError(f"n_replicas must be >= 1 and <= {_MAX_MEMBERS}")
    return [derive_seed(base_seed, r << 8) for r in range(n_replicas)]


def _steady_states(points, initial_spin, workers: int = 1):
    """averaged_steady_state of each (cfg, seeds, label) point, in order,
    with all points' members run by one _run_members.  Every averaging
    window is checked before any member runs, and a divergence message ends
    with the label of its point."""
    windows = [_steady_blocks(cfg) for cfg, _, _ in points]
    columns = _run_members([(cfg, seeds) for cfg, seeds, _ in points],
                           initial_spin, workers)
    for (_, seeds, label), (n_blocks, block_steps) in zip(points, windows):
        vals, errs = [], []
        for r in range(len(seeds)):
            sz, step = next(columns)
            if step:
                raise IntegrationDivergedError(
                    step, f"integration diverged at step {step} in "
                    f"steady-state replica {r}{label}")
            trimmed = sz[len(sz) - n_blocks * block_steps:]
            blocks = trimmed.reshape(n_blocks, block_steps).mean(axis=1)
            vals.append(float(trimmed.mean()))
            errs.append(float(np.std(blocks, ddof=1) / math.sqrt(n_blocks)))
            del sz, trimmed  # not held while the next batch runs
        if len(seeds) == 1:
            yield vals[0], errs[0]
            continue
        sem = float(np.std(vals, ddof=1) / math.sqrt(len(seeds)))
        propagated = float(math.sqrt(np.mean(np.square(errs)) / len(seeds)))
        yield float(np.mean(vals)), max(sem, propagated)


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
    seeds = _replica_seeds(base_seed, n_replicas)
    return next(_steady_states([(cfg, seeds, "")], initial_spin))


@dataclass
class SweepResult:
    """Steady-state alignment versus temperature for one method."""

    method: str
    temperatures: np.ndarray
    sz_mean: np.ndarray
    sz_stderr: np.ndarray
    rescaled: np.ndarray | None = None


# _sweep_seed packs a point's temperature index into 10 bits: with more
# temperatures, point (mi, 1024) would take the seeds of point (mi + 1, 0).
_MAX_TEMPERATURES = 1024


def _sweep_seed(base: int, mi: int, ti: int) -> int:
    return derive_seed(base, ((mi + 1) * _MAX_TEMPERATURES + ti) << 32)


def temperature_sweep(methods, temperatures, frame: UnitFrame, *,
                      dt: float = 0.15, t_max: float = DESK_SWEEP_T_MAX,
                      seed: int = 0, n_replicas: int = 1,
                      cutoff: float | None = None,
                      initial_spin=DEFAULT_INITIAL_SPIN,
                      workers: int = 1) -> list[SweepResult]:
    """Steady-state s_z for every (method, temperature) pair.

    Temperatures must be sorted ascending; if the grid starts at 0 the
    rescaled curve m(T) = sz(T)/sz(0) is attached to each result.  Each
    point is averaged_steady_state with seeds derived from its indices.  The
    replicas of all points run as batches of members on one process pool of
    `workers`, so a point's replicas may split across workers, and the
    output does not depend on `workers`.  Too short a run, or more than
    1,024 temperatures, fails before any member runs; a divergence names the
    method and temperature of its point.
    """
    temps = np.asarray(temperatures, dtype=float)
    if temps.ndim != 1 or len(temps) == 0:
        raise ParameterError("temperatures must be a non-empty 1-d sequence")
    if len(temps) > _MAX_TEMPERATURES:
        raise ParameterError(f"at most {_MAX_TEMPERATURES} temperatures, "
                             f"got {len(temps)}")
    if np.any(np.diff(temps) < 0):
        raise ParameterError("temperatures must be sorted ascending")
    if np.any(temps < 0):
        raise ParameterError("temperatures must be >= 0")
    methods = list(methods)
    points = []
    for mi, method in enumerate(methods):
        for ti, temp in enumerate(temps):
            cfg = method_config(method, frame, float(temp), dt=dt, t_max=t_max,
                                cutoff=cutoff)
            seeds = _replica_seeds(_sweep_seed(seed, mi, ti), n_replicas)
            points.append((cfg, seeds,
                           f" of {method} at T = {cfg.temperature:g} K"))
    results = list(_steady_states(points, initial_spin, workers))
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
