"""Time integration of the spin equation of motion.

Two bath types are supported: memory-free (explicit Landau-Lifshitz form of
Gilbert damping) and resonant (non-Markovian memory realized by two
auxiliary vectors V, W per site, driven by the spin).  In unit-free
variables, with g = sign(gamma):

    memory-free:  ds/dt = g/(1+eta^2) s x f  -  eta/(1+eta^2) s x (s x f)
    resonant:     ds/dt = g s x (f + V),   dV/dt = W,
                  dW/dt = -omega0^2 V - Gamma W + alpha s

where f = z + noise + exchange field (z the unit static field) and V = W = 0
at t = 0.  Pre-generated coloured noise turns the stochastic equation into a
random ODE with continuous forcing (linear interpolation at half steps).

The step scheme is the classical RK4 on s as a vector in R^3 (and on V, W),
followed by one projection s <- s/|s| per step.  Plain RK4 alone drifts |s|
by ~1e-3 over 1e4 steps at dt = 0.15, far outside the required conservation;
projected, every stored spin has |s| = 1 to rounding and the step stays 4th
order (Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4).  A
stage costs one rate and one cross product, about half the arithmetic of an
RK4 step in rotation coordinates (Runge-Kutta-Munthe-Kaas), which rotates
the spin exactly at every stage but needs trigonometric coefficients and a
dexp^-1 correction.  precession_mode gives the closed-form mode of a small
tilt about +z, against which `validate` and the tests check the step.

Each bath's step is defined once, in C (_step.c, one entry per bath), and
that one definition runs a single spin, every member of an ensemble (one
at a time) and exchange-coupled sites alike.  The library is compiled on
first use with one fixed command (_CC_COMMAND) into the package's
__pycache__ directory and loaded through ctypes; see "The step library".
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:  # CPython's own sha256: hashlib loads OpenSSL, 3.4 MB more resident
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    from _sha256 import sha256  # Python 3.10 and 3.11

from .coupling import DEFAULT_CUTOFF, PowerSpectrum, power_spectrum
from .model import (BathParams, ConfigurationError, IntegrationDivergedError,
                    LorentzianParams, ParameterError, SpinSystem, UnitFrame,
                    require_finite)
from .noise import site_seed, trace_for_run, trace_length

@dataclass(frozen=True)
class IntegratorConfig:
    """Everything integrate() needs besides the initial state and seed.

    spectrum, built here from the other fields, is the noise spectrum of
    noise_kind (quantum-ohmic cuts off at DEFAULT_CUTOFF unless told), or
    None without noise."""

    frame: UnitFrame
    bath: BathParams
    noise_kind: str | None = None
    temperature: float = 0.0
    dt: float = 0.15
    t_max: float = 150.0
    cutoff: float | None = None
    spectrum: PowerSpectrum | None = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        require_finite(dt=self.dt, t_max=self.t_max,
                       temperature=self.temperature, cutoff=self.cutoff)
        if not self.dt > 0.0:
            raise ParameterError("dt must be positive")
        if self.t_max < self.dt:
            raise ParameterError("t_max must be at least one step")
        if self.temperature < 0.0:
            raise ParameterError("temperature must be >= 0")
        # in floats first, before n_steps rounds it to an int, then as the
        # padded trace_length; a (3, n) noise trace takes 24 bytes a
        # sample, and numpy indexes intp-max bytes
        lead_in = self.margin_time if self.noise_kind is not None else 0.0
        limit = np.iinfo(np.intp).max // 24
        samples = (self.t_max + lead_in) / self.dt
        if samples <= limit and self.noise_kind is not None:
            samples = trace_length(self.dt, self.n_steps, lead_in)
        if samples > limit:
            raise ParameterError(
                f"t_max / dt too large: t_max = {self.t_max!r} at dt = "
                f"{self.dt!r} needs {samples:.3g} samples, noise lead-in "
                f"included, more than one array can index")
        if self.noise_kind is not None:
            cutoff = self.cutoff
            if cutoff is None and self.noise_kind == "quantum-ohmic":
                cutoff = DEFAULT_CUTOFF
            # a global of this module, so a tracer that wraps it sees this
            object.__setattr__(self, "spectrum", power_spectrum(
                self.noise_kind, self.bath, self.temperature, self.frame,
                cutoff=cutoff))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_max / self.dt)))

    @property
    def margin_time(self) -> float:
        """Discarded lead-in for the circular noise convolution."""
        return 10.0 * max(self.bath.tau_d, 1.0)


@dataclass
class Trajectory:
    """Recorded time series: spins (n_sites, n_steps+1, 3), and V of a
    resonant bath in the same layout."""

    times: np.ndarray
    spins: np.ndarray
    aux_v: np.ndarray | None = None

    @property
    def norms(self) -> np.ndarray:
        """|s|(t), (n_sites, n_steps+1), computed from the recorded spins."""
        x, y, z = np.moveaxis(self.spins, -1, 0)
        return np.sqrt(x * x + y * y + z * z)

    def sz(self, site: int = 0) -> np.ndarray:
        return self.spins[site, :, 2]

    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


# --------------------------------------------------------------------------
# The step library.  _step.c is compiled by one fixed command: -O2 without
# -ffast-math, and -ffp-contract=off, since GCC otherwise fuses a*b + c into
# one rounding wherever the target has FMA (aarch64 does by default) and
# seeded outputs would depend on the build.  The library goes into the
# package's __pycache__, under a name keyed by the sha256 of the source, the
# compiler's --version and the command, so an edit or a new compiler builds
# a new file beside the old.  It is compiled to a temporary name and renamed
# into place, so processes that build at once (pool workers) each load a
# complete file.

class BuildError(RuntimeError):
    """The step library could not be built: no C compiler, a failed
    compile, or a cache directory that cannot be written."""


_CC_COMMAND = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_step.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")


def _library_path() -> Path:
    """The step library built from _SOURCE in _CACHE_DIR, compiled first if
    no library of the same key is there."""
    cc = _CC_COMMAND[0]
    try:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 check=True).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        raise BuildError(f"cannot build the step library: {cc!r} --version "
                         f"failed ({err}); the C compiler {cc!r} must be on "
                         f"PATH") from None
    source = _SOURCE.read_bytes()
    key = sha256(b"\0".join(
        [source, version, " ".join(_CC_COMMAND).encode()])).hexdigest()
    path = _CACHE_DIR / f"_step-{key[:16]}.so"
    if path.exists():
        return path
    try:
        _CACHE_DIR.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp",
                                   dir=_CACHE_DIR)
        os.close(fd)
    except OSError as err:
        raise BuildError(f"cannot write the step library to {_CACHE_DIR}: "
                         f"{err.strerror}") from None
    command = [*_CC_COMMAND, "-o", tmp, str(_SOURCE)]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            raise BuildError(f"{' '.join(command)} exited with status "
                             f"{done.returncode}: {last}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def _step_library() -> ctypes.CDLL:
    lib = ctypes.CDLL(str(_library_path()))
    size, ptr = ctypes.c_long, ctypes.c_void_p
    exchange = [size, ptr, ptr]  # n_bonds, site pairs, tensors
    lib.llg_run.argtypes = [size, size] + [ctypes.c_double] * 3 + [
        ptr, ptr] + exchange
    lib.lorentzian_run.argtypes = [size, size] + [ctypes.c_double] * 5 + [
        ptr, ptr, ptr] + exchange
    lib.llg_run.restype = lib.lorentzian_run.restype = size
    return lib


def _run(cfg: IntegratorConfig, spins: np.ndarray, aux_v, traces,
         exchange) -> int:
    """Step cfg's bath over spins, (n_sites, n_steps+1, 3) with the initial
    spins in row 0, writing every later row, and a resonant bath's V into
    aux_v likewise if it is not None.  traces: one NoiseTrace per site, read
    in place, or None without noise; exchange: the symmetrized tensors by
    site pair, or None.  Returns the first step after which a state was not
    finite, its rows and later ones unwritten, or 0."""
    n_sites = spins.shape[0]
    # a trace's rows are read where they are, unless not contiguous floats
    rows = [np.ascontiguousarray(row, dtype=float)
            for tr in traces or () for row in tr.components]
    noise = (ctypes.c_void_p * (3 * n_sites))(*(r.ctypes.data for r in rows))
    pairs = sorted(exchange or ())
    sites = np.array(pairs, dtype=np.int_)
    tensors = np.array([exchange[pair] for pair in pairs], dtype=float)
    bonds = (len(pairs), sites.ctypes.data, tensors.ctypes.data)
    lib, h, g = _step_library(), cfg.dt, cfg.frame.sign_gamma
    if isinstance(cfg.bath, LorentzianParams):
        p = cfg.bath
        v = None if aux_v is None else aux_v.ctypes.data
        step = lib.lorentzian_run(
            n_sites, cfg.n_steps, h, -g, -(p.omega0 ** 2), p.gamma_width,
            p.alpha, spins.ctypes.data, v, noise, *bonds)
    else:
        eta = cfg.bath.eta
        step = lib.llg_run(n_sites, cfg.n_steps, h, -(g / (1.0 + eta * eta)),
                           eta / (1.0 + eta * eta), spins.ctypes.data, noise,
                           *bonds)
    if step < 0:
        raise MemoryError(f"no memory for the step state of {n_sites} sites")
    return step


def noise_traces(cfg: IntegratorConfig, seed: int, n_sites: int):
    if cfg.spectrum is None:
        return None
    return [trace_for_run(cfg.spectrum, site_seed(seed, k), cfg.dt,
                          cfg.n_steps, cfg.margin_time)
            for k in range(n_sites)]


def integrate(sys: SpinSystem, cfg: IntegratorConfig, seed: int = 0,
              traces=None) -> Trajectory:
    """Integrate the system over cfg.t_max; pure in (initial state, cfg, seed).

    The caller's SpinSystem is left untouched, and a resonant bath starts
    with V = W = 0.  `traces` overrides the internally generated noise (one
    NoiseTrace per site), which is how shared-noise comparisons across
    methods are run.  Sites coupled by exchange step together, stage by
    stage.  A non-finite state raises IntegrationDivergedError naming the
    first step that produced one.
    """
    n_steps = cfg.n_steps
    n_sites = sys.n_sites
    if traces is None:
        traces = noise_traces(cfg, seed, n_sites)
    if traces is not None:
        if len(traces) != n_sites:
            raise ConfigurationError("need one noise trace per site")
        for tr in traces:
            if np.ndim(tr.components) != 2 or len(tr.components) != 3:
                raise ConfigurationError(
                    "a noise trace needs three components (bx, by, bz)")
            if tr.n_samples < n_steps + 1:
                raise ConfigurationError("noise trace shorter than the run")
            if tr.dt != cfg.dt:
                raise ConfigurationError(
                    f"noise trace dt={tr.dt!r} differs from the run's "
                    f"dt={cfg.dt!r}")

    rows = n_steps + 1
    spins = np.empty((n_sites, rows, 3))
    spins[:, 0] = sys.spins
    aux_v = (np.empty((n_sites, rows, 3))
             if isinstance(cfg.bath, LorentzianParams) else None)
    step = _run(cfg, spins, aux_v, traces, sys.exchange)
    if step:
        raise IntegrationDivergedError(step)
    times = np.arange(rows, dtype=float)  # in place: no int64 temporary
    times *= cfg.dt
    return Trajectory(times=times, spins=spins, aux_v=aux_v)


def integrate_members(cfg: IntegratorConfig, seeds, initial_spin):
    """s_z(t) of independent single-spin runs, one per seed, run one after
    another.

    Column k is bit-identical to
    integrate(SpinSystem.single(initial_spin), cfg, seed=seeds[k]).sz().
    Returns (sz, steps): sz has shape (n_steps+1, len(seeds)), and steps[k]
    is the step at which member k diverged (its column is then NaN from
    there on), 0 if it did not.  Besides the 8 bytes per member-step of sz,
    it holds one member's noise and spins at a time.
    """
    rows = cfg.n_steps + 1
    sz = np.empty((rows, len(seeds)))
    spins = np.empty((1, rows, 3))
    spins[0, 0] = SpinSystem.single(initial_spin).spins[0]  # never written
    steps = []
    for k, seed in enumerate(seeds):
        step = _run(cfg, spins, None, noise_traces(cfg, seed, 1), None)
        sz[:, k] = spins[0, :, 2]
        if step:
            sz[step:, k] = math.nan
        steps.append(step)
    return sz, steps


def precession_mode(bath: BathParams, sign_gamma: float) -> complex:
    """lambda of the noiseless small-tilt mode about +z, s+ ~ exp(lambda t)
    with s+ = s_x + i s_y, from the linearised equations of motion (g =
    sign_gamma).  Memory-free bath: lambda = (-eta - i g) / (1 + eta^2).
    Resonant bath: V+ follows s+ through V+'' + Gamma V+' + omega0^2 V+ =
    alpha s+, V_z settles at alpha/omega0^2, and ds+/dt = -i g [(1 + V_z)
    s+ - V+], so lambda solves the cubic
        lambda (lambda^2 + Gamma lambda + omega0^2)
            = -i g [(1 + alpha/omega0^2)(lambda^2 + Gamma lambda + omega0^2)
                    - alpha];
    the precession mode is its root nearest -i g (the other two are bath
    modes, damped at about Gamma/2)."""
    if isinstance(bath, LorentzianParams):
        w0sq, gam = bath.omega0 ** 2, bath.gamma_width
        c = 1j * sign_gamma * (1.0 + bath.alpha / w0sq)
        roots = np.roots([1.0, gam + c, w0sq + c * gam,
                          1j * sign_gamma * w0sq])
        return complex(min(roots, key=lambda r: abs(r + 1j * sign_gamma)))
    return complex(-bath.eta, -sign_gamma) / (1.0 + bath.eta * bath.eta)
