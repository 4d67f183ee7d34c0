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

Each bath has exactly one step definition, a kernel that runs on float lanes
(one site; coupled sites step in lockstep, their exchange field summed in
plain arithmetic) or on array lanes (independent ensemble members run side
by side); see "Lanes" below.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

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
# Lanes.  Each bath has one RK4 kernel, written once in plain arithmetic.  It
# runs on "lanes": Python floats for one site, or (B,) arrays whose entries
# are B independent ensemble members.  Elementwise numpy arithmetic rounds
# exactly like float arithmetic, and the kernel's only operations besides
# +, - and * are a division and a square root, which IEEE 754 rounds
# correctly on both; so a lane reproduces the float run of the same spin bit
# for bit.  The lane tests check this.  The pieces that are not plain
# arithmetic are injected: the square root, the finiteness test and the
# making of a constant (Lanes), and one sink per recorded channel.  Every
# constant of a step, signs folded in (-g, not g), is a lane value made once
# per run, so array lanes multiply array by array and never convert a float
# operand at each step.  The exchange field of coupled sites is plain lane
# arithmetic too (_lockstep), sent into the kernel, a generator (see
# llg_kernel).  A kernel reads a grid point's noise only in the steps on
# either side of it, so the sinks of step i may write over grid point i-1:
# array lanes record s_z in their spent noise rows (_lane_noise).  The lane
# tests, which compare float and array lanes bit for bit, would see a row
# written before its last read.

def _raise_if_nonfinite(step, x):
    if not x * 0.0 == 0.0:
        raise IntegrationDivergedError(step)


class Lanes(NamedTuple):
    """Lane-type operations a kernel needs beyond arithmetic.

    check(step, x) is called after every step with a lane value that is
    non-finite exactly where the state blew up; it raises or records.
    full(value) is the lane value holding the float value in every lane; a
    kernel makes each of its constants one before its first step.
    """

    sqrt: Callable
    check: Callable
    full: Callable


FLOAT_LANES = Lanes(math.sqrt, _raise_if_nonfinite, float)


def _member_lanes(steps):
    """Array lanes of independent members, one per entry of steps: a
    blown-up lane turns NaN, and steps[k] records the step at which lane k
    first went non-finite."""
    def record_divergence(step, x):
        bad = ~np.isfinite(x)
        if bad.any():
            steps[bad & (steps == 0)] = step

    def full(value):
        return np.full(steps.shape, value, dtype=float)
    return Lanes(np.sqrt, record_divergence, full)

# integrate_members runs fewer members than this one by one on float lanes.
# Kernel time per member-step, quantum LLG / set2 Lorentzian, from
# scripts/kernel_widths.py (2,000 steps, best of 5) on a 2-core x86-64 VM
# with numpy 2.4.6: float lanes 1.8 / 3.1 us; 32 array lanes 1.9-2.0 / 3.1
# us (no faster); 40 lanes 1.6 / 2.6 us; 50 lanes 1.3 / 2.0 us; 64 lanes
# 0.97 / 1.5 us; 100 lanes 0.62 / 0.97 us.  64 sits above the crossover,
# 32-40 lanes, with a margin for CPU drift.
MIN_LANES = 64


def _skip(value):
    """Sink of a channel that is not recorded."""


def _row_sink(buf):
    """Sink writing successive lane values into the rows of buf."""
    rows = iter(buf)

    def put(value):
        next(rows)[...] = value
    return put


def llg_kernel(s, noise, n_steps, h, eta, sign_gamma, lanes, sinks,
               coupled=False):
    """Memory-free bath: n_steps of projected RK4, a generator.

    s = (sx, sy, sz) lanes; noise = (bx, by, bz), the bath field, to which
    the unit static field along z is added, each a sequence over grid points
    0..n_steps (or more) of lanes (or floats, shared by every lane), read in
    one pass.  sinks = (x, y, z) receive the initial spin and the spin after
    every step, called in that order.  Grid point j's noise is read only in
    steps j and j+1 (point 0 before step 1), so once step i has called its
    sinks no later step reads point i-1, and a sink may write over it (as
    integrate_members records s_z).  Uncoupled, it never yields: one
    next(gen, None) runs it.  Coupled, it yields the spin (x, y, z) of each
    RK stage: the spin s at the start of the step, then s + h/2 k1,
    s + h/2 k2 and s + h k3, k_j being the slope of stage j.  Each yield
    must be sent back the exchange field (jx, jy, jz) at that spin, which
    joins the stage's bath field.  It returns after the last step's fourth
    stage.
    """
    sx, sy, sz = s
    bxl, byl, bzl = noise
    sqrt, check, full = lanes
    ax, ay, az = sinks
    ngp = full(-(sign_gamma / (1.0 + eta * eta)))
    lam = full(eta / (1.0 + eta * eta))
    one = full(1.0); half = full(0.5); two = full(2.0)
    h1 = full(h); h2 = full(0.5 * h); h6 = full(h / 6.0)
    ax(sx); ay(sy); az(sz)
    b1x = bxl[0]; b1y = byl[0]; b1z = one + bzl[0]
    for step, bx, by, bz in zip(range(1, n_steps + 1),
                                bxl[1:], byl[1:], bzl[1:]):
        b0x = b1x; b0y = b1y; b0z = b1z
        b1x = bx; b1y = by; b1z = one + bz
        bhx = half * (b0x + b1x); bhy = half * (b0y + b1y); bhz = half * (b0z + b1z)

        fx = b0x; fy = b0y; fz = b0z
        if coupled:
            jx, jy, jz = yield sx, sy, sz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ngp * fx + lam * (sy * fz - sz * fy)
        oy = ngp * fy + lam * (sz * fx - sx * fz)
        oz = ngp * fz + lam * (sx * fy - sy * fx)
        k1x = oy * sz - oz * sy; k1y = oz * sx - ox * sz; k1z = ox * sy - oy * sx

        px = sx + h2 * k1x; py = sy + h2 * k1y; pz = sz + h2 * k1z
        fx = bhx; fy = bhy; fz = bhz
        if coupled:
            jx, jy, jz = yield px, py, pz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ngp * fx + lam * (py * fz - pz * fy)
        oy = ngp * fy + lam * (pz * fx - px * fz)
        oz = ngp * fz + lam * (px * fy - py * fx)
        k2x = oy * pz - oz * py; k2y = oz * px - ox * pz; k2z = ox * py - oy * px

        px = sx + h2 * k2x; py = sy + h2 * k2y; pz = sz + h2 * k2z
        fx = bhx; fy = bhy; fz = bhz
        if coupled:
            jx, jy, jz = yield px, py, pz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ngp * fx + lam * (py * fz - pz * fy)
        oy = ngp * fy + lam * (pz * fx - px * fz)
        oz = ngp * fz + lam * (px * fy - py * fx)
        k3x = oy * pz - oz * py; k3y = oz * px - ox * pz; k3z = ox * py - oy * px

        px = sx + h1 * k3x; py = sy + h1 * k3y; pz = sz + h1 * k3z
        fx = b1x; fy = b1y; fz = b1z
        if coupled:
            jx, jy, jz = yield px, py, pz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ngp * fx + lam * (py * fz - pz * fy)
        oy = ngp * fy + lam * (pz * fx - px * fz)
        oz = ngp * fz + lam * (px * fy - py * fx)
        k4x = oy * pz - oz * py; k4y = oz * px - ox * pz; k4z = ox * py - oy * px

        sx = sx + h6 * (k1x + two * (k2x + k3x) + k4x)
        sy = sy + h6 * (k1y + two * (k2y + k3y) + k4y)
        sz = sz + h6 * (k1z + two * (k2z + k3z) + k4z)
        nrm2 = sx * sx + sy * sy + sz * sz
        check(step, nrm2)
        r = one / sqrt(nrm2)
        sx = sx * r; sy = sy * r; sz = sz * r
        ax(sx); ay(sy); az(sz)


def lorentzian_kernel(s, v, w, noise, n_steps, h, p, sign_gamma, lanes,
                      sinks, coupled=False):
    """Resonant bath: a generator running n_steps of RK4 on s, V and W, with
    s projected back to the unit sphere after every step.

    Arguments as for llg_kernel, plus the initial v = (vx, vy, vz) and
    w = (wx, wy, wz) lanes; sinks = (x, y, z, v_x, v_y, v_z).  It reads
    the noise in llg_kernel's order, so its sinks may write over a grid
    point's noise likewise, and it yields the four stage spins of a step
    when coupled, as llg_kernel does.
    """
    sx, sy, sz = s
    vx, vy, vz = v
    wx, wy, wz = w
    bxl, byl, bzl = noise
    sqrt, check, full = lanes
    ax, ay, az, avx, avy, avz = sinks
    ng = full(-sign_gamma)
    nw0sq = full(-(p.omega0 ** 2))
    gam = full(p.gamma_width)
    al = full(p.alpha)
    one = full(1.0); half = full(0.5); two = full(2.0)
    h1 = full(h); h2 = full(0.5 * h); h6 = full(h / 6.0)
    ax(sx); ay(sy); az(sz)
    avx(vx); avy(vy); avz(vz)
    b1x = bxl[0]; b1y = byl[0]; b1z = bzl[0]
    for step, bx, by, bz in zip(range(1, n_steps + 1),
                                bxl[1:], byl[1:], bzl[1:]):
        b0x = b1x; b0y = b1y; b0z = b1z
        b1x = bx; b1y = by; b1z = bz
        bhx = half * (b0x + b1x); bhy = half * (b0y + b1y); bhz = half * (b0z + b1z)

        fx = b0x + vx; fy = b0y + vy; fz = one + b0z + vz
        if coupled:
            jx, jy, jz = yield sx, sy, sz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ng * fx; oy = ng * fy; oz = ng * fz
        k1x = oy * sz - oz * sy; k1y = oz * sx - ox * sz; k1z = ox * sy - oy * sx
        dv1x = wx; dv1y = wy; dv1z = wz
        dw1x = nw0sq * vx - gam * wx + al * sx
        dw1y = nw0sq * vy - gam * wy + al * sy
        dw1z = nw0sq * vz - gam * wz + al * sz

        px = sx + h2 * k1x; py = sy + h2 * k1y; pz = sz + h2 * k1z
        v2x = vx + h2 * dv1x; v2y = vy + h2 * dv1y; v2z = vz + h2 * dv1z
        w2x = wx + h2 * dw1x; w2y = wy + h2 * dw1y; w2z = wz + h2 * dw1z
        fx = bhx + v2x; fy = bhy + v2y; fz = one + bhz + v2z
        if coupled:
            jx, jy, jz = yield px, py, pz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ng * fx; oy = ng * fy; oz = ng * fz
        k2x = oy * pz - oz * py; k2y = oz * px - ox * pz; k2z = ox * py - oy * px
        dv2x = w2x; dv2y = w2y; dv2z = w2z
        dw2x = nw0sq * v2x - gam * w2x + al * px
        dw2y = nw0sq * v2y - gam * w2y + al * py
        dw2z = nw0sq * v2z - gam * w2z + al * pz

        px = sx + h2 * k2x; py = sy + h2 * k2y; pz = sz + h2 * k2z
        v3x = vx + h2 * dv2x; v3y = vy + h2 * dv2y; v3z = vz + h2 * dv2z
        w3x = wx + h2 * dw2x; w3y = wy + h2 * dw2y; w3z = wz + h2 * dw2z
        fx = bhx + v3x; fy = bhy + v3y; fz = one + bhz + v3z
        if coupled:
            jx, jy, jz = yield px, py, pz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ng * fx; oy = ng * fy; oz = ng * fz
        k3x = oy * pz - oz * py; k3y = oz * px - ox * pz; k3z = ox * py - oy * px
        dv3x = w3x; dv3y = w3y; dv3z = w3z
        dw3x = nw0sq * v3x - gam * w3x + al * px
        dw3y = nw0sq * v3y - gam * w3y + al * py
        dw3z = nw0sq * v3z - gam * w3z + al * pz

        px = sx + h1 * k3x; py = sy + h1 * k3y; pz = sz + h1 * k3z
        v4x = vx + h1 * dv3x; v4y = vy + h1 * dv3y; v4z = vz + h1 * dv3z
        w4x = wx + h1 * dw3x; w4y = wy + h1 * dw3y; w4z = wz + h1 * dw3z
        fx = b1x + v4x; fy = b1y + v4y; fz = one + b1z + v4z
        if coupled:
            jx, jy, jz = yield px, py, pz
            fx = fx + jx; fy = fy + jy; fz = fz + jz
        ox = ng * fx; oy = ng * fy; oz = ng * fz
        k4x = oy * pz - oz * py; k4y = oz * px - ox * pz; k4z = ox * py - oy * px
        dv4x = w4x; dv4y = w4y; dv4z = w4z
        dw4x = nw0sq * v4x - gam * w4x + al * px
        dw4y = nw0sq * v4y - gam * w4y + al * py
        dw4z = nw0sq * v4z - gam * w4z + al * pz

        sx = sx + h6 * (k1x + two * (k2x + k3x) + k4x)
        sy = sy + h6 * (k1y + two * (k2y + k3y) + k4y)
        sz = sz + h6 * (k1z + two * (k2z + k3z) + k4z)
        vx = vx + h6 * (dv1x + two * (dv2x + dv3x) + dv4x)
        vy = vy + h6 * (dv1y + two * (dv2y + dv3y) + dv4y)
        vz = vz + h6 * (dv1z + two * (dv2z + dv3z) + dv4z)
        wx = wx + h6 * (dw1x + two * (dw2x + dw3x) + dw4x)
        wy = wy + h6 * (dw1y + two * (dw2y + dw3y) + dw4y)
        wz = wz + h6 * (dw1z + two * (dw2z + dw3z) + dw4z)
        nrm2 = sx * sx + sy * sy + sz * sz
        check(step, nrm2 + vx + vy + vz + wx + wy + wz)
        r = one / sqrt(nrm2)
        sx = sx * r; sy = sy * r; sz = sz * r
        ax(sx); ay(sy); az(sz)
        avx(vx); avy(vy); avz(vz)


# --------------------------------------------------------------------------

def noise_traces(cfg: IntegratorConfig, seed: int, n_sites: int):
    if cfg.spectrum is None:
        return None
    return [trace_for_run(cfg.spectrum, site_seed(seed, k), cfg.dt,
                          cfg.n_steps, cfg.margin_time)
            for k in range(n_sites)]


def _site_noise(trace, n_steps: int):
    """Noise (bx, by, bz) of one site as float lanes: memoryviews of the
    trace's rows, or zeros without a trace."""
    if trace is None:
        return ([0.0] * (n_steps + 1),) * 3
    return tuple(memoryview(np.ascontiguousarray(row, dtype=float))
                 for row in trace.components)


def _lane_noise(traces, width: int, n_steps: int):
    """(3, n_steps+2, width) buffer of one NoiseTrace per lane, grid point
    j's noise in row j+1, copied one trace at a time (so an iterator keeps a
    single full trace alive).  Rows 1: are the noise lanes (bx, by, bz);
    the z rows 0..n_steps take the recorded s_z, row i once step i has read
    grid point i-1 for the last time (see llg_kernel), so the s_z columns
    are a view into this buffer and take no memory of their own."""
    buf = np.empty((3, n_steps + 2, width))
    for k, tr in enumerate(traces):
        buf[:, 1:, k] = tr.components[:, :n_steps + 1]
    return buf


def _lockstep(kernels, sys: SpinSystem):
    """Run the kernels of exchange-coupled sites together.  At every RK stage
    site a is sent its exchange field, the sum over its bonds b of
    Jbar(a, b) s_b at the stage spins, in plain lane arithmetic: the nine
    tensor entries are floats, each bond's three products are summed left
    to right, and the bonds are added in the order of their site pairs."""
    bonds = [[] for _ in kernels]
    for a, b in sorted(sys.exchange):
        bonds[a].append((b, *sys.exchange[a, b].ravel().tolist()))
    sites = list(zip(kernels, bonds))
    spins = [next(gen) for gen in kernels]
    while spins:
        stage = []
        for gen, site in sites:
            jx = jy = jz = 0.0
            for b, xx, xy, xz, yx, yy, yz, zx, zy, zz in site:
                x, y, z = spins[b]
                jx = jx + (xx * x + xy * y + xz * z)
                jy = jy + (yx * x + yy * y + yz * z)
                jz = jz + (zx * x + zy * y + zz * z)
            try:
                stage.append(gen.send((jx, jy, jz)))
            except StopIteration:  # every site returns at the same stage
                pass
        spins = stage


def _kernel(cfg: IntegratorConfig, s, noise, lanes, sinks, coupled=False):
    """The kernel generator of cfg's bath for one run; a resonant bath
    starts with V = W = 0 on every lane."""
    if isinstance(cfg.bath, LorentzianParams):
        zero = (0.0, 0.0, 0.0)
        return lorentzian_kernel(s, zero, zero, noise, cfg.n_steps, cfg.dt,
                                 cfg.bath, cfg.frame.sign_gamma, lanes, sinks,
                                 coupled)
    return llg_kernel(s, noise, cfg.n_steps, cfg.dt, cfg.bath.eta,
                      cfg.frame.sign_gamma, lanes, sinks[:3], coupled)


def integrate(sys: SpinSystem, cfg: IntegratorConfig, seed: int = 0,
              traces=None) -> Trajectory:
    """Integrate the system over cfg.t_max; pure in (initial state, cfg, seed).

    The caller's SpinSystem is left untouched, and a resonant bath starts
    with V = W = 0.  `traces` overrides the internally generated noise (one
    NoiseTrace per site), which is how shared-noise comparisons across
    methods are run.  Each site runs as its own float-lane kernel; sites
    coupled by exchange step in lockstep.
    Spins and V are recorded in the (n_steps+1, 3) layout they are returned
    in: a single site's arrays wrap the recording buffers without a copy,
    and several sites are stacked once.
    """
    n_steps = cfg.n_steps
    n_sites = sys.n_sites
    if traces is None:
        traces = noise_traces(cfg, seed, n_sites)
    if traces is not None:
        if len(traces) != n_sites:
            raise ConfigurationError("need one noise trace per site")
        for tr in traces:
            if tr.n_samples < n_steps + 1:
                raise ConfigurationError("noise trace shorter than the run")
            if tr.dt != cfg.dt:
                raise ConfigurationError(
                    f"noise trace dt={tr.dt!r} differs from the run's "
                    f"dt={cfg.dt!r}")

    s = sys.spins.tolist()
    # per site, two buffers: the spin and V.  One append is the x, y and z
    # sink of the spin (and of V); the kernel calls them in that order every
    # step, so the buffer reads as (n_steps+1, 3) row-major.
    records = [(array("d"), array("d")) for _ in range(n_sites)]
    kernels = [_kernel(cfg, s[k], _site_noise(traces and traces[k], n_steps),
                       FLOAT_LANES, [xyz.append] * 3 + [vs.append] * 3,
                       bool(sys.exchange))
               for k, (xyz, vs) in enumerate(records)]
    if sys.exchange:
        _lockstep(kernels, sys)
    else:
        for gen in kernels:
            next(gen, None)

    rows = n_steps + 1
    spins = _site_stack([xyz for xyz, _ in records], (rows, 3))
    aux_v = (_site_stack([vs for _, vs in records], (rows, 3))
             if isinstance(cfg.bath, LorentzianParams) else None)
    times = np.arange(rows, dtype=float)  # in place: no int64 temporary
    times *= cfg.dt
    return Trajectory(times=times, spins=spins, aux_v=aux_v)


def _site_stack(bufs, shape):
    """(n_sites, *shape) array of one recorded channel, from one buffer per
    site: a view of the buffer of a single site, one stacked copy of several."""
    arrays = [np.frombuffer(b).reshape(shape) for b in bufs]
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def lane_step_bytes(cfg: IntegratorConfig) -> int:
    """Bytes per member-step that integrate_members' array lanes hold: 24
    with noise, whose buffer also takes the recorded s_z, 8 (the s_z alone)
    without."""
    return 8 if cfg.noise_kind is None else 24


def integrate_members(cfg: IntegratorConfig, seeds, initial_spin):
    """s_z(t) of independent single-spin runs, one per seed.

    Column k is bit-identical to
    integrate(SpinSystem.single(initial_spin), cfg, seed=seeds[k]).sz().
    Only s_z is recorded.  At least MIN_LANES seeds run as the lanes of one
    array kernel, fewer one by one on float lanes.  Returns (sz, steps): sz
    has shape (n_steps+1, len(seeds)), and steps[k] is the step at which
    member k diverged (its column is then non-finite from there on), 0 if
    it did not.  With noise, the lanes' sz is a view into their noise
    buffer (_lane_noise); lane_step_bytes gives what the lanes hold.
    """
    width = len(seeds)
    n_steps = cfg.n_steps
    sys = SpinSystem.single(initial_spin)
    sinks = [_skip] * 6
    if width < MIN_LANES:
        sz = np.empty((n_steps + 1, width))
        s = sys.spins[0].tolist()
        steps = [0] * width
        for k, seed in enumerate(seeds):
            traces = noise_traces(cfg, seed, 1)
            noise = _site_noise(traces and traces[0], n_steps)
            col = array("d")
            sinks[2] = col.append
            try:
                next(_kernel(cfg, s, noise, FLOAT_LANES, sinks), None)
            except IntegrationDivergedError as err:
                steps[k] = err.step
            sz[:len(col), k] = col
            sz[len(col):, k] = math.nan
        return sz, steps

    if cfg.noise_kind is None:
        noise = _site_noise(None, n_steps)
        sz = np.empty((n_steps + 1, width))
    else:
        buf = _lane_noise((noise_traces(cfg, seed, 1)[0] for seed in seeds),
                          width, n_steps)
        noise = buf[:, 1:]
        sz = buf[2, :n_steps + 1]  # written behind the kernel's noise reads
    steps = np.zeros(width, dtype=np.int64)
    s = tuple(np.full(width, float(x)) for x in sys.spins[0])
    sinks[2] = _row_sink(sz)
    with np.errstate(all="ignore"):  # blown-up lanes go NaN quietly
        next(_kernel(cfg, s, noise, _member_lanes(steps), sinks), None)
    return sz, [int(k) for k in steps]


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
