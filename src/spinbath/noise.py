"""Deterministic seeded white noise and its spectral colouring.

A trace is generated in one shot before integration: white Gaussian samples
are filtered in the frequency domain by the square root of the target
spectral density (circular convolution via FFT).  The leading wrap-affected
margin is discarded by the caller, which makes the retained part effectively
stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import PowerSpectrum
from .model import ParameterError

_MASK64 = (1 << 64) - 1

# Golden-ratio multiplier used to decorrelate per-site streams; trajectory
# streams within an ensemble use a plain XOR with the trajectory index.
_SITE_STRIDE = 0x9E3779B97F4A7C15


def derive_seed(base: int, index: int) -> int:
    """Seed for ensemble member `index`: base XOR index, 64-bit."""
    return (int(base) ^ int(index)) & _MASK64


def site_seed(base: int, site: int) -> int:
    """Seed for lattice site `site` within one trajectory (site 0 = base)."""
    if site == 0:
        return int(base) & _MASK64
    return (int(base) ^ ((site * _SITE_STRIDE) & _MASK64)) & _MASK64


@dataclass(frozen=True)
class WhiteSeed:
    """Address of a reproducible block of white Gaussian samples.

    Identical (seed, n_samples, dt) yields bit-identical samples.  The
    per-sample variance is 1/dt, the discrete stand-in for delta-correlated
    unit-intensity noise.
    """

    seed: int
    n_samples: int
    dt: float

    def __post_init__(self):
        if self.n_samples < 2:
            raise ParameterError("n_samples must be >= 2")
        if not self.dt > 0.0:
            raise ParameterError("dt must be positive")


def _white_rows(ws: WhiteSeed, out: np.ndarray):
    """Draw the white samples of ws into the three rows of out, one row at a
    time from one generator, yielding each row once it is drawn.

    Three standard_normal(n) draws equal one standard_normal((3, n)) draw
    bit for bit, so the rows are those of the whole (3, n) block.
    """
    rng = np.random.Generator(np.random.Philox(key=ws.seed & _MASK64))
    scale = math.sqrt(ws.dt)
    for row in out:
        rng.standard_normal(out=row)
        row /= scale
        yield row


def white_gaussian(ws: WhiteSeed) -> np.ndarray:
    """3 x n i.i.d. Gaussian samples with variance 1/dt per sample.

    Generation is pinned to the Philox counter-based generator with numpy's
    ziggurat normal sampler; the contract across platforms is statistical
    equivalence, with bit reproducibility only for a fixed numpy install.
    """
    xi = np.empty((3, ws.n_samples))
    for _ in _white_rows(ws, xi):
        pass
    return xi


@dataclass(frozen=True)
class NoiseTrace:
    """Stationary coloured field samples on the integration grid.

    components has shape (3, n), in units of the external field, sampled
    every dt (unit-free time).  provenance records the white-noise address
    and a description of the spectrum used to colour it.
    """

    components: np.ndarray
    dt: float
    provenance: tuple

    @property
    def n_samples(self) -> int:
        return self.components.shape[1]


def colour(white: np.ndarray, psd: PowerSpectrum, dt: float,
           seed: WhiteSeed | None = None) -> NoiseTrace:
    """Filter white samples so their spectral density matches the target.

    Implements component-wise circular convolution as
    ifft(sqrt(density(omega_k)) * fft(xi)); the filter is even in omega, so
    Hermitian symmetry keeps the output real.  The density is evaluated on
    the non-negative half of the frequency grid only and mirrored onto the
    negative half, which is exact: every density depends on |omega| or
    omega^2 alone.  The components are coloured one at a time in one reused
    complex buffer, so besides white and the (3, n) result only that row
    and the half filter are held.
    """
    xi = np.asarray(white, dtype=float)
    if xi.ndim != 2 or xi.shape[0] != 3 or xi.shape[1] < 2:
        raise ParameterError("white must have shape (3, n) with n >= 2")
    return _colour(lambda components: xi, xi.shape[1], psd, dt, seed)


def _colour(white_rows, n: int, psd: PowerSpectrum, dt: float,
            seed: WhiteSeed | None) -> NoiseTrace:
    """colour's body: white_rows(components) gives the three white rows,
    each consumed before the next is asked for, so they may be drawn into
    the rows of the result itself."""
    # rfftfreq gives |fftfreq| at k = 0..n//2 bit for bit
    half = np.asarray(psd.trace_density(
        2.0 * math.pi * np.fft.rfftfreq(n, d=dt)), dtype=float)
    if np.any(half < 0.0) or not np.all(np.isfinite(half)):
        raise RuntimeError("spectral density must be finite and non-negative")
    np.sqrt(half, out=half)
    h = len(half)
    # bin n - k carries frequency -omega_k: bins h..n-1 take half[n-h..1]
    mirror = half[n - h:0:-1]
    # the row buffer comes before the result, so that once freed its block
    # is reused by the next trace instead of raising the heap: the chain
    # workload's peak RSS read 41.1 MB this way and 41.4-41.5 MB the other
    spec = np.empty(n, dtype=complex)
    components = np.empty((3, n))
    max_imag = 0.0
    # np.fft takes out= from numpy 2.0 on, hence pyproject's numpy>=2.0
    for row, x in zip(components, white_rows(components)):
        spec[:] = x
        np.fft.fft(spec, out=spec)
        spec[:h] *= half
        spec[h:] *= mirror
        np.fft.ifft(spec, out=spec)
        row[:] = spec.real
        max_imag = max(max_imag, float(spec.imag.max()),
                       -float(spec.imag.min()))
    # einsum sums the squares without a temporary or a BLAS thread pool
    rms = math.sqrt(float(np.einsum("ij,ij", components, components))
                    / components.size)
    if rms > 0.0 and max_imag > 1e-10 * rms:
        raise RuntimeError("colouring produced a non-real trace")
    return NoiseTrace(components=components, dt=dt,
                      provenance=(seed, psd.describe()))


def coloured_trace(ws: WhiteSeed, psd: PowerSpectrum) -> NoiseTrace:
    """The white samples of `ws` coloured with `psd`, bit-identical to
    colour(white_gaussian(ws), psd, ws.dt, seed=ws).

    Each white row is drawn into its row of the result just before that row
    is coloured, so no (3, n) white block is held beside the result.
    """
    return _colour(lambda components: _white_rows(ws, components),
                   ws.n_samples, psd, ws.dt, ws)


def trace_for_run(psd: PowerSpectrum, seed: int, dt: float, n_steps: int,
                  margin_time: float) -> NoiseTrace:
    """Trace covering n_steps+1 grid points after a discarded lead-in.

    margin_time (unit-free) absorbs the circular-convolution wrap; it should
    be several correlation times of the target spectrum.
    """
    n_margin = int(math.ceil(margin_time / dt)) if margin_time > 0 else 0
    n = n_steps + 1 + n_margin
    ws = WhiteSeed(seed=seed, n_samples=n, dt=dt)
    full = coloured_trace(ws, psd)
    return NoiseTrace(components=full.components[:, n_margin:], dt=dt,
                      provenance=full.provenance)


def welch_density(trace: NoiseTrace, nperseg: int):
    """(omega, density): the Welch estimate of a trace's two-sided density
    in angular frequency, averaged over its components, from Hann segments
    of nperseg samples overlapping by half."""
    # imported here, so that importing spinbath does not load scipy
    from scipy.signal import welch
    f, pxx = welch(trace.components, fs=1.0 / trace.dt, nperseg=nperseg,
                   noverlap=nperseg // 2, window="hann", detrend=False, axis=1)
    # scipy returns a one-sided density per cycle
    return 2.0 * math.pi * f, pxx.mean(axis=0) / 2.0


def banded_psd_error(psd: PowerSpectrum, ws: WhiteSeed, nperseg: int,
                     band: int) -> float:
    """Largest relative gap between the Welch density of the trace coloured
    from ws and the target psd.trace_density, both averaged over bands of
    `band` frequency bins, over the bands where the target exceeds 5% of
    its largest band."""
    omega, est = welch_density(coloured_trace(ws, psd), nperseg)
    target = psd.trace_density(omega)
    m = (len(omega) // band) * band
    eb = est[:m].reshape(-1, band).mean(axis=1)
    tb = target[:m].reshape(-1, band).mean(axis=1)
    mask = tb > 0.05 * tb.max()
    return float(np.max(np.abs(eb[mask] - tb[mask]) / tb[mask]))
