"""Deterministic seeded white noise and its spectral colouring.

A trace is generated in one shot before integration: white Gaussian samples
are filtered in the frequency domain by the square root of the target
spectral density (circular convolution via a real FFT pair, row by row in
place over the white samples).  The leading wrap-affected margin is
discarded by the caller, which makes the retained part effectively
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


def white_gaussian(ws: WhiteSeed) -> np.ndarray:
    """3 x n i.i.d. Gaussian samples with variance 1/dt per sample.

    Generation is pinned to the Philox counter-based generator with numpy's
    ziggurat normal sampler; the contract across platforms is statistical
    equivalence, with bit reproducibility only for a fixed numpy install.
    """
    xi = np.empty((3, ws.n_samples))
    rng = np.random.Generator(np.random.Philox(key=ws.seed & _MASK64))
    rng.standard_normal(out=xi)
    xi /= math.sqrt(ws.dt)
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


def _amplitude(psd: PowerSpectrum, n: int, dt: float) -> np.ndarray:
    """sqrt(density) on the n//2 + 1 non-negative frequencies of an
    n-sample real transform at spacing dt.  A density that overflows (or
    goes negative) is a ParameterError naming the spectrum."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        amp = np.asarray(psd.trace_density(
            2.0 * math.pi * np.fft.rfftfreq(n, d=dt)), dtype=float)
    if np.any(amp < 0.0) or not np.all(np.isfinite(amp)):
        raise ParameterError("spectral density must be finite and "
                             f"non-negative: {psd.describe()}")
    return np.sqrt(amp, out=amp)


def _filter_rows(xi: np.ndarray, amp: np.ndarray) -> None:
    """Filter each row of xi in place by amp, through one reused buffer of
    n//2 + 1 complex bins.  np.fft takes out= from numpy 2.0 on, hence
    pyproject's numpy>=2.0."""
    n = xi.shape[1]
    spec = np.empty(len(amp), dtype=complex)
    for row in xi:
        np.fft.rfft(row, out=spec)
        spec *= amp
        np.fft.irfft(spec, n, out=row)


def colour(white: np.ndarray, psd: PowerSpectrum, dt: float,
           seed: WhiteSeed | None = None) -> NoiseTrace:
    """Filter white samples so their spectral density matches the target.

    Implements component-wise circular convolution as
    irfft(sqrt(density(omega_k)) * rfft(xi)).  Every density depends on
    |omega| alone, so its values at the non-negative frequencies define the
    filter, and the real inverse transform makes the output real by
    construction.  The filter is evaluated first, then a copy of white is
    filtered row by row in place; white itself is left untouched.
    """
    xi = np.asarray(white, dtype=float)
    if xi.ndim != 2 or xi.shape[0] != 3 or xi.shape[1] < 2:
        raise ParameterError("white must have shape (3, n) with n >= 2")
    amp = _amplitude(psd, xi.shape[1], dt)
    xi = xi.copy()
    _filter_rows(xi, amp)
    return NoiseTrace(components=xi, dt=dt, provenance=(seed, psd.describe()))


def coloured_trace(ws: WhiteSeed, psd: PowerSpectrum) -> NoiseTrace:
    """The white samples of `ws` coloured with `psd`, bit-identical to
    colour(white_gaussian(ws), psd, ws.dt, seed=ws).

    The white block is drawn into the array that is returned and filtered
    there in place.  The filter is evaluated before the draw, so the
    spectrum's temporaries come and go before the (3, n) block exists.
    """
    amp = _amplitude(psd, ws.n_samples, ws.dt)
    # looked up through the module at each call, so a tracer that wraps
    # white_gaussian sees the draw
    xi = white_gaussian(ws)
    _filter_rows(xi, amp)
    return NoiseTrace(components=xi, dt=ws.dt, provenance=(ws, psd.describe()))


# Why 5-smooth: the in-place rfft/irfft pairs of three rows, numpy 2.4.6,
# 2 cores, best of 9 in a fresh process per length.  A full-scale set2 run
# needs 301,861 = 7 * 29 * 1,487 samples: 550 ms there, where pocketfft
# takes Bluestein's path and keeps 37 MB more peak RSS, against 40 ms at the
# next 5-smooth length (303,750), 60 ms at the next 7-smooth (302,400) and
# 87-104 ms at 2^19.  The LLG runs' 301,661 = 31 * 37 * 263 took 133 ms.  A
# desk sweep set2 run needs 21,212 = 4 * 5,303: 24 ms, against 1.9 ms
# (5-smooth 21,600), 1.3-1.4 ms (7-smooth 21,504), 2.1-2.4 ms (11-smooth
# 21,296) and 3.4-4.2 ms at 2^15.
def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at or above n >= 1: a length that pocketfft
    transforms with its own radices, never by Bluestein's algorithm."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a at or above n
            m = p35 << (-(-n // p35) - 1).bit_length()
            if m < best:
                best = m
            p35 *= 3
        p5 *= 5
    return best


def trace_length(dt: float, n_steps: int, margin_time: float) -> int:
    """Samples that trace_for_run draws: the smallest 5-smooth number at or
    above the n_steps + 1 grid points plus a lead-in of margin_time."""
    n_margin = int(math.ceil(margin_time / dt)) if margin_time > 0 else 0
    return _fast_length(n_steps + 1 + n_margin)


def trace_for_run(psd: PowerSpectrum, seed: int, dt: float, n_steps: int,
                  margin_time: float) -> NoiseTrace:
    """Trace covering n_steps+1 grid points after a discarded lead-in.

    margin_time (unit-free) absorbs the circular-convolution wrap; it should
    be several correlation times of the target spectrum.  The trace_length
    samples drawn pad the lead-in up to a fast FFT length, so the lead-in
    is never shorter than margin_time.
    """
    n = trace_length(dt, n_steps, margin_time)
    n_margin = n - n_steps - 1
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
