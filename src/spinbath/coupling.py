"""Bath coupling functions, memory kernels, kernel moments and noise spectra.

All quantities are unit-free: frequencies in multiples of the Larmor
frequency, times in its inverse.  The reduced spectral density p_tilde is
independent of the spin length; the density actually used to colour a noise
trace carries the extra 2/n_halves amplitude factor (see
``PowerSpectrum.trace_density``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SET1, SET2, ConfigurationError, LorentzianParams,
                    OhmicParams, ParameterError, UnitFrame, require_finite)

SPECTRUM_KINDS = (
    "classical-ohmic",
    "quantum-ohmic",
    "quantum-lorentzian",
    "classical-lorentzian",
)

# Hard truncation frequency for the quantum memory-free spectrum, which
# otherwise grows linearly without bound.  Well above the dynamically
# relevant band [0, 2.5] yet below the Nyquist frequency of the default
# time step.
DEFAULT_CUTOFF = 10.0


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def ohmic_coupling(omega, eta: float):
    """Memory-free coupling sqrt(2 eta / pi) * omega, for omega >= 0."""
    om, scalar = _as_float_array(omega)
    if np.any(om < 0.0):
        raise ParameterError("omega must be >= 0")
    return _ret(np.sqrt(2.0 * eta / math.pi) * om, scalar)


def lorentzian_coupling(omega, p: LorentzianParams):
    """Resonant coupling c(omega); vanishes at omega = 0 and as omega -> inf."""
    om, scalar = _as_float_array(omega)
    if np.any(om < 0.0):
        raise ParameterError("omega must be >= 0")
    denom = (p.omega0 ** 2 - om ** 2) ** 2 + om ** 2 * p.gamma_width ** 2
    return _ret(np.sqrt(2.0 * p.alpha * p.gamma_width / math.pi * om ** 2 / denom), scalar)


def lorentzian_kernel_time(tau, p: LorentzianParams):
    """Causal kernel alpha * exp(-Gamma tau / 2) sin(omega1 tau) / omega1."""
    t, scalar = _as_float_array(tau)
    w1 = p.omega1
    out = np.where(
        t > 0.0,
        p.alpha * np.exp(-0.5 * p.gamma_width * np.where(t > 0.0, t, 0.0))
        * np.sin(w1 * t) / w1,
        0.0,
    )
    return _ret(out, scalar)


def lorentzian_kernel_freq(omega, p: LorentzianParams):
    """Kernel Fourier transform alpha / (omega0^2 - omega^2 - i omega Gamma)."""
    om, scalar = _as_float_array(omega)
    out = p.alpha / (p.omega0 ** 2 - om ** 2 - 1j * om * p.gamma_width)
    return complex(out) if scalar else out


def ohmic_kernel_im_freq(omega, eta: float):
    """Imaginary part of the memory-free kernel transform: eta * omega."""
    om, scalar = _as_float_array(omega)
    return _ret(eta * om, scalar)


@dataclass(frozen=True)
class KernelMoments:
    """One-sided time moments kappa_1..kappa_M of a memory kernel.

    kappa_m = ((-1)^m / m!) * integral_0^inf tau^m K(tau) dtau.  tau_in is
    the inertial timescale kappa_2/kappa_1 (negative when gamma_width
    exceeds omega0), tau_d the kernel decay time.
    """

    kappa: tuple
    tau_in: float
    tau_d: float


def kernel_moments(p: LorentzianParams, max_m: int = 4) -> KernelMoments:
    """Closed-form moments of the resonant kernel up to order max_m."""
    if max_m < 2:
        raise ParameterError("max_m must be >= 2")
    z = 0.5 * p.gamma_width + 1j * p.omega1
    kappa = tuple(
        (-1.0) ** m * p.alpha / (p.omega1 * p.omega0 ** (2 * (m + 1)))
        * (z ** (m + 1)).imag
        for m in range(1, max_m + 1)
    )
    return KernelMoments(kappa=kappa, tau_in=kappa[1] / kappa[0], tau_d=p.tau_d)


def _omega_coth(omega, zeta: float):
    """|omega| * coth(|omega| / zeta): even, finite at 0, equals |omega| at zeta = 0."""
    om = np.abs(np.asarray(omega, dtype=float))
    if zeta == 0.0:
        return om
    x = om / zeta
    small = x < 1e-6
    large = x > 350.0
    mid = ~(small | large)
    out = np.empty_like(om)
    out[small] = zeta * (1.0 + x[small] ** 2 / 3.0)
    out[large] = om[large]
    out[mid] = om[mid] * (1.0 + 2.0 / np.expm1(2.0 * x[mid]))
    return out


@dataclass(frozen=True)
class PowerSpectrum:
    """Two-sided noise spectral density tied to a bath, temperature and frame.

    Calling the object evaluates the reduced density p_tilde(omega), which is
    independent of the spin length.  ``trace_density`` is what a generated
    unit-free field trace must realize: (2 / n_halves) * p_tilde, with the
    classical kinds evaluated through T/n so equal ratios match bitwise.
    """

    kind: str
    params: OhmicParams | LorentzianParams
    temperature: float
    frame: UnitFrame
    cutoff: float | None = None

    def __call__(self, omega):
        om, scalar = _as_float_array(omega)
        zeta = self.frame.thermal_ratio(self.temperature)
        out = self._reduced(om, zeta)
        return _ret(self._truncate(out, om), scalar)

    def trace_density(self, omega):
        om, scalar = _as_float_array(omega)
        if self.kind in ("classical-ohmic", "classical-lorentzian"):
            # classical amplitudes depend on T and n only through T/n
            zeta_n = self.frame.thermal_ratio_per_halfspin(self.temperature)
            out = 2.0 * self._reduced(om, zeta_n)
        else:
            out = (2.0 / self.frame.n_halves) * self._reduced(
                om, self.frame.thermal_ratio(self.temperature))
        return _ret(self._truncate(out, om), scalar)

    def _reduced(self, om, zeta):
        if self.kind == "classical-ohmic":
            return np.full_like(om, self.params.eta * zeta)
        if self.kind == "quantum-ohmic":
            return self.params.eta * _omega_coth(om, zeta)
        p = self.params
        denom = (p.omega0 ** 2 - om ** 2) ** 2 + om ** 2 * p.gamma_width ** 2
        if self.kind == "quantum-lorentzian":
            return p.alpha * p.gamma_width * _omega_coth(om, zeta) / denom
        return p.alpha * p.gamma_width * zeta / denom

    def _truncate(self, out, om):
        if self.cutoff is not None:
            return np.where(np.abs(om) <= self.cutoff, out, 0.0)
        return out

    def describe(self) -> str:
        return (f"{self.kind} T={self.temperature!r}K n={self.frame.n_halves} "
                f"cutoff={self.cutoff!r} params={self.params!r}")


def power_spectrum(kind: str, params, temperature: float, frame: UnitFrame,
                   cutoff: float | None = None) -> PowerSpectrum:
    """Build a validated PowerSpectrum of the given kind."""
    if kind not in SPECTRUM_KINDS:
        raise ConfigurationError(f"unknown spectrum kind {kind!r}")
    require_finite(temperature=temperature, cutoff=cutoff)
    if temperature < 0.0:
        raise ParameterError("temperature must be >= 0")
    if kind.endswith("ohmic") and not isinstance(params, OhmicParams):
        raise ConfigurationError(f"{kind} requires OhmicParams")
    if kind.endswith("lorentzian") and not isinstance(params, LorentzianParams):
        raise ConfigurationError(f"{kind} requires LorentzianParams")
    if kind == "quantum-ohmic" and cutoff is None:
        raise ConfigurationError(
            "quantum-ohmic spectrum grows without bound and needs a cutoff")
    if cutoff is not None and cutoff <= 0.0:
        raise ParameterError("cutoff must be positive")
    return PowerSpectrum(kind=kind, params=params, temperature=temperature,
                         frame=frame, cutoff=cutoff)


def fdt_check(coupling_fn, kernel_im_fn) -> float:
    """Max residual of c(omega)^2 == (2 omega / pi) * Im k(omega) on a grid
    of 4001 points over [0, 20]."""
    om = np.linspace(0.0, 20.0, 4001)
    c = np.asarray(coupling_fn(om), dtype=float)
    im_k = np.asarray(kernel_im_fn(om), dtype=float)
    return float(np.max(np.abs(c ** 2 - (2.0 * om / math.pi) * im_k)))


def fdt_residuals() -> dict:
    """fdt_check residual of each standard bath: set1, set2 and the Ohmic
    bath at their shared effective damping 50/2401."""
    eta = SET1.eta_equivalent
    res = {name: fdt_check(lambda w, p=p: lorentzian_coupling(w, p),
                           lambda w, p=p: lorentzian_kernel_freq(w, p).imag)
           for name, p in (("set1", SET1), ("set2", SET2))}
    res["ohmic"] = fdt_check(lambda w: ohmic_coupling(w, eta),
                             lambda w: ohmic_kernel_im_freq(w, eta))
    return res


def moment_quadrature_error(p: LorentzianParams) -> float:
    """Largest relative gap, over m = 1..4, between the quadrature of
    tau^m K(tau) and its closed form (-1)^m m! kappa_m.

    The quadrature stops at 80/Gamma: tau^m amplifies the exponential tail,
    and 40/Gamma truncates at ~2e-2.
    """
    # imported here, so that importing spinbath does not load scipy
    from scipy.integrate import quad
    worst = 0.0
    for m, kappa_m in enumerate(kernel_moments(p, max_m=4).kappa, start=1):
        num, _ = quad(lambda tau, m=m: tau ** m * lorentzian_kernel_time(tau, p),
                      0.0, 80.0 / p.gamma_width, limit=800)
        closed = (-1.0) ** m * math.factorial(m) * kappa_m
        worst = max(worst, abs(num - closed) / abs(closed))
    return worst


def psd_expansion(p: LorentzianParams, order: int, omega, temperature: float,
                  frame: UnitFrame):
    """Moment-series approximation to the quantum resonant spectrum.

    ``order`` is the highest kernel-moment index retained; even moments do
    not contribute, and order 0 is the leading (memory-free) term, identical
    to order 1.  The partial sum is
    sum over odd m of (-1)^((m-1)/2 + 1) omega^m kappa_m, times coth.
    """
    if order < 0:
        raise ParameterError("order must be >= 0")
    top = max(order, 1)
    moments = kernel_moments(p, max_m=max(top, 2)).kappa
    om, scalar = _as_float_array(omega)
    zeta = frame.thermal_ratio(temperature)
    poly = np.zeros_like(om)
    for m in range(1, top + 1, 2):
        j = (m - 1) // 2
        poly += (-1.0) ** (j + 1) * moments[m - 1] * om ** (m - 1)
    out = poly * _omega_coth(om, zeta)
    return _ret(out, scalar)
