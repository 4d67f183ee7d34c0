"""Core domain types: unit frames, bath parameters, spin systems.

Everything downstream of this module works in unit-free variables: time in
multiples of the inverse precession (Larmor) frequency, magnetic fields in
units of the external field magnitude, and spins as unit vectors.  SI
quantities appear only here, at the configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# SI constants (2019 redefinition).
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23       # J / K

# Electron gyromagnetic ratio -g_e mu_B / hbar, rounded.  1 / (s T), signed.
GAMMA_ELECTRON = -1.76e11


class ParameterError(ValueError):
    """A physical or numerical parameter is out of its valid domain."""


class ConfigurationError(ValueError):
    """A run configuration is internally inconsistent."""


class IntegrationDivergedError(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"integration diverged at step {step}")

    def __reduce__(self):
        # the default rebuilds from self.args, which holds only the message
        return type(self), (self.step, str(self))


def require_finite(**values) -> None:
    """Raise ParameterError naming the first value that is not finite
    (NaN or infinite, in any entry of an array); None is skipped."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            shown = np.asarray(value, dtype=float).tolist()
            raise ParameterError(f"{name} must be finite, got {shown}")


@dataclass(frozen=True)
class UnitFrame:
    """Conversion context between SI and unit-free quantities.

    Parameters
    ----------
    b_ext_tesla : float
        External field magnitude in tesla, > 0.
    gamma_si : float
        Signed gyromagnetic ratio in 1/(s T).
    n_halves : int
        Spin length in units of hbar/2: an integer >= 1 with a finite float
        value, stored as an int.
    """

    b_ext_tesla: float
    gamma_si: float = GAMMA_ELECTRON
    n_halves: int = 1

    def __post_init__(self):
        require_finite(b_ext_tesla=self.b_ext_tesla, gamma_si=self.gamma_si)
        if not self.b_ext_tesla > 0.0:
            raise ParameterError("b_ext_tesla must be positive")
        if self.gamma_si == 0.0:
            raise ParameterError("gamma_si must be non-zero")
        # thermal_ratio divides by the precession quantum; a subnormal one
        # has lost its precision, and zero or inf has none
        quantum = HBAR * self.larmor
        if not np.finfo(float).tiny <= quantum < math.inf:
            raise ParameterError(
                f"hbar * |gamma_si| * b_ext_tesla must be a normal finite "
                f"float, got {quantum!r} J at gamma_si = {self.gamma_si!r}, "
                f"b_ext_tesla = {self.b_ext_tesla!r}")
        object.__setattr__(self, "n_halves", spin_length(self.n_halves))

    @property
    def larmor(self) -> float:
        """Precession angular frequency |gamma| |B_ext|, rad/s."""
        return abs(self.gamma_si) * self.b_ext_tesla

    @property
    def sign_gamma(self) -> float:
        return 1.0 if self.gamma_si > 0 else -1.0

    def thermal_ratio(self, temperature: float) -> float:
        """2 kB T / (hbar larmor): thermal over precession energy."""
        if temperature < 0.0:
            raise ParameterError("temperature must be >= 0")
        return 2.0 * KB * temperature / (HBAR * self.larmor)

    def thermal_ratio_per_halfspin(self, temperature: float) -> float:
        """thermal_ratio / n_halves, computed through T/n.

        Classical white-noise amplitudes depend on temperature and spin
        length only through T/n; evaluating that ratio first makes runs with
        equal T/n bit-identical, not merely equal to rounding.
        """
        if temperature < 0.0:
            raise ParameterError("temperature must be >= 0")
        return 2.0 * KB * (temperature / self.n_halves) / (HBAR * self.larmor)


def spin_length(n, name: str = "n_halves") -> int:
    """n as an int, if it is an integer >= 1 with a finite float value;
    otherwise ParameterError naming it `name`."""
    # n % 1 is NaN for a NaN or infinite n; the spectra use n as a float,
    # which an int above the largest float does not have
    if not (n % 1 == 0 and 1 <= n <= float(np.finfo(float).max)):
        raise ParameterError(
            f"{name} must be an integer >= 1 with a finite float value")
    return int(n)


def build_unit_frame(b_ext_tesla: float, gamma_si: float = GAMMA_ELECTRON,
                     n_half_hbar: int = 1) -> UnitFrame:
    """Validated UnitFrame from field, gyromagnetic ratio and spin halves."""
    return UnitFrame(b_ext_tesla, gamma_si, n_half_hbar)


@dataclass(frozen=True)
class OhmicParams:
    """Memory-free bath: a single unit-free damping constant.

    eta == 0 is allowed and means a fully decoupled (conservative) spin.
    """

    eta: float

    def __post_init__(self):
        require_finite(eta=self.eta)
        if self.eta < 0.0:
            raise ParameterError("eta must be >= 0")

    @property
    def tau_d(self) -> float:
        """Kernel decay time; the memory-free kernel is instantaneous."""
        return 0.0


@dataclass(frozen=True)
class LorentzianParams:
    """Resonant bath coupling: resonance omega0, width gamma_width, amplitude alpha.

    All three in units of the Larmor frequency.  The time-domain kernel is a
    damped oscillation at omega1 = sqrt(omega0^2 - gamma_width^2/4), so
    omega0 > gamma_width/2 is required.  alpha == 0 means a decoupled bath.
    """

    omega0: float
    gamma_width: float
    alpha: float

    def __post_init__(self):
        require_finite(omega0=self.omega0, gamma_width=self.gamma_width,
                       alpha=self.alpha)
        if not self.omega0 > 0.0:
            raise ParameterError("omega0 must be positive")
        if not self.gamma_width > 0.0:
            raise ParameterError("gamma_width must be positive")
        if self.alpha < 0.0:
            raise ParameterError("alpha must be >= 0")
        if not self.omega0 > self.gamma_width / 2.0:
            raise ParameterError(
                "omega0 must exceed gamma_width/2 (oscillatory kernel regime)")
        try:
            self.omega0 ** 4  # eta_equivalent; float ** raises on overflow
        except OverflowError:
            raise ParameterError(
                f"omega0 = {self.omega0!r} is too large: omega0**4 "
                f"overflows") from None

    @property
    def omega1(self) -> float:
        """Kernel oscillation frequency sqrt(omega0^2 - gamma_width^2/4)."""
        return math.sqrt(self.omega0 ** 2 - self.gamma_width ** 2 / 4.0)

    @property
    def tau_d(self) -> float:
        """Kernel decay time 2/gamma_width."""
        return 2.0 / self.gamma_width

    @property
    def eta_equivalent(self) -> float:
        """Effective memory-free damping alpha*gamma_width/omega0^4."""
        return self.alpha * self.gamma_width / self.omega0 ** 4


# The two bath parameter sets used throughout: an approximately memory-free
# one (resonance far above the precession frequency) and a strongly
# non-Markovian one (resonance comparable to it).  Both share the same
# effective damping 50/2401 ~= 0.0208.
SET1 = LorentzianParams(omega0=7.0, gamma_width=5.0, alpha=10.0)
SET2 = LorentzianParams(omega0=1.4, gamma_width=0.5, alpha=0.16)

BathParams = OhmicParams | LorentzianParams


def symmetrize_exchange(raw: dict) -> dict:
    """Symmetrize pair couplings: Jbar(n,m) = (J(n,m) + J(m,n)^T) / 2.

    Missing partners count as zero, and a tensor with an entry that is not
    finite is a ParameterError naming its pair.  The output contains both
    orientations of every pair and satisfies Jbar(n,m) == Jbar(m,n)^T
    exactly.
    """
    pairs = set()
    for (n, m) in raw:
        if n == m:
            raise ParameterError(f"self-exchange ({n},{n}) is not allowed")
        pairs.add((min(n, m), max(n, m)))
    out = {}
    zero = np.zeros((3, 3))
    for (n, m) in sorted(pairs):
        j_nm = np.asarray(raw.get((n, m), zero), dtype=float)
        j_mn = np.asarray(raw.get((m, n), zero), dtype=float)
        if j_nm.shape != (3, 3) or j_mn.shape != (3, 3):
            raise ParameterError("exchange tensors must be 3x3")
        require_finite(**{f"exchange ({n}, {m})": j_nm,
                          f"exchange ({m}, {n})": j_mn})
        sym = 0.5 * (j_nm + j_mn.T)
        out[(n, m)] = sym
        out[(m, n)] = sym.T.copy()
    return out


@dataclass
class SpinSystem:
    """N unit spins and the exchange couplings between them.

    The static field lies along +z of the frame, and a resonant bath starts
    with no kernel history (V = W = 0), as in the paper.  A SpinSystem is
    owned by one integrator at a time.
    """

    spins: np.ndarray
    exchange: dict | None = None

    def __post_init__(self):
        self.spins = np.atleast_2d(np.asarray(self.spins, dtype=float))
        if self.spins.shape[1] != 3:
            raise ParameterError("spins must have shape (n_sites, 3)")
        require_finite(spins=self.spins)
        norms = np.linalg.norm(self.spins, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ParameterError("every spin must be a unit vector")
        if self.exchange:
            bad = [n for pair in self.exchange for n in pair
                   if not 0 <= n < self.n_sites]
            if bad:
                raise ParameterError(f"exchange site index out of range: {bad}")
            self.exchange = symmetrize_exchange(self.exchange)

    @property
    def n_sites(self) -> int:
        return self.spins.shape[0]

    @classmethod
    def single(cls, direction=(-1.0, 0.0, 0.0)) -> "SpinSystem":
        """One spin along a finite, non-zero direction."""
        v = np.asarray(direction, dtype=float).reshape(3)
        require_finite(spin=v)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ParameterError("spin must be non-zero")
        return cls(spins=v / norm)
