"""Core domain types: unit frames, bath parameters, spin systems.

Everything downstream of this module works in unit-free variables: time in
multiples of the inverse precession (Larmor) frequency, magnetic fields in
units of the external field magnitude, and spins as unit vectors.  SI
quantities appear only here, at the configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        Spin length in units of hbar/2, >= 1.
    """

    b_ext_tesla: float
    gamma_si: float = GAMMA_ELECTRON
    n_halves: int = 1

    def __post_init__(self):
        if not self.b_ext_tesla > 0.0:
            raise ParameterError("b_ext_tesla must be positive")
        if self.gamma_si == 0.0:
            raise ParameterError("gamma_si must be non-zero")
        if int(self.n_halves) != self.n_halves or self.n_halves < 1:
            raise ParameterError("n_halves must be an integer >= 1")

    @property
    def larmor(self) -> float:
        """Precession angular frequency |gamma| |B_ext|, rad/s."""
        return abs(self.gamma_si) * self.b_ext_tesla

    @property
    def sign_gamma(self) -> float:
        return 1.0 if self.gamma_si > 0 else -1.0

    @property
    def s0_si(self) -> float:
        """Spin length in J s."""
        return self.n_halves * HBAR / 2.0

    def t_si(self, t_unitfree):
        """Unit-free time (multiples of 1/larmor) to seconds."""
        return t_unitfree / self.larmor

    def t_unitfree(self, t_seconds):
        """Seconds to unit-free time."""
        return t_seconds * self.larmor

    def field_si(self, b_unitfree):
        """Unit-free field (multiples of |B_ext|) to tesla."""
        return b_unitfree * self.b_ext_tesla

    def field_unitfree(self, b_tesla):
        return b_tesla / self.b_ext_tesla

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

    def boltzmann_argument(self, temperature: float) -> float:
        """n hbar larmor / (2 kB T); +inf at T = 0."""
        if temperature == 0.0:
            return math.inf
        return self.n_halves / self.thermal_ratio(temperature)


def build_unit_frame(b_ext_tesla: float, gamma_si: float = GAMMA_ELECTRON,
                     n_half_hbar: int = 1) -> UnitFrame:
    """Validated UnitFrame from field magnitude, gyromagnetic ratio, spin halves."""
    return UnitFrame(b_ext_tesla, gamma_si, int(n_half_hbar))


@dataclass(frozen=True)
class OhmicParams:
    """Memory-free bath: a single unit-free damping constant.

    eta == 0 is allowed and means a fully decoupled (conservative) spin.
    """

    eta: float

    def __post_init__(self):
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
        if not self.omega0 > 0.0:
            raise ParameterError("omega0 must be positive")
        if not self.gamma_width > 0.0:
            raise ParameterError("gamma_width must be positive")
        if self.alpha < 0.0:
            raise ParameterError("alpha must be >= 0")
        if not self.omega0 > self.gamma_width / 2.0:
            raise ParameterError(
                "omega0 must exceed gamma_width/2 (oscillatory kernel regime)")

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

    Missing partners count as zero.  The output contains both orientations
    of every pair and satisfies Jbar(n,m) == Jbar(m,n)^T exactly.
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
        sym = 0.5 * (j_nm + j_mn.T)
        out[(n, m)] = sym
        out[(m, n)] = sym.T.copy()
    return out


def _unit(vec, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float).reshape(3)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ParameterError(f"{what} must be non-zero")
    return v / norm


@dataclass
class SpinSystem:
    """State of N unit spins, the field direction, couplings and bath state.

    aux_v / aux_w are the per-site auxiliary bath vectors (the embedded
    memory field and its rate); they start at zero, i.e. no accumulated
    kernel history.  A SpinSystem is owned by one integrator at a time.
    """

    spins: np.ndarray
    b_ext_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    exchange: dict | None = None
    aux_v: np.ndarray = None
    aux_w: np.ndarray = None

    def __post_init__(self):
        self.spins = np.atleast_2d(np.asarray(self.spins, dtype=float))
        if self.spins.shape[1] != 3:
            raise ParameterError("spins must have shape (n_sites, 3)")
        norms = np.linalg.norm(self.spins, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ParameterError("every spin must be a unit vector")
        self.b_ext_dir = _unit(self.b_ext_dir, "b_ext_dir")
        if self.exchange:
            bad = [n for pair in self.exchange for n in pair
                   if not 0 <= n < self.n_sites]
            if bad:
                raise ParameterError(f"exchange site index out of range: {bad}")
            self.exchange = symmetrize_exchange(self.exchange)
        if self.aux_v is None:
            self.aux_v = np.zeros_like(self.spins)
        else:
            self.aux_v = np.atleast_2d(np.asarray(self.aux_v, dtype=float))
        if self.aux_w is None:
            self.aux_w = np.zeros_like(self.spins)
        else:
            self.aux_w = np.atleast_2d(np.asarray(self.aux_w, dtype=float))

    @property
    def n_sites(self) -> int:
        return self.spins.shape[0]

    @classmethod
    def single(cls, direction=(-1.0, 0.0, 0.0), b_ext_dir=(0.0, 0.0, 1.0)) -> "SpinSystem":
        return cls(spins=_unit(direction, "spin"), b_ext_dir=b_ext_dir)

    def copy(self) -> "SpinSystem":
        return SpinSystem(
            spins=self.spins.copy(),
            b_ext_dir=self.b_ext_dir.copy(),
            exchange={k: v.copy() for k, v in self.exchange.items()} if self.exchange else None,
            aux_v=self.aux_v.copy(),
            aux_w=self.aux_w.copy(),
        )
