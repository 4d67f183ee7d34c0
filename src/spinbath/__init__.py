"""Stochastic spin dynamics with memory kernels and quantum coloured noise."""

__version__ = "0.1.0"

from .model import (GAMMA_ELECTRON, HBAR, KB, SET1, SET2, ConfigurationError,
                    IntegrationDivergedError, LorentzianParams, OhmicParams,
                    ParameterError, SpinSystem, UnitFrame, build_unit_frame,
                    symmetrize_exchange)
from .coupling import (KernelMoments, PowerSpectrum, fdt_check,
                       kernel_moments, lorentzian_coupling,
                       lorentzian_kernel_freq, lorentzian_kernel_time,
                       ohmic_coupling, power_spectrum, psd_expansion)
from .noise import (NoiseTrace, WhiteSeed, colour, coloured_trace,
                    derive_seed, white_gaussian)
from .dynamics import (IntegratorConfig, Trajectory, integrate,
                       precession_mode)
from .experiments import (SweepResult, averaged_steady_state,
                          ensemble_average, equilibration_time,
                          method_config, statphys_oracle, temperature_sweep)
