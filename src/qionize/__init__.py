"""Entanglement-enhanced two-photon ionization observables.

Momentum-space pair amplitudes for photon pairs from a pumped crystal, their
normalization and collection factors, the entangled-over-separable
enhancement ratio in exact and paraxial dispersion regimes, a
six-dimensional Monte Carlo cross-check, and parameter sweeps with a CLI.
"""

__version__ = "0.1.0"

from .amplitude import (
    AmplitudeKind,
    NarrowbandGuardError,
    delta_kz_exact,
    delta_kz_paraxial,
    eval_amplitude,
    eval_reduced,
    pump_envelope,
    sinc,
)
from .observables import (
    DIPOLE,
    Channel,
    KernelError,
    Parity,
    Quantity,
    RatioResult,
    TabulatedKernel,
    builtin_channels,
    enhancement_ratio,
    f_factor,
    load_kernel,
    make_synthetic_kernel,
    normalization,
    photon_flux,
    save_kernel,
)
from .oracle import (
    McRatioResult,
    McSpec,
    default_check_configs,
    mc_enhancement_ratio,
    mc_integral,
    reduced_vs_full_check,
)
from .quadrature import ConvergenceError, IntegralResult, integrate_2d
from .sweep import (
    SweepAxis,
    SweepPlan,
    SweepRecord,
    load_preset,
    preset_names,
    run_sweep,
    write_csv,
    write_jsonl,
)
from .units import (
    ConfigError,
    DomainError,
    ExperimentConfig,
    QuadratureSpec,
    Reduction,
    Regime,
    dump_config,
    energy_to_wavenumber,
    load_config,
)

__all__ = [
    "__version__",
    "AmplitudeKind",
    "Channel",
    "ConfigError",
    "ConvergenceError",
    "DIPOLE",
    "DomainError",
    "ExperimentConfig",
    "IntegralResult",
    "KernelError",
    "McRatioResult",
    "McSpec",
    "NarrowbandGuardError",
    "Parity",
    "QuadratureSpec",
    "Quantity",
    "RatioResult",
    "Reduction",
    "Regime",
    "SweepAxis",
    "SweepPlan",
    "SweepRecord",
    "TabulatedKernel",
    "builtin_channels",
    "default_check_configs",
    "delta_kz_exact",
    "delta_kz_paraxial",
    "dump_config",
    "energy_to_wavenumber",
    "enhancement_ratio",
    "eval_amplitude",
    "eval_reduced",
    "f_factor",
    "integrate_2d",
    "load_config",
    "load_kernel",
    "load_preset",
    "make_synthetic_kernel",
    "mc_enhancement_ratio",
    "mc_integral",
    "normalization",
    "photon_flux",
    "preset_names",
    "pump_envelope",
    "reduced_vs_full_check",
    "run_sweep",
    "save_kernel",
    "sinc",
    "write_csv",
    "write_jsonl",
]
