"""Unit conventions, physical constants, and run configuration.

Every length in this package is micrometers and every wavenumber is inverse
micrometers. Photon energies enter in eV and are converted exactly once, here.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import io
import math
import os
from dataclasses import dataclass
from typing import Optional, Union

# hbar * c in eV um; single source of truth for energy <-> wavenumber
HBAR_C_EV_UM = 0.19732698
# speed of light in um / s, used by the photon flux prefactor
C_UM_PER_S = 2.99792458e14


class ConfigError(ValueError):
    """A configuration value or key is invalid. Message names the field."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


def energy_to_wavenumber(energy_ev: float) -> float:
    """Convert a photon energy in eV to a vacuum wavenumber in um^-1.

    k0 = E / (hbar c). Strictly positive energies only.
    """
    if not energy_ev > 0.0:
        raise DomainError(f"energy_ev must be > 0, got {energy_ev!r}")
    return energy_ev / HBAR_C_EV_UM


class Regime(enum.Enum):
    """Dispersion treatment for the longitudinal mismatch and obliquity."""

    EXACT = "exact"
    PARAXIAL = "paraxial"


class Reduction(enum.Enum):
    """Dimensionality of the evaluation path."""

    REDUCED_2D = "reduced2d"
    FULL_6D = "full6d"


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic integration controls shared by all quadrature calls.

    converged results satisfy error_estimate <= tolerance(value).
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_evals: int = 10_000_000

    def tolerance(self, value: float) -> float:
        """The largest error a converged estimate of value may carry."""
        return max(self.rel_tol * abs(value), self.abs_tol)

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise ConfigError(f"quadrature.rel_tol must be > 0, got {self.rel_tol!r}")
        if not self.abs_tol >= 0.0:
            raise ConfigError(f"quadrature.abs_tol must be >= 0, got {self.abs_tol!r}")
        for name in ("rel_tol", "abs_tol", "max_evals"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"quadrature.{name} must be finite, got {value!r}")
        if int(self.max_evals) < 1:
            raise ConfigError(f"quadrature.max_evals must be >= 1, got {self.max_evals!r}")


# builtin channel energy used when a config does not specify one (eV)
DEFAULT_CHANNEL_ENERGY_EV = 3.753293


@dataclass(frozen=True)
class ExperimentConfig:
    """Pump, crystal, filter, and evaluation settings for one configuration.

    Widths and lengths are um. pump_waist_y_um defaults to pump_waist_um
    (round pump). filter_omega_um is the longitudinal (frequency) filter
    width, filter_omega_y_um the transverse one; both enter as Gaussian
    1/e half-widths in wavenumber 1/Omega.
    """

    pump_waist_um: float = 50.0
    pump_waist_y_um: Optional[float] = None
    crystal_length_um: float = 1.0
    filter_omega_um: float = 4.0e8
    filter_omega_y_um: float = 1.0e7
    channel_energy_ev: float = DEFAULT_CHANNEL_ENERGY_EV
    regime: Regime = Regime.EXACT
    reduction: Reduction = Reduction.REDUCED_2D
    quadrature: QuadratureSpec = QuadratureSpec()

    def __post_init__(self) -> None:
        for field in (
            "pump_waist_um",
            "pump_waist_y_um",
            "crystal_length_um",
            "filter_omega_um",
            "filter_omega_y_um",
            "channel_energy_ev",
        ):
            value = getattr(self, field)
            if value is None and field == "pump_waist_y_um":
                continue
            if not (isinstance(value, (int, float)) and value > 0.0):
                raise ConfigError(f"{field} must be a positive number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{field} must be finite, got {value!r}")
        if not isinstance(self.regime, Regime):
            raise ConfigError(f"regime must be a Regime, got {self.regime!r}")
        if not isinstance(self.reduction, Reduction):
            raise ConfigError(f"reduction must be a Reduction, got {self.reduction!r}")
        if not isinstance(self.quadrature, QuadratureSpec):
            raise ConfigError(f"quadrature must be a QuadratureSpec, got {self.quadrature!r}")

    @property
    def pump_waist_y(self) -> float:
        return self.pump_waist_um if self.pump_waist_y_um is None else self.pump_waist_y_um

    @property
    def k0(self) -> float:
        """Central wavenumber of the two-photon resonance, um^-1."""
        return energy_to_wavenumber(self.channel_energy_ev)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


def _parse_pairs(text: str, source: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _coerce_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _coerce_int(key: str, value: str) -> int:
    try:
        return int(float(value))
    except (ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _coerce_enum(key: str, value: str, enum_cls):
    try:
        return enum_cls(value.strip().lower())
    except ValueError:
        allowed = ", ".join(member.value for member in enum_cls)
        raise ConfigError(f"{key} must be one of {{{allowed}}}, got {value!r}") from None


# The flat config format: every accepted key with the parser of its value,
# in canonical dump order. A dotted key sets a QuadratureSpec field.
_FORMAT = {
    "pump_waist_um": _coerce_float,
    "pump_waist_y_um": _coerce_float,
    "crystal_length_um": _coerce_float,
    "filter_omega_um": _coerce_float,
    "filter_omega_y_um": _coerce_float,
    "channel_energy_ev": _coerce_float,
    "regime": functools.partial(_coerce_enum, enum_cls=Regime),
    "reduction": functools.partial(_coerce_enum, enum_cls=Reduction),
    "quadrature.rel_tol": _coerce_float,
    "quadrature.abs_tol": _coerce_float,
    "quadrature.max_evals": _coerce_int,
}


def _retired_method(key: str, value: str) -> None:
    if value.strip().lower() != "tensor_gauss":
        raise ConfigError(f"{key} must be tensor_gauss, the only quadrature rule, got {value!r}")


# Keys that older files carry and nothing reads any more: each value is
# still checked by its parser, then dropped; dump_config no longer writes them.
_RETIRED = {
    "quadrature.method": _retired_method,
    "quadrature.seed": _coerce_int,
}


def load_config(path_or_file: Union[str, "io.TextIOBase"]) -> ExperimentConfig:
    """Read an ExperimentConfig from a flat ``key = value`` file.

    Unknown keys are rejected with the offending name, retired ones checked
    and ignored; missing keys fall back to the dataclass defaults. Quadrature
    settings use dotted keys (``quadrature.rel_tol`` etc). ``#`` starts a comment.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
        source = getattr(path_or_file, "name", "<config>")
    else:
        source = str(path_or_file)
        try:
            with open(path_or_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{source}: not UTF-8 text: {exc}") from None

    pairs = _parse_pairs(text, source)

    kwargs = {}
    quad_kwargs = {}
    for key, value in pairs.items():
        if key in _RETIRED:
            _RETIRED[key](key, value)
            continue
        if key not in _FORMAT:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        section, _, name = key.rpartition(".")
        (quad_kwargs if section else kwargs)[name] = _FORMAT[key](key, value)

    if quad_kwargs:
        kwargs["quadrature"] = QuadratureSpec(**quad_kwargs)
    return ExperimentConfig(**kwargs)


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize a config to the flat format accepted by load_config.

    Round-trips: load_config(io.StringIO(dump_config(cfg))) == cfg.
    """
    lines = []
    for key in _FORMAT:
        section, _, name = key.rpartition(".")
        value = getattr(cfg.quadrature if section else cfg, name)
        if value is None:
            continue
        if isinstance(value, enum.Enum):
            lines.append(f"{key} = {value.value}")
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _worker_count(requested: Optional[int]) -> int:
    """Workers or threads to run: requested, else the CPUs this process may
    run on, capped by the QIONIZE_THREADS environment variable; at least 1.

    Sweeps size their process pools and the Monte Carlo oracle its thread
    pools with it.
    """
    if requested is not None and requested < 1:
        raise ConfigError(f"workers must be >= 1, got {requested!r}")
    cap = os.environ.get("QIONIZE_THREADS")
    count = requested
    if count is None:
        # the CPUs this process may run on: an affinity mask can leave far
        # fewer than os.cpu_count() reports for the host
        if hasattr(os, "sched_getaffinity"):
            count = len(os.sched_getaffinity(0))
        else:
            count = os.cpu_count() or 1
    if cap is not None:
        try:
            count = min(count, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"QIONIZE_THREADS must be an integer, got {cap!r}") from None
    return max(1, count)
