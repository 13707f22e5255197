"""Parameter sweeps over crystal length and pump waist, as plain records.

A sweep walks a one- or two-axis grid, evaluates the enhancement ratio at
every point for every requested channel and regime, and yields records in
grid order regardless of how many worker processes did the evaluating. A
record computed by a sweep is bit-identical to a fresh single-point call
with the same config. Per-point failures are recorded in-row and never
abort the rest of the grid.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .observables import (
    CONVENTIONS,
    Channel,
    RatioResult,
    builtin_channels,
    enhancement_ratio,
)
from .units import ConfigError, ExperimentConfig, Regime, _worker_count

__all__ = [
    "SweepAxis",
    "SweepPlan",
    "SweepRecord",
    "run_sweep",
    "preset_names",
    "load_preset",
    "write_csv",
    "write_jsonl",
    "CSV_COLUMNS",
]

AXIS_NAMES = ("crystal_length_um", "pump_waist_um")

CSV_COLUMNS = (
    "L_um",
    "omega_p_um",
    "channel",
    "regime",
    "R",
    "f_ent",
    "f_sep",
    "C_ratio",
    "err_R",
    "converged",
)


@dataclass(frozen=True)
class SweepAxis:
    """One swept config field with its strictly increasing positive values."""

    name: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"sweep axis must be one of {AXIS_NAMES}, got {self.name!r}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ConfigError(f"sweep axis {self.name} has no values")
        if any(not v > 0.0 for v in values):
            raise ConfigError(f"sweep axis {self.name} values must be > 0")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"sweep axis {self.name} values must be strictly increasing")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SweepPlan:
    axis1: SweepAxis
    axis2: Optional[SweepAxis] = None
    channels: Tuple[Channel, ...] = ()
    regimes: Tuple[Regime, ...] = (Regime.EXACT,)

    def __post_init__(self) -> None:
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ConfigError(f"sweep axes must differ, both are {self.axis1.name!r}")
        if not self.channels:
            object.__setattr__(self, "channels", (builtin_channels()["dipole"],))
        if not self.regimes:
            raise ConfigError("sweep needs at least one regime")

    def points(self) -> List[Dict[str, float]]:
        """Grid points in output order: axis1 outer, axis2 inner."""
        if self.axis2 is None:
            return [{self.axis1.name: v} for v in self.axis1.values]
        return [
            {self.axis1.name: a, self.axis2.name: b}
            for a in self.axis1.values
            for b in self.axis2.values
        ]


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's outcome; failures carry error text and R = nan."""

    L_um: float
    omega_p_um: float
    channel: str
    regime: str
    R: float
    f_ent: float
    f_sep: float
    C_ratio: float
    err_R: float
    converged: bool
    config: ExperimentConfig
    error: Optional[str] = None

    def row(self) -> Tuple:
        # the field names are the CSV column names
        return tuple(getattr(self, column) for column in CSV_COLUMNS)


def _evaluate_point(task) -> SweepRecord:
    cfg, channel = task
    try:
        result: RatioResult = enhancement_ratio(cfg, channel, strict=False)
        outcome = dict(R=result.R, f_ent=result.f_ent.value, f_sep=result.f_sep.value,
                       C_ratio=result.C_ratio, err_R=result.err_R, converged=result.converged)
    except Exception as exc:  # per-point resilience: the row records the failure
        outcome = dict.fromkeys(("R", "f_ent", "f_sep", "C_ratio", "err_R"), math.nan)
        outcome.update(converged=False, error=f"{type(exc).__name__}: {exc}")
    return SweepRecord(
        L_um=cfg.crystal_length_um,
        omega_p_um=cfg.pump_waist_um,
        channel=channel.name,
        regime=cfg.regime.value,
        config=cfg,
        **outcome,
    )


def run_sweep(
    plan: SweepPlan,
    base: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
) -> List[SweepRecord]:
    """Evaluate the plan against a base config; records come back in grid order.

    workers must be >= 1 and is capped by the QIONIZE_THREADS environment
    variable. Results are independent of the worker count.
    """
    base = base if base is not None else ExperimentConfig()
    tasks = []
    for point in plan.points():
        for channel in plan.channels:
            for regime in plan.regimes:
                cfg = base.replace(regime=regime, **point)
                tasks.append((cfg, channel))

    count = _worker_count(workers)
    if count <= 1 or len(tasks) <= 1:
        return [_evaluate_point(task) for task in tasks]
    # in grid order, about eight chunks per worker: one pickle round-trip
    # per chunk, and chunks short enough to balance the workers, as a
    # point's cost varies 20-fold (most of it at the longest crystals, which
    # come last in grid order)
    chunk = -(-len(tasks) // (8 * count))
    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(_evaluate_point, tasks, chunksize=chunk))


def _log_grid(lo: float, hi: float, count: int) -> Tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(math.log10(lo), math.log10(hi), count))


@dataclass(frozen=True)
class SweepPreset:
    name: str
    description: str
    plan: SweepPlan
    base: ExperimentConfig
    metadata: Dict[str, str] = field(default_factory=dict)


# each preset once, keyed by its own name; plan and base are frozen, so
# load_preset hands out copies with a fresh metadata dict only
_PRESETS: Dict[str, SweepPreset] = {preset.name: preset for preset in (
    SweepPreset(
        name="fig2a",
        description="enhancement over the length x waist plane, both regimes",
        plan=SweepPlan(
            axis1=SweepAxis("crystal_length_um", _log_grid(0.01, 100.0, 25)),
            axis2=SweepAxis("pump_waist_um", _log_grid(1.0, 100.0, 25)),
            regimes=(Regime.EXACT, Regime.PARAXIAL),
        ),
        base=ExperimentConfig(),
        metadata={"grid": "25x25 log10 over L in [0.01,100] um, pump waist in [1,100] um"},
    ),
    SweepPreset(
        name="fig2b",
        description="enhancement vs crystal length at three pump waists",
        plan=SweepPlan(
            axis1=SweepAxis("crystal_length_um", _log_grid(0.01, 100.0, 40)),
            axis2=SweepAxis("pump_waist_um", (3.0, 10.0, 50.0)),
            regimes=(Regime.EXACT,),
        ),
        base=ExperimentConfig(),
        metadata={"grid": "40 log10 points, L in [0.01,100] um; waists {3,10,50} um"},
    ),
    SweepPreset(
        name="fig2c",
        description="enhancement vs pump waist at fixed crystal length",
        plan=SweepPlan(
            axis1=SweepAxis("pump_waist_um", _log_grid(1.0, 100.0, 40)),
            regimes=(Regime.EXACT,),
        ),
        base=ExperimentConfig(crystal_length_um=1.0),
        metadata={
            "grid": "40 log10 points, pump waist in [1,100] um",
            "assumed_crystal_length_um": "1.0",
        },
    ),
)}


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def load_preset(name: str) -> SweepPreset:
    """The named preset, with a metadata dict of its own that the caller may change."""
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    return replace(preset, metadata=dict(preset.metadata))


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _header_comments(metadata: Optional[Dict[str, str]]) -> List[str]:
    lines = [
        f"# qionize {__version__}",
        f"# convention: obliquity exact = {CONVENTIONS['obliquity_exact']}; "
        f"paraxial = {CONVENTIONS['obliquity_paraxial']:g}",
        f"# convention: pump tails truncated at {CONVENTIONS['pump_truncation_sigmas']:g} sigma",
        "# units: lengths um, wavenumbers 1/um",
    ]
    for key in sorted(metadata or {}):
        lines.append(f"# {key}: {metadata[key]}")
    return lines


def write_csv(records: Iterable[SweepRecord], path: str, metadata: Optional[Dict[str, str]] = None) -> None:
    """Fixed-schema CSV; byte-stable for identical inputs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in _header_comments(metadata):
            fh.write(line + "\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for record in records:
            fh.write(",".join(_format_cell(v) for v in record.row()) + "\n")


def write_jsonl(records: Iterable[SweepRecord], path: str, metadata: Optional[Dict[str, str]] = None) -> None:
    """One JSON object per record, mirroring the CSV schema."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {"schema": "qionize-sweep-v1", "version": __version__}
        header.update(metadata or {})
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            row = {}
            for column, value in zip(CSV_COLUMNS, record.row()):
                # nan is not valid JSON; failed points serialize as null
                if isinstance(value, float) and math.isnan(value):
                    value = None
                row[column] = value
            if record.error is not None:
                row["error"] = record.error
            fh.write(json.dumps(row, sort_keys=False) + "\n")
