"""Seeded inputs and correctness checks for the three benchmark workloads.

The default seed gives exactly the pinned inputs: the ROADMAP panel, every
6th value of the fig2a axes, and default_check_configs(3, 0). Any other seed
multiplies each distinct axis value (crystal length and pump waist) by its
own log-uniform factor in [0.9, 1.1]; configs that share an axis value share
its factor, so sweep points still share their waist columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from qionize import (
    AmplitudeKind,
    Channel,
    ExperimentConfig,
    McSpec,
    Parity,
    Regime,
    SweepAxis,
    SweepPlan,
    builtin_channels,
    default_check_configs,
    eval_amplitude,
    load_preset,
    make_synthetic_kernel,
)

DEFAULT_SEED = 0
WORKLOADS = ("ratio-panel", "sweep-fig2a", "oracle-mc")

# (L, w) in um: the ROADMAP panel, run in both regimes with the dipole
# channel, then the kernel-weighted quadrupole points (exact regime)
PANEL_POINTS = ((0.01, 1.0), (1.0, 10.0), (1.0, 50.0), (50.0, 3.0), (100.0, 100.0))
KERNEL_POINTS = ((1.0, 10.0), (50.0, 3.0))
SWEEP_PRESET = "fig2a"
SWEEP_STRIDE = 6
MC_CONFIGS = 3
MC_SAMPLES = 1_000_000
# sweep records re-run as single points, all cheap: grid order is L outer,
# then waist, then regime, so (L index, waist index) -> (iL * 5 + iw) * 2 + r
SWEEP_SUBSET = tuple((il * 5 + iw) * 2 + r
                     for il, iw in ((0, 0), (2, 4), (3, 2)) for r in (0, 1))

# order of the six integrate_2d calls inside one enhancement_ratio call
INTEGRAL_NAMES = ("I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep")
# weights of each integral's relative error in err_R (observables.enhancement_ratio)
ERR_R_WEIGHTS = {"I1_ent": 2.0, "I1_sep": 2.0, "I2_ent": 0.5, "I2_sep": 0.5,
                 "I2w_ent": 1.0, "I2w_sep": 1.0}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class PanelCase:
    label: str
    config: ExperimentConfig
    channel: Channel


def _scaled(seed: int, lengths: Sequence[float], waists: Sequence[float]):
    """Per-value factors: one dict for lengths, one for waists."""
    lengths = sorted(set(lengths))
    waists = sorted(set(waists))
    if seed == DEFAULT_SEED:
        return {v: v for v in lengths}, {v: v for v in waists}
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    log_lo, log_hi = math.log(0.9), math.log(1.1)
    f_len = np.exp(rng.uniform(log_lo, log_hi, size=len(lengths)))
    f_wst = np.exp(rng.uniform(log_lo, log_hi, size=len(waists)))
    return (
        {v: v * float(f) for v, f in zip(lengths, f_len)},
        {v: v * float(f) for v, f in zip(waists, f_wst)},
    )


def _label(prefix: str, length: float, waist: float) -> str:
    return f"{prefix}.L{length:g}_w{waist:g}"


def ratio_panel(seed: int) -> List[PanelCase]:
    """The 12 panel cases; labels name the nominal (default-seed) values."""
    points = PANEL_POINTS + KERNEL_POINTS
    lengths, waists = _scaled(seed, [p[0] for p in points], [p[1] for p in points])
    dipole = builtin_channels()["dipole"]
    quadrupole = builtin_channels()["quadrupole"].with_kernel(make_synthetic_kernel(Parity.EVEN))
    cases = []
    for regime in (Regime.EXACT, Regime.PARAXIAL):
        for length, waist in PANEL_POINTS:
            cfg = ExperimentConfig(crystal_length_um=lengths[length],
                                   pump_waist_um=waists[waist], regime=regime)
            cases.append(PanelCase(_label(regime.value, length, waist), cfg, dipole))
    for length, waist in KERNEL_POINTS:
        cfg = ExperimentConfig(crystal_length_um=lengths[length], pump_waist_um=waists[waist])
        cases.append(PanelCase(_label("quadrupole", length, waist), cfg, quadrupole))
    return cases


def sweep_inputs(seed: int):
    """(plan, base config, metadata) for the 5x5 fig2a subgrid, both regimes."""
    preset = load_preset(SWEEP_PRESET)
    axis_l = preset.plan.axis1.values[::SWEEP_STRIDE]
    axis_w = preset.plan.axis2.values[::SWEEP_STRIDE]
    lengths, waists = _scaled(seed, axis_l, axis_w)
    plan = SweepPlan(
        axis1=SweepAxis(preset.plan.axis1.name, tuple(lengths[v] for v in axis_l)),
        axis2=SweepAxis(preset.plan.axis2.name, tuple(waists[v] for v in axis_w)),
        regimes=preset.plan.regimes,
    )
    return plan, preset.base, preset.metadata


def oracle_inputs(seed: int) -> Tuple[Tuple[ExperimentConfig, ...], McSpec]:
    return default_check_configs(MC_CONFIGS, seed), McSpec(samples=MC_SAMPLES, seed=seed)


def load_reference() -> Dict[str, Dict[str, float]]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["panel"]


def err_r_cap(result, rel_tol: float, abs_tol: float) -> float:
    """Largest err_R that six converged integrals can produce."""
    # each converged integral has error <= max(rel_tol |I|, abs_tol); the
    # 1e-12 slack absorbs rounding in the weighted sum
    return abs(result.R) * (1.0 + 1e-12) * sum(
        weight * max(rel_tol, abs_tol / abs(result.diagnostics[name].value))
        for name, weight in ERR_R_WEIGHTS.items()
    )


def check_ratio(result, config: ExperimentConfig, first=None, ref=None) -> List[str]:
    """Problems with one enhancement_ratio result; empty when it is correct.

    first is an earlier result for the same input (must match bit for bit);
    ref is the reference entry {R, err_R}, checked as
    |R - R_ref| <= err_R + err_ref.
    """
    problems = []
    if not result.converged:
        problems.append("not converged")
    if not (math.isfinite(result.R) and result.R > 0.0):
        problems.append(f"R = {result.R!r} is not a positive number")
    quad = config.quadrature
    if not (0.0 <= result.err_R <= err_r_cap(result, quad.rel_tol, quad.abs_tol)):
        problems.append(f"err_R = {result.err_R!r} is not what converged integrals give")
    if first is not None and (result.R, result.err_R) != (first.R, first.err_R):
        problems.append(f"repeat call gave R = {result.R!r}, first call {first.R!r}")
    if ref is not None and not abs(result.R - ref["R"]) <= result.err_R + ref["err_R"]:
        problems.append(f"R = {result.R!r} is off the reference {ref['R']!r} "
                        f"by more than err_R + err_ref")
    return problems


def check_sweep_record(record, ratio) -> List[str]:
    """A sweep record against a direct enhancement_ratio of its config."""
    got = (record.R, record.err_R, record.f_ent, record.f_sep, record.C_ratio, record.converged)
    want = (ratio.R, ratio.err_R, ratio.f_ent.value, ratio.f_sep.value, ratio.C_ratio,
            ratio.converged)
    return [] if got == want else [f"record {record.row()!r} differs from direct call {want!r}"]


def mc_cross_problems(integral, mc_ratio) -> List[str]:
    """mc_integral of |F_ent|^2 against mc_enhancement_ratio's I2_ent.

    Both estimate the same 6D integral; allow four of mc_integral's sigmas.
    """
    problems = []
    if not integral.converged:
        problems.append("mc_integral not converged")
    expected = mc_ratio.diagnostics["I2_ent"]
    if not abs(integral.value - expected) <= 4.0 * integral.error_estimate:
        problems.append(f"mc_integral {integral.value!r} vs mc_enhancement_ratio "
                        f"I2_ent {expected!r}")
    return problems


def entangled_norm_integrand(cfg: ExperimentConfig):
    """|F_ent|^2 through the public 6D amplitude, for mc_integral."""
    def f(ki, ks):
        return eval_amplitude(ki, ks, cfg, AmplitudeKind.ENTANGLED) ** 2

    return f


def same_rows(first, second) -> bool:
    return [r.row() for r in first] == [r.row() for r in second]
