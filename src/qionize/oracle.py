"""Six-dimensional Monte Carlo cross-check of the reduced pipeline.

Each photon is parametrized by (kx, ky, kappa = |k|) with
kz = sqrt(kappa^2 - kx^2 - ky^2). Samples come from one Gaussian proposal
shaped by the pump and filters; draws whose kz argument is negative are
rejected (zero weight) and the rejection fraction is reported. Sampling uses
the counter-based Philox generator with one child seed sequence per batch;
batch partial sums are combined in fixed index order, so a result depends
only on (integrand, config, spec), never on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .amplitude import AmplitudeKind, _entangling_6d, _separable_6d
from .observables import CONVENTIONS, DIPOLE, INTEGRALS, Channel, KernelError, ratio_from_integrals
from .quadrature import ConvergenceError, IntegralResult
from .units import DomainError, ExperimentConfig, Reduction, Regime

__all__ = [
    "McSpec",
    "McIntegralResult",
    "McRatioResult",
    "mc_integral",
    "mc_enhancement_ratio",
    "CrossCheckRow",
    "default_check_configs",
    "reduced_vs_full_check",
]

PRNG_ID = "numpy-philox4x64/seedseq-per-batch"

# proposal width for the pump-sum coordinate, in units of 1/omega_p; slightly
# wider than the widest integrand Gaussian so importance weights stay bounded
_PUMP_PROPOSAL_WIDTH = 1.2

MIN_SAMPLES = 100_000
# most samples one run may ask for, a thousand times the 1e8 of the oracle
# acceptance check: 2e5 batches, whose batch-sum table stays about 10 MB
MAX_SAMPLES = 100_000_000_000
# samples per batch past ten batches: the count grows, so no batch holds 2x more
_BATCH_SAMPLES = 500_000
# fewest effective samples for either estimator to report converged
MIN_ESS = 100.0
# smallest |R_reduced / R_full - 1| that reduced_vs_full_check tolerates;
# 3 sigma / R_full widens it when the Monte Carlo error is larger
REL_FLOOR = 0.05


@dataclass(frozen=True)
class McSpec:
    """Sample budget and seed for one Monte Carlo run."""

    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.samples) < MIN_SAMPLES:
            raise DomainError(f"samples must be >= {MIN_SAMPLES}, got {self.samples!r}")
        if int(self.samples) > MAX_SAMPLES:
            raise DomainError(f"samples must be <= {MAX_SAMPLES}, got {self.samples!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class McIntegralResult(IntegralResult):
    rejection_fraction: float = 0.0
    effective_sample_size: float = 0.0
    batches: int = 0
    prng: str = PRNG_ID


@dataclass(frozen=True)
class McRatioResult:
    """Monte Carlo enhancement ratio with a jackknife standard error."""

    R: float
    sigma_R: float
    # mc_integral's rule: R and sigma_R finite, effective sample size >= MIN_ESS
    converged: bool
    regime: Regime
    channel: str
    rejection_fraction: float
    effective_sample_size: float
    batches: int
    prng: str
    diagnostics: Dict[str, float]


def _batch_sizes(total: int) -> Tuple[int, ...]:
    count = max(10, total // _BATCH_SAMPLES)
    base = total // count
    extra = total % count
    return tuple(base + 1 if i < extra else base for i in range(count))


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(seq))


def _draw_gaussian(rng, n: int, cfg: ExperimentConfig):
    k0 = cfg.k0
    sigma_u = _PUMP_PROPOSAL_WIDTH / cfg.pump_waist_um
    sigma_y = 1.0 / cfg.filter_omega_y_um
    sigma_k = 1.0 / cfg.filter_omega_um

    u = rng.normal(0.0, sigma_u, size=n)
    vmax = 2.0 * k0 - np.abs(u)
    alive = vmax > 0.0
    vmax_safe = np.where(alive, vmax, 1.0)
    v = rng.uniform(-1.0, 1.0, size=n) * vmax_safe
    kix = 0.5 * (u + v)
    ksx = 0.5 * (u - v)

    ky = rng.normal(0.0, sigma_y, size=(2, n))
    kappa = rng.normal(k0, sigma_k, size=(2, n))

    # density on (kix, ksx) is 2 * N(u; sigma_u) * Uniform(v | vmax)
    dens_u = np.exp(-0.5 * (u / sigma_u) ** 2) / (sigma_u * math.sqrt(2.0 * math.pi))
    dens_x = 2.0 * dens_u / (2.0 * vmax_safe)
    dens_y = np.prod(
        np.exp(-0.5 * (ky / sigma_y) ** 2) / (sigma_y * math.sqrt(2.0 * math.pi)), axis=0
    )
    dens_k = np.prod(
        np.exp(-0.5 * ((kappa - k0) / sigma_k) ** 2) / (sigma_k * math.sqrt(2.0 * math.pi)),
        axis=0,
    )
    density = dens_x * dens_y * dens_k
    weights = np.where(alive & (density > 0.0), 1.0 / np.where(density > 0.0, density, 1.0), 0.0)
    kx = np.stack([kix, ksx])
    return kx, ky, kappa, weights


def _physical_kz(kx, ky, kappa):
    arg = kappa**2 - kx**2 - ky**2
    valid = (arg >= 0.0).all(axis=0) & (kappa > 0.0).all(axis=0)
    kz = np.sqrt(np.maximum(arg, 0.0))
    return kz, valid


def _check_full6d(cfg: ExperimentConfig, op: str) -> None:
    if cfg.reduction is not Reduction.FULL_6D:
        raise DomainError(f"{op} requires reduction = full6d, got {cfg.reduction.value!r}")


def _jackknife(batch_values: np.ndarray, combine: Callable[[np.ndarray], float]):
    """Leave-one-batch-out error for a statistic of summed batch vectors.

    batch_values has shape (B, m): per-batch sums of m accumulators. combine
    maps summed accumulators to the statistic. Returns (estimate, sigma).
    """
    total = batch_values.sum(axis=0)
    estimate = combine(total)
    count = batch_values.shape[0]
    leave_out = np.array([combine(total - batch_values[i]) for i in range(count)])
    center = leave_out.mean()
    sigma = math.sqrt((count - 1) / count * float(np.sum((leave_out - center) ** 2)))
    return estimate, sigma


def _run_batches(op: str, cfg: ExperimentConfig, spec: McSpec, width: int, accumulate):
    """The sampler shared by both estimators.

    Draws every batch from its own Philox stream through the Gaussian
    proposal, computes kz and zeroes the weights of unphysical draws, then
    calls accumulate(weights, ki, ks), which returns the batch's `width`
    accumulator sums and the per-sample contributions the effective sample
    size is taken over. Returns the (batches, width) sums, the ESS, the
    rejection fraction and the sample count; raises ConvergenceError naming
    op on a zero ESS.
    """
    sizes = _batch_sizes(int(spec.samples))
    sums = np.zeros((len(sizes), width))
    accepted_w = 0.0
    accepted_w2 = 0.0
    rejected = 0

    for index, size in enumerate(sizes):
        rng = _batch_rng(spec.seed, index)
        kx, ky, kappa, weights = _draw_gaussian(rng, size, cfg)
        kz, valid = _physical_kz(kx, ky, kappa)
        weights = np.where(valid, weights, 0.0)
        rejected += int(np.count_nonzero(~valid))
        sums[index], contributions = accumulate(
            weights, (kx[0], ky[0], kz[0]), (kx[1], ky[1], kz[1])
        )
        accepted_w += float(np.sum(contributions))
        accepted_w2 += float(np.sum(contributions**2))

    if accepted_w == 0.0 or accepted_w2 == 0.0:
        raise ConvergenceError(f"zero effective sample size in {op}")
    total_samples = int(sum(sizes))
    return sums, accepted_w**2 / accepted_w2, rejected / total_samples, total_samples


def mc_integral(f: Callable, cfg: ExperimentConfig, spec: McSpec) -> McIntegralResult:
    """Unbiased 6D integral estimate of f over photon-pair phase space.

    f is called with two (kx, ky, kz) triplets of equal-length arrays and
    must return the per-sample integrand. The proposal shapes itself from
    the config's filters and pump. The standard error comes from
    leave-one-batch-out resampling. Requires a full6d config; identical
    (f, cfg, spec) reruns are bit-identical.
    """
    _check_full6d(cfg, "mc_integral")

    def accumulate(weights, ki, ks):
        values = np.asarray(f(ki, ks), dtype=float)
        return (np.sum(weights * values),), np.abs(weights * values)

    sums, ess, rejection, total_samples = _run_batches(
        "mc_integral", cfg, spec, 1, accumulate
    )
    value, sigma = _jackknife(sums, lambda t: float(t[0]) / total_samples)
    return McIntegralResult(
        value=value,
        error_estimate=sigma,
        evals=total_samples,
        converged=bool(np.isfinite(value) and np.isfinite(sigma) and ess >= MIN_ESS),
        method="mc_gaussian_proposal",
        rejection_fraction=rejection,
        effective_sample_size=ess,
        batches=len(sums),
        prng=PRNG_ID,
    )


def mc_enhancement_ratio(
    cfg: ExperimentConfig,
    spec: McSpec,
    channel: Optional[Channel] = None,
) -> McRatioResult:
    """Enhancement ratio from the full 6D model, with propagated error.

    Dipole channel only (kernel-weighted coherent sums are a reduced-path
    feature). All six constituent integrals share every sample, so their
    correlations are handled by jackknifing the assembled ratio over
    batches rather than propagating naive per-integral variances.
    """
    _check_full6d(cfg, "mc_enhancement_ratio")
    channel = channel if channel is not None else DIPOLE
    if channel.ell > 1:
        raise KernelError(
            f"mc_enhancement_ratio supports only ell = 1 channels, got {channel.name!r}"
        )
    cfg_eff = cfg.replace(channel_energy_ev=channel.transition_energy_ev)
    paraxial = cfg_eff.regime is Regime.PARAXIAL

    def accumulate(weights, ki, ks):
        f_sep, mag_i, mag_s = _separable_6d(ki, ks, cfg_eff)
        f_ent = f_sep * _entangling_6d(ki, ks, mag_i, mag_s, cfg_eff)
        amplitudes = {AmplitudeKind.ENTANGLED: f_ent, AmplitudeKind.SEPARABLE: f_sep}
        obliquity = CONVENTIONS["obliquity_paraxial"] if paraxial else ki[2] / mag_i + ks[2] / mag_s
        # one expression per sum, so that numpy reuses its temporaries in place
        sums = [np.sum(weights * amplitudes[kind] ** power * obliquity) if weighted
                else np.sum(weights * amplitudes[kind] ** power)
                for kind, power, weighted in INTEGRALS.values()]
        # the effective sample size is over the dominant positive accumulator,
        # since F_sep^2 bounds every other integrand pointwise
        return sums, np.abs(weights * f_sep**2)

    sums, ess, rejection, total_samples = _run_batches(
        "mc_enhancement_ratio", cfg_eff, spec, len(INTEGRALS), accumulate
    )

    def combine(t):
        values = dict(zip(INTEGRALS, (float(x) for x in t)))
        if min(value for name, value in values.items() if INTEGRALS[name][1] == 2) <= 0.0:
            return math.nan
        # R is invariant under joint rescaling of the sums, so raw batch
        # totals work without per-sample normalization
        return ratio_from_integrals(values)[0].value

    ratio, sigma = _jackknife(sums, combine)
    if not math.isfinite(ratio):
        raise ConvergenceError("mc_enhancement_ratio produced a non-finite ratio")

    totals = sums.sum(axis=0) / total_samples
    return McRatioResult(
        R=ratio,
        sigma_R=sigma,
        converged=math.isfinite(sigma) and ess >= MIN_ESS,
        regime=cfg_eff.regime,
        channel=channel.name,
        rejection_fraction=rejection,
        effective_sample_size=ess,
        batches=len(sums),
        prng=PRNG_ID,
        diagnostics={name: float(total) for name, total in zip(INTEGRALS, totals)},
    )


@dataclass(frozen=True)
class CrossCheckRow:
    """One config's reduced-vs-full agreement verdict."""

    config: ExperimentConfig
    R_reduced: float
    R_full: float
    sigma_full: float
    rel_deviation: float
    tolerance: float
    agrees: bool


def default_check_configs(count: int = 10, seed: int = 20260822) -> Tuple[ExperimentConfig, ...]:
    """Seeded random configs spanning the validated length and waist ranges.

    Log-uniform over crystal lengths [0.05, 50] um and pump waists [3, 50] um,
    narrowband filters, exact regime. Deterministic for a given (count, seed).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    lengths = np.exp(rng.uniform(math.log(0.05), math.log(50.0), size=count))
    waists = np.exp(rng.uniform(math.log(3.0), math.log(50.0), size=count))
    return tuple(
        ExperimentConfig(
            pump_waist_um=float(w),
            crystal_length_um=float(length),
            regime=Regime.EXACT,
            reduction=Reduction.FULL_6D,
        )
        for length, w in zip(lengths, waists)
    )


def reduced_vs_full_check(cfg: ExperimentConfig, spec: McSpec) -> CrossCheckRow:
    """Compare the reduced-path ratio against the 6D Monte Carlo ratio.

    Agreement means the Monte Carlo ratio converged and
    |R_reduced / R_full - 1| <= max(REL_FLOOR, 3 sigma / R_full).
    """
    from .observables import enhancement_ratio

    full = mc_enhancement_ratio(cfg, spec)
    reduced = enhancement_ratio(cfg.replace(reduction=Reduction.REDUCED_2D))
    deviation = abs(reduced.R / full.R - 1.0)
    tolerance = max(REL_FLOOR, 3.0 * full.sigma_R / abs(full.R))
    return CrossCheckRow(
        config=cfg,
        R_reduced=reduced.R,
        R_full=full.R,
        sigma_full=full.sigma_R,
        rel_deviation=deviation,
        tolerance=tolerance,
        agrees=full.converged and deviation <= tolerance,
    )
