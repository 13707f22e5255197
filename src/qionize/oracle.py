"""Six-dimensional Monte Carlo cross-check of the reduced pipeline.

Each photon is parametrized by (kx, ky, kappa = |k|) with
kz = sqrt(kappa^2 - kx^2 - ky^2). Samples come from one Gaussian proposal
shaped by the pump and filters; draws whose kz argument is negative are
rejected (zero weight) and the rejection fraction is reported. Sampling uses
the counter-based Philox generator with one child seed sequence per batch.
Batches run on a thread pool and their partial sums are combined in fixed
index order, so a result depends only on (integrand, config, spec), never
on scheduling or the thread count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .amplitude import AmplitudeKind, _entangling_6d, _separable_6d
from .observables import CONVENTIONS, DIPOLE, INTEGRALS, Channel, KernelError, ratio_from_integrals
from .quadrature import BLOCK_NODES, ConvergenceError, IntegralResult
from .units import DomainError, ExperimentConfig, Reduction, Regime, _worker_count

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
# a batch's random numbers, one float row each: u's normals, the uniforms,
# then the normals of kiy, ksy, kappa_i and kappa_s
_DRAW_ROWS = 6
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


def _draw_streams(rng, raw: np.ndarray) -> None:
    """A batch's random numbers into the (_DRAW_ROWS, n) float array raw.

    The stream is read in one fixed order: n normals for u, n uniforms for
    v, then 4 n normals for (kiy, ksy, kappa_i, kappa_s).
    """
    rng.standard_normal(out=raw[0])
    rng.random(out=raw[1])
    rng.standard_normal(out=raw[2:])


def _draw_gaussian(raw: np.ndarray, slab: np.ndarray, cfg: ExperimentConfig):
    """Proposal samples from a block of _draw_streams' numbers, in place.

    raw is a (_DRAW_ROWS, n) block, overwritten; slab is two float rows of
    length n. Returns kx as a (kix, ksx) pair of rows, ky and kappa as
    (2, n) views of raw, and the importance weights, 1 / density, in
    slab[0]. raw[0] is left as scratch.
    """
    k0 = cfg.k0
    sigma_u = _PUMP_PROPOSAL_WIDTH / cfg.pump_waist_um
    sigma_y = 1.0 / cfg.filter_omega_y_um
    sigma_k = 1.0 / cfg.filter_omega_um
    u, v, ky, kappa = raw[0], raw[1], raw[2:4], raw[4:6]
    weights, kix = slab[0], slab[1]

    # q, the density's quadratic form: u's and ky's terms from their
    # standard normals, kappa's from the rounded kappa
    np.square(u, out=weights)
    for z in ky:
        np.add(weights, np.square(z, out=kix), out=weights)
    np.multiply(ky, sigma_y, out=ky)
    np.add(np.multiply(kappa, sigma_k, out=kappa), k0, out=kappa)
    for k in kappa:
        np.square(np.divide(np.subtract(k, k0, out=kix), sigma_k, out=kix), out=kix)
        np.add(weights, kix, out=weights)
    # density on (kix, ksx) is 2 N(u; sigma_u) Uniform(v | vmax), with
    # Gaussians in each ky and kappa, so 1 / density is
    # vmax (2 pi)^(5/2) sigma_u sigma_y^2 sigma_k^2 exp(q / 2)
    np.exp(np.multiply(weights, 0.5, out=weights), out=weights)
    np.multiply(weights, (2.0 * math.pi) ** 2.5 * sigma_u * sigma_y**2 * sigma_k**2, out=weights)
    np.multiply(u, sigma_u, out=u)
    vmax = np.subtract(2.0 * k0, np.abs(u, out=kix), out=kix)
    dead = vmax <= 0.0
    np.multiply(weights, vmax, out=weights)
    np.copyto(weights, 0.0, where=dead)
    np.copyto(vmax, 1.0, where=dead)
    # v = uniform(-1, 1) * vmax, then kix = (u + v) / 2 and ksx = (u - v) / 2
    np.multiply(np.add(np.multiply(v, 2.0, out=v), -1.0, out=v), vmax, out=v)
    np.multiply(np.add(u, v, out=kix), 0.5, out=kix)
    np.multiply(np.subtract(u, v, out=v), 0.5, out=v)
    return (kix, v), ky, kappa, weights


def _physical_kz(kx, ky, kappa, scratch):
    """Each photon's kz = sqrt(kappa^2 - kx^2 - ky^2), written over kappa.

    Returns kz, clamped at 0, and the mask of samples whose kz arguments
    are >= 0 and kappas > 0 for both photons. scratch is one float row.
    """
    valid = (kappa > 0.0).all(axis=0)
    for x, y, k in zip(kx, ky, kappa):
        np.square(k, out=k)
        np.subtract(k, np.square(x, out=scratch), out=k)
        np.subtract(k, np.square(y, out=scratch), out=k)
    valid &= (kappa >= 0.0).all(axis=0)
    return np.sqrt(np.maximum(kappa, 0.0, out=kappa), out=kappa), valid


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


def _run_batches(op: str, cfg: ExperimentConfig, spec: McSpec, width: int, accumulate,
                 scratch_rows: int):
    """The sampler shared by both estimators.

    Draws every batch from its own Philox stream, then takes it in blocks
    of BLOCK_NODES samples: each block goes through the Gaussian proposal,
    gets its kz, has the weights of unphysical draws zeroed, and is passed
    to accumulate(weights, ki, ks, scratch). scratch is scratch_rows float
    rows of the block's length, all the accumulator may write to; it
    returns the block's `width` accumulator sums and a row of the
    per-sample contributions the effective sample size is taken over,
    which this function may overwrite.

    Batches run on a thread pool made for this call, one thread per CPU
    that _worker_count allows and at most one per batch. Each thread keeps
    one batch of draws and one block of rows for all its batches, so
    memory is _DRAW_ROWS sample rows per thread. Block sums are added in
    block order and batch results combined in batch order, as a serial
    loop would, so the result does not depend on the thread count. Returns
    the (batches, width) sums, the ESS, the rejection fraction and the
    sample count; raises ConvergenceError naming op on a zero ESS.
    """
    sizes = _batch_sizes(int(spec.samples))
    # a block's weights and kix, then its scratch rows after the first, raw[0]
    rows = 1 + scratch_rows
    results = [None] * len(sizes)
    pending = iter(range(len(sizes)))
    lock = threading.Lock()
    stop = threading.Event()

    def run_batch(index: int, raw: np.ndarray, block_buffer: np.ndarray):
        _draw_streams(_batch_rng(spec.seed, index), raw)
        sums = np.zeros(width)
        rejected = 0
        accepted_w = 0.0
        accepted_w2 = 0.0
        for start in range(0, raw.shape[1], BLOCK_NODES):
            block = raw[:, start : start + BLOCK_NODES]
            slab = block_buffer[: rows * block.shape[1]].reshape(rows, -1)
            kx, ky, kappa, weights = _draw_gaussian(block, slab, cfg)
            scratch = [block[0], *slab[2:]]
            kz, valid = _physical_kz(kx, ky, kappa, scratch[0])
            np.copyto(weights, 0.0, where=~valid)
            rejected += valid.size - int(np.count_nonzero(valid))
            block_sums, contributions = accumulate(
                weights, (kx[0], ky[0], kz[0]), (kx[1], ky[1], kz[1]), scratch
            )
            np.add(sums, block_sums, out=sums)
            accepted_w += float(np.sum(contributions))
            accepted_w2 += float(np.sum(np.square(contributions, out=contributions)))
        return sums, rejected, accepted_w, accepted_w2

    # each thread claims its next batch from `pending`: pool.map would hold
    # one Future per batch from the start (about 1.8 KB each, and McSpec
    # allows 2e5 batches), and on a failure `stop` ends the run after each
    # thread's current batch, with no queue of futures left to cancel
    def work():
        raw_buffer = np.empty(_DRAW_ROWS * max(sizes))
        block_buffer = np.empty(rows * BLOCK_NODES)
        while not stop.is_set():
            with lock:
                index = next(pending, None)
            if index is None:
                return
            raw = raw_buffer[: _DRAW_ROWS * sizes[index]].reshape(_DRAW_ROWS, -1)
            results[index] = run_batch(index, raw, block_buffer)

    count = min(_worker_count(None), len(sizes))
    with ThreadPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(work) for _ in range(count)]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # a failed batch or an interrupt ends the other threads after their current batch
            stop.set()
    for future in futures:
        future.result()

    sums = np.array([batch[0] for batch in results])
    rejected = 0
    accepted_w = 0.0
    accepted_w2 = 0.0
    for _, batch_rejected, batch_w, batch_w2 in results:
        rejected += batch_rejected
        accepted_w += batch_w
        accepted_w2 += batch_w2

    if accepted_w == 0.0 or accepted_w2 == 0.0:
        raise ConvergenceError(f"zero effective sample size in {op}")
    total_samples = int(sum(sizes))
    return sums, accepted_w**2 / accepted_w2, rejected / total_samples, total_samples


def mc_integral(f: Callable, cfg: ExperimentConfig, spec: McSpec) -> McIntegralResult:
    """Unbiased 6D integral estimate of f over photon-pair phase space.

    f is called with two (kx, ky, kz) triplets of equal-length arrays, a
    block of at most BLOCK_NODES samples, and must return the per-sample
    integrand: an array of their shape, or a scalar; any other shape is a
    DomainError. f may be called from several threads at once, and the
    arrays it receives are valid only during the call. The proposal shapes
    itself from the config's filters and pump. The standard error comes
    from leave-one-batch-out resampling. Requires a full6d config;
    identical (f, cfg, spec) reruns are bit-identical, at any thread count.
    """
    _check_full6d(cfg, "mc_integral")

    def accumulate(weights, ki, ks, scratch):
        values = np.asarray(f(ki, ks), dtype=float)
        if values.shape not in ((), weights.shape):
            raise DomainError(
                f"mc_integral: f must return shape {weights.shape} or a scalar, "
                f"got shape {values.shape}"
            )
        product = np.multiply(weights, values, out=scratch[0])
        return (np.sum(product),), np.abs(product, out=product)

    sums, ess, rejection, total_samples = _run_batches(
        "mc_integral", cfg, spec, 1, accumulate, 1
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

    def accumulate(weights, ki, ks, scratch):
        # F_sep, |ki| and |ks| in scratch[0:3] and F_ent in scratch[3]; then
        # the obliquity in |ki|'s row, each term in scratch[4] and the ESS
        # contributions in scratch[5]
        f_sep, mag_i, mag_s = _separable_6d(ki, ks, cfg_eff, scratch[:4])
        f_ent = _entangling_6d(ki, ks, mag_i, mag_s, cfg_eff, scratch[3:6])
        np.multiply(f_ent, f_sep, out=f_ent)
        amplitudes = {AmplitudeKind.ENTANGLED: f_ent, AmplitudeKind.SEPARABLE: f_sep}
        if paraxial:
            w = CONVENTIONS["obliquity_paraxial"]
        else:
            np.divide(ks[2], mag_s, out=mag_s)
            w = np.add(np.divide(ki[2], mag_i, out=mag_i), mag_s, out=mag_i)
        term = scratch[4]
        sums = []
        # weight * F^power, times the obliquity w where it applies
        for kind, power, obliquity in INTEGRALS.values():
            amplitude = amplitudes[kind]
            if power == 2:
                amplitude = np.square(amplitude, out=term)
            np.multiply(weights, amplitude, out=term)
            if obliquity:
                np.multiply(term, w, out=term)
            sums.append(np.sum(term))
        # the effective sample size is over the dominant positive accumulator,
        # since F_sep^2 bounds every other integrand pointwise
        contributions = np.multiply(weights, np.square(f_sep, out=scratch[5]), out=scratch[5])
        return sums, np.abs(contributions, out=contributions)

    sums, ess, rejection, total_samples = _run_batches(
        "mc_enhancement_ratio", cfg_eff, spec, len(INTEGRALS), accumulate, 6
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
