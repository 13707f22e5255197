"""Six-dimensional Monte Carlo cross-checks of the reduced pipeline."""

import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from qionize import oracle
from qionize.amplitude import AmplitudeKind, _entangling_6d, _separable_6d, eval_amplitude
from qionize.observables import QUADRUPOLE, KernelError, enhancement_ratio, normalization
from qionize.oracle import (
    MIN_SAMPLES,
    PRNG_ID,
    CrossCheckRow,
    McIntegralResult,
    McSpec,
    default_check_configs,
    mc_enhancement_ratio,
    mc_integral,
    reduced_vs_full_check,
)
from qionize.units import DomainError, ExperimentConfig, Reduction, Regime

CFG_6D = ExperimentConfig(pump_waist_um=50.0, reduction=Reduction.FULL_6D)

ONES = lambda ki, ks: np.ones_like(ki[0])


def test_mc_spec_validation():
    assert MIN_SAMPLES == 100_000
    with pytest.raises(DomainError):
        McSpec(samples=MIN_SAMPLES - 1)
    for seed in (-5, 1.5, "3"):
        with pytest.raises(DomainError, match="seed"):
            McSpec(seed=seed)
    assert McSpec(seed=np.int64(7)).seed == 7


def test_mc_spec_refuses_sample_counts_past_the_ceiling():
    # far above the 1e8 samples of the oracle acceptance check, and low
    # enough that the per-batch sums of a run stay small
    assert oracle.MAX_SAMPLES >= 1000 * 10**8
    assert McSpec(samples=oracle.MAX_SAMPLES).samples == oracle.MAX_SAMPLES
    for samples in (oracle.MAX_SAMPLES + 1, 10**14, 10**300):
        with pytest.raises(DomainError, match="samples"):
            McSpec(samples=samples)
    assert len(oracle._batch_sizes(oracle.MAX_SAMPLES)) <= 200_000


def test_batch_sizes_stay_bounded_and_keep_small_runs():
    # up to 2e7 samples the count is what it always was, 10 to 40 batches,
    # so those runs keep their batch boundaries and PRNG streams
    for total, count in ((MIN_SAMPLES, 10), (10**6, 10), (10**7, 20), (2 * 10**7 + 499_999, 40)):
        assert len(oracle._batch_sizes(total)) == count, total
    # above that the count grows instead of the batches
    for total in (4 * 10**7, 10**9):
        sizes = oracle._batch_sizes(total)
        assert sum(sizes) == total
        assert max(sizes) <= 2 * 500_000
        assert max(sizes) - min(sizes) <= 1
    assert len(oracle._batch_sizes(4 * 10**7)) == 80


def test_mc_integral_result_fields():
    # |F_sep|^2, the integrand the proposal is shaped after, at default filters
    spec = McSpec(samples=100_000, seed=1)
    res = mc_integral(
        lambda ki, ks: eval_amplitude(ki, ks, CFG_6D, AmplitudeKind.SEPARABLE) ** 2,
        CFG_6D,
        spec,
    )
    assert isinstance(res, McIntegralResult)
    assert res.rejection_fraction == 0.0
    assert res.batches == 10
    assert res.method == "mc_gaussian_proposal"
    assert res.prng == PRNG_ID
    assert res.converged


def test_jackknife_of_identical_batches_has_zero_sigma():
    # identical batch rows leave no spread for the leave-one-out estimates
    rows = np.full((10, 2), 1.6)
    estimate, sigma = oracle._jackknife(rows, lambda t: float(t[0] / t[1]))
    assert estimate == 1.0
    assert sigma == 0.0


def test_rejection_counts_unphysical_draws():
    # a |k| proposal 1/0.1 = 10 um^-1 wide around k0 ~ 19 um^-1 puts many
    # kappa draws below sqrt(kx^2 + ky^2); the default filters put none there
    spec = McSpec(samples=100_000, seed=2)
    res = mc_integral(ONES, CFG_6D.replace(filter_omega_um=0.1), spec)
    assert 0.2 < res.rejection_fraction < 0.8
    assert mc_integral(ONES, CFG_6D, spec).rejection_fraction == 0.0


def test_mc_integral_determinism():
    spec = McSpec(samples=200_000, seed=9)
    f = lambda ki, ks: eval_amplitude(ki, ks, CFG_6D, AmplitudeKind.SEPARABLE) ** 2
    a = mc_integral(f, CFG_6D, spec)
    b = mc_integral(f, CFG_6D, spec)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    c = mc_integral(f, CFG_6D, McSpec(samples=200_000, seed=10))
    assert c.value != a.value  # a fresh seed must actually reshuffle


def test_mc_integral_rejects_wrong_reduction():
    with pytest.raises(DomainError, match="full6d"):
        mc_integral(ONES, ExperimentConfig(), McSpec(samples=100_000))


def test_full_norm_integral_matches_reduced_times_filter_constants():
    # the ky and |k| Gaussians integrate to pi / (omega_y * omega) per photon,
    # so the 6D norm integral must equal the reduced one times that squared
    spec = McSpec(samples=400_000, seed=7)
    mc = mc_integral(
        lambda ki, ks: eval_amplitude(ki, ks, CFG_6D, AmplitudeKind.SEPARABLE) ** 2,
        CFG_6D,
        spec,
    )
    c0 = normalization(AmplitudeKind.SEPARABLE, ExperimentConfig(pump_waist_um=50.0))
    per_photon = math.pi / (CFG_6D.filter_omega_y_um * CFG_6D.filter_omega_um)
    target = (1.0 / c0.value**2) * per_photon**2
    z = abs(mc.value - target) / mc.error_estimate
    assert mc.converged
    assert z < 4.0


def test_mc_ratio_matches_reduced_exact_regime():
    cfg = ExperimentConfig(pump_waist_um=10.0, crystal_length_um=1.0)
    reduced = enhancement_ratio(cfg)
    full = mc_enhancement_ratio(
        cfg.replace(reduction=Reduction.FULL_6D), McSpec(samples=300_000, seed=11)
    )
    assert abs(full.R - reduced.R) / full.sigma_R < 4.0
    assert full.effective_sample_size > 0.2 * 300_000
    assert 10 <= full.batches <= 40
    assert full.channel == "dipole"
    assert set(full.diagnostics) == {
        "I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep",
    }


def test_mc_ratio_matches_reduced_paraxial_regime():
    cfg = ExperimentConfig(
        pump_waist_um=10.0, crystal_length_um=1.0, regime=Regime.PARAXIAL
    )
    reduced = enhancement_ratio(cfg)
    full = mc_enhancement_ratio(
        cfg.replace(reduction=Reduction.FULL_6D), McSpec(samples=300_000, seed=13)
    )
    assert abs(full.R - reduced.R) / full.sigma_R < 4.0
    assert full.regime is Regime.PARAXIAL


def test_mc_ratio_guards():
    with pytest.raises(DomainError, match="full6d"):
        mc_enhancement_ratio(ExperimentConfig(), McSpec(samples=100_000))
    with pytest.raises(KernelError):
        mc_enhancement_ratio(CFG_6D, McSpec(samples=100_000), channel=QUADRUPOLE)


def test_default_check_configs_deterministic_and_in_range():
    a = default_check_configs()
    b = default_check_configs()
    assert a == b
    assert len(a) == 10
    assert len(default_check_configs(count=3)) == 3
    for count in (0, -2):
        with pytest.raises(DomainError, match="count"):
            default_check_configs(count)
    for cfg in a:
        assert 0.05 <= cfg.crystal_length_um <= 50.0
        assert 3.0 <= cfg.pump_waist_um <= 50.0
        assert cfg.reduction is Reduction.FULL_6D
        assert cfg.regime is Regime.EXACT


def test_reduced_vs_full_check_row():
    cfg = CFG_6D.replace(crystal_length_um=2.0, pump_waist_um=20.0)
    row = reduced_vs_full_check(cfg, McSpec(samples=200_000, seed=3))
    assert isinstance(row, CrossCheckRow)
    assert row.agrees
    assert row.tolerance == max(0.05, 3.0 * row.sigma_full / abs(row.R_full))
    assert row.rel_deviation == abs(row.R_reduced / row.R_full - 1.0)
    assert row.rel_deviation <= row.tolerance


@pytest.mark.parametrize("cfg", default_check_configs(2, 5))
def test_mc_integral_of_squared_amplitude_matches_ratio_accumulators(cfg):
    # both estimators draw the same samples and evaluate the same amplitude,
    # so only the summation order of the batch totals may differ
    spec = McSpec(samples=MIN_SAMPLES, seed=17)
    ratio = mc_enhancement_ratio(cfg, spec)
    for kind, key in ((AmplitudeKind.ENTANGLED, "I2_ent"), (AmplitudeKind.SEPARABLE, "I2_sep")):
        integral = mc_integral(
            lambda ki, ks: eval_amplitude(ki, ks, cfg, kind) ** 2, cfg, spec
        )
        assert integral.value == pytest.approx(ratio.diagnostics[key], rel=1e-13, abs=0.0)


# (R, sigma_R, I1_ent) of mc_enhancement_ratio and (value, error) of
# mc_integral of |F_ent|^2 at default_check_configs(2, 5)[0], 1e5 samples, seed 17
MC_PINS = (
    (0.2611564256493265, 0.003872418699120077, 2.230691500417375e-30),
    (3.7252944089606393e-31, 3.3369429303502086e-33),
)


def test_mc_estimators_regression_pin():
    cfg = default_check_configs(2, 5)[0]
    spec = McSpec(samples=MIN_SAMPLES, seed=17)
    ratio = mc_enhancement_ratio(cfg, spec)
    integral = mc_integral(
        lambda ki, ks: eval_amplitude(ki, ks, cfg, AmplitudeKind.ENTANGLED) ** 2, cfg, spec
    )
    ratio_pin, integral_pin = MC_PINS
    got = (ratio.R, ratio.sigma_R, ratio.diagnostics["I1_ent"])
    assert got == pytest.approx(ratio_pin, rel=1e-12, abs=0.0)
    assert (integral.value, integral.error_estimate) == pytest.approx(
        integral_pin, rel=1e-12, abs=0.0
    )


def test_mc_ratio_refuses_subnormal_coherent_squares(monkeypatch):
    # the MC ratio maps its sums to R through ratio_from_integrals, so an I1
    # total that squares below the normal range is the reduced path's
    # DomainError; the sampler is stubbed to return such totals
    sums = np.ones((10, 6))
    sums[:, 0] = 1e-160

    def fake_run_batches(op, cfg, spec, width, accumulate, scratch_rows):
        return sums, 1e6, 0.0, MIN_SAMPLES

    monkeypatch.setattr(oracle, "_run_batches", fake_run_batches)
    with pytest.raises(DomainError, match="pump_waist_um"):
        mc_enhancement_ratio(CFG_6D, McSpec(samples=MIN_SAMPLES))


@pytest.mark.parametrize("converged", [False, True])
def test_unconverged_mc_ratio_never_agrees(converged, monkeypatch):
    # an ESS below MIN_ESS must veto agreement however close R lands
    cfg = default_check_configs(2, 5)[0]
    spec = McSpec(samples=MIN_SAMPLES, seed=17)
    ess = mc_enhancement_ratio(cfg, spec).effective_sample_size
    if not converged:
        monkeypatch.setattr(oracle, "MIN_ESS", 2.0 * ess)
    ratio = mc_enhancement_ratio(cfg, spec)
    assert ratio.converged is converged
    assert (ratio.effective_sample_size >= oracle.MIN_ESS) is converged
    row = reduced_vs_full_check(cfg, spec)
    assert row.rel_deviation <= row.tolerance
    assert row.agrees is converged


def _sequential_draw(rng, n, cfg):
    # the proposal as a sequence of rng.normal and rng.uniform calls, with
    # its density as a product of five normalized exponentials
    k0 = cfg.k0
    sigma_u = oracle._PUMP_PROPOSAL_WIDTH / cfg.pump_waist_um
    sigma_y = 1.0 / cfg.filter_omega_y_um
    sigma_k = 1.0 / cfg.filter_omega_um
    u = rng.normal(0.0, sigma_u, size=n)
    vmax = 2.0 * k0 - np.abs(u)
    alive = vmax > 0.0
    vmax_safe = np.where(alive, vmax, 1.0)
    v = rng.uniform(-1.0, 1.0, size=n) * vmax_safe
    kx = np.stack([0.5 * (u + v), 0.5 * (u - v)])
    ky = rng.normal(0.0, sigma_y, size=(2, n))
    kappa = rng.normal(k0, sigma_k, size=(2, n))
    norm = math.sqrt(2.0 * math.pi)
    dens_u = np.exp(-0.5 * (u / sigma_u) ** 2) / (sigma_u * norm)
    dens_x = 2.0 * dens_u / (2.0 * vmax_safe)
    dens_y = np.prod(np.exp(-0.5 * (ky / sigma_y) ** 2) / (sigma_y * norm), axis=0)
    dens_k = np.prod(np.exp(-0.5 * ((kappa - k0) / sigma_k) ** 2) / (sigma_k * norm), axis=0)
    density = dens_x * dens_y * dens_k
    weights = np.where(alive & (density > 0.0), 1.0 / np.where(density > 0.0, density, 1.0), 0.0)
    return kx, ky, kappa, weights


@pytest.mark.parametrize("cfg", [
    CFG_6D,
    default_check_configs(2, 5)[0],
    CFG_6D.replace(filter_omega_um=0.1),  # kappa draws below |k_perp|
    CFG_6D.replace(pump_waist_um=0.02),  # |u| past 2 k0: zero weights
])
def test_draw_gaussian_matches_the_sequential_draws(cfg):
    # the in-place draw reads the same streams in the same order: the momenta
    # bit for bit, the one-exponential weights to rounding
    n = 20_000
    raw = np.empty((oracle._DRAW_ROWS, n))
    oracle._draw_streams(oracle._batch_rng(3, 4), raw)
    kx, ky, kappa, weights = oracle._draw_gaussian(raw, np.empty((2, n)), cfg)
    ref_kx, ref_ky, ref_kappa, ref_weights = _sequential_draw(oracle._batch_rng(3, 4), n, cfg)
    for got, ref in ((np.stack(kx), ref_kx), (ky, ref_ky), (kappa, ref_kappa)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.array_equal(weights == 0.0, ref_weights == 0.0)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-13, atol=0.0)


def _expression_amplitude(ki, ks, cfg, kind):
    # the 6D amplitude as whole-array expressions, for forward photons
    (kix, kiy, kiz), (ksx, ksy, ksz) = ki, ks
    k0 = cfg.k0
    mag_i = np.sqrt(kix**2 + kiy**2 + kiz**2)
    mag_s = np.sqrt(ksx**2 + ksy**2 + ksz**2)
    value = np.exp(-0.5 * (cfg.pump_waist_um * (kix + ksx)) ** 2
                   - 0.5 * (cfg.pump_waist_y * (kiy + ksy)) ** 2)
    value = value * np.exp(-0.5 * (cfg.filter_omega_um * (mag_i - k0)) ** 2)
    value = value * np.exp(-0.5 * (cfg.filter_omega_um * (mag_s - k0)) ** 2)
    value = value * np.exp(-0.5 * (cfg.filter_omega_y_um * kiy) ** 2)
    value = value * np.exp(-0.5 * (cfg.filter_omega_y_um * ksy) ** 2)
    if kind is AmplitudeKind.SEPARABLE:
        return value
    if cfg.regime is Regime.PARAXIAL:
        mismatch = ((kix**2 + kiy**2) / (2.0 * mag_i) + (ksx**2 + ksy**2) / (2.0 * mag_s)
                    - ((kix + ksx) ** 2 + (kiy + ksy) ** 2) / (2.0 * (mag_i + mag_s)))
    else:
        arg = (mag_i + mag_s) ** 2 - (kix + ksx) ** 2 - (kiy + ksy) ** 2
        mismatch = np.sqrt(np.maximum(arg, 0.0)) - kiz - ksz
    x = 0.5 * cfg.crystal_length_um * mismatch
    with np.errstate(invalid="ignore"):
        sinc = np.where(np.abs(x) < 1e-4, 1.0 - x**2 / 6.0 + x**4 / 120.0, np.sin(x) / x)
    return value * sinc


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
def test_eval_amplitude_is_bit_identical_in_workspace_rows(regime):
    # the Monte Carlo ratio evaluates the amplitude in workspace rows; that
    # path and eval_amplitude give the same bits, those of the whole-array
    # expressions
    cfg = default_check_configs(2, 5)[0].replace(regime=regime)
    n = 50_000
    raw = np.empty((oracle._DRAW_ROWS, n))
    oracle._draw_streams(oracle._batch_rng(0, 1), raw)
    kx, ky, kappa, _ = oracle._draw_gaussian(raw, np.empty((2, n)), cfg)
    kz, valid = oracle._physical_kz(kx, ky, kappa, raw[0])
    assert valid.all()
    ki, ks = (kx[0], ky[0], kz[0]), (kx[1], ky[1], kz[1])
    scratch = np.empty((6, n))
    f_sep, mag_i, mag_s = _separable_6d(ki, ks, cfg, scratch[:4])
    f_ent = np.multiply(_entangling_6d(ki, ks, mag_i, mag_s, cfg, scratch[3:6]), f_sep,
                        out=scratch[3])
    for kind, in_place in ((AmplitudeKind.SEPARABLE, f_sep), (AmplitudeKind.ENTANGLED, f_ent)):
        public = eval_amplitude(ki, ks, cfg, kind)
        reference = _expression_amplitude(ki, ks, cfg, kind)
        assert np.count_nonzero(public) > 0.9 * public.size
        for values in (in_place, public):
            assert np.array_equal(values.view(np.int64), reference.view(np.int64)), kind


def _run_both(cfg, spec):
    ratio = mc_enhancement_ratio(cfg, spec)
    integral = mc_integral(
        lambda ki, ks: eval_amplitude(ki, ks, cfg, AmplitudeKind.ENTANGLED) ** 2, cfg, spec
    )
    return ratio, integral


def test_estimators_are_bit_identical_at_any_thread_count(monkeypatch):
    # batches keep their streams and are summed in index order, so one
    # thread, the default count and more threads than batches or cores agree
    # bit for bit; a short switch interval interleaves the threads finely
    cfg = default_check_configs(2, 5)[0]
    spec = McSpec(samples=MIN_SAMPLES, seed=17)
    monkeypatch.setenv("QIONIZE_THREADS", "1")
    serial = _run_both(cfg, spec)
    monkeypatch.delenv("QIONIZE_THREADS")
    runs = [_run_both(cfg, spec)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs.append(_run_both(cfg, spec))
    finally:
        sys.setswitchinterval(interval)
    for ratio, integral in runs:
        assert ratio == serial[0]
        assert integral == serial[1]


@pytest.mark.parametrize("shape", ["n, 2", "n + 1"])
def test_mc_integral_refuses_values_of_another_shape(shape):
    # values of another shape would broadcast against the weights, (n, 1)
    # to an (n, n) product; they are refused before any arithmetic
    def f(ki, ks):
        n = ki[0].size
        return np.ones((n, 2) if shape == "n, 2" else (n + 1,))

    with pytest.raises(DomainError, match=r"mc_integral.*shape"):
        mc_integral(f, CFG_6D, McSpec(samples=MIN_SAMPLES))
    # one value per sample or one for all are the two shapes accepted
    spec = McSpec(samples=MIN_SAMPLES, seed=4)
    assert mc_integral(lambda ki, ks: 1.0, CFG_6D, spec) == mc_integral(ONES, CFG_6D, spec)


def test_one_batch_allocates_a_bounded_number_of_rows(monkeypatch):
    # on one thread, a run of 100 k-sample batches holds one batch of draws
    # (six sample-length rows) and cache-sized blocks for the rest: the
    # proposal, kz, the amplitudes and the terms, and what f allocates
    monkeypatch.setenv("QIONIZE_THREADS", "1")
    spec = McSpec(samples=1_000_000, seed=1)
    row = 8 * 100_000
    cfg = default_check_configs(2, 5)[0]
    for estimator in (lambda: mc_enhancement_ratio(cfg, spec), lambda: mc_integral(ONES, cfg, spec)):
        tracemalloc.start()
        try:
            estimator()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (oracle._DRAW_ROWS + 2) * row, peak / row


def test_a_failing_integrand_stops_the_run_after_each_threads_first_batch(monkeypatch):
    # f raises on every call: the error reaches the caller after one call on
    # one thread, and after at most one call per pool thread by default,
    # never after a call for each of the 10 batches
    calls = []

    def f(ki, ks):
        calls.append(ki[0].size)
        raise ZeroDivisionError("integrand failed")

    spec = McSpec(samples=MIN_SAMPLES)
    assert len(oracle._batch_sizes(spec.samples)) == 10
    monkeypatch.setenv("QIONIZE_THREADS", "1")
    with pytest.raises(ZeroDivisionError, match="integrand failed"):
        mc_integral(f, CFG_6D, spec)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.delenv("QIONIZE_THREADS")
    threads = min(oracle._worker_count(None), 10)
    with pytest.raises(ZeroDivisionError, match="integrand failed"):
        mc_integral(f, CFG_6D, spec)
    assert 1 <= len(calls) <= threads, (len(calls), threads)
