"""Six-dimensional Monte Carlo cross-checks of the reduced pipeline."""

import math

import numpy as np
import pytest

from qionize import oracle
from qionize.amplitude import AmplitudeKind, eval_amplitude
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

    def fake_run_batches(op, cfg, spec, width, accumulate):
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
