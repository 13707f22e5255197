"""Normalization, flux, collection factors, enhancement ratio, kernels."""

import math
import tracemalloc

import numpy as np
import pytest

from qionize import observables, quadrature
from qionize.amplitude import AmplitudeKind
from qionize.observables import (
    DIPOLE,
    HEXADECAPOLE,
    INTEGRALS,
    OCTUPOLE,
    QUADRUPOLE,
    Channel,
    FilterFactor,
    KernelError,
    Parity,
    Quantity,
    TabulatedKernel,
    builtin_channels,
    enhancement_ratio,
    f_factor,
    load_kernel,
    make_synthetic_kernel,
    normalization,
    photon_flux,
    ratio_from_integrals,
    save_kernel,
)
from qionize.quadrature import ConvergenceError, IntegralResult, integrate_2d
from qionize.units import (
    C_UM_PER_S,
    DomainError,
    ExperimentConfig,
    QuadratureSpec,
    Regime,
)

K0_DIPOLE = 19.020678267107723
INTEGRAL_NAMES = ("I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep")


# ---------------------------------------------------------------- symbolic algebra


def test_filter_factor_algebra():
    a = FilterFactor(g1=2)
    b = FilterFactor(g2=2)
    assert (a * b) == FilterFactor(g1=2, g2=2)
    assert (a / b) == FilterFactor(g1=2, g2=-2)
    assert FilterFactor().neutral
    assert not a.neutral
    assert str(a / b) == "g1^2 g2^-2"


def test_quantity_arithmetic():
    q = Quantity(3.0, FilterFactor(g1=1)) * Quantity(2.0, FilterFactor(g2=1))
    assert q.value == 6.0
    assert q.factor == FilterFactor(g1=1, g2=1)
    half = q / Quantity(12.0, FilterFactor(g1=1, g2=1))
    assert half.value == pytest.approx(0.5)
    assert half.factor.neutral


# ---------------------------------------------------------------- normalization / f


def test_normalization_narrowband_closed_form():
    # the pump-envelope norm integral collapses to 2 k0 sqrt(pi)/w - 1/w^2
    # when the envelope is far narrower than the transverse window
    cfg = ExperimentConfig(pump_waist_um=50.0)
    got = normalization(AmplitudeKind.SEPARABLE, cfg)
    analytic = 1.0 / math.sqrt(2.0 * cfg.k0 * math.sqrt(math.pi) / 50.0 - 1.0 / 50.0**2)
    assert got.value == pytest.approx(analytic, rel=1e-6)
    assert got.value == pytest.approx(0.8612593624720228, rel=1e-12)  # regression pin
    assert got.factor == FilterFactor(g2=-1)


def test_f_factor_narrowband_leading_order():
    # leading order 8 k0 / (sqrt(pi) w); finite-width corrections stay sub-0.1%
    cfg = ExperimentConfig(pump_waist_um=50.0)
    got = f_factor(AmplitudeKind.SEPARABLE, cfg)
    lead = 8.0 * cfg.k0 / (math.sqrt(math.pi) * 50.0)
    assert got.value == pytest.approx(lead, rel=2e-3)
    assert got.value == pytest.approx(1.715580707919615, rel=1e-12)  # regression pin
    assert got.factor == FilterFactor(g1=4, g2=-2)


def test_normalization_residual_is_tiny():
    # C^2 * integral of |F|^2 == 1 by construction; the residual measures
    # quadrature self-consistency
    for waist in (3.0, 50.0):
        cfg = ExperimentConfig(pump_waist_um=waist, crystal_length_um=2.0)
        res = enhancement_ratio(cfg)
        for label in ("ent", "sep"):
            c = res.C_ent if label == "ent" else res.C_sep
            i2 = res.diagnostics[f"I2_{label}"].value
            assert abs(c.value**2 * i2 - 1.0) < 1e-6


# ---------------------------------------------------------------- photon flux


def test_flux_collinear_identity_paraxial():
    # the paraxial obliquity is the constant 2, so flux * C0 == 2 c exactly
    cfg = ExperimentConfig(pump_waist_um=1.0e4, regime=Regime.PARAXIAL)
    flux = photon_flux(AmplitudeKind.SEPARABLE, cfg)
    c0 = normalization(AmplitudeKind.SEPARABLE, cfg)
    assert flux.value * c0.value / (2.0 * C_UM_PER_S) == pytest.approx(1.0, rel=1e-12)
    assert flux.factor == FilterFactor(g2=1)


def test_flux_collinear_limit_exact_regime():
    # stated limit: an arbitrarily tight pump confines both photons to the
    # axis, the obliquity sum approaches 2, and flux * C0 -> 2 c within 1e-3.
    # Measured: tightening the pump only pins kix + ksx; the anticorrelated
    # difference coordinate still spans the full transverse window, the mean
    # obliquity stays pi/2, and the ratio settles at pi/4 = 0.7853998 here.
    cfg = ExperimentConfig(pump_waist_um=1.0e4)
    flux = photon_flux(AmplitudeKind.SEPARABLE, cfg)
    c0 = normalization(AmplitudeKind.SEPARABLE, cfg)
    ratio = flux.value * c0.value / (2.0 * C_UM_PER_S)
    assert ratio == pytest.approx(1.0, rel=1e-3)


def test_flux_regime_agreement_narrowband():
    # stated: exact and paraxial fluxes agree within 1% once the narrowband
    # guard is comfortably satisfied. Measured: the ratio is pi/4 + O(1/w)
    # (0.7856229867709091 at w = 50 um) for the same reason as the collinear
    # limit; the deficit never shrinks with the pump waist.
    exact = photon_flux(AmplitudeKind.SEPARABLE, ExperimentConfig(pump_waist_um=50.0))
    par = photon_flux(
        AmplitudeKind.SEPARABLE,
        ExperimentConfig(pump_waist_um=50.0, regime=Regime.PARAXIAL),
    )
    assert exact.value / par.value == pytest.approx(1.0, rel=0.01)


# ---------------------------------------------------------------- enhancement ratio


def test_identity_limit_zero_length():
    # a vanishing crystal makes the phase-matching factor 1 pointwise, so
    # entangled and separable pipelines coincide
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=3.0, crystal_length_um=1e-9))
    assert res.R == pytest.approx(1.0, abs=1e-9)
    assert res.converged


def test_ratio_reference_value():
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0))
    assert res.R == pytest.approx(0.20808995675246447, rel=1e-9)  # regression pin
    assert res.err_R <= 1e-4 * res.R
    assert res.regime is Regime.EXACT
    assert res.channel == "dipole"
    assert res.diagnostics["kernel"] == "none"
    assert res.diagnostics["conventions"]["filter_factor_R"] == "g1^0 g2^0"
    keys = {"I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep"}
    assert keys <= set(res.diagnostics)
    assert all(isinstance(res.diagnostics[k], IntegralResult) for k in keys)


def test_ratio_determinism():
    cfg = ExperimentConfig(pump_waist_um=7.0, crystal_length_um=3.0)
    a = enhancement_ratio(cfg)
    b = enhancement_ratio(cfg)
    assert a.R == b.R
    assert a.err_R == b.err_R


def test_long_crystal_integrands_see_only_cache_sized_blocks(monkeypatch):
    # the tensor rule evaluates row blocks, never the whole L = 100 um grid
    calls = []

    def recording_integrate_2d(f, domain, spec=None, initial_panels=(2, 2)):
        def recorded(x, y):
            values = f(x, y)
            calls.append((np.size(values), np.size(y)))
            return values

        return integrate_2d(recorded, domain, spec, initial_panels)

    monkeypatch.setattr(observables, "integrate_2d", recording_integrate_2d)
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=100.0, crystal_length_um=100.0))
    assert res.converged
    evals = sum(
        res.diagnostics[f"{name}_{kind}"].evals
        for name in ("I1", "I2", "I2w")
        for kind in ("ent", "sep")
    )
    assert sum(n for n, _ in calls) == evals
    assert max(n for n, _ in calls) < evals // 100
    for n, ny in calls:
        assert n <= max(quadrature.BLOCK_NODES, ny)


def test_ratio_scale_invariance():
    # a common amplitude scale s multiplies I1 by s and I2, I2w by s^2
    cfg = ExperimentConfig(pump_waist_um=10.0, crystal_length_um=2.0)
    base = enhancement_ratio(cfg)
    values = {name: base.diagnostics[name].value for name in INTEGRAL_NAMES}
    ratio, _ = ratio_from_integrals(values)
    assert ratio.value == base.R
    for scale in (3.0, 1e-3, 1e3):
        scaled = {
            name: value * (scale if name.startswith("I1_") else scale**2)
            for name, value in values.items()
        }
        ratio, _ = ratio_from_integrals(scaled)
        assert ratio.value == pytest.approx(base.R, rel=1e-12)


def test_ratio_out_of_double_range_is_a_domain_error():
    # at a waist this wide I1 is about 1e-162 and its square underflows to 0
    cfg = ExperimentConfig(crystal_length_um=1.0, pump_waist_um=6.066924617790604e163)
    with pytest.raises(DomainError, match="pump_waist_um"):
        enhancement_ratio(cfg)


def test_obliquity_and_normalization_bounds():
    # per point the obliquity sum is at most 2, so I2w <= 2 I2 and the
    # collection factor is at least |I1|^2 / (2 I2); narrowing the spectrum
    # can only raise the entangled normalization constant
    rng = np.random.default_rng(41)
    for _ in range(4):
        cfg = ExperimentConfig(
            pump_waist_um=float(rng.uniform(2.0, 60.0)),
            crystal_length_um=float(10.0 ** rng.uniform(-1.3, 1.3)),
            regime=Regime.EXACT if rng.uniform() < 0.5 else Regime.PARAXIAL,
        )
        res = enhancement_ratio(cfg)
        for label in ("ent", "sep"):
            i2 = res.diagnostics[f"I2_{label}"].value
            i2w = res.diagnostics[f"I2w_{label}"].value
            i1 = res.diagnostics[f"I1_{label}"].value
            f_val = (res.f_ent if label == "ent" else res.f_sep).value
            assert i2w <= 2.0 * i2 * (1.0 + 1e-12)
            assert f_val >= i1**2 / (2.0 * i2) * (1.0 - 1e-12)
        assert res.C_ratio >= 1.0 - 1e-12


def test_deep_paraxial_corner_regime_agreement():
    # stated: exact and paraxial ratios agree within 5% for a wide pump and a
    # long crystal. Measured: the relative deviation is 0.2140417028240469 at
    # w = 50 um, L = 100 um; the obliquity deficit keeps the two apart no
    # matter how paraxial the configuration looks.
    exact = enhancement_ratio(ExperimentConfig(pump_waist_um=50.0, crystal_length_um=100.0))
    par = enhancement_ratio(
        ExperimentConfig(pump_waist_um=50.0, crystal_length_um=100.0, regime=Regime.PARAXIAL)
    )
    assert abs(exact.R / par.R - 1.0) < 0.05


def test_strict_raises_on_budget_exhaustion():
    cfg = ExperimentConfig(
        crystal_length_um=100.0,
        pump_waist_um=3.0,
        quadrature=QuadratureSpec(max_evals=2000),
    )
    with pytest.raises(ConvergenceError):
        enhancement_ratio(cfg)
    res = enhancement_ratio(cfg, strict=False)
    assert not res.converged
    assert np.isfinite(res.R)


def test_ratio_eval_schedule_pin():
    # each integral's evals at the pinned (50, 3) um config: the folded rule
    # evaluates a quarter of the (748800, 1347840, ...) nodes of the whole
    # square on the same panels; a change of panels or fold shows up here
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0))
    names = ("I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep")
    evals = tuple(res.diagnostics[name].evals for name in names)
    assert evals == (187200, 336960, 336960, 187200, 336960, 336960)


def test_enhancement_ratio_integrates_in_integrals_order(monkeypatch):
    # one integrate_2d call per integral, in INTEGRALS order, each result
    # filed under its name; the benchmark's trace attributes calls this way
    cfg = ExperimentConfig(pump_waist_um=10.0, crystal_length_um=1.0)
    s = np.linspace(0.1, 1.5, 5)[:, None]
    t = np.linspace(0.2, 1.4, 4)[None, :]
    calls = []

    def recording_integrate_2d(f, domain, spec=None, initial_panels=(2, 2)):
        result = integrate_2d(f, domain, spec, initial_panels)
        calls.append((f(s, t), result))
        return result

    monkeypatch.setattr(observables, "integrate_2d", recording_integrate_2d)
    res = enhancement_ratio(cfg)
    assert tuple(INTEGRALS) == INTEGRAL_NAMES
    assert len(calls) == len(INTEGRALS)
    for (values, result), (name, spec) in zip(calls, INTEGRALS.items()):
        assert res.diagnostics[name] is result, name
        expected = observables._reduced_integrand(cfg, *spec, None)(s, t)
        np.testing.assert_array_equal(values, expected, err_msg=name)


def test_views_equal_the_ratio_parts():
    cfg = ExperimentConfig(pump_waist_um=10.0, crystal_length_um=1.0)
    res = enhancement_ratio(cfg)
    for kind, label in ((AmplitudeKind.ENTANGLED, "ent"), (AmplitudeKind.SEPARABLE, "sep")):
        for view, part in ((normalization, "C"), (f_factor, "f"), (photon_flux, "phi")):
            got = view(kind, cfg)
            want = getattr(res, f"{part}_{label}")
            assert got.value.hex() == want.value.hex(), (kind, part)
            assert got.factor == want.factor, (kind, part)


def test_convergence_errors_name_the_failed_integrals():
    cfg = ExperimentConfig(
        crystal_length_um=100.0, pump_waist_um=3.0, quadrature=QuadratureSpec(max_evals=2000)
    )
    res = enhancement_ratio(cfg, strict=False)
    failed = [name for name in INTEGRALS if not res.diagnostics[name].converged]
    assert failed
    with pytest.raises(ConvergenceError, match=f"^integrals {', '.join(failed)} did not converge"):
        enhancement_ratio(cfg)
    for kind, label in ((AmplitudeKind.ENTANGLED, "ent"), (AmplitudeKind.SEPARABLE, "sep")):
        for view, prefixes in (
            (normalization, ("I2",)),
            (photon_flux, ("I2", "I2w")),
            (f_factor, ("I1", "I2w")),
        ):
            names = [f"{p}_{label}" for p in prefixes if f"{p}_{label}" in failed]
            with pytest.raises(ConvergenceError, match=f"^integrals {', '.join(names)} did "):
                view(kind, cfg)


def test_ratio_refuses_subnormal_coherent_squares():
    # I1_ent is about 38 / w at L = 1 um: from w near 1e156 um its square is
    # subnormal and f = I1^2 / I2w loses precision, so R is refused there;
    # below that R keeps its bits
    cfg = ExperimentConfig(crystal_length_um=1.0, pump_waist_um=1e150)
    assert enhancement_ratio(cfg).R.hex() == "0x1.21f9b4420301cp-1"
    for waist in (1e156, 1e163, 4e163):
        with pytest.raises(DomainError, match="pump_waist_um"):
            enhancement_ratio(cfg.replace(pump_waist_um=waist))
    values = dict.fromkeys(INTEGRALS, 1.0)
    for name in ("I1_ent", "I1_sep"):
        for tiny in (1e-155, 0.0):
            with pytest.raises(DomainError, match="pump_waist_um"):
                ratio_from_integrals({**values, name: tiny})


# ---------------------------------------------------------------- folded quadrant

FOLD_LENGTHS_UM = (0.01, 1.0, 100.0)
FOLD_WAISTS_UM = (1.0, 3.0, 10.0, 50.0, 100.0)


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
def test_separable_integrals_match_closed_form(regime):
    # the separable amplitude depends on u alone, and the rhombus chord at u
    # is 2 (2 k0 - |u|) long, so I1_sep and I2_sep are 1D Gaussian moments
    for length in FOLD_LENGTHS_UM:
        for waist in FOLD_WAISTS_UM:
            cfg = ExperimentConfig(crystal_length_um=length, pump_waist_um=waist, regime=regime)
            k0, w, umax = cfg.k0, waist, observables._umax(cfg)
            i1 = 2.0 * k0 * math.sqrt(2.0 * math.pi) / w * math.erf(w * umax / math.sqrt(2.0)) - (
                2.0 / w**2
            ) * (1.0 - math.exp(-0.5 * (w * umax) ** 2))
            i2 = 2.0 * k0 * math.sqrt(math.pi) / w * math.erf(w * umax) - (1.0 / w**2) * (
                1.0 - math.exp(-((w * umax) ** 2))
            )
            label = (regime.value, length, waist)
            paraxial = regime is Regime.PARAXIAL
            names = ("I1_sep", "I2_sep") + (("I2w_sep",) if paraxial else ())
            results = observables._reduced_integrals(cfg, names)
            for name, truth in (("I1_sep", i1), ("I2_sep", i2)):
                res = results[name]
                assert res.converged, label
                assert abs(res.value - truth) <= res.error_estimate + 1e-14 * truth, label
            if paraxial:
                assert results["I2w_sep"].value == 2.0 * results["I2_sep"].value, label


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_reduced_integrand_is_even_in_s_and_t(kind, regime):
    # the premise of the folded quadrant: s -> -s exchanges the photons and
    # t -> -t maps (kix, ksx) to (-ksx, -kix); neither changes the integrand
    rng = np.random.default_rng(7)
    s = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(40, 1))
    t = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(1, 30))
    cfg = ExperimentConfig(crystal_length_um=20.0, pump_waist_um=1.0, regime=regime)
    for power in (1, 2):
        for obliquity in (False, True):
            f = observables._reduced_integrand(cfg, kind, power, obliquity, None)
            base = f(s, t)
            assert np.ptp(base) > 0.0
            for mirrored in (f(-s, t), f(s, -t)):
                np.testing.assert_allclose(mirrored, base, rtol=1e-13, atol=0.0)


_BLOCK = (682, 24)  # one full row block of an L = 100 um grid, 16368 nodes


def _block_nodes(rng):
    s = np.sort(rng.uniform(0.0, 0.5 * math.pi, size=(_BLOCK[0], 1)), axis=0)
    t = np.sort(rng.uniform(0.0, 0.5 * math.pi, size=(1, _BLOCK[1])), axis=1)
    return s, t


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_reduced_integrand_block_call_allocates_little(kind, regime):
    # the integrand works in buffers it keeps between calls: a warm call
    # allocates its result and small per-row and per-column arrays only
    s, t = _block_nodes(np.random.default_rng(5))
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    block_bytes = 8 * _BLOCK[0] * _BLOCK[1]
    for power, obliquity in ((1, False), (2, False), (2, True)):
        f = observables._reduced_integrand(cfg, kind, power, obliquity, None)
        f(s, t)
        tracemalloc.start()
        try:
            values = f(s, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == _BLOCK
        assert peak <= 2 * block_bytes, (power, obliquity, peak / block_bytes)


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_reduced_integrand_results_do_not_alias(kind, regime):
    # integrate_2d may keep a block's values: a later call on a block of the
    # same shape must leave them as they were
    rng = np.random.default_rng(6)
    first_nodes, second_nodes = _block_nodes(rng), _block_nodes(rng)
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    for power, obliquity in ((1, False), (2, False), (2, True)):
        f = observables._reduced_integrand(cfg, kind, power, obliquity, None)
        first = f(*first_nodes)
        kept = first.copy()
        second = f(*second_nodes)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(f(*first_nodes), kept)
        assert not np.array_equal(second, kept)


@pytest.mark.parametrize("shape", [(7, 7), (7, 4)])
def test_even_kernel_keeps_the_coherent_integral(shape):
    # an asymmetric kernel, averaged over both reflections and integrated on
    # the folded quadrant, gives the raw kernel's integral over the square;
    # a loose tolerance keeps the kinked bilinear kernel cheap to converge
    rng = np.random.default_rng(20261018)
    raw = TabulatedKernel("random", rng.normal(size=shape))
    cfg = ExperimentConfig(
        crystal_length_um=1.0, pump_waist_um=1.0, quadrature=QuadratureSpec(rel_tol=1e-4)
    )
    k0 = cfg.k0
    square = tuple(observables._ANGLE_DOMAIN)
    assert not isinstance(square, quadrature.EvenDomain)
    panels = observables._initial_panels(cfg)
    for kind, name in ((AmplitudeKind.ENTANGLED, "I1_ent"), (AmplitudeKind.SEPARABLE, "I1_sep")):
        f_raw = observables._reduced_integrand(
            cfg, kind, 1, False, lambda kix, ksx: raw.evaluate(kix, ksx, k0)
        )
        whole = integrate_2d(f_raw, square, cfg.quadrature, panels)
        folded = observables._reduced_integrals(cfg, [name], raw)[name]
        assert folded.converged and whole.converged
        assert folded.value == pytest.approx(whole.value, rel=1e-12)
        assert 4 * folded.evals == whole.evals
        # averaging over photon exchange alone is not enough
        def exchange_only(kix, ksx):
            return 0.5 * (raw.evaluate(kix, ksx, k0) + raw.evaluate(ksx, kix, k0))

        f_wrong = observables._reduced_integrand(cfg, kind, 1, False, exchange_only)
        wrong = integrate_2d(f_wrong, observables._ANGLE_DOMAIN, cfg.quadrature, panels)
        assert abs(wrong.value / whole.value - 1.0) > 1e-6


# ---------------------------------------------------------------- channels


def test_builtin_channels():
    chans = builtin_channels()
    assert set(chans) == {"dipole", "quadrupole", "octupole", "hexadecapole"}
    assert chans["dipole"] is DIPOLE
    assert DIPOLE.parity is Parity.ODD and DIPOLE.ell == 1
    assert QUADRUPOLE.parity is Parity.EVEN and QUADRUPOLE.ell == 2
    assert OCTUPOLE.ell == 3 and HEXADECAPOLE.ell == 4


def test_channel_validation():
    with pytest.raises(DomainError):
        Channel("bad", -1.0, 1, Parity.ODD)
    with pytest.raises(DomainError):
        Channel("bad", 2.0, 0, Parity.ODD)


def test_high_ell_channel_requires_kernel():
    cfg = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=1.0)
    with pytest.raises(KernelError, match="quadrupole"):
        enhancement_ratio(cfg, channel=QUADRUPOLE)


def test_quadrupole_with_even_kernel():
    cfg = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0)
    ch = QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))
    res = enhancement_ratio(cfg, channel=ch)
    assert res.R == pytest.approx(0.4467151790444968, rel=1e-9)  # regression pin
    assert res.channel == "quadrupole"
    assert res.diagnostics["kernel"] == "model_kernel:synthetic_parity_even"


# ---------------------------------------------------------------- kernel tables


def test_kernel_grid_validation():
    with pytest.raises(KernelError):
        TabulatedKernel("k", np.zeros(5))
    with pytest.raises(KernelError):
        TabulatedKernel("k", np.zeros((1, 5)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(KernelError):
        TabulatedKernel("k", bad)


def test_kernel_bilinear_evaluation():
    # 2x2 grid of corner values: bilinear interpolation is exact for any
    # function of the form a + b t_i + c t_s + d t_i t_s
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    kern = TabulatedKernel("corners", values)
    k0 = 10.0
    assert kern.evaluate(-10.0, -10.0, k0) == pytest.approx(1.0)
    assert kern.evaluate(10.0, 10.0, k0) == pytest.approx(4.0)
    assert kern.evaluate(0.0, 0.0, k0) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        kern.evaluate(0.0, 0.0, -1.0)


def test_kernel_roundtrip(tmp_path):
    kern = make_synthetic_kernel(Parity.EVEN, n=7)
    path = str(tmp_path / "even.kern")
    save_kernel(path, kern)
    loaded = load_kernel(path)
    assert np.array_equal(loaded.values, kern.values)  # repr writes survive reload
    assert loaded.name == path
    assert load_kernel(path, name="alias").name == "alias"


def test_kernel_file_errors(tmp_path):
    def write(text):
        p = tmp_path / "bad.kern"
        p.write_text(text)
        return str(p)

    with pytest.raises(KernelError, match="empty"):
        load_kernel(write("# only a comment\n"))
    with pytest.raises(KernelError, match="header"):
        load_kernel(write("table v1 2 2\n0 0\n0 0\n"))
    with pytest.raises(KernelError, match="non-integer"):
        load_kernel(write("kernel v1 two 2\n0 0\n0 0\n"))
    with pytest.raises(KernelError, match="expected 4 values"):
        load_kernel(write("kernel v1 2 2\n0 0\n0\n"))
    with pytest.raises(KernelError, match="malformed"):
        load_kernel(write("kernel v1 2 2\n0 0\n0 oops\n"))


def test_kernel_comments_and_weird_wrapping(tmp_path):
    p = tmp_path / "wrap.kern"
    p.write_text("# free-form comment\nkernel v1 2 2\n1.0 2.0 3.0\n4.0\n")
    loaded = load_kernel(str(p))
    assert np.array_equal(loaded.values, np.array([[1.0, 2.0], [3.0, 4.0]]))


# ---------------------------------------------------------------- synthetic parity


def test_synthetic_kernel_construction():
    odd = make_synthetic_kernel(Parity.ODD)
    even = make_synthetic_kernel(Parity.EVEN)
    assert odd.name == "synthetic_parity_odd"
    assert even.name == "synthetic_parity_even"
    assert odd.values.shape == (101, 101)
    with pytest.raises(KernelError):
        make_synthetic_kernel(Parity.ODD, n=1)


def test_synthetic_odd_kernel_is_exact_product():
    # sin(asin(t)) == t on the grid and t_i * t_s is bilinear, so the
    # interpolant reproduces kix * ksx / k0^2 to rounding everywhere
    odd = make_synthetic_kernel(Parity.ODD)
    rng = np.random.default_rng(53)
    kix = rng.uniform(-K0_DIPOLE, K0_DIPOLE, 300)
    ksx = rng.uniform(-K0_DIPOLE, K0_DIPOLE, 300)
    got = odd.evaluate(kix, ksx, K0_DIPOLE)
    want = (kix / K0_DIPOLE) * (ksx / K0_DIPOLE)
    assert np.max(np.abs(got - want)) < 5e-15


def test_synthetic_even_kernel_peak_and_edges():
    even = make_synthetic_kernel(Parity.EVEN)
    assert even.evaluate(0.0, 0.0, K0_DIPOLE) == pytest.approx(1.0, abs=1e-15)
    assert abs(even.evaluate(K0_DIPOLE, 0.0, K0_DIPOLE)) < 1e-15


PARITY_SPEC = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-9, max_evals=30_000_000)
PER_PHOTON_EVEN = {
    # even under each single-photon reflection kx -> -kx separately
    "gauss_iso": (
        lambda x, y: np.exp(-((x / K0_DIPOLE) ** 2 + (y / K0_DIPOLE) ** 2)),
        572.7867904615579,
    ),
    "cos_prod": (
        lambda x, y: np.cos(0.5 * math.pi * x / K0_DIPOLE)
        * np.cos(0.5 * math.pi * y / K0_DIPOLE),
        464.87061129574215,
    ),
    "quartic": (
        lambda x, y: (1.0 - (x / K0_DIPOLE) ** 2) ** 2
        * (1.0 - (y / K0_DIPOLE) ** 2) ** 2,
        348.66278911850134,
    ),
}


def test_parity_selection_on_per_photon_even_amplitudes():
    # an amplitude even under each photon's own reflection kills the odd
    # kernel's coherent sum outright; the even kernel keeps it finite
    odd = make_synthetic_kernel(Parity.ODD)
    even = make_synthetic_kernel(Parity.EVEN)
    edge = K0_DIPOLE * (1.0 - 1e-12)
    dom = ((-edge, edge), (-edge, edge))
    for name, (g, even_value) in PER_PHOTON_EVEN.items():
        io = integrate_2d(
            lambda x, y: g(x, y) * odd.evaluate(x, y, K0_DIPOLE), dom, PARITY_SPEC, (8, 8)
        )
        ie = integrate_2d(
            lambda x, y: g(x, y) * even.evaluate(x, y, K0_DIPOLE), dom, PARITY_SPEC, (8, 8)
        )
        assert io.converged, name
        assert abs(io.value) < 1e-9, name
        assert ie.converged, name
        assert ie.value == pytest.approx(even_value, rel=1e-4), name


def test_parity_suppression_needs_per_photon_symmetry():
    # exchange symmetry alone is not enough: the physical pump envelope is
    # exchange symmetric yet anticorrelated, and the odd kernel picks up a
    # large negative coherent sum on it
    odd = make_synthetic_kernel(Parity.ODD)
    edge = K0_DIPOLE * (1.0 - 1e-12)
    dom = ((-edge, edge), (-edge, edge))
    pump = lambda x, y: np.exp(-0.5 * (3.0 * (x + y)) ** 2)
    res = integrate_2d(
        lambda x, y: pump(x, y) * odd.evaluate(x, y, K0_DIPOLE), dom, PARITY_SPEC, (64, 64)
    )
    assert res.converged
    assert res.value == pytest.approx(-10.37286051545982, rel=1e-6)
