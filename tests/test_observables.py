"""Normalization, flux, collection factors, enhancement ratio, kernels."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qionize import amplitude, observables, quadrature
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
from qionize.quadrature import (
    ConvergenceError,
    GridShare,
    IntegralResult,
    integrate_1d,
    integrate_2d,
)
from qionize.units import (
    C_UM_PER_S,
    DomainError,
    ExperimentConfig,
    QuadratureSpec,
    Regime,
)

from angle_integrand import SQUARE, angle_terms, square_panels

K0_DIPOLE = 19.020678267107723
INTEGRAL_NAMES = ("I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep")


def _one_term(cfg, kind, power, obliquity, even_kernel):
    """The reduced integrand of one INTEGRALS entry: _reduced_terms with that one term."""
    terms = observables._reduced_terms(
        cfg, ((kind, power, obliquity, even_kernel is not None),), even_kernel
    )
    return lambda sigma, tau: terms(sigma, tau)[0]


def _half_domain(cfg):
    """The sigma pieces and tau's range, as _reduced_integrals integrates them."""
    return observables._phase_edges(cfg), (0.0, 1.0)


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
    assert got.value == pytest.approx(0.8612593623147026, rel=1e-12)  # regression pin
    assert got.factor == FilterFactor(g2=-1)


def test_f_factor_narrowband_leading_order():
    # leading order 8 k0 / (sqrt(pi) w); finite-width corrections stay sub-0.1%
    cfg = ExperimentConfig(pump_waist_um=50.0)
    got = f_factor(AmplitudeKind.SEPARABLE, cfg)
    lead = 8.0 * cfg.k0 / (math.sqrt(math.pi) * 50.0)
    assert got.value == pytest.approx(lead, rel=2e-3)
    assert got.value == pytest.approx(1.7155807154530291, rel=1e-12)  # regression pin
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
    # obliquity stays pi/2, and the ratio settles at pi/4 = 0.7853993 here.
    cfg = ExperimentConfig(pump_waist_um=1.0e4)
    flux = photon_flux(AmplitudeKind.SEPARABLE, cfg)
    c0 = normalization(AmplitudeKind.SEPARABLE, cfg)
    ratio = flux.value * c0.value / (2.0 * C_UM_PER_S)
    assert ratio == pytest.approx(1.0, rel=1e-3)


def test_flux_regime_agreement_narrowband():
    # stated: exact and paraxial fluxes agree within 1% once the narrowband
    # guard is comfortably satisfied. Measured: the ratio is pi/4 + O(1/w)
    # (0.7856229797289185 at w = 50 um) for the same reason as the collinear
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
    # the tensor rule evaluates row blocks, never the whole L = 200 um grid
    calls = []

    def recording_integrate_2d(f, domain, spec=None, initial_panels=(2, 2)):
        def recorded(x, y):
            values = f(x, y)
            calls.append((np.size(values), np.size(y)))
            return values

        return integrate_2d(recorded, domain, spec, initial_panels)

    monkeypatch.setattr(observables, "integrate_2d", recording_integrate_2d)
    cfg = ExperimentConfig(pump_waist_um=100.0, crystal_length_um=200.0)
    res = enhancement_ratio(cfg)
    assert res.converged
    evals = sum(
        res.diagnostics[f"{name}_{kind}"].evals
        for name in ("I1", "I2", "I2w")
        for kind in ("ent", "sep")
    )
    assert sum(n for n, _ in calls) == evals
    # no block is a whole grid: the smallest grid of an entangled integral,
    # its start, spans more than four blocks
    edges = observables._phase_edges(cfg)
    *sigma, tau = observables._start_panels(cfg, edges, AmplitudeKind.ENTANGLED, None)
    start_nodes = 256 * sum(sigma) * tau
    assert max(n for n, _ in calls) < start_nodes // 4
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
    # long crystal. Measured: the relative deviation is 0.2140417028245848 at
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
    # the smallest base grid, a separable one, is 2,048 nodes: every integral
    # is refused before it starts, and the non-strict result carries R = nan
    # like a failed sweep row
    res = enhancement_ratio(cfg, strict=False)
    assert not res.converged
    assert math.isnan(res.R)
    assert math.isnan(res.err_R)
    for name in INTEGRALS:
        assert res.diagnostics[name].evals == 0


def test_ratio_eval_schedule_pin():
    # each integral's evals at the pinned (50, 3) um config, on the half
    # ranges sigma, tau >= 0; a change of panels shows up here. The separable
    # integrands never read L and start at 2 panels per piece.
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0))
    names = ("I1_ent", "I2_ent", "I2w_ent", "I1_sep", "I2_sep", "I2w_sep")
    evals = tuple(res.diagnostics[name].evals for name in names)
    assert evals == (117760, 117760, 117760, 10240, 10240, 10240)


def test_paraxial_eval_schedule_pin():
    # the paraxial 1D route at the same config: both powers start from the
    # sigma panels of the 2D rule and converge in one round, and the other
    # four integrals spend no evals
    cfg = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0, regime=Regime.PARAXIAL)
    res = enhancement_ratio(cfg)
    evals = tuple(res.diagnostics[name].evals for name in INTEGRAL_NAMES)
    assert evals == (1296, 1296, 0, 0, 0, 0)


def test_enhancement_ratio_integrates_in_integrals_order(monkeypatch):
    # one integrate_2d call per integral, in INTEGRALS order, each result
    # filed under its name with its estimate's rounding units added; the
    # benchmark's trace attributes calls this way. A kernel ratio's shares
    # mix kinds (the weighted I1 pair, then the rest), and its calls keep
    # that order
    cfg = ExperimentConfig(pump_waist_um=10.0, crystal_length_um=1.0)
    s = np.linspace(0.1, 6.1, 5)[:, None]
    t = np.linspace(0.1, 0.9, 4)[None, :]
    calls = []

    def recording_integrate_2d(f, domain, spec=None, initial_panels=(2, 2)):
        result = integrate_2d(f, domain, spec, initial_panels)
        calls.append((f(s, t), result))
        return result

    monkeypatch.setattr(observables, "integrate_2d", recording_integrate_2d)
    assert tuple(INTEGRALS) == INTEGRAL_NAMES
    for channel in (DIPOLE, QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))):
        cfg_eff = cfg.replace(channel_energy_ev=channel.transition_energy_ev)
        kernel = observables._even_kernel(channel.kernel, cfg_eff.k0) if channel.kernel else None
        calls.clear()
        res = enhancement_ratio(cfg, channel)
        assert len(calls) == len(INTEGRALS), channel.name
        for (values, result), (name, spec) in zip(calls, INTEGRALS.items()):
            filed = res.diagnostics[name]
            assert (filed.value, filed.evals, filed.method) == (result.value, result.evals,
                                                                result.method), name
            assert result.error_estimate < filed.error_estimate, name
            expected = _one_term(cfg_eff, *spec, kernel if spec[1] == 1 else None)(s, t)
            np.testing.assert_array_equal(values, expected, err_msg=f"{channel.name} {name}")


# the benchmark's ratio panel: five (L, w) points in both regimes with the
# dipole, and a kernel-weighted quadrupole at two points, plus the paraxial
# quadrupole, whose I1 alone of each kind takes the 2D route
_PANEL_POINTS_UM = ((0.01, 1.0), (1.0, 10.0), (1.0, 50.0), (50.0, 3.0), (100.0, 100.0))
_QUADRUPOLE_CASES = ((1.0, 10.0, Regime.EXACT), (50.0, 3.0, Regime.EXACT),
                     (1.0, 10.0, Regime.PARAXIAL))


def _ratio_panel_cases():
    quadrupole = QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))
    cases = [(ExperimentConfig(crystal_length_um=length, pump_waist_um=waist, regime=regime),
              DIPOLE)
             for regime in (Regime.EXACT, Regime.PARAXIAL) for length, waist in _PANEL_POINTS_UM]
    cases += [(ExperimentConfig(crystal_length_um=length, pump_waist_um=waist, regime=regime),
               quadrupole)
              for length, waist, regime in _QUADRUPOLE_CASES]
    return cases


def _bits(result):
    return (result.value.hex(), result.error_estimate.hex(), result.evals, result.converged,
            result.method)


def test_shared_grids_give_the_unshared_results_bit_for_bit(monkeypatch):
    # the integrals of one kind share grid evaluations; each keeps its own
    # schedule, so its value, error, evals, flag and method are those of the
    # integral run alone. A plain lambda around each integrand hides the
    # share, on the 2D and the paraxial 1D routes alike
    shared = [enhancement_ratio(cfg, channel) for cfg, channel in _ratio_panel_cases()]

    def unshared_integrate_2d(f, domain, spec=None, initial_panels=(2, 2)):
        return integrate_2d(lambda x, y: f(x, y), domain, spec, initial_panels)

    def unshared_integrate_1d(f, edges, spec=None, initial_panels=None):
        return integrate_1d(lambda x: f(x), edges, spec, initial_panels)

    monkeypatch.setattr(observables, "integrate_2d", unshared_integrate_2d)
    monkeypatch.setattr(observables, "integrate_1d", unshared_integrate_1d)
    for (cfg, channel), res in zip(_ratio_panel_cases(), shared):
        alone = enhancement_ratio(cfg, channel)
        label = (cfg.crystal_length_um, cfg.pump_waist_um, cfg.regime.value, channel.name)
        assert (res.R.hex(), res.err_R.hex()) == (alone.R.hex(), alone.err_R.hex()), label
        for name in INTEGRALS:
            assert _bits(res.diagnostics[name]) == _bits(alone.diagnostics[name]), (label, name)
        evals = sum(alone.diagnostics[name].evals for name in INTEGRALS)
        # unshared, every node of every rule is evaluated; grid_nodes files
        # a share's nodes under its one kind, or under "shared"
        assert sum(alone.diagnostics["grid_nodes"].values()) == evals, label
        assert sum(res.diagnostics["grid_nodes"].values()) <= evals, label


def test_grid_nodes_count_the_shared_evaluations():
    # at L = w = 100 um the three refinements of each kind revisit each
    # other's grids; at (50, 3) um the counts are pinned: each kind's
    # grids are those of its largest schedule (see test_ratio_eval_schedule_pin)
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=100.0, crystal_length_um=100.0))
    for kind in ("entangled", "separable"):
        evals = sum(res.diagnostics[name].evals for name, spec in INTEGRALS.items()
                    if spec[0].value == kind)
        assert res.diagnostics["grid_nodes"][kind] < evals, kind
    pinned = enhancement_ratio(ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0))
    assert pinned.diagnostics["grid_nodes"] == {"entangled": 117760, "separable": 10240,
                                                "shared": 0}
    # paraxial I1_ent and I2_ent share one sigma grid: at (50, 3) um both
    # take 1296 evals, at (15, 10) um 528 and 1232; the closed forms none
    paraxial = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0, regime=Regime.PARAXIAL)
    assert enhancement_ratio(paraxial).diagnostics["grid_nodes"] == {"entangled": 1296,
                                                                     "separable": 0, "shared": 0}
    longer = paraxial.replace(pump_waist_um=10.0, crystal_length_um=15.0)
    assert enhancement_ratio(longer).diagnostics["grid_nodes"]["entangled"] == 1232
    # the larger schedule's grids contain the smaller's
    for cfg, channel in _ratio_panel_cases():
        if cfg.regime is Regime.PARAXIAL and channel.kernel is None:
            res = enhancement_ratio(cfg, channel)
            evals = (res.diagnostics["I1_ent"].evals, res.diagnostics["I2_ent"].evals)
            assert res.diagnostics["grid_nodes"]["entangled"] == max(evals), cfg


def test_short_crystal_integrals_share_one_grid():
    # at (1, 10) um each sigma piece's phase fits in one 40-radian panel,
    # so the six exact integrals of both kinds start alike, share one
    # GridShare and converge on the same grids: 10240 nodes in all
    res = enhancement_ratio(ExperimentConfig(pump_waist_um=10.0, crystal_length_um=1.0))
    assert tuple(res.diagnostics[name].evals for name in INTEGRALS) == (10240,) * 6
    assert res.diagnostics["grid_nodes"] == {"entangled": 0, "separable": 0, "shared": 10240}


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
def test_a_kernel_changes_only_the_integrals_it_weights(regime):
    # a kernel channel and a kernel-free one of the same transition energy:
    # I2 and I2w of both kinds start from the same panels and come out
    # bit for bit alike, evals included
    quadrupole = QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))
    plain = Channel("plain", QUADRUPOLE.transition_energy_ev, 1, Parity.ODD)
    for length, waist in ((1.0, 10.0), (50.0, 3.0)):
        cfg = ExperimentConfig(crystal_length_um=length, pump_waist_um=waist, regime=regime)
        weighted, unweighted = (enhancement_ratio(cfg, c).diagnostics for c in (quadrupole, plain))
        for name in ("I2_ent", "I2w_ent", "I2_sep", "I2w_sep"):
            assert _bits(weighted[name]) == _bits(unweighted[name]), (length, waist, name)
        assert weighted["I1_ent"].evals > unweighted["I1_ent"].evals, (length, waist)


def test_shared_grids_see_only_cache_sized_blocks(monkeypatch):
    # the shared vector integrand is evaluated on the same blocks as a
    # single integral's, never on the whole grid: in 2D row blocks of the
    # L = 100 um grid, in 1D runs of the paraxial L = 1e4 um sigma grid
    calls = []

    class RecordingShare(quadrature.GridShare):
        def __init__(self, f):
            def recorded(*nodes):
                parts = f(*nodes)
                assert len({np.shape(part) for part in parts}) == 1
                calls.append((np.size(parts[0]), np.size(nodes[-1]) if len(nodes) == 2 else 1))
                return parts

            super().__init__(recorded)

    monkeypatch.setattr(observables, "GridShare", RecordingShare)
    for cfg in (ExperimentConfig(pump_waist_um=100.0, crystal_length_um=100.0),
                ExperimentConfig(pump_waist_um=10.0, crystal_length_um=1e4,
                                 regime=Regime.PARAXIAL)):
        calls.clear()
        res = enhancement_ratio(cfg)
        assert res.converged
        nodes = sum(res.diagnostics["grid_nodes"].values())
        assert nodes > quadrature.BLOCK_NODES
        assert sum(n for n, _ in calls) == nodes
        for n, ny in calls:
            assert n <= max(quadrature.BLOCK_NODES, ny)


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
    assert enhancement_ratio(cfg).R.hex() == "0x1.21f9b44203020p-1"
    for waist in (1e156, 1e163, 4e163):
        with pytest.raises(DomainError, match="pump_waist_um"):
            enhancement_ratio(cfg.replace(pump_waist_um=waist))
    values = dict.fromkeys(INTEGRALS, 1.0)
    for name in ("I1_ent", "I1_sep"):
        for tiny in (1e-155, 0.0):
            with pytest.raises(DomainError, match="pump_waist_um"):
                ratio_from_integrals({**values, name: tiny})


# the benchmark panel, then points where an earlier rule, which evaluated the
# angle map's quadrant at four times the weight on the panels of the square,
# understated an error (31.6 is the fig2a waist 10^1.5)
COVERAGE_POINTS_UM = (
    (0.01, 1.0), (1.0, 10.0), (1.0, 50.0), (50.0, 3.0), (100.0, 100.0),
    (0.01, 10.0), (0.1, 10.0), (0.1, 10**1.5), (0.1, 100.0), (1.0, 10**1.5), (10.0, 10.0),
    (100.0, 10.0),
)


@pytest.mark.parametrize("length, waist", COVERAGE_POINTS_UM)
def test_exact_error_estimates_cover_the_true_error(length, waist):
    # each exact dipole integral in (sigma, tau) against a second
    # formulation, the angle-map integrand over the whole square |s|, |t| <
    # pi/2 at rel_tol 1e-12, which assumes no evenness
    cfg = ExperimentConfig(crystal_length_um=length, pump_waist_um=waist)
    res = enhancement_ratio(cfg)
    tight = QuadratureSpec(rel_tol=1e-12)
    for name, (kind, power, obliquity) in INTEGRALS.items():
        got = res.diagnostics[name]
        terms = angle_terms(cfg, kind, ((power, obliquity, False),))
        ref = integrate_2d(lambda s, t: terms(s, t)[0], SQUARE, tight, square_panels(cfg))
        assert ref.converged, name
        error = abs(got.value - ref.value)
        assert error <= got.error_estimate, (name, error, got.error_estimate)


# points the angle map refused at the default max_evals, with R from an
# independent sigma route (a 1D integral over sigma, a fixed inner rule in
# u), as ROADMAP's table lists them
CORNER_R = {(100.0, 0.3): 0.1897, (300.0, 1.0): 0.1355, (100.0, 0.2): 0.1971,
            (1000.0, 1.0): 0.1003}


@pytest.mark.parametrize("length, waist", sorted(CORNER_R))
def test_tight_waist_corner_converges(length, waist):
    res = enhancement_ratio(ExperimentConfig(crystal_length_um=length, pump_waist_um=waist))
    assert res.converged
    assert res.R == pytest.approx(CORNER_R[length, waist], rel=5e-4)


def test_tight_waist_ratio_matches_the_angle_map():
    # at (100, 0.5) um, where the angle map computes on 5.7 M shared nodes,
    # its R lies within the sigma route's err_R
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=0.5)
    res = enhancement_ratio(cfg)
    quadrant = ((0.0, 0.5 * math.pi), (0.0, 0.5 * math.pi))
    n_s, n_t = square_panels(cfg)
    values = {}
    for kind in AmplitudeKind:
        names = [name for name, spec in INTEGRALS.items() if spec[0] is kind]
        terms = [(power, obliquity, False) for _, power, obliquity in
                 (INTEGRALS[name] for name in names)]
        share = GridShare(angle_terms(cfg, kind, terms))
        for i, name in enumerate(names):
            # the integrand is even in s and t: four times its quadrant
            result = integrate_2d(share.component(i), quadrant, cfg.quadrature,
                                  (math.ceil(n_s / 2), math.ceil(n_t / 2)))
            assert result.converged, name
            values[name] = 4.0 * result.value
    angle_r = ratio_from_integrals(values)[0].value
    assert abs(res.R - angle_r) <= res.err_R, (res.R, angle_r, res.err_R)


# ---------------------------------------------------------------- paraxial routes

# the benchmark panel, then waists where a 1 / w or a w^2 leaves double range
PARAXIAL_CHECK_POINTS_UM = (
    (0.01, 1.0), (1.0, 10.0), (1.0, 50.0), (50.0, 3.0), (100.0, 100.0),
    (1.0, 5e-324), (1.0, 1e-3), (1.0, 1e150),
)
PARAXIAL_METHODS = {"I1_ent": "gauss_1d", "I2_ent": "gauss_1d", "I2w_ent": "twice_I2",
                    "I1_sep": "closed_form", "I2_sep": "closed_form", "I2w_sep": "twice_I2"}


def _ratio_by_2d_quadrature(cfg):
    """Paraxial R and err_R from integrate_2d of the reduced integrand.

    I1 and I2 of each kind are 2D integrals; I2w is the paraxial obliquity
    times its own 2D I2, value and error estimate.
    """
    edges = observables._phase_edges(cfg)
    w = observables.CONVENTIONS["obliquity_paraxial"]
    results = {}
    for name, (kind, power, obliquity) in INTEGRALS.items():
        if obliquity:
            i2 = results[name.replace("I2w", "I2")]
            results[name] = IntegralResult(w * i2.value, w * i2.error_estimate, 0, i2.converged,
                                           i2.method)
        else:
            results[name] = integrate_2d(_one_term(cfg, kind, power, False, None),
                                         _half_domain(cfg), cfg.quadrature,
                                         observables._start_panels(cfg, edges, kind, None))
    assert all(result.converged for result in results.values())
    ratio, _ = ratio_from_integrals({name: result.value for name, result in results.items()})
    rel = sum(weight * observables._relative_error(results[name])
              for name, weight in observables._ERR_R_WEIGHTS.items())
    return ratio.value, abs(ratio.value) * rel


@pytest.mark.parametrize("length, waist", PARAXIAL_CHECK_POINTS_UM)
def test_paraxial_routes_match_the_2d_quadrature(length, waist):
    cfg = ExperimentConfig(crystal_length_um=length, pump_waist_um=waist, regime=Regime.PARAXIAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = enhancement_ratio(cfg)
    assert res.converged
    assert {name: res.diagnostics[name].method for name in INTEGRALS} == PARAXIAL_METHODS
    for label in ("ent", "sep"):
        i2, i2w = (res.diagnostics[f"{prefix}_{label}"] for prefix in ("I2", "I2w"))
        assert (i2w.value, i2w.error_estimate) == (2.0 * i2.value, 2.0 * i2.error_estimate)
    r_2d, err_2d = _ratio_by_2d_quadrature(cfg)
    assert abs(res.R - r_2d) <= res.err_R + err_2d, (res.R, r_2d, res.err_R, err_2d)


def test_paraxial_obliquity_integrals_follow_their_norms():
    # I2w = 2 I2 needs I2, even where only I2w is asked for; a refused I2
    # refuses I2w, and a ratio of refused entangled integrals says so
    cfg = ExperimentConfig(crystal_length_um=1.0, pump_waist_um=10.0, regime=Regime.PARAXIAL)
    alone = observables._reduced_integrals(cfg, ("I2w_ent",))
    assert list(alone) == ["I2w_ent"]
    assert alone["I2w_ent"].value == 2.0 * observables._reduced_integrals(cfg, ("I2_ent",))[
        "I2_ent"].value
    refused = enhancement_ratio(cfg.replace(crystal_length_um=1e300), strict=False)
    for name in ("I1_ent", "I2_ent", "I2w_ent"):
        result = refused.diagnostics[name]
        assert (result.error_estimate, result.evals, result.converged) == (math.inf, 0, False)
    assert all(refused.diagnostics[name].converged for name in ("I1_sep", "I2_sep", "I2w_sep"))
    with pytest.raises(ConvergenceError, match="I1_ent, I2_ent, I2w_ent refused at evals=0"):
        enhancement_ratio(cfg.replace(crystal_length_um=1e300))


def test_paraxial_integrals_below_rounding_fail_without_being_refused():
    # a tolerance below double rounding: the 1D routes run and fail, the
    # closed forms and I2w = 2 I2 fail with no evals of their own, and
    # none of them is reported as refused by the budget
    cfg = ExperimentConfig(
        crystal_length_um=1.0, pump_waist_um=10.0, regime=Regime.PARAXIAL,
        quadrature=QuadratureSpec(rel_tol=1e-17, abs_tol=0.0, max_evals=5000),
    )
    res = enhancement_ratio(cfg, strict=False)
    assert not any(res.diagnostics[name].converged for name in INTEGRALS)
    assert all(res.diagnostics[name].evals > 0 for name in ("I1_ent", "I2_ent"))
    with pytest.raises(ConvergenceError, match="^integrals I1_ent, I2_ent, I2w_ent, I1_sep, "
                       "I2_sep, I2w_sep did not converge \\[") as info:
        enhancement_ratio(cfg)
    assert "refused" not in str(info.value)


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
def test_separable_integrals_ignore_crystal_length(regime):
    # |F_sep|^2 never reads L: its integrals, quadrature schedule included,
    # are the same at any length
    names = ("I1_sep", "I2_sep", "I2w_sep")
    short, long = (
        observables._reduced_integrals(
            ExperimentConfig(crystal_length_um=length, regime=regime), names)
        for length in (1.0, 3000.0)
    )
    assert all(result.converged for result in short.values())
    assert short == long


# ---------------------------------------------------------------- half ranges

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


def _integrand_cases(regime):
    # (power, obliquity) of each kind's integrals in INTEGRALS order; the
    # paraxial regime forms no obliquity term, since its I2w is twice I2
    cases = ((1, False), (2, False), (2, True))
    return cases if regime is Regime.EXACT else cases[:2]


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_reduced_integrand_is_even_in_s_and_t(kind, regime):
    # the premise of the half ranges, on the integrand's axes s = sigma and
    # t = tau: sigma -> -sigma exchanges the photons and tau -> -tau maps
    # (kix, ksx) to (-ksx, -kix); neither changes the integrand
    rng = np.random.default_rng(7)
    cfg = ExperimentConfig(crystal_length_um=20.0, pump_waist_um=1.0, regime=regime)
    top = observables._phase_edges(cfg)[-1]
    s = rng.uniform(-top, top, size=(40, 1))
    t = rng.uniform(-1.0, 1.0, size=(1, 30))
    for power in (1, 2):
        for obliquity in (False, True) if regime is Regime.EXACT else (False,):
            f = _one_term(cfg, kind, power, obliquity, None)
            base = f(s, t)
            assert np.ptp(base) > 0.0
            for mirrored in (f(-s, t), f(s, -t)):
                np.testing.assert_allclose(mirrored, base, rtol=1e-13, atol=0.0)


_BLOCK = (682, 24)  # one full row block of an L = 100 um grid, 16368 nodes


def _block_nodes(rng, cfg, piece=-1):
    # sigma over [0, edges[piece]] of cfg's half range: by default across
    # both pieces, with piece=1 the interior one, where u is one row
    top = observables._phase_edges(cfg)[piece]
    s = np.sort(rng.uniform(0.0, top, size=(_BLOCK[0], 1)), axis=0)
    t = np.sort(rng.uniform(0.0, 1.0, size=(1, _BLOCK[1])), axis=1)
    return s, t


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_reduced_integrand_block_call_allocates_little(kind, regime):
    # the integrand works in buffers it keeps between calls: a warm call
    # allocates its result and small per-row and per-column arrays only
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    s, t = _block_nodes(np.random.default_rng(5), cfg)
    block_bytes = 8 * _BLOCK[0] * _BLOCK[1]
    for power, obliquity in _integrand_cases(regime):
        f = _one_term(cfg, kind, power, obliquity, None)
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
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    first_nodes, second_nodes = _block_nodes(rng, cfg), _block_nodes(rng, cfg)
    for power, obliquity in _integrand_cases(regime):
        f = _one_term(cfg, kind, power, obliquity, None)
        first = f(*first_nodes)
        kept = first.copy()
        second = f(*second_nodes)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(f(*first_nodes), kept)
        assert not np.array_equal(second, kept)


# a square table, averaged into one table, and a non-square one, whose
# transpose lies on another grid and is exchanged on the fly
_KERNEL_TABLES = {
    "square": make_synthetic_kernel(Parity.EVEN),
    "non-square": TabulatedKernel("random", np.random.default_rng(11).normal(size=(33, 17))),
}


@pytest.mark.parametrize("table", sorted(_KERNEL_TABLES))
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_kernel_weighted_block_call_allocates_little(kind, table):
    # the averaged kernel interpolates into workspace rows: a warm
    # kernel-weighted call allocates its result and small per-row arrays only
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0)
    s, t = _block_nodes(np.random.default_rng(5), cfg)
    block_bytes = 8 * _BLOCK[0] * _BLOCK[1]
    even_kernel = observables._even_kernel(_KERNEL_TABLES[table], cfg.k0)
    f = _one_term(cfg, kind, 1, False, even_kernel)
    f(s, t)
    tracemalloc.start()
    try:
        values = f(s, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == _BLOCK
    assert peak <= 2 * block_bytes, peak / block_bytes


def _group_terms(kind, regime):
    # the terms of kind in INTEGRALS order, the coherent one weighted by a
    # kernel or not
    terms = tuple((kind, power, obliquity, False) for power, obliquity in _integrand_cases(regime))
    return terms, ((kind, 1, False, True),) + terms[1:]


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_group_integrand_terms_equal_the_one_term_integrands(kind, regime):
    # each term of the group is formed in the one-term operation order: bit for bit
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    s, t = _block_nodes(np.random.default_rng(12), cfg)
    even_kernel = observables._even_kernel(_KERNEL_TABLES["non-square"], cfg.k0)
    for terms in _group_terms(kind, regime):
        parts = observables._reduced_terms(cfg, terms, even_kernel)(s, t)
        assert len(parts) == len(terms)
        for part, (_, power, obliquity, weighted) in zip(parts, terms):
            alone = _one_term(cfg, kind, power, obliquity, even_kernel if weighted else None)(s, t)
            assert np.array_equal(part.view(np.int64), alone.view(np.int64)), (power, obliquity)


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_group_block_call_allocates_little(kind, regime):
    # a warm group call allocates one result per term and small per-row and
    # per-column arrays; the terms' other factors live in workspace rows
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    s, t = _block_nodes(np.random.default_rng(5), cfg)
    block_bytes = 8 * _BLOCK[0] * _BLOCK[1]
    even_kernel = observables._even_kernel(_KERNEL_TABLES["non-square"], cfg.k0)
    for terms in _group_terms(kind, regime):
        f = observables._reduced_terms(cfg, terms, even_kernel)
        f(s, t)
        tracemalloc.start()
        try:
            parts = f(s, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [part.shape for part in parts] == [_BLOCK] * len(terms)
        assert peak <= (len(terms) + 1) * block_bytes, (terms, peak / block_bytes)


def _per_node_integrand(cfg, kind, power, obliquity, even_kernel, sigma, tau):
    # the reduced integrand as one whole-array expression per node, in
    # _reduced_terms' operation order; the paraxial mismatch in its
    # three-term form kix^2/(2 k0) + ksx^2/(2 k0) - (kix + ksx)^2/(4 k0)
    k0, length = cfg.k0, cfg.crystal_length_um
    paraxial = cfg.regime is Regime.PARAXIAL
    umax = observables._umax(cfg)
    square = sigma**2
    if paraxial:
        v = 2.0 * math.sqrt(k0) * sigma
        h = np.minimum(umax, 2.0 * k0 - np.abs(v))
        u = h * tau
        jac = h * (4.0 * math.sqrt(k0)) + 0.0 * u
    else:
        fourth = square**2
        edge = ((2.0 * k0 - square) * (2.0 * k0 + square)) ** 2 / (
            2.0 * (k0 * (4.0 * k0 * k0 + fourth) + fourth * np.sqrt(8.0 * k0 * k0 - fourth)))
        h = np.minimum(umax, edge)
        u = h * tau
        s_root = np.sqrt(4.0 * k0 * k0 - u**2)
        t_sum = s_root - square
        r = np.sqrt(t_sum + s_root)
        q_sq = t_sum**2 + u**2
        q = np.sqrt(q_sq)
        jac = ((t_sum**2 / r - r * square * u**2 / q_sq) * (4.0 * h)) / q
        v = t_sum * sigma * r / q
        w = t_sum / k0
    kix = (u + v) * 0.5
    ksx = (u - v) * 0.5
    value = np.exp((u * cfg.pump_waist_um) ** 2 * -0.5) + 0.0 * jac
    if kind is AmplitudeKind.ENTANGLED:
        if paraxial:
            mismatch = kix**2 / (2.0 * k0) + ksx**2 / (2.0 * k0) - (kix + ksx) ** 2 / (4.0 * k0)
        else:
            mismatch = square
        value = value * amplitude.sinc(mismatch * (0.5 * length))
    if power == 2:
        value = value * value
    if obliquity:
        value = value * w
    if even_kernel is not None:
        value = value * even_kernel(kix, ksx)
    return value * jac


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
@pytest.mark.parametrize("kind", [AmplitudeKind.ENTANGLED, AmplitudeKind.SEPARABLE])
def test_reduced_integrand_matches_the_per_node_formula(kind, regime):
    # factors computed on their own axes give the per-node values: the exact
    # regime bit for bit, the paraxial one within 1e-14 of the block's
    # largest value (near a zero of the sinc the three-term mismatch itself
    # loses more than that to cancellation). A block across both sigma
    # pieces, and one of the interior piece, whose u is one row
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    rng = np.random.default_rng(8)
    blocks = (_block_nodes(rng, cfg), _block_nodes(rng, cfg, 1))
    even_kernel = observables._even_kernel(_KERNEL_TABLES["non-square"], cfg.k0)
    cases = [(power, obliquity, None) for power, obliquity in _integrand_cases(regime)]
    cases.append((1, False, even_kernel))
    for (s, t), (power, obliquity, kernel) in itertools.product(blocks, cases):
        # nan in every workspace row: a value read before this call wrote it
        # would show, rather than a stale one from an earlier call
        observables._WORKSPACE.rows(_BLOCK, 0, 1)
        observables._WORKSPACE.slab.fill(np.nan)
        got = _one_term(cfg, kind, power, obliquity, kernel)(s, t)
        want = _per_node_integrand(cfg, kind, power, obliquity, kernel, s, t)
        label = (power, obliquity, kernel is not None, s.max())
        if regime is Regime.EXACT:
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), label
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), label


def test_phase_matching_map_identities():
    # at random interior nodes (sigma, tau) of the exact map, read through a
    # kernel that records (kix, ksx): sigma^2 is the exact mismatch there,
    # the obliquity T / k0 has T = kiz + ksz, and the weighted term over the
    # pump envelope, 2 h dv/dsigma, has dv/dsigma = 4 sigma kiz ksz / (kix ksz
    # - ksx kiz), each to 1e-12 of the largest value
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=0.3)
    k0 = cfg.k0
    rng = np.random.default_rng(30)
    sigma = rng.uniform(0.05, observables._phase_edges(cfg)[-1] - 0.05, size=(200, 1))
    tau = rng.uniform(-0.95, 0.95, size=(200, 1))
    nodes = {}

    def record(kix, ksx):
        nodes["kx"] = kix.copy(), ksx.copy()
        return np.ones_like(kix)

    terms = ((AmplitudeKind.SEPARABLE, 1, True, False), (AmplitudeKind.SEPARABLE, 1, False, True))
    oblique, weighted = observables._reduced_terms(cfg, terms, record)(sigma, tau)
    jac = weighted / np.exp(-0.5 * (nodes["kx"][0] + nodes["kx"][1]) ** 2 * cfg.pump_waist_um**2)
    kix, ksx = nodes["kx"]
    kiz, ksz = np.sqrt(k0**2 - kix**2), np.sqrt(k0**2 - ksx**2)
    h = np.abs(kix + ksx) / np.abs(tau)
    dv = 4.0 * sigma * kiz * ksz / (kix * ksz - ksx * kiz)
    for got, want in ((sigma**2, amplitude.delta_kz_exact(kix, ksx, k0)),
                      (oblique / weighted * k0, kiz + ksz), (jac / (2.0 * h), dv)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("regime", [Regime.EXACT, Regime.PARAXIAL])
def test_chord_ends_on_the_rhombus_edge_or_the_pump_cut(regime):
    # at tau = 1, read through a kernel that records (kix, ksx), every node
    # below sigma_band lies on the pump cut |u| = umax and every node above
    # on the rhombus edge |u| + |v| = 2 k0, each to 1e-12; the chord reaches
    # umax at sigma_band, the kink of _phase_edges
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=0.3, regime=regime)
    k0, umax = cfg.k0, observables._umax(cfg)
    _, band, top = observables._phase_edges(cfg)
    sigma = np.sort(np.random.default_rng(31).uniform(0.0, top, size=(200, 1)), axis=0)
    nodes = {}

    def record(kix, ksx):
        nodes["kx"] = kix.copy(), ksx.copy()
        return np.ones_like(kix)

    observables._reduced_terms(cfg, ((AmplitudeKind.SEPARABLE, 1, False, True),), record)(
        sigma, np.ones((1, 1)))
    kix, ksx = nodes["kx"]
    u, v = np.abs(kix + ksx), np.abs(kix - ksx)
    inner = sigma < band
    assert inner.any() and not inner.all()
    assert np.abs(u[inner] - umax).max() <= 1e-12 * umax
    assert np.abs(u[~inner] + v[~inner] - 2.0 * k0).max() <= 1e-12 * 2.0 * k0
    assert observables._chord(cfg)(np.array(band)) == pytest.approx(umax, rel=1e-12, abs=0.0)


def _sinc_shapes(regime, with_kernel, monkeypatch):
    # the shapes the sinc sees in one block call of each entangled term
    shapes = []
    sinc = amplitude.sinc

    def recording_sinc(x, out=None):
        shapes.append(np.shape(x))
        return sinc(x, out)

    monkeypatch.setattr(amplitude, "sinc", recording_sinc)
    cfg = ExperimentConfig(crystal_length_um=100.0, pump_waist_um=100.0, regime=regime)
    s, t = _block_nodes(np.random.default_rng(9), cfg)
    even_kernel = observables._even_kernel(_KERNEL_TABLES["square"], cfg.k0) if with_kernel else None
    for power, obliquity in _integrand_cases(regime):
        shapes.clear()
        f = _one_term(
            cfg, AmplitudeKind.ENTANGLED, power, obliquity, even_kernel if power == 1 else None
        )
        assert f(s, t).shape == _BLOCK
        yield (power, obliquity), list(shapes)


@pytest.mark.parametrize("with_kernel", [False, True])
def test_paraxial_phase_matching_is_evaluated_once_per_row(with_kernel, monkeypatch):
    # the mismatch sigma^2 depends on the row coordinate alone: the sinc
    # sees one column per block, never the block
    for label, shapes in _sinc_shapes(Regime.PARAXIAL, with_kernel, monkeypatch):
        assert shapes == [(_BLOCK[0], 1)], label


@pytest.mark.parametrize("with_kernel", [False, True])
def test_exact_phase_matching_is_evaluated_once_per_row(with_kernel, monkeypatch):
    # in the exact regime too, the mismatch is sigma^2
    for label, shapes in _sinc_shapes(Regime.EXACT, with_kernel, monkeypatch):
        assert shapes == [(_BLOCK[0], 1)], label


def _whole_domain(cfg):
    # sigma's pieces mirrored to [-sigma_top, sigma_top], and tau over [-1, 1]
    edges = observables._phase_edges(cfg)
    return tuple(-x for x in edges[:0:-1]) + edges, (-1.0, 1.0)


@pytest.mark.parametrize("shape", [(7, 7), (7, 4)])
def test_even_kernel_keeps_the_coherent_integral(shape):
    # an asymmetric kernel, averaged over both reflections and integrated on
    # the half ranges, gives a quarter of the raw kernel's integrand over the
    # whole ranges of sigma and tau; a loose tolerance keeps the kinked
    # bilinear kernel cheap to converge
    rng = np.random.default_rng(20261018)
    raw = TabulatedKernel("random", rng.normal(size=shape))
    cfg = ExperimentConfig(
        crystal_length_um=1.0, pump_waist_um=1.0, quadrature=QuadratureSpec(rel_tol=1e-4)
    )
    k0 = cfg.k0
    edges = observables._phase_edges(cfg)
    for kind, name in ((AmplitudeKind.ENTANGLED, "I1_ent"), (AmplitudeKind.SEPARABLE, "I1_sep")):
        *sigma, tau = observables._start_panels(cfg, edges, kind, raw)
        # the whole ranges' panels as wide as the half ranges'
        whole_panels = (*sigma[::-1], *sigma, 2 * tau)
        f_raw = _one_term(cfg, kind, 1, False, lambda kix, ksx: raw.evaluate(kix, ksx, k0))
        whole = integrate_2d(f_raw, _whole_domain(cfg), cfg.quadrature, whole_panels)
        half = observables._reduced_integrals(cfg, [name], raw)[name]
        assert half.converged and whole.converged
        assert half.value == pytest.approx(0.25 * whole.value, rel=1e-12)
        assert 4 * half.evals == whole.evals
        # averaging over photon exchange alone is not enough
        def exchange_only(kix, ksx):
            return 0.5 * (raw.evaluate(kix, ksx, k0) + raw.evaluate(ksx, kix, k0))

        f_wrong = _one_term(cfg, kind, 1, False, exchange_only)
        wrong = integrate_2d(f_wrong, _half_domain(cfg), cfg.quadrature, (*sigma, tau))
        assert abs(wrong.value / (0.25 * whole.value) - 1.0) > 1e-6


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


def test_kernel_channels_compare_and_hash_by_value():
    a = QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))
    b = QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))
    assert a == b and hash(a) == hash(b)
    assert {a: "cached"}[b] == "cached"
    assert a != QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.ODD))
    assert a != QUADRUPOLE
    zero = TabulatedKernel("k", np.array([[0.0, 1.0], [2.0, 3.0]]))
    negative_zero = TabulatedKernel("k", np.array([[-0.0, 1.0], [2.0, 3.0]]))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    assert zero != TabulatedKernel("other", zero.values)
    assert zero != TabulatedKernel("k", np.zeros((2, 3)))


def test_high_ell_channel_requires_kernel():
    cfg = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=1.0)
    with pytest.raises(KernelError, match="quadrupole"):
        enhancement_ratio(cfg, channel=QUADRUPOLE)


def test_quadrupole_with_even_kernel():
    cfg = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0)
    ch = QUADRUPOLE.with_kernel(make_synthetic_kernel(Parity.EVEN))
    res = enhancement_ratio(cfg, channel=ch)
    assert res.R == pytest.approx(0.44671512587419054, rel=1e-9)  # regression pin
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


def _bilinear_formula(values, kix, ksx, k0):
    # the earlier whole-array expression of TabulatedKernel.evaluate
    ti = np.clip(np.asarray(kix, dtype=float) / k0, -1.0, 1.0)
    ts = np.clip(np.asarray(ksx, dtype=float) / k0, -1.0, 1.0)
    ni, ns = values.shape
    pos_i = (ti + 1.0) * 0.5 * (ni - 1)
    pos_s = (ts + 1.0) * 0.5 * (ns - 1)
    idx_i = np.clip(pos_i.astype(int), 0, ni - 2)
    idx_s = np.clip(pos_s.astype(int), 0, ns - 2)
    fi = pos_i - idx_i
    fs = pos_s - idx_s
    return (
        values[idx_i, idx_s] * (1 - fi) * (1 - fs)
        + values[idx_i + 1, idx_s] * fi * (1 - fs)
        + values[idx_i, idx_s + 1] * (1 - fi) * fs
        + values[idx_i + 1, idx_s + 1] * fi * fs
    )


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _averaged_evaluate(kern, kix, ksx, k0):
    # the averaged table's evaluate, as _even_kernel documents it: one
    # table for a square grid, exchange on the fly for a non-square one
    v = kern.values + kern.values[::-1, ::-1]
    if v.shape[0] == v.shape[1]:
        return TabulatedKernel(kern.name, 0.25 * (v + v.T)).evaluate(kix, ksx, k0)
    half = TabulatedKernel(kern.name, 0.5 * v)
    return (half.evaluate(kix, ksx, k0) + half.evaluate(ksx, kix, k0)) * 0.5


@pytest.mark.parametrize("shape", [(101, 101), (33, 17)])
def test_kernel_evaluate_bit_identical_to_array_formula(shape):
    rng = np.random.default_rng(2026)
    kern = TabulatedKernel("random", rng.normal(size=shape))
    k0 = K0_DIPOLE
    n = 10**5
    # past the kinematic edge too, where the normalized coordinate is clipped
    kix = rng.uniform(-1.2 * k0, 1.2 * k0, n)
    ksx = rng.uniform(-1.2 * k0, 1.2 * k0, n)
    # the clip edges t = +-1 exactly, in every combination, and the centre
    kix[:5] = (k0, k0, -k0, -k0, 0.0)
    ksx[:5] = (k0, -k0, k0, -k0, 0.0)
    want = _bilinear_formula(kern.values, kix, ksx, k0)
    assert _same_bits(kern.evaluate(kix, ksx, k0), want)
    # the averaged kernel interpolates into workspace rows with the same
    # bits as the averaged table's evaluate; its result is a workspace view
    even = observables._even_kernel(kern, k0)
    assert _same_bits(even(kix, ksx), _averaged_evaluate(kern, kix, ksx, k0))
    # broadcast 2-D input
    col, row = kix[:300, None], ksx[None, :200]
    want = _bilinear_formula(kern.values, col, row, k0)
    assert _same_bits(kern.evaluate(col, row, k0), want)
    assert _same_bits(even(col, row), _averaged_evaluate(kern, col, row, k0))
    # a scalar pair gives a float; 0-d arrays give a 0-d array of the averaged kernel
    for a, b in ((0.3 * k0, -0.7 * k0), (k0, -k0), (2.0 * k0, 0.0)):
        want = _bilinear_formula(kern.values, a, b, k0)
        got = kern.evaluate(a, b, k0)
        assert isinstance(got, float)
        assert _same_bits(got, want)
        got = even(np.array(a), np.array(b))
        assert got.shape == ()
        assert _same_bits(got, _averaged_evaluate(kern, a, b, k0))


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
    # sizes below 2 are refused at the header, with the path and the header line
    for header in ("kernel v1 -2 -2", "kernel v1 -1 4", "kernel v1 1 2"):
        path = write(header + "\n0 0\n0 0\n")
        with pytest.raises(KernelError, match="at least 2x2") as info:
            load_kernel(path)
        assert path in str(info.value) and repr(header) in str(info.value)
    # a file that is not UTF-8, and a table holding nan, are refused with the path
    path = write("kernel v1 2 2\n0 nan\n0 0\n")
    with pytest.raises(KernelError, match="non-finite") as info:
        load_kernel(path)
    assert path in str(info.value)
    (tmp_path / "bad.kern").write_bytes(b"\xffkernel v1 2 2\n0 0\n0 0\n")
    with pytest.raises(KernelError, match="not UTF-8") as info:
        load_kernel(path)
    assert path in str(info.value)


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
