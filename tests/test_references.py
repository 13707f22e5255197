"""mpmath references for the integrals that leave 2D quadrature (needs mpmath).

Each reference evaluates the same 1D form as the package, at 20 digits and
on subintervals between the zeros of the phase-matching sinc, so it is
independent of the package's panels, doubling and rounding. The 1D forms of
the separable integrals also check the exact regime's 2D quadratures of them.
"""

import pytest

mp = pytest.importorskip("mpmath")

from qionize import observables  # noqa: E402
from qionize.units import ExperimentConfig, Regime  # noqa: E402

# (L, w) in um: a short, a middle and a long crystal of the benchmark panel
ORACLE_POINTS_UM = ((0.01, 1.0), (1.0, 50.0), (100.0, 100.0))
# the whole benchmark panel and a tight-waist point
EXACT_POINTS_UM = (
    (0.01, 1.0), (1.0, 10.0), (1.0, 50.0), (50.0, 3.0), (100.0, 100.0), (100.0, 0.5),
)
DIGITS = 20


def _paraxial(length, waist):
    return ExperimentConfig(crystal_length_um=length, pump_waist_um=waist, regime=Regime.PARAXIAL)


def _gauss_moment(h, waist, power):
    # integral of exp(-p (w u)^2 / 2) over |u| <= h
    return mp.sqrt(2 * mp.pi / power) / waist * mp.erf(h * waist * mp.sqrt(mp.mpf(power) / 2))


def _paraxial_entangled_reference(cfg, power):
    """Integral over 0 < v < 2 k0 of sinc(L v^2 / (8 k0))^p g_p(min(umax, 2 k0 - v))."""
    k0, length = mp.mpf(cfg.k0), mp.mpf(cfg.crystal_length_um)
    waist, umax = mp.mpf(cfg.pump_waist_um), mp.mpf(observables._umax(cfg))
    band = 2 * k0 - umax
    # the sinc's zeros and the chord's kink split the interval into smooth pieces
    points = {mp.mpf(0), band, 2 * k0}
    n = 1
    while (zero := mp.sqrt(8 * k0 * n * mp.pi / length)) < 2 * k0:
        points.add(zero)
        n += 1
    points = sorted(points)
    inner = _gauss_moment(umax, waist, power)

    def f(v):
        moment = inner if v <= band else _gauss_moment(2 * k0 - v, waist, power)
        return mp.sinc(length * v * v / (8 * k0)) ** power * moment

    return mp.fsum(
        mp.quad(f, [a, b], method="gauss-legendre") for a, b in zip(points[:-1], points[1:])
    )


def _separable_reference(cfg, power):
    """Integral over |u| <= umax of the chord length 2 (2 k0 - |u|) times F_sep^p, halved."""
    k0, waist = mp.mpf(cfg.k0), mp.mpf(cfg.pump_waist_um)
    umax = mp.mpf(observables._umax(cfg))
    return mp.quad(lambda u: 2 * (2 * k0 - u) * mp.exp(-power * (waist * u) ** 2 / 2), [0, umax])


def _exact_i2w_sep_reference(cfg):
    """4 times the integral over 0 < u < umax of exp(-(w u)^2) (G(k0) - G(u - k0)) / k0.

    G(x) = (x sqrt(k0^2 - x^2) + k0^2 asin(x / k0)) / 2 is the antiderivative
    of sqrt(k0^2 - x^2): the chord integral of the exact obliquity at u.
    """
    k0, waist = mp.mpf(cfg.k0), mp.mpf(cfg.pump_waist_um)
    umax = mp.mpf(observables._umax(cfg))

    def antiderivative(x):
        return (x * mp.sqrt(k0**2 - x**2) + k0**2 * mp.asin(x / k0)) / 2

    return 4 * mp.quad(
        lambda u: mp.exp(-((waist * u) ** 2)) * (antiderivative(k0) - antiderivative(u - k0)) / k0,
        [0, umax],
    )


@pytest.mark.parametrize("length, waist", ORACLE_POINTS_UM)
def test_paraxial_entangled_nested_1d_matches_mpmath(length, waist):
    cfg = _paraxial(length, waist)
    results = observables._reduced_integrals(cfg, ("I1_ent", "I2_ent"))
    for name, power in (("I1_ent", 1), ("I2_ent", 2)):
        res = results[name]
        with mp.workdps(DIGITS):
            truth = _paraxial_entangled_reference(cfg, power)
            error = float(abs(mp.mpf(res.value) - truth))
            scale = float(abs(truth))
        assert res.method == "gauss_1d" and res.converged and res.evals > 0, name
        assert error <= cfg.quadrature.rel_tol * scale, name
        # the estimate bounds the true error, rounding included
        assert error <= res.error_estimate, (name, error, res.error_estimate)


@pytest.mark.parametrize("length, waist", ORACLE_POINTS_UM)
def test_separable_closed_forms_match_mpmath(length, waist):
    cfg = _paraxial(length, waist)
    results = observables._reduced_integrals(cfg, ("I1_sep", "I2_sep"))
    for name, power in (("I1_sep", 1), ("I2_sep", 2)):
        res = results[name]
        with mp.workdps(DIGITS):
            truth = _separable_reference(cfg, power)
            error = float(abs(mp.mpf(res.value) - truth))
            scale = float(abs(truth))
        assert (res.method, res.evals, res.converged) == ("closed_form", 0, True), name
        assert error <= cfg.quadrature.rel_tol * scale, name
        assert error <= res.error_estimate, (name, error, res.error_estimate)


@pytest.mark.parametrize("length, waist", EXACT_POINTS_UM)
def test_exact_separable_quadratures_match_mpmath(length, waist):
    # the exact regime integrates all three separable integrals in 2D; their
    # 1D forms do not depend on L, and I1_sep's and I2_sep's on the regime
    cfg = ExperimentConfig(crystal_length_um=length, pump_waist_um=waist)
    results = observables._reduced_integrals(cfg, ("I1_sep", "I2_sep", "I2w_sep"))
    references = {
        "I1_sep": lambda: _separable_reference(cfg, 1),
        "I2_sep": lambda: _separable_reference(cfg, 2),
        "I2w_sep": lambda: _exact_i2w_sep_reference(cfg),
    }
    for name, reference in references.items():
        res = results[name]
        with mp.workdps(DIGITS):
            truth = reference()
            error = float(abs(mp.mpf(res.value) - truth))
            scale = float(abs(truth))
        assert res.method == "tensor_gauss" and res.converged, name
        assert error <= cfg.quadrature.rel_tol * scale, (name, error / scale)
        assert error <= res.error_estimate, (name, error, res.error_estimate)

