"""Two-photon momentum amplitudes: dispersion, envelope, guards, symmetries."""

import math
import warnings

import numpy as np
import pytest

from qionize.amplitude import (
    NARROWBAND_GUARD,
    AmplitudeKind,
    NarrowbandGuardError,
    check_narrowband_guard,
    delta_kz_exact,
    delta_kz_paraxial,
    eval_amplitude,
    eval_reduced,
    pump_envelope,
    sinc,
)
from qionize.units import DomainError, ExperimentConfig, Regime

K0_REF = 19.0208  # 4-decimal reference wavenumber used by the dispersion checks

# global minimum of sin(x)/x, a 6-decimal enclosure; the 4-decimal figure
# -0.2172 sits slightly above the true minimum -0.21723362...
SINC_MIN_BOUND = -0.217234


def test_sinc_basics():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    x = np.array([0.5, 1.0, 2.0])
    assert np.allclose(sinc(x), np.sin(x) / x, rtol=1e-15)


def test_sinc_series_continuous_at_switchover():
    # |x| < 1e-4 runs a Taylor series; each branch must match sin(x)/x at
    # its own argument so nothing jumps across the seam
    for x in (0.99999e-4, 1.00001e-4):
        assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-15)
    assert sinc(0.99999e-4) == pytest.approx(0.9999999983333666, rel=1e-15)


def _sinc_where_formula(x):
    # the earlier whole-array formula: both branches on every element
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-4
    safe = np.where(small, 1.0, arr)
    return np.where(small, 1.0 - arr**2 / 6.0 + arr**4 / 120.0, np.sin(safe) / safe)


def _same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_sinc_bit_identical_to_where_formula():
    rng = np.random.default_rng(2024)
    edge = 1e-4
    straddle = [
        np.nextafter(edge, 0.0),
        edge,
        np.nextafter(edge, 1.0),
        0.99999e-4,
        1.00001e-4,
        0.0,
        1e-300,
        5e-324,
        1e-8,
    ]
    special = np.array(straddle + [-v for v in straddle])
    x = np.concatenate(
        [rng.uniform(-2000.0, 2000.0, 10**5), rng.uniform(-2e-4, 2e-4, 1000), special]
    )
    got = sinc(x)
    assert isinstance(got, np.ndarray)
    assert _same_bits(got, _sinc_where_formula(x))
    # 2-D input keeps its shape
    grid = x[: 400 * 250].reshape(400, 250)
    assert _same_bits(sinc(grid), _sinc_where_formula(grid))
    # out= fills and returns the given array, with the same bits
    buf = np.full(grid.shape, np.nan)
    assert sinc(grid, out=buf) is buf
    assert _same_bits(buf, _sinc_where_formula(grid))
    # both signed zeros give exactly +1.0
    assert _same_bits(sinc(np.array([0.0, -0.0])), [1.0, 1.0])
    for v in special.tolist() + [3.7, -1234.5]:
        as_float = sinc(v)
        as_0d = sinc(np.array(v))
        assert type(as_float) is float
        assert type(as_0d) is float
        assert _same_bits(as_float, _sinc_where_formula(v))
        assert _same_bits(as_0d, _sinc_where_formula(np.array(v)))


def test_sinc_limit_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sinc(np.inf) == 0.0 and sinc(-np.inf) == 0.0
        got = sinc(np.array([-np.inf, 0.0, 2.0, np.inf]))
    assert _same_bits(got, [0.0, 1.0, math.sin(2.0) / 2.0, 0.0])
    assert math.isnan(sinc(math.nan))


def test_public_evaluators_reach_overflow_limits_without_warnings():
    # L * delta_kz / 2 or (omega_p u)^2 overflows to inf at extreme finite
    # inputs; the amplitude's limit there is exactly 0
    long = ExperimentConfig(crystal_length_um=1e308)
    wide = ExperimentConfig(pump_waist_um=1e200)
    edge = long.k0 * (1.0 - 1e-9)
    kz = math.sqrt(long.k0**2 - 15.0**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        off_diagonal = eval_reduced(([-edge, edge], [edge, -edge]), long, AmplitudeKind.ENTANGLED)
        diagonal = eval_reduced(([-edge, edge], [-edge, edge]), wide, AmplitudeKind.SEPARABLE)
        full = eval_amplitude((15.0, 0.0, kz), (-15.0, 0.0, kz), long, AmplitudeKind.ENTANGLED)
        envelope = pump_envelope(1.0, 1.0, 1e200, 1e200)
    assert off_diagonal.tolist() == [0.0, 0.0]
    assert diagonal.tolist() == [0.0, 0.0]
    assert full == 0.0 and envelope == 0.0


def test_sinc_global_minimum_enclosure():
    x = np.linspace(3.0, 7.0, 200001)
    vals = sinc(x)
    assert vals.min() >= SINC_MIN_BOUND
    assert vals.min() <= -0.21723  # the minimum is actually attained near 4.4934


def test_delta_kz_exact_reference_value():
    got = delta_kz_exact(5.0, -5.0, K0_REF)
    assert got == pytest.approx(1.3380, abs=1e-3)
    assert got == pytest.approx(1.3378763393140147, rel=1e-13)  # regression pin


def test_delta_kz_paraxial_reference_value():
    got = delta_kz_paraxial(5.0, -5.0, K0_REF)
    assert got == pytest.approx(1.31435, abs=1e-4)
    assert got == pytest.approx(1.314350605652759, rel=1e-13)
    # closed form (kix - ksx)^2 / (4 k0)
    assert got == pytest.approx(100.0 / (4.0 * K0_REF), rel=1e-13)


def test_delta_kz_paraxial_is_the_difference_square():
    # one formula, (kix - ksx)^2 / (4 k0): the per-photon and pump terms of
    # the expansion summed exactly, so nothing cancels
    rng = np.random.default_rng(2026)
    kix = rng.uniform(-1.5 * K0_REF, 1.5 * K0_REF, 10**5)
    ksx = rng.uniform(-1.5 * K0_REF, 1.5 * K0_REF, 10**5)
    got = delta_kz_paraxial(kix, ksx, K0_REF)
    assert _same_bits(got, (kix - ksx) ** 2 / (4.0 * K0_REF))
    # exchange symmetric bit for bit
    assert _same_bits(delta_kz_paraxial(ksx, kix, K0_REF), got)
    col, row = kix[:300, None], ksx[None, :200]
    assert _same_bits(delta_kz_paraxial(col, row, K0_REF), (col - row) ** 2 / (4.0 * K0_REF))
    scalar = delta_kz_paraxial(5.0, -5.0, K0_REF)
    assert isinstance(scalar, float)
    assert _same_bits(scalar, 100.0 / (4.0 * K0_REF))


def test_delta_kz_domain_errors():
    with pytest.raises(DomainError):
        delta_kz_exact(1.2 * K0_REF, 0.0, K0_REF)
    with pytest.raises(DomainError):
        delta_kz_exact(0.9 * K0_REF, 0.9 * K0_REF * 1.2, K0_REF)
    with pytest.raises(DomainError):
        delta_kz_exact(0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        delta_kz_paraxial(0.0, 0.0, 0.0)
    # the quadratic form is a polynomial, defined for any transverse input
    assert delta_kz_paraxial(0.0, -1.5 * K0_REF, K0_REF) > 0.0


def _delta_kz_exact_formula(kix, ksx, k0):
    # the earlier whole-array expression, before the in-place helper
    pump = kix + ksx
    return np.sqrt(4.0 * k0**2 - pump**2) - (
        np.sqrt(k0**2 - kix**2) + np.sqrt(k0**2 - ksx**2)
    )


def test_delta_kz_exact_bit_identical_to_array_formula():
    rng = np.random.default_rng(2025)
    n = 10**5
    kix = rng.uniform(-K0_REF, K0_REF, n)
    ksx = rng.uniform(-K0_REF, K0_REF, n)
    # the kinematic edge |kx| = k0, each photon against the other's open side
    kix[:100], ksx[:100] = K0_REF, rng.uniform(-K0_REF, 0.0, 100)
    kix[100:200], ksx[100:200] = rng.uniform(0.0, K0_REF, 100), -K0_REF
    kix[200], ksx[200] = K0_REF, -K0_REF
    got = delta_kz_exact(kix, ksx, K0_REF)
    assert isinstance(got, np.ndarray)
    assert _same_bits(got, _delta_kz_exact_formula(kix, ksx, K0_REF))
    # broadcast 2-D input and a scalar pair take the same path
    col, row = kix[:300, None], ksx[None, :200]
    assert _same_bits(delta_kz_exact(col, row, K0_REF), _delta_kz_exact_formula(col, row, K0_REF))
    scalar = delta_kz_exact(5.0, -5.0, K0_REF)
    assert isinstance(scalar, float)
    assert _same_bits(scalar, _delta_kz_exact_formula(5.0, -5.0, K0_REF))


def test_exact_paraxial_taylor_agreement():
    # for |kx| << k0 the exact mismatch approaches the quadratic expansion
    rng = np.random.default_rng(3)
    for _ in range(200):
        kix, ksx = rng.uniform(-0.01, 0.01, size=2) * K0_REF
        ex = delta_kz_exact(kix, ksx, K0_REF)
        par = delta_kz_paraxial(kix, ksx, K0_REF)
        if par < 1e-12:
            continue
        assert ex == pytest.approx(par, rel=1e-3)


def test_exact_mismatch_vanishes_on_symmetric_ridge():
    # kix = ksx: sqrt(4 k0^2 - 4 kx^2) = 2 sqrt(k0^2 - kx^2), so the exact
    # mismatch cancels identically (and bit for bit, both roots seeing the
    # same rounded radicand)
    for kx in (0.1, 1.0, 5.0, 15.0):
        assert delta_kz_exact(kx, kx, K0_REF) == 0.0
    # the anticorrelated diagonal does not: 2 k0 - 2 sqrt(k0^2 - kx^2) > 0
    assert delta_kz_exact(5.0, -5.0, K0_REF) > 1.0


def test_pump_envelope_reference_value():
    # one momentum-space sigma along each axis: kp = 1/waist
    assert pump_envelope(0.1, 0.0, 10.0, 10.0) == pytest.approx(
        math.exp(-0.5), rel=1e-12
    )
    assert pump_envelope(0.0, 0.1, 10.0, 10.0) == pytest.approx(
        0.6065306597126334, rel=1e-12
    )


def test_pump_envelope_peak_and_decay():
    assert pump_envelope(0.0, 0.0, 50.0, 50.0) == 1.0
    assert pump_envelope(0.1, 0.0, 50.0, 50.0) < 1.0
    with pytest.raises(DomainError):
        pump_envelope(0.0, 0.0, -2.0, 50.0)


def test_narrowband_guard_defaults_pass():
    check_narrowband_guard(ExperimentConfig())  # no raise at delta-filter widths


def test_narrowband_guard_rejects_wide_filters():
    cfg = ExperimentConfig(filter_omega_um=1.0)  # omega * k0 ~ 19 << 1e3
    with pytest.raises(NarrowbandGuardError, match="full6d"):
        eval_reduced((0.1, -0.1), cfg, AmplitudeKind.ENTANGLED)
    cfg_y = ExperimentConfig(filter_omega_y_um=1.0)
    with pytest.raises(NarrowbandGuardError):
        eval_reduced((0.1, -0.1), cfg_y, AmplitudeKind.ENTANGLED)
    assert NARROWBAND_GUARD == 1e3


def test_reduced_open_square_domain():
    cfg = ExperimentConfig()
    k0 = cfg.k0
    with pytest.raises(DomainError):
        eval_reduced((k0 * 1.0001, 0.0), cfg, AmplitudeKind.SEPARABLE)
    with pytest.raises(DomainError):
        eval_reduced((0.0, -k0 * 1.0001), cfg, AmplitudeKind.SEPARABLE)


def test_reduced_separable_is_pump_envelope():
    cfg = ExperimentConfig(pump_waist_um=25.0)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.9, 0.9, size=(2, 256)) * cfg.k0
    got = eval_reduced((pts[0], pts[1]), cfg, AmplitudeKind.SEPARABLE)
    expect = np.exp(-0.5 * (25.0 * (pts[0] + pts[1])) ** 2)
    assert np.allclose(got, expect, rtol=1e-13)


def test_reduced_entangled_adds_phase_matching_sinc():
    cfg = ExperimentConfig(pump_waist_um=5.0, crystal_length_um=2.0, regime=Regime.PARAXIAL)
    kix, ksx = 3.0, -1.0
    sep = eval_reduced((kix, ksx), cfg, AmplitudeKind.SEPARABLE)
    ent = eval_reduced((kix, ksx), cfg, AmplitudeKind.ENTANGLED)
    arg = 0.5 * 2.0 * delta_kz_paraxial(kix, ksx, cfg.k0)
    assert ent == pytest.approx(sep * sinc(arg), rel=1e-13)


def test_zero_length_identity():
    # L -> 0 turns the sinc into 1 pointwise: entangled == separable
    cfg = ExperimentConfig(pump_waist_um=3.0, crystal_length_um=1e-9)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.999, 0.999, size=(2, 10000)) * cfg.k0
    ent = eval_reduced((pts[0], pts[1]), cfg, AmplitudeKind.ENTANGLED)
    sep = eval_reduced((pts[0], pts[1]), cfg, AmplitudeKind.SEPARABLE)
    assert np.max(np.abs(ent - sep)) < 1e-12


def test_exchange_symmetry_reduced():
    cfg = ExperimentConfig(pump_waist_um=8.0, crystal_length_um=7.0)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-0.99, 0.99, size=(2, 500)) * cfg.k0
    for kind in AmplitudeKind:
        a = eval_reduced((pts[0], pts[1]), cfg, kind)
        b = eval_reduced((pts[1], pts[0]), cfg, kind)
        assert np.array_equal(a, b)


def test_exchange_symmetry_reduced_paraxial():
    cfg = ExperimentConfig(pump_waist_um=8.0, crystal_length_um=7.0, regime=Regime.PARAXIAL)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-0.99, 0.99, size=(2, 500)) * cfg.k0
    for kind in AmplitudeKind:
        a = eval_reduced((pts[0], pts[1]), cfg, kind)
        b = eval_reduced((pts[1], pts[0]), cfg, kind)
        assert _same_bits(a, b)


def test_amplitude_band_over_seeded_configs():
    rng = np.random.default_rng(31)
    for _ in range(6):
        cfg = ExperimentConfig(
            pump_waist_um=float(rng.uniform(1.0, 60.0)),
            crystal_length_um=float(10.0 ** rng.uniform(-2, 2)),
            regime=Regime.EXACT if rng.uniform() < 0.5 else Regime.PARAXIAL,
        )
        pts = rng.uniform(-0.999, 0.999, size=(2, 4000)) * cfg.k0
        for kind in AmplitudeKind:
            vals = eval_reduced((pts[0], pts[1]), cfg, kind)
            assert vals.max() <= 1.0 + 1e-15
            assert vals.min() >= SINC_MIN_BOUND


def test_eval_amplitude_matches_reduced_at_filter_peaks():
    # on-peak frequencies and ky = 0 collapse the filters to 1 exactly
    cfg = ExperimentConfig(pump_waist_um=12.0, crystal_length_um=3.0)
    k0 = cfg.k0
    for kix, ksx in [(2.0, -1.5), (0.5, 0.25), (-4.0, 4.0)]:
        ki = (kix, 0.0, math.sqrt(k0**2 - kix**2))
        ks = (ksx, 0.0, math.sqrt(k0**2 - ksx**2))
        for kind in AmplitudeKind:
            full = eval_amplitude(ki, ks, cfg, kind)
            red = eval_reduced((kix, ksx), cfg, kind)
            assert full == pytest.approx(red, rel=1e-10)


def test_eval_amplitude_accepts_triplets():
    # tuple, list and 0-d array triplets give the same value; at (+-1, 0, kz)
    # the pump sum vanishes and both photons sit on shell, so only the
    # phase-matching sinc separates the two kinds
    cfg = ExperimentConfig()
    k0 = cfg.k0
    kz = math.sqrt(k0**2 - 1.0)
    ki, ks = (1.0, 0.0, kz), (-1.0, 0.0, kz)
    values = {}
    for kind in AmplitudeKind:
        values[kind] = eval_amplitude(ki, ks, cfg, kind)
        for form in (list, lambda p: tuple(np.array(c) for c in p)):
            assert eval_amplitude(form(ki), form(ks), cfg, kind) == values[kind]
    ratio = values[AmplitudeKind.ENTANGLED] / values[AmplitudeKind.SEPARABLE]
    phase = 0.5 * cfg.crystal_length_um * (2.0 * k0 - 2.0 * kz)
    assert ratio == pytest.approx(float(sinc(phase)), rel=1e-12, abs=0.0)
    assert 0.0 < ratio < 1.0


def test_eval_amplitude_detuned_frequencies_attenuate():
    cfg = ExperimentConfig(filter_omega_um=1.0e6)
    k0 = cfg.k0
    on = eval_amplitude((0.0, 0.0, k0), (0.0, 0.0, k0), cfg, AmplitudeKind.SEPARABLE)
    off = eval_amplitude((0.0, 0.0, k0 + 5e-6), (0.0, 0.0, k0), cfg, AmplitudeKind.SEPARABLE)
    assert off < on
    assert on == pytest.approx(1.0, rel=1e-12)


def test_eval_amplitude_is_zero_where_a_photon_runs_backward():
    # a wide frequency filter: the spectral Gaussian stays far from zero at
    # the backward photons' zeroed kz, so only the forward mask zeroes them
    cfg = ExperimentConfig(pump_waist_um=12.0, crystal_length_um=3.0, filter_omega_um=1e-2)
    k0 = cfg.k0
    rng = np.random.default_rng(3)
    # anti-correlated kx keep the pump sum inside the envelope
    kix = rng.uniform(-0.5, 0.5, size=40) * k0
    kx = np.stack([kix, -kix + rng.normal(0.0, 0.05, size=40)])
    ky = rng.normal(0.0, 1e-7, size=(2, 40))
    kz = np.sqrt(k0**2 - kx**2 - ky**2)
    backward = np.zeros((2, 40), dtype=bool)
    backward[0, :10] = True  # idler only
    backward[1, 5:15] = True  # signal only, and both for 5:10
    signed_kz = np.where(backward, -kz, kz)
    hit = backward.any(axis=0)
    for kind in AmplitudeKind:
        forward = eval_amplitude((kx[0], ky[0], kz[0]), (kx[1], ky[1], kz[1]), cfg, kind)
        mixed = eval_amplitude(
            (kx[0], ky[0], signed_kz[0]), (kx[1], ky[1], signed_kz[1]), cfg, kind
        )
        assert np.all(mixed[hit] == 0.0)
        assert np.array_equal(mixed[~hit], forward[~hit])
        assert np.all(forward != 0.0)
