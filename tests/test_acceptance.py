"""End-to-end acceptance runs: one test and one recorded verdict per criterion.

A failing test here is a finding, not necessarily a defect: the verdict line
carries the measured number next to the stated threshold so the gap is
auditable either way.
"""

import math
import time

import numpy as np
import pytest
from conftest import record_acceptance

from qionize.amplitude import AmplitudeKind, delta_kz_exact, delta_kz_paraxial, eval_reduced
from qionize.observables import Parity, enhancement_ratio, make_synthetic_kernel, ratio_from_integrals
from qionize.oracle import McSpec, default_check_configs, reduced_vs_full_check
from qionize.quadrature import integrate_2d
from qionize.sweep import load_preset, run_sweep
from qionize.units import ExperimentConfig, QuadratureSpec, Regime

SINC_MIN_BOUND = -0.217234


def _verdict(num: int, ok: bool, detail: str) -> bool:
    record_acceptance(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def fig2a():
    preset = load_preset("fig2a")
    start = time.perf_counter()
    records = run_sweep(preset.plan, preset.base, workers=1)
    elapsed = time.perf_counter() - start
    assert all(r.converged for r in records)
    return records, elapsed


def test_criterion_1_identity_limit():
    start = time.perf_counter()
    worst = 0.0
    for waist in (3.0, 10.0, 50.0):
        for regime in (Regime.EXACT, Regime.PARAXIAL):
            cfg = ExperimentConfig(
                pump_waist_um=waist, crystal_length_um=1e-9, regime=regime
            )
            worst = max(worst, abs(enhancement_ratio(cfg).R - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 10.0
    assert _verdict(
        1,
        ok,
        f"R(L=1e-9) = 1 within {worst:.2e} over 6 cases (tolerance 1e-3), "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_beyond_paraxial_enhancement(fig2a):
    records, elapsed = fig2a
    exact_max = max(r.R for r in records if r.regime == "exact")
    ok = exact_max >= 100.0 and elapsed < 300.0
    assert _verdict(
        2,
        ok,
        f"max exact-regime R over the fig2a grid = {exact_max:.6f}, "
        f"threshold 100; grid time {elapsed:.1f}s (budget 300s). The "
        f"entangling factor is bounded by 1 pointwise, so the ratio stays "
        f"O(1) everywhere on this grid",
    )


def test_criterion_3_paraxial_suppression(fig2a):
    records, _ = fig2a
    par_max = max(r.R for r in records if r.regime == "paraxial")
    ok = par_max <= 5.0
    assert _verdict(
        3, ok, f"max paraxial-regime R over the fig2a grid = {par_max:.6f} <= 5"
    )


def test_criterion_4_large_length_decay():
    res = enhancement_ratio(
        ExperimentConfig(pump_waist_um=3.0, crystal_length_um=50.0)
    )
    ok = res.R <= 5.0
    assert _verdict(4, ok, f"R(L=50 um, waist=3 um, exact) = {res.R:.6f} <= 5")


def test_criterion_5_waist_monotonicity():
    waists = (1.0, 3.0, 10.0, 30.0, 100.0)
    values = [
        enhancement_ratio(
            ExperimentConfig(pump_waist_um=w, crystal_length_um=1.0)
        ).R
        for w in waists
    ]
    drops = [
        (a - b) / a for a, b in zip(values, values[1:])
    ]  # positive = R fell
    worst = max(drops)
    ok = worst <= 0.01
    detail = ", ".join(f"{v:.6f}" for v in values)
    assert _verdict(
        5,
        ok,
        f"R at L=1 um over waists {waists}: [{detail}]; largest step down "
        f"{worst * 100:.2f}% (allowed 1%). R decreases with waist on this "
        f"line, it does not increase",
    )


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rows = [
        reduced_vs_full_check(cfg, McSpec(samples=10_000_000, seed=0))
        for cfg in default_check_configs(10)
    ]
    elapsed = time.perf_counter() - start
    worst = max(r.rel_deviation for r in rows)
    ok = all(r.agrees for r in rows) and elapsed < 1200.0
    assert _verdict(
        6,
        ok,
        f"reduced vs 6D Monte Carlo over 10 seeded configs at 1e7 samples: "
        f"worst |R2d/R6d - 1| = {worst:.4f} within max(0.05, 3 sigma); "
        f"{elapsed:.1f}s (budget 1200s)",
    )


def test_criterion_7_invariant_suite():
    start = time.perf_counter()

    # exchange symmetry of the reduced amplitude, bit for bit
    cfg = ExperimentConfig(pump_waist_um=8.0, crystal_length_um=7.0)
    rng = np.random.default_rng(101)
    pts = rng.uniform(-0.99, 0.99, size=(2, 400)) * cfg.k0
    for kind in AmplitudeKind:
        a = eval_reduced((pts[0], pts[1]), cfg, kind)
        b = eval_reduced((pts[1], pts[0]), cfg, kind)
        assert np.array_equal(a, b)

    # scale invariance of R
    base_cfg = ExperimentConfig(pump_waist_um=10.0, crystal_length_um=2.0)
    r1 = enhancement_ratio(base_cfg)
    # amplitude scale 3: I1 scales by 3, I2 and I2w by 9
    scaled = {
        f"{name}_{label}": r1.diagnostics[f"{name}_{label}"].value * (3.0 if name == "I1" else 9.0)
        for name in ("I1", "I2", "I2w")
        for label in ("ent", "sep")
    }
    r2, _ = ratio_from_integrals(scaled)
    assert abs(r2.value / r1.R - 1.0) < 1e-12

    # amplitude band
    vals = eval_reduced((pts[0], pts[1]), cfg, AmplitudeKind.ENTANGLED)
    assert vals.max() <= 1.0 + 1e-15 and vals.min() >= SINC_MIN_BOUND

    # normalization residual and the obliquity bound
    for label in ("ent", "sep"):
        c = (r1.C_ent if label == "ent" else r1.C_sep).value
        i2 = r1.diagnostics[f"I2_{label}"].value
        i2w = r1.diagnostics[f"I2w_{label}"].value
        assert abs(c**2 * i2 - 1.0) < 1e-6
        assert i2w <= 2.0 * i2 * (1.0 + 1e-12)
    assert r1.C_ratio >= 1.0 - 1e-12

    # paraxial mismatch is the exact one's small-angle limit
    k0 = cfg.k0
    for _ in range(100):
        kix, ksx = rng.uniform(-0.01, 0.01, size=2) * k0
        par = delta_kz_paraxial(kix, ksx, k0)
        if par > 1e-12:
            assert delta_kz_exact(kix, ksx, k0) == pytest.approx(par, rel=1e-3)

    # quadrature linearity and additivity
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_evals=2_000_000)
    f = lambda x, y: np.exp(-(x**2) - y**2 / 2.0)
    g = lambda x, y: np.cos(3.0 * x) * np.sin(2.0 * y) ** 2
    dom = ((-1.0, 1.5), (-2.0, 1.0))
    lin = integrate_2d(lambda x, y: 2.0 * f(x, y) - 3.0 * g(x, y), dom, spec)
    parts = (
        2.0 * integrate_2d(f, dom, spec).value
        - 3.0 * integrate_2d(g, dom, spec).value
    )
    assert lin.value == pytest.approx(parts, rel=1e-9)
    whole = integrate_2d(f, dom, spec).value
    halves = (
        integrate_2d(f, ((-1.0, 0.25), (-2.0, 1.0)), spec).value
        + integrate_2d(f, ((0.25, 1.5), (-2.0, 1.0)), spec).value
    )
    assert whole == pytest.approx(halves, rel=1e-9)

    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    assert _verdict(
        7,
        ok,
        f"exchange symmetry, scale invariance, amplitude band, normalization "
        f"residual, obliquity bound, small-angle agreement, quadrature "
        f"linearity/additivity all green in {elapsed:.2f}s (budget 120s)",
    )


def test_criterion_8_parity_selection():
    k0 = ExperimentConfig().k0
    odd = make_synthetic_kernel(Parity.ODD)
    even = make_synthetic_kernel(Parity.EVEN)
    spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-9, max_evals=30_000_000)
    edge = k0 * (1.0 - 1e-12)
    dom = ((-edge, edge), (-edge, edge))
    families = {
        "gauss_iso": lambda x, y: np.exp(-((x / k0) ** 2 + (y / k0) ** 2)),
        "cos_prod": lambda x, y: np.cos(0.5 * math.pi * x / k0)
        * np.cos(0.5 * math.pi * y / k0),
        "quartic": lambda x, y: (1.0 - (x / k0) ** 2) ** 2
        * (1.0 - (y / k0) ** 2) ** 2,
    }
    worst_odd = 0.0
    smallest_even = math.inf
    for g in families.values():
        io = integrate_2d(
            lambda x, y: g(x, y) * odd.evaluate(x, y, k0), dom, spec, (8, 8)
        )
        ie = integrate_2d(
            lambda x, y: g(x, y) * even.evaluate(x, y, k0), dom, spec, (8, 8)
        )
        assert io.converged and ie.converged
        worst_odd = max(worst_odd, abs(io.value))
        smallest_even = min(smallest_even, abs(ie.value))

    # scope note: the suppression needs per-photon reflection symmetry, not
    # just exchange symmetry; the anticorrelated pump envelope is exchange
    # symmetric yet couples strongly to the odd kernel
    pump = lambda x, y: np.exp(-0.5 * (3.0 * (x + y)) ** 2)
    counter = integrate_2d(
        lambda x, y: pump(x, y) * odd.evaluate(x, y, k0), dom, spec, (64, 64)
    )
    assert counter.converged

    ok = worst_odd < 1e-9 and smallest_even > 100.0 and abs(counter.value) > 1.0
    assert _verdict(
        8,
        ok,
        f"odd-kernel coherent sums vanish on per-photon-even amplitudes "
        f"(worst |sum| = {worst_odd:.2e}) while the even kernel stays finite "
        f"(smallest {smallest_even:.1f}); not implied by exchange symmetry "
        f"alone: the exchange-symmetric pump envelope gives {counter.value:.2f} "
        f"with the odd kernel",
    )
