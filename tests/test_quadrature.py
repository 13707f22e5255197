"""Deterministic 1D and 2D quadrature: exactness, invariants, and failure reporting."""

import math
import warnings

import numpy as np
import pytest

from qionize import quadrature
from qionize.quadrature import ConvergenceError, IntegralResult, integrate_1d, integrate_2d
from qionize.units import DomainError, QuadratureSpec

TIGHT = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
METHODS = (TIGHT,)


def _gauss_1d(a: float, mu: float, lo: float, hi: float) -> float:
    # integral of exp(-a (x - mu)^2) over [lo, hi]
    s = math.sqrt(a)
    return math.sqrt(math.pi) / (2.0 * s) * (math.erf(s * (hi - mu)) - math.erf(s * (lo - mu)))


def test_polynomial_exactness_both_methods():
    # x^3 y^2 + 2 over [0,2] x [-1,1]: (2^4/4) * (2/3) + 2 * 4 = 32/3
    truth = 32.0 / 3.0
    for spec in METHODS:
        res = integrate_2d(lambda x, y: x**3 * y**2 + 2.0, ((0.0, 2.0), (-1.0, 1.0)), spec)
        assert res.converged
        assert res.value == pytest.approx(truth, rel=1e-12)
        assert res.method == "tensor_gauss"


def test_gaussian_product_matches_erf_closed_form():
    a, b = 3.0, 0.7
    domain = ((-2.0, 4.0), (-5.0, 1.0))
    truth = _gauss_1d(a, 1.0, *domain[0]) * _gauss_1d(b, -1.0, *domain[1])
    for spec in METHODS:
        res = integrate_2d(
            lambda x, y: np.exp(-a * (x - 1.0) ** 2) * np.exp(-b * (y + 1.0) ** 2),
            domain,
            spec,
        )
        assert res.converged
        assert res.value == pytest.approx(truth, rel=1e-8)


def test_oscillatory_cosine_closed_form():
    # cos(7x) cos(11y) over [0, 3] x [0, 2]
    truth = (math.sin(21.0) / 7.0) * (math.sin(22.0) / 11.0)
    for spec in METHODS:
        res = integrate_2d(lambda x, y: np.cos(7.0 * x) * np.cos(11.0 * y), ((0.0, 3.0), (0.0, 2.0)), spec)
        assert res.converged
        assert res.value == pytest.approx(truth, rel=1e-7, abs=1e-10)


def test_linearity_seeded_family():
    rng = np.random.default_rng(42)
    domain = ((-1.0, 2.0), (0.0, 1.5))

    def f(x, y):
        return np.sin(x) * y**2

    def g(x, y):
        return np.exp(-(x**2)) + x * y

    i_f = integrate_2d(f, domain, TIGHT).value
    i_g = integrate_2d(g, domain, TIGHT).value
    for _ in range(8):
        a, b = rng.normal(size=2)
        combo = integrate_2d(lambda x, y: a * f(x, y) + b * g(x, y), domain, TIGHT)
        assert combo.value == pytest.approx(a * i_f + b * i_g, rel=1e-9, abs=1e-12)


def test_additivity_over_subrectangles():
    def f(x, y):
        return np.exp(-0.5 * (x**2 + y**2)) * (1.0 + np.sin(3.0 * x * y))

    whole = integrate_2d(f, ((-1.0, 3.0), (-2.0, 2.0)), TIGHT).value
    pieces = 0.0
    for xd in ((-1.0, 1.0), (1.0, 3.0)):
        for yd in ((-2.0, 0.0), (0.0, 2.0)):
            pieces += integrate_2d(f, (xd, yd), TIGHT).value
    assert pieces == pytest.approx(whole, rel=1e-9)


def test_seeded_random_gaussians_against_closed_form():
    rng = np.random.default_rng(20260822)
    for _ in range(10):
        a = float(rng.uniform(0.5, 8.0))
        b = float(rng.uniform(0.5, 8.0))
        mx = float(rng.uniform(-0.5, 0.5))
        my = float(rng.uniform(-0.5, 0.5))
        domain = ((-3.0, 3.0), (-3.0, 3.0))
        truth = _gauss_1d(a, mx, *domain[0]) * _gauss_1d(b, my, *domain[1])
        res = integrate_2d(
            lambda x, y, a=a, b=b, mx=mx, my=my: np.exp(
                -a * (x - mx) ** 2 - b * (y - my) ** 2
            ),
            domain,
            TIGHT,
        )
        assert res.converged
        assert res.value == pytest.approx(truth, rel=5e-9)
        # the reported estimate must bound the true error up to a small factor
        true_err = abs(res.value - truth)
        assert true_err <= max(50.0 * res.error_estimate, 1e-10 * abs(truth))


def test_result_fields_and_eval_accounting():
    res = integrate_2d(lambda x, y: x * 0.0 + y * 0.0 + 1.0, ((0.0, 1.0), (0.0, 1.0)), TIGHT)
    assert isinstance(res, IntegralResult)
    assert res.value == pytest.approx(1.0, rel=1e-13)
    assert res.evals > 0
    assert res.error_estimate >= 0.0
    assert res.converged is True


def test_budget_exhaustion_reports_not_converged():
    # highly oscillatory, budget far too small for the requested tolerance
    spec = QuadratureSpec(rel_tol=1e-12, max_evals=2000)
    res = integrate_2d(
        lambda x, y: np.cos(40.0 * x) * np.cos(40.0 * y) + 1.0,
        ((0.0, 3.1), (0.0, 3.1)),
        spec,
    )
    assert res.converged is False


def test_first_round_is_priced_before_it_runs():
    # a plain (2, 2) start: the base grid and one doubling of each axis,
    # (1 + 2 + 2) * 256 * 2 * 2 = 5120 nodes
    calls = []

    def f(x, y):
        calls.append(x.size * y.size)
        return np.cos(x) * np.cos(y)

    box = ((0.0, 1.0), (0.0, 1.0))
    refused = integrate_2d(f, box, QuadratureSpec(max_evals=5119))
    assert math.isnan(refused.value)
    assert (refused.error_estimate, refused.evals, refused.converged) == (math.inf, 0, False)
    assert calls == []
    ran = integrate_2d(f, box, QuadratureSpec(max_evals=5120))
    assert ran.converged
    assert ran.evals == sum(calls) == 5120


@pytest.mark.parametrize("initial_panels", [(math.inf, 2), (1e300, 1e300), (2, 1e200)])
def test_unaffordable_start_is_refused_without_overflow(initial_panels):
    # an overflowing phase estimate hints inf or huge counts: the price is
    # taken in Python numbers, so no int(inf), no array and no warning
    def f(x, y):
        raise AssertionError("the integrand must not be called")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_2d(f, ((0.0, 1.0), (0.0, 1.0)), TIGHT, initial_panels)
    assert math.isnan(res.value)
    assert (res.error_estimate, res.evals, res.converged) == (math.inf, 0, False)


@pytest.mark.parametrize("max_evals", [50_000, 100_000, 200_000])
def test_budget_never_overdrawn_by_refinement(max_evals):
    # both axes stay unfrozen, so every round doubles the grid twice over;
    # the budget check must price that, not stop after the overdraw
    spec = QuadratureSpec(rel_tol=1e-12, max_evals=max_evals)
    res = integrate_2d(
        lambda x, y: np.cos(200.0 * x) * np.cos(150.0 * y) + 1.0,
        ((0.0, 3.0), (0.0, 3.0)),
        spec,
    )
    assert not res.converged
    assert res.evals <= max_evals


def test_adaptive_subdivision_handles_peaked_integrand():
    # narrow bump off-center: refinement must resolve it
    def f(x, y):
        return np.exp(-400.0 * ((x - 0.73) ** 2 + (y - 0.31) ** 2))

    truth = _gauss_1d(400.0, 0.73, 0.0, 1.0) * _gauss_1d(400.0, 0.31, 0.0, 1.0)
    res = integrate_2d(f, ((0.0, 1.0), (0.0, 1.0)), TIGHT)
    assert res.converged
    assert res.value == pytest.approx(truth, rel=1e-7)


def test_methods_agree_on_smooth_integrand():
    def f(x, y):
        return np.cos(x + 0.3 * y) * np.exp(-0.2 * x * x)

    domain = ((-2.0, 2.0), (-1.0, 1.0))
    # the y integral is exact, 2 cos(x) sin(0.3) / 0.3; the x integral of
    # that times exp(-0.2 x^2) over [-2, 2] is from mpmath.quad at 30 digits
    reference = 3.426989708745986
    assert integrate_2d(f, domain, TIGHT).value == pytest.approx(reference, rel=1e-8)


def test_invalid_domain_rejected():
    with pytest.raises(DomainError):
        integrate_2d(lambda x, y: x, ((1.0, 1.0), (0.0, 1.0)), TIGHT)
    with pytest.raises(DomainError):
        integrate_2d(lambda x, y: x, ((0.0, 1.0), (2.0, 1.0)), TIGHT)
    with pytest.raises(DomainError):
        integrate_2d(lambda x, y: x, ((0.0, math.inf), (0.0, 1.0)), TIGHT)
    # one starting panel count per axis, no more and no fewer
    for panels in ((2, 2, 2), (2,)):
        with pytest.raises(DomainError, match="initial_panels"):
            integrate_2d(lambda x, y: x, ((0.0, 1.0), (0.0, 1.0)), TIGHT, panels)


def test_convergence_error_carries_results():
    bad = IntegralResult(value=1.0, error_estimate=0.5, evals=10, converged=False, method="tensor_gauss")
    err = ConvergenceError("did not converge", [bad])
    assert list(err.results) == [bad]
    assert str(err) == "did not converge [value=1.0 err=5.000e-01 evals=10 method=tensor_gauss]"


def test_determinism_same_spec_same_bits():
    def f(x, y):
        return np.sin(3.0 * x) * np.cos(2.0 * y) + 0.1 * x * y

    domain = ((0.0, 2.0), (0.0, 2.0))
    r1 = integrate_2d(f, domain, TIGHT)
    r2 = integrate_2d(f, domain, TIGHT)
    assert r1.value == r2.value
    assert r1.evals == r2.evals


def _fsum_reference(f, axes, panels):
    # exact sum of the rounded products of weights and values over the whole
    # grid, each axis the nodes and weights of its pieces joined
    rules = [
        [np.concatenate(parts) for parts in zip(*(
            quadrature._panel_rule(a, b, n) for a, b, n in zip(edges, edges[1:], counts)))]
        for edges, counts in zip(axes, panels)
    ]
    if len(rules) == 1:
        (x, w), = rules
        return math.fsum((w * f(x)).tolist())
    (x, wx), (y, wy) = rules
    terms = wx[:, None] * wy[None, :] * f(x[:, None], y[None, :])
    return math.fsum(terms.ravel().tolist())


def _smooth_2d(x, y):
    return np.exp(-0.3 * x * x) * np.cos(5.0 * y + x) + 0.25 * x * y


def _smooth_1d(x):
    return np.exp(-0.3 * x * x) * np.cos(5.0 * x + 1.0) + 0.25 * x


@pytest.mark.parametrize(
    "f, axes, panels, pinned_value",
    [
        # a few rows per block, row count not a multiple of the block rows
        pytest.param(_smooth_2d, [(-1.0, 2.0), (-0.5, 1.5)], [[50], [3]], None, id="50-3"),
        # a y axis longer than BLOCK_NODES: one row per block
        pytest.param(
            _smooth_2d, [(-1.0, 2.0), (-0.5, 1.5)], [[1], [quadrature.BLOCK_NODES // 16 + 1]], None,
            id="1-1025",
        ),
        # two pieces, the first 17600 nodes long, larger than one block:
        # blocks stop at its edge, and the in-order sum of piece blocks is
        # pinned bit for bit
        pytest.param(
            _smooth_1d, [(-1.0, 0.25, 2.0)], [[1100, 3]], 0.21612022581486495, id="1100-3-pieces"
        ),
    ],
)
def test_grid_sum_blocks_match_fsum(f, axes, panels, pinned_value):
    sizes = [16 * sum(counts) for counts in panels]
    rows = quadrature.BLOCK_NODES // math.prod(sizes[1:])
    if rows > 0:
        assert (16 * panels[0][0]) % rows != 0
    value, evals = quadrature.GridShare(lambda *nodes: (f(*nodes),)).grid_sum(0, axes, panels)
    reference = _fsum_reference(f, axes, panels)
    assert abs(value - reference) <= 1e-13 * abs(reference)
    assert evals == math.prod(sizes)
    if pinned_value is not None:
        assert value == pinned_value


@pytest.mark.parametrize(
    "f, axes, panels",
    [
        # three pieces of 1024 nodes in all, one block
        pytest.param(_smooth_1d, [(-1.0, 0.25, 1.0, 2.0)], [[20, 3, 41]], id="1d-3-pieces"),
        # two pieces of 320 nodes times 48 columns: 15360 nodes, one block
        pytest.param(_smooth_2d, [(-1.0, 0.5, 2.0), (-0.5, 1.5)], [[7, 13], [3]], id="2d-2-pieces"),
    ],
)
def test_grid_under_one_block_is_one_integrand_call(f, axes, panels):
    calls = []

    def recording(*nodes):
        calls.append(np.broadcast_shapes(*(np.shape(x) for x in nodes)))
        return (f(*nodes),)

    sizes = [16 * sum(counts) for counts in panels]
    assert math.prod(sizes) <= quadrature.BLOCK_NODES
    value, evals = quadrature.GridShare(recording).grid_sum(0, axes, panels)
    assert calls == [tuple(sizes)]
    assert evals == math.prod(sizes)
    reference = _fsum_reference(f, axes, panels)
    assert abs(value - reference) <= 1e-13 * abs(reference)


def test_panel_rules_are_read_only():
    # a rule of one block or less is kept and comes back as the same arrays,
    # a larger one is built anew; neither can be written into
    small = quadrature._panel_rule(-1.0, 2.0, 3)
    assert quadrature._panel_rule(-1.0, 2.0, 3)[0] is small[0]
    large = quadrature._panel_rule(-1.0, 2.0, quadrature.BLOCK_NODES // 16 + 1)
    assert quadrature._panel_rule(-1.0, 2.0, quadrature.BLOCK_NODES // 16 + 1)[0] is not large[0]
    for array in (*small, *large):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_wrong_shape_integrand_raises_domain_error_naming_shape():
    # default (2, 2) panels: a 32 x 32 grid, one block
    with pytest.raises(DomainError, match=r"\(32, 32\).*got \(32, 31\)"):
        integrate_2d(lambda x, y: (x + y)[:, :-1], ((0.0, 1.0), (0.0, 1.0)), TIGHT)
    # a scalar never broadcasts to the block
    with pytest.raises(DomainError, match=r"\(32, 32\)"):
        integrate_2d(lambda x, y: 1.0, ((0.0, 1.0), (0.0, 1.0)), TIGHT)


# ---------------------------------------------------------------- piecewise 1D rule


def test_integrate_1d_is_exact_on_polynomials_and_counts_its_nodes():
    # x^5 - 3 x over [-1, 2]: 63/6 - 4.5 = 6; a (2, 2) start and its doubling
    # take (2 + 2) * 16 + (4 + 4) * 16 = 192 nodes
    calls = []

    def f(x):
        calls.append(x.size)
        return x**5 - 3.0 * x

    res = integrate_1d(f, (-1.0, 0.5, 2.0), TIGHT)
    assert res.converged and res.method == "gauss_1d"
    assert res.value == pytest.approx(6.0, rel=1e-14)
    assert res.evals == sum(calls) == 192
    assert res.error_estimate <= 1e-12


def test_integrate_1d_prices_its_first_round_before_it_runs():
    # a (2, 2) start: four panels and their doubling, 3 * 16 * 4 = 192 nodes
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    refused = integrate_1d(f, (0.0, 0.5, 1.0), QuadratureSpec(max_evals=191))
    assert math.isnan(refused.value)
    assert (refused.error_estimate, refused.evals, refused.converged) == (math.inf, 0, False)
    assert calls == []
    ran = integrate_1d(f, (0.0, 0.5, 1.0), QuadratureSpec(max_evals=192))
    assert ran.converged
    assert ran.evals == sum(calls) == 192


def test_integrate_1d_resolves_a_kink_on_a_piece_edge():
    # exp(-|x - 0.3|) has a kink at 0.3: as a piece edge it costs nothing
    truth = 2.0 - math.exp(-1.3) - math.exp(-0.7)
    res = integrate_1d(lambda x: np.exp(-np.abs(x - 0.3)), (-1.0, 0.3, 1.0), TIGHT)
    assert res.converged
    assert abs(res.value - truth) <= max(res.error_estimate, 1e-15)
    assert res.evals == 192
    again = integrate_1d(lambda x: np.exp(-np.abs(x - 0.3)), (-1.0, 0.3, 1.0), TIGHT)
    assert again == res


def test_integrate_1d_refines_every_piece_until_tolerance():
    # cos(60 x) over [0, 3]: the start is far too coarse, doubling fixes it
    res = integrate_1d(lambda x: np.cos(60.0 * x), (0.0, 1.0, 3.0), TIGHT)
    assert res.converged
    assert res.value == pytest.approx(math.sin(180.0) / 60.0, rel=1e-9)
    assert res.evals > 192


@pytest.mark.parametrize("initial_panels", [(math.inf, 2), (1e300, 1e300), (2, 1e200)])
def test_integrate_1d_refuses_an_unaffordable_start_at_once(initial_panels):
    def f(x):
        raise AssertionError("the integrand must not be called")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_1d(f, (0.0, 1.0, 2.0), TIGHT, initial_panels)
    assert math.isnan(res.value)
    assert (res.error_estimate, res.evals, res.converged) == (math.inf, 0, False)


@pytest.mark.parametrize("max_evals", [1_000, 5_000, 20_000])
def test_integrate_1d_never_overdraws_its_budget(max_evals):
    spec = QuadratureSpec(rel_tol=1e-12, max_evals=max_evals)
    res = integrate_1d(lambda x: np.cos(3000.0 * x), (0.0, 3.0), spec)
    assert not res.converged
    assert 0 < res.evals <= max_evals


@pytest.mark.parametrize(
    "edges, panels",
    [((1.0,), None), ((0.0, 0.0), None), ((1.0, 0.0), None), ((0.0, math.inf), None),
     ((0.0, 1.0, 2.0), (4,)), ("ab", None)],
)
def test_integrate_1d_rejects_malformed_pieces(edges, panels):
    with pytest.raises(DomainError, match="initial_panels" if panels else None):
        integrate_1d(lambda x: x, edges, TIGHT, panels)


def test_integrate_1d_checks_the_integrand_shape():
    with pytest.raises(DomainError, match="shape"):
        integrate_1d(lambda x: np.ones(3), (0.0, 1.0), TIGHT)


@pytest.mark.parametrize("integrate, domain, components", [
    (integrate_2d, ((0.0, 3.0), (-1.0, 2.0)), (
        lambda x, y: np.cos(7.0 * x) * np.cos(3.0 * y),
        lambda x, y: np.cos(40.0 * x) * np.cos(3.0 * y),
        lambda x, y: np.cos(7.0 * x) * np.cos(25.0 * y),
    )),
    # two pieces; each round doubles both, so the schedules differ in their rounds
    (integrate_1d, (0.0, 1.0, 3.0), (
        lambda x: np.cos(7.0 * x),
        lambda x: np.cos(90.0 * x),
        lambda x: np.exp(-np.abs(x - 1.0)),
    )),
], ids=["2d", "1d"])
def test_grid_share_gives_each_component_its_own_result(integrate, domain, components):
    # components with different schedules on one share: each result is the
    # component's own integral bit for bit, and each distinct grid is
    # evaluated once, so fewer nodes are evaluated than the evals add up to
    share = quadrature.GridShare(lambda *nodes: tuple(g(*nodes) for g in components))
    shared = [integrate(share.component(i), domain, TIGHT) for i in range(len(components))]
    alone = [integrate(g, domain, TIGHT) for g in components]
    assert [repr(r) for r in shared] == [repr(r) for r in alone]
    assert len({r.evals for r in alone}) > 1
    assert 0 < share.nodes < sum(r.evals for r in alone)
    # a wrapper hides the mark: the component then evaluates the whole
    # vector integrand on its own grids, and the share counts those nodes
    hidden = quadrature.GridShare(lambda *nodes: tuple(g(*nodes) for g in components))
    marked = hidden.component(0)
    assert integrate(lambda *nodes: marked(*nodes), domain, TIGHT) == alone[0]
    assert hidden.nodes == alone[0].evals


def test_grid_share_evaluates_a_piece_that_two_grids_have_in_common_once():
    # two components start alike on the first piece and differently on the
    # second, on grids of several blocks: their grids differ, but the runs
    # of the first piece that they have in common are evaluated once, and
    # each result is the component's own integral
    components = (
        lambda x, y: np.cos(3.0 * x) * np.cos(2.0 * y),
        lambda x, y: np.exp(-x) * np.cos(3.0 * x) * np.cos(2.0 * y),
    )
    domain = ((0.0, 1.0, 2.0), (0.0, 1.0))
    starts = ((40, 2, 2), (40, 3, 2))
    assert 16 * 40 * 32 > quadrature.BLOCK_NODES
    blocks = []

    def f(x, y):
        blocks.append((float(x[0, 0]), x.size, y.size))
        return tuple(g(x, y) for g in components)

    share = quadrature.GridShare(f)
    shared = [integrate_2d(share.component(i), domain, TIGHT, starts[i]) for i in range(2)]
    alone = [integrate_2d(g, domain, TIGHT, start) for g, start in zip(components, starts)]
    assert [repr(r) for r in shared] == [repr(r) for r in alone]
    # no block twice, and fewer nodes than the two rules hold
    assert len(blocks) == len(set(blocks))
    assert share.nodes == sum(n * ny for _, n, ny in blocks) < sum(r.evals for r in alone)
