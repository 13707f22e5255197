"""Deterministic quadrature over rectangles and over piecewise intervals.

One rule: panelized 16-point Gauss-Legendre. In 2D it is a product rule,
refined by doubling the panel count of whichever axis contributes the
larger last-doubling delta; in 1D (integrate_1d) every piece of the
interval doubles its panels each round. The caller hints a starting
resolution per axis or per piece.

The rule is open (no endpoint evaluations) and fully deterministic, and
max_evals is the one bound on its work: it never starts a refinement round
the budget cannot pay for. A 2D caller that passes an EvenDomain promises the
integrand is even about the centre of each axis; the rule then evaluates
only the upper half of each axis's nodes, one quadrant of the grid at twice
the weight, with the panels, refinement and error estimate of the plain
rectangle. evals and max_evals count the nodes actually evaluated. A tensor
grid is never built whole: the integrand is called on row blocks of it,
about BLOCK_NODES nodes each, and each block is reduced before the next is
evaluated. Integrands must therefore be pointwise (a node's value depends
on its own (x, y) only) and broadcast: f(x_blk[:, None], y[None, :]) ->
(len(x_blk), len(y)) array, x_blk a run of consecutive x nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .units import DomainError, QuadratureSpec

__all__ = [
    "EvenDomain",
    "IntegralResult",
    "ConvergenceError",
    "integrate_1d",
    "integrate_2d",
]

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)

# integrand nodes per call of the tensor rule: a block's float64 temporaries
# (128 KiB each) stay in a per-core L2 cache; the fastest of 2^13..2^17 on
# the L = 100 um ratio grids
BLOCK_NODES = 2**14


class EvenDomain(tuple):
    """A rectangle ((x0, x1), (y0, y1)) whose integrand is even on both axes.

    Passing one promises f(x0 + x1 - x, y) = f(x, y) = f(x, y0 + y1 - y).
    The panel rule's nodes come in mirror pairs about each centre, so
    integrate_2d evaluates only the upper half of each axis's nodes at
    twice the weight: a quarter of the evaluations for the same rule.
    """

    __slots__ = ()


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of one integration.

    converged is True exactly when error_estimate <= max(rel_tol * |value|,
    abs_tol) was reached; evals never exceed max_evals, and a start the
    budget cannot pay for is refused as (nan, inf, 0, False). A False flag
    is the caller's signal to escalate, never silently absorbed here.
    method names the route: "tensor_gauss" (integrate_2d), "gauss_1d"
    (integrate_1d), or a route of the caller's that evaluates no integrand
    and reports evals = 0, such as "closed_form".
    """

    value: float
    error_estimate: float
    evals: int
    converged: bool
    method: str


class ConvergenceError(RuntimeError):
    """An integral failed to converge where a converged value is required.

    Carries the offending IntegralResult objects so callers can report the
    achieved error estimates and evaluation counts.
    """

    def __init__(self, message: str, results: Sequence[IntegralResult] = ()):
        detail = "; ".join(
            f"value={r.value!r} err={r.error_estimate:.3e} evals={r.evals} method={r.method}"
            for r in results
        )
        super().__init__(message if not detail else f"{message} [{detail}]")
        self.results = tuple(results)


def _check_domain(domain) -> Tuple[float, float, float, float]:
    try:
        (x0, x1), (y0, y1) = domain
    except (TypeError, ValueError):
        raise DomainError(f"domain must be ((x0, x1), (y0, y1)), got {domain!r}") from None
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    if not (np.isfinite([x0, x1, y0, y1]).all() and x0 < x1 and y0 < y1):
        raise DomainError(f"domain must be a finite rectangle with positive extent, got {domain!r}")
    return x0, x1, y0, y1


def _panel_rule(a: float, b: float, n_panels: int, nodes, weights):
    # n_panels equal subintervals, each carrying one scaled Gauss rule
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _tensor_eval(f, x0, x1, y0, y1, nx, ny, nodes, weights, even=False):
    x, wx = _panel_rule(x0, x1, nx, nodes, weights)
    y, wy = _panel_rule(y0, y1, ny, nodes, weights)
    if even:
        # each axis holds 16 n nodes, ascending and mirror-paired about its
        # centre (a middle panel of an odd count splits 8/8): keep the upper
        # half, the lower half's partners carrying its weight
        x, wx = x[x.size // 2 :], 2.0 * wx[wx.size // 2 :]
        y, wy = y[y.size // 2 :], 2.0 * wy[wy.size // 2 :]
    # row blocks of about BLOCK_NODES nodes keep the integrand's temporaries
    # in cache; the einsum reduction stays single-threaded (no BLAS) and the
    # partial sums add in fixed block order, so the value depends on nothing
    # but (nx, ny)
    rows = max(1, BLOCK_NODES // y.size)
    total = 0.0
    for i in range(0, x.size, rows):
        x_blk = x[i : i + rows]
        values = np.asarray(f(x_blk[:, None], y[None, :]), dtype=float)
        if values.shape != (x_blk.size, y.size):
            raise DomainError(
                f"integrand must broadcast to shape {(x_blk.size, y.size)} on rows "
                f"{i}:{i + x_blk.size} of the {x.size}x{y.size} grid, got {values.shape}"
            )
        total += float(np.einsum("i,i->", wx[i : i + rows], np.einsum("ij,j->i", values, wy)))
    return total, x.size * y.size


def _tensor_gauss(f, x0, x1, y0, y1, spec: QuadratureSpec, initial_panels, even):
    nx, ny = (max(2, n) for n in initial_panels)
    max_evals = int(spec.max_evals)
    # evaluated nodes per pair of x and y panels: 16 x 16, or one quadrant
    panel_evals = 64 if even else 256

    def grid(nx, ny):
        return _tensor_eval(f, x0, x1, y0, y1, nx, ny, _GL16_X, _GL16_W, even)

    # an axis whose doubling delta falls far below tolerance is frozen: its
    # last delta keeps counting toward the error but costs no more doublings
    frozen_x = frozen_y = False
    best, err, evals = math.nan, math.inf, 0
    while True:
        # a round doubles each unfrozen axis once, the first also running the
        # base grid; it is priced in Python numbers (a hinted count may be
        # inf) before any int() or grid
        unfrozen = (not frozen_x) + (not frozen_y)
        cost = ((evals == 0) + 2 * unfrozen) * panel_evals * nx * ny
        if evals + cost > max_evals:
            return IntegralResult(best, err, evals, False, "tensor_gauss")
        if evals == 0:
            nx, ny = int(nx), int(ny)
            value, evals = grid(nx, ny)
        if not frozen_x:
            value_x2, n = grid(2 * nx, ny)
            evals += n
            err_x = abs(value_x2 - value)
        if not frozen_y:
            value_y2, n = grid(nx, 2 * ny)
            evals += n
            err_y = abs(value_y2 - value)

        # splitting combination: refined-in-both estimate at no extra evals
        if frozen_x:
            best = value_y2
        elif frozen_y:
            best = value_x2
        else:
            best = value_x2 + value_y2 - value
        err = err_x + err_y
        tol = max(spec.rel_tol * abs(best), spec.abs_tol)
        if err <= tol:
            return IntegralResult(best, err, evals, True, "tensor_gauss")
        frozen_x = frozen_x or err_x <= 0.05 * tol
        frozen_y = frozen_y or err_y <= 0.05 * tol
        if not frozen_x and (frozen_y or err_x >= err_y):
            nx *= 2
            value = value_x2
        elif not frozen_y:
            ny *= 2
            value = value_y2
        else:
            # both frozen yet err > tol: deltas stalled above tolerance
            return IntegralResult(best, err, evals, False, "tensor_gauss")


def integrate_2d(
    f: Callable,
    domain,
    spec: Optional[QuadratureSpec] = None,
    initial_panels: Tuple[int, int] = (2, 2),
) -> IntegralResult:
    """Integrate f over the rectangle domain = ((x0, x1), (y0, y1)).

    f must be vectorized and pointwise: it is called on row blocks of the
    node grid, with a column x_blk[:, None] of consecutive x nodes and the
    row y[None, :] of all y nodes, and must return the
    (len(x_blk), len(y)) array of values, each depending only on its own
    node. f may reuse internal buffers from call to call, but each call
    must return a fresh array, since a caller may keep an earlier call's
    result. initial_panels is a performance hint (starting panel count per
    axis, whole or inf); it never changes what converged means, only how
    fast the rule gets there. Identical inputs produce bit-identical results.

    An EvenDomain promises f(x0 + x1 - x, y) = f(x, y) = f(x, y0 + y1 - y);
    f is then called only on nodes at or above both centres, and evals and
    max_evals count those evaluated nodes, a quarter of the plain
    rectangle's. An integrand that breaks the promise gets a wrong value.
    """
    spec = spec if spec is not None else QuadratureSpec()
    x0, x1, y0, y1 = _check_domain(domain)
    return _tensor_gauss(f, x0, x1, y0, y1, spec, initial_panels, isinstance(domain, EvenDomain))


def _check_edges(edges) -> Tuple[float, ...]:
    try:
        points = tuple(float(x) for x in edges)
    except (TypeError, ValueError):
        raise DomainError(f"edges must be a sequence of numbers, got {edges!r}") from None
    if len(points) < 2 or not (
        np.isfinite(points).all() and all(a < b for a, b in zip(points, points[1:]))
    ):
        raise DomainError(f"edges must be at least two finite, increasing points, got {edges!r}")
    return points


def _piecewise_eval(f, edges, panels):
    # every piece's panel rule in order, called in runs of at most
    # BLOCK_NODES nodes; partial sums add in fixed order, so the value
    # depends on nothing but the panel counts
    total, evals = 0.0, 0
    for a, b, n in zip(edges[:-1], edges[1:], panels):
        x, w = _panel_rule(a, b, n, _GL16_X, _GL16_W)
        for i in range(0, x.size, BLOCK_NODES):
            x_blk = x[i : i + BLOCK_NODES]
            values = np.asarray(f(x_blk), dtype=float)
            if values.shape != x_blk.shape:
                raise DomainError(
                    f"integrand must return shape {x_blk.shape} on nodes {i}:{i + x_blk.size} "
                    f"of [{a!r}, {b!r}], got {values.shape}"
                )
            total += float(np.einsum("i,i->", w[i : i + BLOCK_NODES], values))
        evals += x.size
    return total, evals


def integrate_1d(
    f: Callable,
    edges: Sequence[float],
    spec: Optional[QuadratureSpec] = None,
    initial_panels: Optional[Sequence[float]] = None,
) -> IntegralResult:
    """Integrate f over [edges[0], edges[-1]], one panel rule per piece.

    The pieces are [edges[i], edges[i + 1]]; put an edge wherever f has a
    kink, so that each piece is smooth. initial_panels gives each piece's
    starting panel count (whole or inf; 2 each by default), a
    performance hint like integrate_2d's. Each round doubles every piece's
    panels, and the error estimate is the change of the whole sum. f must
    be vectorized and pointwise: it is called on runs of consecutive nodes
    x (a 1-D array) and returns the array of values of x's shape. Rounds
    are priced against max_evals before they run, as in integrate_2d, and
    a start the budget cannot pay for is refused as (nan, inf, 0, False).
    Identical inputs produce bit-identical results.
    """
    spec = spec if spec is not None else QuadratureSpec()
    edges = _check_edges(edges)
    hints = (2,) * (len(edges) - 1) if initial_panels is None else tuple(initial_panels)
    if len(hints) != len(edges) - 1:
        raise DomainError(f"{len(hints)} panel counts for {len(edges) - 1} pieces")
    panels = [max(2, n) for n in hints]
    max_evals = int(spec.max_evals)
    value, err, evals = math.nan, math.inf, 0
    while True:
        # the first round runs the start and its doubling, each later one a
        # doubling; priced in Python numbers before any int() or node
        cost = ((evals == 0) + 2) * 16 * sum(panels)
        if evals + cost > max_evals:
            return IntegralResult(value, err, evals, False, "gauss_1d")
        if evals == 0:
            panels = [int(n) for n in panels]
            value, evals = _piecewise_eval(f, edges, panels)
        panels = [2 * n for n in panels]
        refined, n = _piecewise_eval(f, edges, panels)
        evals += n
        value, err = refined, abs(refined - value)
        if err <= max(spec.rel_tol * abs(value), spec.abs_tol):
            return IntegralResult(value, err, evals, True, "gauss_1d")
