"""Deterministic quadrature over rectangles and over piecewise intervals.

One rule: panelized 16-point Gauss-Legendre, refined by one loop over a
list of axes, each axis a run of pieces with one panel count per piece.
integrate_2d is the product rule on two axes, the first of one or more
pieces: each round trial-doubles every piece of every axis not yet frozen
and keeps the doubling with the larger delta. integrate_1d is the same
loop on one axis of several pieces, where every round doubles every piece.
The caller hints a starting panel count per piece. converged means the
error estimate met QuadratureSpec.tolerance(value).

The rule is open (no endpoint evaluations) and fully deterministic, and
max_evals is the one bound on its work: it never starts a refinement round
the budget cannot pay for. evals and max_evals count the nodes of the
integral's own rule. The integrals of the components of one vector
integrand f can share its grids: GridShare(f).component(i) is component i
as an integrand. The integrand is called on blocks of about BLOCK_NODES
nodes or fewer, a run of consecutive nodes of the first axis times the
whole second axis, and each block is reduced before the next is
evaluated: a grid that fits in one block is one call on the joined nodes
of all its pieces, a larger one is walked piece by piece and never built
whole. A share evaluates each such piece, or joined grid, once for all
its components and keeps its block sums, so grids that have a piece in
common evaluate it once and fewer nodes may be evaluated than the evals
add up to, while every integral keeps its own schedule, evals and
result: a grid's sum is its block sums added in walk order, bit for bit
the sum of the grid walked alone. Integrands must therefore be pointwise
(a node's value depends on its own coordinates only) and broadcast: in 2D
f(x_blk[:, None], y[None, :]) -> (len(x_blk), len(y)) array, in 1D
f(x_blk) -> array of x_blk's shape. They must not write into the nodes,
which may be the read-only arrays of a kept panel rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .units import DomainError, QuadratureSpec

__all__ = [
    "IntegralResult",
    "ConvergenceError",
    "integrate_1d",
    "integrate_2d",
]

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)

# integrand nodes per call of the panel rule: a block's float64 temporaries
# (128 KiB each) stay in a per-core L2 cache; the fastest of 2^13..2^17 on
# the L = 100 um ratio grids
BLOCK_NODES = 2**14


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of one integration.

    converged is True exactly when error_estimate <= spec.tolerance(value)
    was reached. evals counts the nodes of this integral's own rule and
    never exceeds max_evals; integrals that share grids through a GridShare
    may evaluate fewer nodes than their evals add up to. A start the
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


def _check_edges(edges) -> Tuple[float, ...]:
    try:
        points = tuple(float(x) for x in edges)
    except (TypeError, ValueError):
        raise DomainError(f"edges must be a sequence of numbers, got {edges!r}") from None
    if len(points) < 2 or not (
        all(map(math.isfinite, points)) and all(a < b for a, b in zip(points, points[1:]))
    ):
        raise DomainError(f"edges must be at least two finite, increasing points, got {edges!r}")
    return points


def _new_rule(a: float, b: float, n_panels: int):
    # n_panels equal subintervals, each carrying one scaled Gauss rule, read-only
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL16_X[None, :]).ravel()
    w = (half[:, None] * _GL16_W[None, :]).ravel()
    x.flags.writeable = w.flags.writeable = False
    return x, w


_kept_rule = functools.lru_cache(maxsize=256)(_new_rule)


def _panel_rule(a: float, b: float, n_panels: int):
    # rules of one block or less recur across the grids of a round, both
    # kinds and every L at one waist, and cost more to build than to keep;
    # a larger one is built anew, so the cache holds at most 64 MiB
    return (_kept_rule if 16 * n_panels <= BLOCK_NODES else _new_rule)(a, b, n_panels)


def _grid_runs(axes, panels):
    # the product rule's walk over the grid: the runs of the first axis it
    # is evaluated in, each (key, edges, counts), and the second axis's rule
    # with the rows of a block. A run is the joined pieces if the whole grid
    # fits in one block, else one piece; a run's key names its nodes and
    # blocks, so runs that two grids have in common have one key
    y = wy = tau = None
    if len(axes) == 2:
        (y0, y1), (ny,) = axes[1], panels[1]
        y, wy = _panel_rule(y0, y1, ny)
        tau = y0, y1, ny
    rows = max(1, BLOCK_NODES // (1 if y is None else y.size))
    edges, counts = tuple(axes[0]), tuple(panels[0])
    if len(counts) > 1 and 16 * sum(counts) <= rows:
        runs = [(edges, counts)]
    else:
        runs = [((a, b), (n,)) for a, b, n in zip(edges, edges[1:], counts)]
    return [((run, tau), *run) for run in runs], y, wy, rows


def _run_sums(f, edges, counts, y, wy, rows):
    # the block sums of one run in walk order, one list per block holding a
    # sum per array of the tuple f returns, and the run's node count. Blocks
    # are consecutive nodes of the first axis, each times the whole second
    # axis, about BLOCK_NODES nodes, so the integrand's temporaries stay in
    # cache. The einsum reductions stay single-threaded (no BLAS), so each
    # sum depends on nothing but the block's nodes
    rules = [_panel_rule(a, b, n) for a, b, n in zip(edges, edges[1:], counts)]
    x, w = rules[0] if len(rules) == 1 else map(np.concatenate, zip(*rules))
    blocks = []
    for i in range(0, x.size, rows):
        x_blk = x[i : i + rows]
        if y is None:
            shape, parts = x_blk.shape, f(x_blk)
        else:
            shape, parts = (x_blk.size, y.size), f(x_blk[:, None], y[None, :])
        sums = []
        for values in parts:
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise DomainError(
                    f"integrand must return shape {shape} on nodes {i}:{i + x_blk.size} "
                    f"of [{edges[0]!r}, {edges[-1]!r}], got {values.shape}"
                )
            if y is not None:
                values = np.einsum("ij,j->i", values, wy)
            sums.append(float(np.einsum("i,i->", w[i : i + rows], values)))
        blocks.append(sums)
    return blocks, x.size * (1 if y is None else y.size)


class GridShare:
    """Grid sums of one vector integrand, shared by the integrals of its components.

    f is called like an integrand but returns a tuple of arrays, component i
    for the i-th integral, each a fresh array or a buffer valid until f's
    next call. Each run of a grid's walk (a piece of the first axis, or all
    of them joined when the grid fits in one block) is evaluated once, for
    every component, and its block sums are kept, so grids that have a
    piece in common evaluate it once; a grid's sum is its block sums added
    in walk order, as if the grid were walked alone. nodes counts the nodes
    evaluated. component(i) is the i-th component as a marked integrand:
    integrate_2d and integrate_1d take its grid sums from here, while it
    keeps its own schedule, evals and result. A wrapper hides the mark; the
    component then evaluates f on its own grids, and counts them.
    """

    def __init__(self, f: Callable) -> None:
        self._f = f
        self._sums: dict = {}
        self.nodes = 0

    def component(self, index: int) -> Callable:
        def marked(*nodes):
            values = self._f(*nodes)[index]
            self.nodes += np.size(values)
            return values

        marked.grid_share = self, index
        return marked

    def grid_sum(self, index: int, axes, panels) -> Tuple[float, int]:
        runs, y, wy, rows = _grid_runs(axes, panels)
        total, evals = 0.0, 0
        for key, edges, counts in runs:
            if key not in self._sums:
                self._sums[key] = _run_sums(self._f, edges, counts, y, wy, rows)
                self.nodes += self._sums[key][1]
            blocks, nodes = self._sums[key]
            for sums in blocks:
                total += sums[index]
            evals += nodes
        return total, evals


def _refine(f, axes, spec: Optional[QuadratureSpec], initial_panels) -> IntegralResult:
    # the one refinement loop: axes are tuples of piece edges, and
    # initial_panels holds one starting count per piece, axis after axis
    spec = spec if spec is not None else QuadratureSpec()
    share, index = getattr(f, "grid_share", None) or (GridShare(lambda *nodes: (f(*nodes),)), 0)
    hints = tuple(initial_panels)
    pieces = [len(edges) - 1 for edges in axes]
    if len(hints) != sum(pieces):
        raise DomainError(
            f"initial_panels must hold one panel count for each of {sum(pieces)} pieces, "
            f"got {initial_panels!r}"
        )
    starts = iter(max(2, n) for n in hints)
    panels = [[next(starts) for _ in range(count)] for count in pieces]
    method = "gauss_1d" if len(axes) == 1 else "tensor_gauss"
    # nodes per panel of every axis
    panel_evals = 16 ** len(axes)
    max_evals = int(spec.max_evals)

    # an axis whose doubling delta falls far below tolerance is frozen: its
    # last delta keeps counting toward the error but costs no more doublings.
    # A lone axis never freezes before it converges (a delta <= 0.05 tol
    # already meets tol), so in 1D every round doubles every piece.
    frozen = [False] * len(axes)
    deltas = [0.0] * len(axes)
    best, err, evals = math.nan, math.inf, 0
    while True:
        live = [a for a, done in enumerate(frozen) if not done]
        # a round doubles each live axis once, the first also running the
        # base grid; it is priced in Python numbers (a hinted count may be
        # inf) before any int() or grid
        cost = ((evals == 0) + 2 * len(live)) * panel_evals
        for counts in panels:
            cost *= sum(counts)
        if evals + cost > max_evals:
            return IntegralResult(best, err, evals, False, method)
        if evals == 0:
            panels = [[int(n) for n in counts] for counts in panels]
            value, evals = share.grid_sum(index, axes, panels)
        trials = {}
        for a in live:
            doubled = [[2 * n for n in c] if b == a else c for b, c in enumerate(panels)]
            trial, n = share.grid_sum(index, axes, doubled)
            evals += n
            deltas[a] = abs(trial - value)
            trials[a] = doubled, trial

        # splitting combination: refined along every live axis at no extra evals
        best = trials[live[0]][1]
        for a in live[1:]:
            best = best + trials[a][1] - value
        err = sum(deltas)
        tol = spec.tolerance(best)
        if err <= tol:
            return IntegralResult(best, err, evals, True, method)
        for a in live:
            frozen[a] = deltas[a] <= 0.05 * tol
        live = [a for a in live if not frozen[a]]
        if not live:
            # every axis frozen yet err > tol: deltas stalled above tolerance
            return IntegralResult(best, err, evals, False, method)
        # double the live axis with the larger delta, the first on a tie
        pick = functools.reduce(lambda a, b: a if deltas[a] >= deltas[b] else b, live)
        panels, value = trials[pick]


def integrate_2d(
    f: Callable,
    domain,
    spec: Optional[QuadratureSpec] = None,
    initial_panels: Optional[Sequence[float]] = None,
) -> IntegralResult:
    """Integrate f over the rectangle domain = ((x0, ..., x1), (y0, y1)).

    Interior edges of the first axis split it into pieces, as integrate_1d's
    edges do. f must be vectorized and pointwise: it is called on row blocks
    of the node grid, with a column x_blk[:, None] of consecutive x nodes
    (of one piece, or of all if the grid fits in one block) and the row
    y[None, :] of all y nodes, and must return the (len(x_blk), len(y))
    array of values, each depending only on its own node. f must not write
    into the nodes, which may be read-only, and may reuse internal buffers
    from call to call, but each call must return a fresh array, since a
    caller may keep an earlier call's result. initial_panels is a
    performance hint (starting panel count per piece of the first axis,
    then the second; whole or inf, 2 by default); it never changes what
    converged means, only how fast the rule gets there. Identical inputs
    produce bit-identical results.

    An f marked by GridShare.component takes its grid sums from the share,
    which may have evaluated them already for another component; evals still
    count every node of this integral's rule.
    """
    try:
        first, (y0, y1) = domain
    except (TypeError, ValueError):
        raise DomainError(f"domain must be ((x0, ..., x1), (y0, y1)), got {domain!r}") from None
    axes = [_check_edges(first), _check_edges((y0, y1))]
    # by default 2 per piece: len(edges) - 1 on the first axis, 1 on the second
    hints = (2,) * len(axes[0]) if initial_panels is None else initial_panels
    return _refine(f, axes, spec, hints)


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
    performance hint like integrate_2d's. It is integrate_2d's loop on one
    axis: each round doubles every piece's panels, and the error estimate
    is the change of the whole sum. f must be vectorized and pointwise: it
    is called on runs of consecutive nodes x (a 1-D array, of one piece or
    of all if they fit in one block) and returns the array of values of x's
    shape, without writing into x. Identical inputs produce bit-identical
    results.
    """
    edges = _check_edges(edges)
    hints = (2,) * (len(edges) - 1) if initial_panels is None else initial_panels
    return _refine(f, [edges], spec, hints)
