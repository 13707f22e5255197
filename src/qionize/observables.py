"""Normalization constants, collection factors, fluxes, and the enhancement ratio.

Quantities built from the reduced amplitude carry divergent Gaussian filter
constants that cancel in every reported ratio. They are tracked symbolically:
each per-photon coherent integral contributes one power of
g1 = 2 pi / (omega_y * omega) and each per-photon squared integral one power
of g2 = pi / (omega_y * omega). A Quantity is a numeric reduced part times
g1^a * g2^b; the enhancement ratio asserts neutrality (a = b = 0) before
exposing a plain float.
"""

from __future__ import annotations

import enum
import math
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .amplitude import (
    AmplitudeKind,
    _pump_envelope,
    _reduced_amplitude,
    check_narrowband_guard,
    sinc,
)
from .quadrature import (
    BLOCK_NODES,
    ConvergenceError,
    GridShare,
    IntegralResult,
    integrate_1d,
    integrate_2d,
)
from .units import C_UM_PER_S, DEFAULT_CHANNEL_ENERGY_EV, DomainError, ExperimentConfig, Regime

__all__ = [
    "Parity",
    "Channel",
    "builtin_channels",
    "DIPOLE",
    "KernelError",
    "TabulatedKernel",
    "load_kernel",
    "save_kernel",
    "make_synthetic_kernel",
    "FilterFactor",
    "Quantity",
    "RatioResult",
    "normalization",
    "photon_flux",
    "f_factor",
    "INTEGRALS",
    "CONVENTIONS",
    "ratio_from_integrals",
    "enhancement_ratio",
]


class _Workspace(threading.local):
    """Block-sized float64 rows that every reduced integrand and kernel call works in.

    rows(shape, first, count) gives rows first to first + count - 1 of one
    slab, each viewed as a float array of shape and valid until the next
    call that asks for the same rows. The slab holds BLOCK_NODES nodes per
    row from the start and grows only for a larger block; earlier views
    then keep the old slab alive. Each thread has its own slab.
    """

    def __init__(self) -> None:
        self.slab = np.empty((_WORKSPACE_ROWS, 0))

    def rows(self, shape, first: int, count: int) -> List[np.ndarray]:
        size = math.prod(shape)
        if size > self.slab.shape[1]:
            self.slab = np.empty((_WORKSPACE_ROWS, max(size, BLOCK_NODES)))
        return [row[:size].reshape(shape) for row in self.slab[first : first + count]]


# (first row, row count) of each user of the workspace: the integrand's
# four rows of u's shape and ten of the block's, and the averaged kernel's
# two results and six interpolation scratch rows
_COLUMN_ROWS = (0, 4)
_BLOCK_ROWS = (4, 10)
_EVEN_KERNEL_ROWS = (14, 8)
_WORKSPACE_ROWS = 22
_WORKSPACE = _Workspace()


class KernelError(ValueError):
    """A channel kernel is missing or malformed."""


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"


@dataclass(frozen=True)
class TabulatedKernel:
    """Angular weight K(kix, ksx) on a uniform normalized grid.

    values[i, j] samples K at (t_i, t_j) with t = kx / k0 uniform over
    [-1, 1] inclusive (row index = first photon). Evaluation is bilinear;
    the normalized grid makes one table serve any central wavenumber.
    """

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise KernelError(f"kernel grid must be at least 2x2, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise KernelError("kernel grid contains non-finite values")
        # C order, so values.ravel() is a view
        object.__setattr__(self, "values", np.ascontiguousarray(arr))

    # value equality, so that a Channel carrying a kernel compares and
    # hashes; + 0.0 maps -0.0 to 0.0, which np.array_equal treats as equal
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabulatedKernel):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.name, self.values.shape, (self.values + 0.0).tobytes()))

    def evaluate(self, kix, ksx, k0: float):
        """Bilinear interpolation at (kix, ksx) for central wavenumber k0.

        A scalar pair gives a float, arrays an array of their broadcast shape.
        """
        if not k0 > 0.0:
            raise DomainError(f"k0 must be > 0, got {k0!r}")
        kix_arr = np.asarray(kix, dtype=float)
        ksx_arr = np.asarray(ksx, dtype=float)
        shape = np.broadcast_shapes(kix_arr.shape, ksx_arr.shape)
        value = np.empty(shape)
        self._interpolate(kix_arr, ksx_arr, k0, value, [np.empty(shape) for _ in range(6)])
        if np.ndim(kix) == 0 and np.ndim(ksx) == 0:
            return float(value)
        return value

    def _interpolate(self, kix, ksx, k0: float, value, scratch) -> None:
        # value and the six scratch arrays are float arrays of the broadcast
        # shape of the float arrays kix and ksx, and k0 > 0. The whole-array
        # formula v00 (1 - fi)(1 - fs) + v10 fi (1 - fs) + v01 (1 - fi) fs
        # + v11 fi fs, one in-place step at a time in its operation order;
        # table entries come from the flat table by index
        ni, ns = self.values.shape
        fi, fs, cell, cell_s, gi, term = scratch
        idx, idx_s = cell.view(np.int64), cell_s.view(np.int64)
        for kx, pos, n, index in ((kix, fi, ni, idx), (ksx, fs, ns, idx_s)):
            # clipped normalized coordinate, its cell index and offset
            np.clip(np.divide(kx, k0, out=pos), -1.0, 1.0, out=pos)
            np.multiply(np.multiply(np.add(pos, 1.0, out=pos), 0.5, out=pos), n - 1, out=pos)
            np.copyto(index, pos, casting="unsafe")
            np.clip(index, 0, n - 2, out=index)
            np.subtract(pos, index, out=pos)
        np.add(np.multiply(idx, ns, out=idx), idx_s, out=idx)
        gs = cell_s  # 1 - fs, once the column index is spent
        table = self.values.ravel()
        np.take(table, idx, out=value, mode="clip")
        np.subtract(1, fi, out=gi)
        np.subtract(1, fs, out=gs)
        np.multiply(np.multiply(value, gi, out=value), gs, out=value)
        for step, a, b in ((ns, fi, gs), (1 - ns, gi, fs), (ns, fi, fs)):
            np.take(table, np.add(idx, step, out=idx), out=term, mode="clip")
            np.add(value, np.multiply(np.multiply(term, a, out=term), b, out=term), out=value)


def load_kernel(path: str, name: Optional[str] = None) -> TabulatedKernel:
    """Read a kernel table.

    Format: header line ``kernel v1 <n_i> <n_s>`` followed by n_i lines of
    n_s whitespace-separated values (row-major over the uniform normalized
    grid). ``#`` lines are comments.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except UnicodeDecodeError as exc:
        raise KernelError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise KernelError(f"{path}: empty kernel file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "kernel" or header[1] != "v1":
        raise KernelError(f"{path}: expected header 'kernel v1 <n_i> <n_s>', got {lines[0]!r}")
    try:
        ni, ns = int(header[2]), int(header[3])
    except ValueError:
        raise KernelError(f"{path}: non-integer grid sizes in header {lines[0]!r}") from None
    if ni < 2 or ns < 2:
        raise KernelError(f"{path}: kernel grid must be at least 2x2, got header {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        try:
            rows.extend(float(tok) for tok in ln.split())
        except ValueError:
            raise KernelError(f"{path}: malformed kernel value in line {ln!r}") from None
    if len(rows) != ni * ns:
        raise KernelError(f"{path}: expected {ni * ns} values, got {len(rows)}")
    values = np.array(rows, dtype=float).reshape(ni, ns)
    try:
        return TabulatedKernel(name or path, values)
    except KernelError as exc:
        raise KernelError(f"{path}: {exc}") from None


def save_kernel(path: str, kernel: TabulatedKernel) -> None:
    ni, ns = kernel.values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kernel v1 {ni} {ns}\n")
        for row in kernel.values:
            # plain-float repr round-trips exactly and stays parseable
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def make_synthetic_kernel(parity: Parity, n: int = 101) -> TabulatedKernel:
    """Closed-form angular kernels for symmetry tests.

    With theta = asin(kx / k0): parity-even K = cos(theta_i) cos(theta_s),
    parity-odd K = sin(theta_i) sin(theta_s). Sampled on the uniform
    normalized grid; these are test fixtures, not physical matrix elements.
    """
    if n < 2:
        raise KernelError(f"synthetic kernel needs n >= 2, got {n}")
    t = np.linspace(-1.0, 1.0, n)
    theta = np.arcsin(t)
    if parity is Parity.ODD:
        values = np.sin(theta)[:, None] * np.sin(theta)[None, :]
        return TabulatedKernel("synthetic_parity_odd", values)
    values = np.cos(theta)[:, None] * np.cos(theta)[None, :]
    return TabulatedKernel("synthetic_parity_even", values)


@dataclass(frozen=True)
class Channel:
    """A two-photon transition target.

    Channels with ell > 1 need an explicit kernel table before ratios can be
    computed; results are then labeled model_kernel since the weighting is a
    model input, not a first-principles matrix element.
    """

    name: str
    transition_energy_ev: float
    ell: int
    parity: Parity
    kernel: Optional[TabulatedKernel] = None

    def __post_init__(self) -> None:
        if not self.transition_energy_ev > 0.0:
            raise DomainError(f"transition_energy_ev must be > 0, got {self.transition_energy_ev!r}")
        if self.ell < 1:
            raise DomainError(f"ell must be >= 1, got {self.ell!r}")

    def with_kernel(self, kernel: TabulatedKernel) -> "Channel":
        return replace(self, kernel=kernel)


DIPOLE = Channel("dipole", DEFAULT_CHANNEL_ENERGY_EV, 1, Parity.ODD)
QUADRUPOLE = Channel("quadrupole", 4.283461, 2, Parity.EVEN)
OCTUPOLE = Channel("octupole", 4.288194, 3, Parity.ODD)
HEXADECAPOLE = Channel("hexadecapole", 4.594759, 4, Parity.EVEN)


def builtin_channels() -> Dict[str, Channel]:
    return {c.name: c for c in (DIPOLE, QUADRUPOLE, OCTUPOLE, HEXADECAPOLE)}


@dataclass(frozen=True)
class FilterFactor:
    """Exponents of the symbolic per-photon filter constants g1, g2."""

    g1: int = 0
    g2: int = 0

    def __mul__(self, other: "FilterFactor") -> "FilterFactor":
        return FilterFactor(self.g1 + other.g1, self.g2 + other.g2)

    def __truediv__(self, other: "FilterFactor") -> "FilterFactor":
        return FilterFactor(self.g1 - other.g1, self.g2 - other.g2)

    @property
    def neutral(self) -> bool:
        return self.g1 == 0 and self.g2 == 0

    def __str__(self) -> str:
        return f"g1^{self.g1} g2^{self.g2}"


@dataclass(frozen=True)
class Quantity:
    """A numeric reduced part times symbolic filter constants."""

    value: float
    factor: FilterFactor = FilterFactor()

    def __mul__(self, other: "Quantity") -> "Quantity":
        return Quantity(self.value * other.value, self.factor * other.factor)

    def __truediv__(self, other: "Quantity") -> "Quantity":
        return Quantity(self.value / other.value, self.factor / other.factor)


# The six reduced integrals in the order enhancement_ratio evaluates them,
# name -> (amplitude kind, power p, obliquity): the integral of F^p, times
# the obliquity w if set. C, f and Phi are functions of their values.
INTEGRALS: Mapping[str, Tuple[AmplitudeKind, int, bool]] = {
    "I1_ent": (AmplitudeKind.ENTANGLED, 1, False),
    "I2_ent": (AmplitudeKind.ENTANGLED, 2, False),
    "I2w_ent": (AmplitudeKind.ENTANGLED, 2, True),
    "I1_sep": (AmplitudeKind.SEPARABLE, 1, False),
    "I2_sep": (AmplitudeKind.SEPARABLE, 2, False),
    "I2w_sep": (AmplitudeKind.SEPARABLE, 2, True),
}


# The model's conventions, read by the reduced integrals, the Monte Carlo
# oracle, RatioResult.diagnostics and the sweep file headers: the paraxial
# obliquity kiz/|ki| + ksz/|ks| is a constant, and the pump sum u is cut at
# pump_truncation_sigmas / omega_p (error bound exp(-sigmas^2 / 2)).
CONVENTIONS: Mapping[str, object] = {
    "obliquity_exact": "per-photon kz/|k| summed",
    "obliquity_paraxial": 2.0,
    "pump_truncation_sigmas": 10.0,
}


def _c_quantity(i2: float) -> Quantity:
    return Quantity(1.0 / math.sqrt(i2), FilterFactor(g2=-1))


def _f_quantity(i1: float, i2w: float) -> Quantity:
    return Quantity(i1**2 / i2w, FilterFactor(g1=4, g2=-2))


def _phi_quantity(i2: float, i2w: float) -> Quantity:
    return Quantity(C_UM_PER_S * i2w / math.sqrt(i2), FilterFactor(g2=1))


def _umax(cfg: ExperimentConfig) -> float:
    # pump tails truncated (see CONVENTIONS) or the kinematic edge
    # |u| = 2 k0, whichever is tighter
    sigmas = CONVENTIONS["pump_truncation_sigmas"]
    return min(sigmas / cfg.pump_waist_um, 2.0 * cfg.k0 * (1.0 - 1e-12))


def _even_kernel(kernel: TabulatedKernel, k0: float) -> Callable:
    """K averaged over the reduced integrand's two reflections, at (kix, ksx).

    Photon exchange (sigma -> -sigma) maps K(kix, ksx) to K(ksx, kix), the
    table's transpose; (kix, ksx) -> (-ksx, -kix) (tau -> -tau) maps it to
    the transpose of v[::-1, ::-1]. The reduced amplitude is invariant under
    both, so the average leaves the integral of F K over the plane unchanged
    and makes the integrand even in sigma and in tau. On a square table the
    average is one table: bilinear interpolation on the uniform grid through
    +-1 commutes with transposing and reversing it. The returned callable writes into
    workspace rows, valid until its next call.
    """
    v = kernel.values + kernel.values[::-1, ::-1]
    square = v.shape[0] == v.shape[1]
    # a non-square table's transpose lies on another grid: exchange on the fly
    table = TabulatedKernel(kernel.name, 0.25 * (v + v.T) if square else 0.5 * v)

    def even(kix, ksx):
        shape = np.broadcast_shapes(np.shape(kix), np.shape(ksx))
        a, b, *scratch = _WORKSPACE.rows(shape, *_EVEN_KERNEL_ROWS)
        table._interpolate(kix, ksx, k0, a, scratch)
        if not square:
            table._interpolate(ksx, kix, k0, b, scratch)
            np.multiply(np.add(a, b, out=a), 0.5, out=a)
        return a

    return even


def _chord(cfg: ExperimentConfig) -> Callable:
    """h(sigma) = min(umax, u_edge(sigma)), the half-length of the u chord at sigma.

    u_edge is the rhombus edge |u| + |v| = 2 k0: 2 k0 - 2 sqrt(k0) |sigma|
    paraxially, exactly the smaller root of a quadratic, free of cancellation.
    """
    k0, umax = cfg.k0, _umax(cfg)
    root_k0, two_k0, four_k0_sq = math.sqrt(k0), 2.0 * k0, 4.0 * k0 * k0
    if cfg.regime is Regime.PARAXIAL:
        return lambda sigma: np.minimum(umax, two_k0 - np.abs((2.0 * root_k0) * sigma))

    def h(sigma):
        square = np.square(sigma)
        fourth = np.square(square)
        edge = np.square((two_k0 - square) * (two_k0 + square)) / (
            2.0 * (k0 * (four_k0_sq + fourth) + fourth * np.sqrt(2.0 * four_k0_sq - fourth)))
        return np.minimum(umax, edge)

    return h


def _phase_edges(cfg: ExperimentConfig) -> Tuple[float, ...]:
    """The sigma pieces: 0, sigma_band (the chord h's kink, unless it rounds away), sigma_top."""
    k0, umax = cfg.k0, _umax(cfg)
    if cfg.regime is Regime.PARAXIAL:
        top, band = math.sqrt(k0), (2.0 * k0 - umax) / (2.0 * math.sqrt(k0))
    else:
        # sigma_max(u)^2 = sqrt(4 k0^2 - u^2) - sqrt(u (2 k0 - u)), factored
        top = math.sqrt(2.0 * k0)
        band = math.sqrt(
            math.sqrt(2.0 * k0 - umax) * (math.sqrt(2.0 * k0 + umax) - math.sqrt(umax)))
    return (0.0, band, top) if band < top else (0.0, top)


def _reduced_terms(
    cfg: ExperimentConfig,
    terms: Sequence[Tuple[AmplitudeKind, int, bool, bool]],
    even_kernel: Optional[Callable],
) -> Callable:
    """Integrand over phase-matching coordinates (sigma, tau), one array per term.

    Each term (kind, power p, obliquity, weighted) is F^p of its kind, times
    the exact obliquity w if set, times even_kernel if weighted, times the
    Jacobian: the integrands of INTEGRALS of either kind, each formed in the
    order of the one-term case from one amplitude, Jacobian, w and kernel
    per call. The separable F is the pump envelope, the entangled one the
    envelope times the sinc.

    sigma = sign(v) sqrt(delta_kz) and u = h(sigma) tau, with u = kix + ksx,
    v = kix - ksx and the chord h of _chord, is the map of README
    Conventions: the sinc reads sinc(L sigma^2 / 2), and exactly
    T = S - sigma^2 = kiz + ksz (w = T / k0). The integrand is even in sigma
    and tau as long as even_kernel is (see _even_kernel), so the integrals
    run over sigma, tau >= 0 with the Jacobian 4 (1/2) h dv/dsigma.

    A call works in place in the module workspace and returns a tuple of
    fresh arrays, one per term. Each factor is computed where it varies:
    sigma^2 and the sinc once per row, and where h = umax in every row (the
    interior piece) u, S and the pump envelope once per column.
    """
    k0 = cfg.k0
    paraxial = cfg.regime is Regime.PARAXIAL
    entangled = any(kind is AmplitudeKind.ENTANGLED for kind, _, _, _ in terms)
    oblique = any(obliquity for _, _, obliquity, _ in terms)
    weighted = any(weight for _, _, _, weight in terms)
    umax, root_k0, four_k0_sq, chord = _umax(cfg), math.sqrt(k0), 4.0 * k0 * k0, _chord(cfg)

    def f(sigma, tau):
        shape = np.broadcast_shapes(np.shape(sigma), np.shape(tau))
        square = np.square(sigma)
        h = chord(sigma)
        # one row of u where every row's chord is umax
        h_u = h[:1] if (h == umax).all() else h
        u, u_sq, s, pump = _WORKSPACE.rows(np.broadcast_shapes(np.shape(h_u), np.shape(tau)),
                                           *_COLUMN_ROWS)
        t, r, q, a, b, jac, value, term, kix, ksx = _WORKSPACE.rows(shape, *_BLOCK_ROWS)
        np.multiply(h_u, tau, out=u)
        _pump_envelope(u, cfg, pump)
        if entangled:
            value = _reduced_amplitude(pump, square, cfg, AmplitudeKind.ENTANGLED, value)
        if paraxial:
            v = (2.0 * root_k0) * sigma
            np.multiply(h, 4.0 * root_k0, out=jac)
        else:
            # S, T, r and q^2, then 2 h dv/dsigma
            np.sqrt(np.subtract(four_k0_sq, np.square(u, out=u_sq), out=s), out=s)
            np.sqrt(np.add(np.subtract(s, square, out=t), s, out=r), out=r)
            np.add(np.square(t, out=a), u_sq, out=q)
            np.divide(a, r, out=a)
            np.multiply(np.multiply(r, square, out=b), u_sq, out=b)
            np.subtract(a, np.divide(b, q, out=b), out=a)
            np.divide(np.multiply(a, 4.0 * h, out=jac), np.sqrt(q, out=q), out=jac)
            if weighted:
                v = np.divide(np.multiply(np.multiply(t, sigma, out=b), r, out=b), q, out=b)
            if oblique:
                w = np.divide(t, k0, out=t)
        if weighted:
            np.multiply(np.add(u, v, out=kix), 0.5, out=kix)
            np.multiply(np.subtract(u, v, out=ksx), 0.5, out=ksx)
        kernel = even_kernel(kix, ksx) if weighted else None
        parts = []
        for kind, power, obliquity, weight in terms:
            part = value if kind is AmplitudeKind.ENTANGLED else pump
            if power == 2:
                part = np.multiply(part, part, out=term)
            if obliquity:
                part = np.multiply(part, w, out=term)
            if weight:
                part = np.multiply(part, kernel, out=term)
            # the one fresh array of the term, which a caller may keep
            parts.append(part * jac)
        return tuple(parts)

    return f


def _start_panels(cfg: ExperimentConfig, edges: Sequence[float], kind: AmplitudeKind,
                  kernel: Optional[TabulatedKernel]) -> Tuple[float, ...]:
    # one start per sigma piece [a, b], then tau's 2 (which the paraxial 1D
    # route drops). The phase L sigma^2 / 2 turns at the rate L b at the top
    # b: an entangled piece starts at about 40 radians per panel, and at a
    # separable one's 2 where its phase fits in one such panel. v crosses
    # (n - 1) / 2 cells of a kernel table, each a kink, over sigma's whole
    # range: an integral the kernel weights starts at one panel per cell or
    # more. Whole Python floats, inf past overflow, priced against max_evals.
    length, pieces = float(cfg.crystal_length_um), list(zip(edges[:-1], edges[1:]))
    turns = [length * b * (b - a) / 40.0 if kind is AmplitudeKind.ENTANGLED else 0.0
             for a, b in pieces]
    counts = [2.0 + float(np.ceil(n)) if n > 1.0 else 2.0 for n in turns]
    if kernel is not None:
        cells = 0.5 * (max(kernel.values.shape) - 1) / edges[-1]
        counts = [max(n, float(np.ceil(cells * (b - a)))) for n, (a, b) in zip(counts, pieces)]
    return (*counts, 2.0)


_SQRT_PI = math.sqrt(math.pi)
_EPS = sys.float_info.epsilon


def _gauss_moment(h: np.ndarray, waist: float, power: int) -> np.ndarray:
    """g_p(h), the integral of exp(-p (waist u)^2 / 2) over |u| <= h, at each h >= 0.

    Written sqrt(pi) h erf(x) / x with x = h waist sqrt(p / 2), which has no
    1 / waist to overflow. Below x = 0.01 erf(x) / x is its series
    2 / sqrt(pi) (1 - x^2/3 + x^4/10 - x^6/42), exact to double precision
    there; above, math.erf node by node, since numpy has no erf.
    """
    x = h * (waist * math.sqrt(0.5 * power))
    x2 = x * x
    ratio = (2.0 / _SQRT_PI) * (1.0 - x2 * (1.0 / 3.0 - x2 * (0.1 - x2 / 42.0)))
    large = np.flatnonzero(x >= 0.01)
    ratio[large] = [math.erf(xi) / xi for xi in x[large].tolist()]
    return _SQRT_PI * h * ratio


def _separable_closed_form(cfg: ExperimentConfig, power: int) -> IntegralResult:
    """I1_sep or I2_sep from its erf form, any regime.

    F_sep^p = exp(-p (w u)^2 / 2) reads u alone, and the rhombus chord at u
    is 2 (2 k0 - |u|) long in v, so with d kix d ksx = (1/2) du dv
    I = 2 k0 g_p(umax) - umax^2 (1 - exp(-y)) / y, y = p (w umax)^2 / 2.
    The error estimate, 8 eps |I|, bounds the rounding of its dozen
    operations (mpmath references measure about one eps).
    """
    umax, waist = _umax(cfg), cfg.pump_waist_um
    y = (umax * waist) ** 2 * (0.5 * power)
    # (1 - exp(-y)) / y, by its series where y underflows or the quotient would cancel
    tail = 1.0 - 0.5 * y if y < 1e-8 else -math.expm1(-y) / y
    g_max = float(_gauss_moment(np.array([umax]), waist, power)[0])
    value = 2.0 * cfg.k0 * g_max - umax * umax * tail
    err = 8.0 * _EPS * value
    return IntegralResult(value, err, 0, err <= cfg.quadrature.tolerance(value), "closed_form")


def _paraxial_terms(cfg: ExperimentConfig, powers: Sequence[int]) -> Callable:
    """Paraxial I1_ent and I2_ent integrands over sigma, one array per power.

    The sigma route with tau in closed form: with dv = 2 sqrt(k0) dsigma,
    I_p = 2 sqrt(k0) times the integral of sinc(L sigma^2 / 2)^p g_p(h(sigma)),
    the u integral over the chord. A call computes the sinc and the chord
    once for all powers, and g_p, a constant below sigma_band, by erf above.
    """
    waist, umax, half_length = cfg.pump_waist_um, _umax(cfg), 0.5 * cfg.crystal_length_um
    chord, scale = _chord(cfg), 2.0 * math.sqrt(cfg.k0)
    g_max = [float(_gauss_moment(np.array([umax]), waist, power)[0]) for power in powers]

    def f(sigma):
        value = sinc(np.square(sigma) * half_length)
        h = chord(sigma)
        edge = np.flatnonzero(h < umax)
        parts = []
        for power, top in zip(powers, g_max):
            g = np.full(sigma.shape, top)
            g[edge] = _gauss_moment(h[edge], waist, power)
            part = np.multiply(value, value) if power == 2 else value
            # the one fresh array of the term: sinc^p, times g, times 2 sqrt(k0)
            parts.append(np.multiply(np.multiply(part, g, out=g), scale, out=g))
        return tuple(parts)

    return f


def _with_rounding(cfg: ExperimentConfig, result: IntegralResult, unit: float):
    """result with eight rounding units added to its estimate, converged re-judged.

    The doubling delta can reach 0 while rounding still counts: each node is
    off by about eps of |F_sep|^p times bound, the bound of its other factors,
    whatever the sinc's phase, so the sum by about eps times unit, the
    separable integral of power p times bound; mpmath references measure at
    most one such unit.
    """
    err = result.error_estimate + 8.0 * _EPS * unit
    converged = result.converged and err <= cfg.quadrature.tolerance(result.value)
    return replace(result, error_estimate=err, converged=converged)


def _paraxial_i2w(result: IntegralResult) -> IntegralResult:
    """Paraxial I2w from I2, no evals of its own: the constant obliquity times I2."""
    w = CONVENTIONS["obliquity_paraxial"]
    return IntegralResult(
        w * result.value, w * result.error_estimate, 0, result.converged, "twice_I2"
    )


def _reduced_integrals(
    cfg: ExperimentConfig,
    names: Collection[str],
    kernel: Optional[TabulatedKernel] = None,
    grid_nodes: Optional[Dict[str, int]] = None,
) -> Dict[str, IntegralResult]:
    """The named INTEGRALS at cfg, in the order of names.

    A kernel weights the coherent integrals I1 only. Each integral takes its
    cheapest exact route, named by its result's method:
    - paraxial, unweighted: I1_sep and I2_sep in closed form, I2w the
      paraxial obliquity times I2, and I1_ent and I2_ent by integrate_1d
      over sigma on the pieces of _phase_edges;
    - otherwise integrate_2d over sigma on those pieces and tau in [0, 1].
    Each quadrature integral starts from the panels of _start_panels, with
    the kernel only if it weights the integral, gets _with_rounding's units
    and is a component of a GridShare. A share holds the integrals
    of one route whose starts have the same tau count and the same count on
    the first sigma piece, of either kind, and its vector integrand
    (_reduced_terms in 2D, _paraxial_terms in 1D) returns one term per
    integral: each piece of a grid that any of them refines is evaluated
    once, while each keeps its own schedule, evals and result. The
    integrals run in the order of names, so for names in INTEGRALS order
    the exact regime makes its six calls in that order. integrate_1d and
    integrate_2d are the module globals, looked up at call time.
    grid_nodes, if given, receives the integrand nodes the shares
    evaluated: under a kind's value those of the shares that serve that
    kind alone, under "shared" those of the shares that serve both.
    """
    check_narrowband_guard(cfg)
    paraxial = cfg.regime is Regime.PARAXIAL
    edges = _phase_edges(cfg)
    # the quadrature integrals, name -> (axes, start panels, term), a term
    # (kind, power, obliquity, weighted); paraxial I2w_ent is twice I2_ent
    routes: Dict[str, Tuple[int, Tuple[float, ...], Tuple[AmplitudeKind, int, bool, bool]]] = {}
    for name in names:
        kind, power, obliquity = INTEGRALS[name]
        weighted = kernel is not None and power == 1
        start = _start_panels(cfg, edges, kind, kernel if weighted else None)
        if not paraxial or weighted:
            routes[name] = 2, start, (kind, power, obliquity, weighted)
        elif kind is AmplitudeKind.ENTANGLED:
            routes[name.replace("I2w", "I2")] = 1, start, (kind, power, False, False)
    groups: Dict[Tuple[int, float, float], List[str]] = {}
    for name, (axes, start, _) in routes.items():
        groups.setdefault((axes, start[0], start[-1]), []).append(name)
    even_kernel = _even_kernel(kernel, cfg.k0) if kernel is not None else None
    shares, components = [], {}
    for (axes, _, _), members in groups.items():
        terms = [routes[name][2] for name in members]
        share = GridShare(_reduced_terms(cfg, terms, even_kernel) if axes == 2
                          else _paraxial_terms(cfg, [power for _, power, _, _ in terms]))
        shares.append((share, {kind.value for kind, _, _, _ in terms}))
        components.update((name, share.component(i)) for i, name in enumerate(members))
    # the separable closed form of each power: a result, or a rounding unit
    separable = {power: _separable_closed_form(cfg, power)
                 for power in {INTEGRALS[name][1] for name in names}}
    computed: Dict[str, IntegralResult] = {}
    for name, (axes, start, (_, power, obliquity, weighted)) in routes.items():
        f = components[name]
        # in 1D tau is in closed form: the sigma counts alone
        result = (integrate_2d(f, (edges, (0.0, 1.0)), cfg.quadrature, start) if axes == 2
                  else integrate_1d(f, edges, cfg.quadrature, start[:-1]))
        # the obliquity is at most 2, the averaged kernel at most the table's largest |K|
        bound = (1.0 + obliquity) * (float(np.abs(kernel.values).max()) if weighted else 1.0)
        computed[name] = _with_rounding(cfg, result, separable[power].value * bound)
    for name in names:
        if name not in computed:
            # a paraxial I2w is twice its norm I2, each separable norm a closed form
            norm = name.replace("I2w", "I2")
            if norm not in computed:
                computed[norm] = separable[INTEGRALS[norm][1]]
            computed[name] = computed[norm] if norm == name else _paraxial_i2w(computed[norm])
    if grid_nodes is not None:
        grid_nodes.update(dict.fromkeys(("entangled", "separable", "shared"), 0))
        for share, kinds in shares:
            grid_nodes[kinds.pop() if len(kinds) == 1 else "shared"] += share.nodes
    return {name: computed[name] for name in names}


def _require_all_converged(integrals: Mapping[str, IntegralResult], max_evals: int) -> None:
    failed = [name for name, result in integrals.items() if not result.converged]
    if failed:
        message = f"integrals {', '.join(failed)} did not converge"
        refused = [name for name in failed if integrals[name].error_estimate == math.inf
                   and integrals[name].evals == 0]
        if refused:
            message += (
                f"; {', '.join(refused)} refused at evals=0: the starting grid costs more "
                f"than quadrature.max_evals = {max_evals}"
            )
        raise ConvergenceError(message, [integrals[name] for name in failed])


def _converged_values(kind: AmplitudeKind, cfg: ExperimentConfig, *prefixes: str) -> List[float]:
    """Values of the integrals prefix_ent or prefix_sep of kind, all converged."""
    label = "ent" if kind is AmplitudeKind.ENTANGLED else "sep"
    integrals = _reduced_integrals(cfg, [f"{prefix}_{label}" for prefix in prefixes])
    _require_all_converged(integrals, cfg.quadrature.max_evals)
    return [result.value for result in integrals.values()]


def normalization(kind: AmplitudeKind, cfg: ExperimentConfig) -> Quantity:
    """Normalization constant C = 1 / sqrt(integral of |F|^2).

    The squared filter constants appear as g2^-1 on the symbolic factor, so
    only ratios of normalization constants are meaningful numbers.
    """
    (i2,) = _converged_values(kind, cfg, "I2")
    if not i2 > 0.0:
        raise ConvergenceError(f"{kind.value} integral I2 = {i2!r} is not positive")
    return _c_quantity(i2)


def photon_flux(kind: AmplitudeKind, cfg: ExperimentConfig) -> Quantity:
    """Collected flux modulo the common filter constant.

    c * C * integral of |F|^2 * (kiz/|ki| + ksz/|ks|), the obliquity computed
    exactly in the exact regime and fixed to 2 in the paraxial regime. The
    symbolic factor is g2^+1; absolute numbers require the caller to supply
    the common constant, ratios never do.
    """
    flux = _phi_quantity(*_converged_values(kind, cfg, "I2", "I2w"))
    if not flux.value > 0.0:
        raise ConvergenceError(f"{kind.value} flux = {flux.value!r} is not positive")
    return flux


def f_factor(kind: AmplitudeKind, cfg: ExperimentConfig) -> Quantity:
    """Collection factor: coherent sum squared over obliquity-weighted norm.

    |integral of F|^2 / integral of |F|^2 * w. Carries g1^4 g2^-2; the factor
    is identical for both kinds and cancels in the enhancement ratio.
    """
    return _f_quantity(*_converged_values(kind, cfg, "I1", "I2w"))


@dataclass(frozen=True)
class RatioResult:
    """Everything the enhancement ratio computation produced.

    R is the plain enhancement number (symbolically neutral by construction);
    the constituent quantities keep their symbolic filter factors so no
    divergent constant is ever exposed as a bare number.
    """

    R: float
    f_ent: Quantity
    f_sep: Quantity
    C_ent: Quantity
    C_sep: Quantity
    phi_ent: Quantity
    phi_sep: Quantity
    regime: Regime
    channel: str
    converged: bool
    err_R: float
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def C_ratio(self) -> float:
        return self.C_ent.value / self.C_sep.value


def _relative_error(result: IntegralResult) -> float:
    scale = abs(result.value)
    return result.error_estimate / scale if scale != 0.0 else 0.0


# |d ln R / d ln I| by name: err_R = |R| * sum of weight * relative error, in this order
_ERR_R_WEIGHTS = {"I1_ent": 2.0, "I1_sep": 2.0, "I2_ent": 0.5, "I2_sep": 0.5,
                  "I2w_ent": 1.0, "I2w_sep": 1.0}


def ratio_from_integrals(values: Mapping[str, float]) -> Tuple[Quantity, Dict[str, Quantity]]:
    """R = (C_ent/C_sep) * (f_ent/f_sep) from the six integral values, by name.

    Returns R as a neutral Quantity and a dict of C_ent, f_ent, phi_ent, C_sep,
    f_sep and phi_sep. A common amplitude scale s multiplies I1 by s and I2,
    I2w by s^2; R is invariant under it. I1 falls as 1 / pump_waist_um: an
    I1 that squares below the smallest normal double, where f = I1^2 / I2w
    loses precision, or any other range error is a DomainError naming it.
    """
    parts: Dict[str, Quantity] = {}
    try:
        for label in ("ent", "sep"):
            i1, i2, i2w = (values[f"{name}_{label}"] for name in ("I1", "I2", "I2w"))
            if i1**2 < sys.float_info.min:
                raise FloatingPointError
            parts[f"C_{label}"] = _c_quantity(i2)
            parts[f"f_{label}"] = _f_quantity(i1, i2w)
            parts[f"phi_{label}"] = _phi_quantity(i2, i2w)
    except ArithmeticError:
        listed = ", ".join(f"{name} = {value:.3g}" for name, value in values.items())
        raise DomainError(f"R leaves double precision: pump_waist_um too wide ({listed})") from None
    ratio = (parts["C_ent"] / parts["C_sep"]) * (parts["f_ent"] / parts["f_sep"])
    assert ratio.factor.neutral, f"filter constants must cancel in R, got {ratio.factor}"
    return ratio, parts


def enhancement_ratio(
    cfg: ExperimentConfig,
    channel: Optional[Channel] = None,
    strict: bool = True,
) -> RatioResult:
    """Entangled-over-separable enhancement R = (C_ent/C_sep) * (f_ent/f_sep).

    channel defaults to the dipole. Channels with ell > 1 must carry a
    tabulated kernel, which weights the coherent sums and labels the result
    model_kernel. R is ratio_from_integrals of the six INTEGRALS.
    diagnostics holds each IntegralResult by name, the kernel label, the
    conventions and grid_nodes: the integrand nodes actually evaluated,
    under a kind's value by the grid shares of that kind's integrals alone
    and under "shared" by those that hold integrals of both kinds. Shared
    grids may keep the sum below that of the evals.
    strict=True raises on any non-converged integral;
    strict=False returns the assembled result with converged=False so sweep
    rows can record failures without aborting.
    """
    channel = channel if channel is not None else DIPOLE
    if channel.ell > 1 and channel.kernel is None:
        raise KernelError(
            f"channel {channel.name!r} (ell={channel.ell}) needs a tabulated kernel; "
            "attach one with Channel.with_kernel before computing ratios"
        )
    cfg_eff = cfg.replace(channel_energy_ev=channel.transition_energy_ev)
    grid_nodes: Dict[str, int] = {}
    integrals = _reduced_integrals(cfg_eff, INTEGRALS, channel.kernel, grid_nodes)
    if strict:
        _require_all_converged(integrals, cfg.quadrature.max_evals)

    ratio, parts = ratio_from_integrals({name: r.value for name, r in integrals.items()})
    rel = sum(weight * _relative_error(integrals[name]) for name, weight in _ERR_R_WEIGHTS.items())

    diagnostics: Dict[str, object] = dict(integrals)
    kernel = channel.kernel
    diagnostics["kernel"] = "none" if kernel is None else f"model_kernel:{kernel.name}"
    diagnostics["conventions"] = {**CONVENTIONS, "filter_factor_R": str(ratio.factor)}
    diagnostics["grid_nodes"] = grid_nodes

    return RatioResult(
        R=ratio.value,
        regime=cfg_eff.regime,
        channel=channel.name,
        converged=all(r.converged for r in integrals.values()),
        err_R=abs(ratio.value) * rel,
        diagnostics=diagnostics,
        **parts,
    )
