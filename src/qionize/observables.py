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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .amplitude import (
    AmplitudeKind,
    _kz_sum,
    _paraxial_mismatch,
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
# u, jac_u, kix, ksx and _reduced_amplitude's four arrays (the last then
# holds each term's factors), and the averaged kernel's two results and six
# interpolation scratch rows
_INTEGRAND_ROWS = (0, 8)
_EVEN_KERNEL_ROWS = (8, 8)
_WORKSPACE_ROWS = 16
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

    Photon exchange (s -> -s) maps K(kix, ksx) to K(ksx, kix), the table's
    transpose; (kix, ksx) -> (-ksx, -kix) (t -> -t) maps it to the transpose
    of v[::-1, ::-1]. The reduced amplitude is invariant under both, so the
    average leaves the integral of F K over the square unchanged and makes
    the integrand even in s and in t. On a square table the average is one
    table: bilinear interpolation on the uniform grid through +-1 commutes
    with transposing and reversing it. The returned callable writes into
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


def _reduced_terms(
    cfg: ExperimentConfig,
    kind: AmplitudeKind,
    terms: Sequence[Tuple[int, bool, bool]],
    even_kernel: Optional[Callable],
) -> Callable:
    """Integrand over angle coordinates (s, t) covering the open rhombus, one array per term.

    Each term (power p, obliquity, weighted) is F^p, times the obliquity w
    if set, times even_kernel if weighted, times the Jacobian: the
    integrands of the INTEGRALS of one kind. The amplitude, the Jacobian,
    w and the kernel are computed once per call for all the terms, and each
    term is formed in the order of the one-term case.

    In rotated coordinates u = kix + ksx, v = kix - ksx the domain is the
    rhombus |u| + |v| < 2 k0 intersected with the pump truncation |u| <= umax.
    The difference coordinate v = 2 k0 sin(s) is independent of u, so the
    phase-matching oscillation lives on the s axis alone; the pump coordinate
    u = min(umax, 2 k0 - |v|) sin(t) spans whatever width the rhombus leaves.
    Both cos Jacobians vanish exactly where the edge square roots of the
    exact dispersion become singular, keeping the integrand bounded.
    d kix d ksx = (1/2) du dv.

    s -> -s exchanges the photons (kix <-> ksx) and t -> -t maps (kix, ksx)
    to (-ksx, -kix). The amplitude, its square and the obliquity are
    invariant under both, so the integrand is even in s and in t as long as
    even_kernel is (see _even_kernel). The integrals therefore run over the
    quadrant _ANGLE_DOMAIN, and the Jacobian carries the factor 4 of the
    four quadrants: 4 * (1/2) jac_v jac_u = 2 jac_v jac_u.

    A call works in place in the module workspace and returns a tuple of
    fresh arrays, one per term: integrate_2d's row blocks then cost one
    allocation per term, not a few dozen. Each factor is computed where it
    varies: the paraxial phase matching once per row, kix and ksx only when
    the exact mismatch, the exact obliquity or a kernel reads them.
    """
    k0 = cfg.k0
    two_k0 = 2.0 * k0
    paraxial = cfg.regime is Regime.PARAXIAL
    entangled = kind is AmplitudeKind.ENTANGLED
    oblique = any(obliquity for _, obliquity, _ in terms)
    weighted = any(weight for _, _, weight in terms)
    reads_kx = weighted or (not paraxial and (entangled or oblique))
    umax = _umax(cfg)

    def f(s, t):
        shape = np.broadcast_shapes(np.shape(s), np.shape(t))
        u, jac, kix, ksx, *work = _WORKSPACE.rows(shape, *_INTEGRAND_ROWS)
        v = two_k0 * np.sin(s)
        jac_v = two_k0 * np.cos(s)
        half_u = np.minimum(umax, two_k0 - np.abs(v))
        np.multiply(half_u, np.sin(t), out=u)
        np.multiply(half_u, np.cos(t), out=jac)
        if reads_kx:
            np.multiply(np.add(u, v, out=kix), 0.5, out=kix)
            np.multiply(np.subtract(u, v, out=ksx), 0.5, out=ksx)
        value = _reduced_amplitude(u, v, (kix, ksx) if reads_kx else None, cfg, kind, work)
        w = CONVENTIONS["obliquity_paraxial"]
        if oblique and not paraxial:
            # an exact entangled amplitude has left kiz + ksz in work[1]
            kz_sum = work[1] if entangled else _kz_sum(kix, ksx, k0, work[1], work[2])
            w = np.divide(kz_sum, k0, out=kz_sum)
        kernel = even_kernel(kix, ksx) if weighted else None
        np.multiply(2.0 * jac_v, jac, out=jac)
        # each term's factors before the Jacobian build up in the free work[3]
        parts = []
        for power, obliquity, weight in terms:
            term = value
            if power == 2:
                term = np.multiply(value, value, out=work[3])
            if obliquity:
                term = np.multiply(term, w, out=work[3])
            if weight:
                term = np.multiply(term, kernel, out=work[3])
            # the one fresh array of the term, which a caller may keep
            parts.append(term * jac)
        return tuple(parts)

    return f


_HALF_PI = 0.5 * math.pi
# the quadrant s, t >= 0 of the square |s|, |t| < pi/2, whose integrand is
# even in s and t: _reduced_terms counts each node four times
_ANGLE_DOMAIN = ((0.0, _HALF_PI), (0.0, _HALF_PI))


def _initial_panels(cfg: ExperimentConfig, reads_length: bool = True) -> Tuple[float, float]:
    # the phase-matching argument reaches L*k0/2 along s; along t it only
    # varies through the exact dispersion's curvature in u, roughly
    # L*umax^2/(4 k0). Start with a few oscillations per 16-point panel of
    # the square |s|, |t| < pi/2, half as many panels on the quadrant
    # _ANGLE_DOMAIN (rounded up), and let per-axis refinement and freezing
    # take it from there. Whole Python floats, inf past overflow:
    # integrate_2d prices them against max_evals. An integrand that never
    # reads L starts where L -> 0+ would, each positive cycle count rounding
    # up to 1.
    k0, length, umax = float(cfg.k0), float(cfg.crystal_length_um), float(_umax(cfg))
    if reads_length:
        cycles_s = float(np.ceil(length * k0 / 5.0))
        cycles_t = float(np.ceil(length * umax * umax / (4.0 * k0) / 12.0))
    else:
        cycles_s = cycles_t = 1.0
    n_s = max(8.0, 4.0 + cycles_s)
    n_t = 2.0 if cfg.regime is Regime.PARAXIAL else 2.0 + cycles_t
    return (float(np.ceil(0.5 * n_s)), float(np.ceil(0.5 * n_t)))


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


def _paraxial_entangled(cfg: ExperimentConfig, power: int) -> IntegralResult:
    """I1_ent or I2_ent in the paraxial regime, one 1D integral over v.

    The paraxial mismatch reads v = kix - ksx alone, so at each v the u
    integral over the rhombus chord |u| <= h(v) = min(umax, 2 k0 - |v|) is
    the Gaussian moment g_p(h(v)), and with the integrand even in v
    I = integral over 0 < v < 2 k0 of sinc(L v^2 / (8 k0))^p g_p(h(v)).
    h is umax, g_p one constant, up to v = 2 k0 - umax; only the edge band
    above needs an erf per node. The kink there is a piece edge, unless the
    band is narrower than the rounding of 2 k0 (pump waists past ~1e15 um),
    where g_p = g_p(umax) throughout is exact to that rounding.
    """
    k0, waist, umax = cfg.k0, cfg.pump_waist_um, _umax(cfg)
    two_k0, half_length = 2.0 * k0, 0.5 * cfg.crystal_length_um
    g_max = float(_gauss_moment(np.array([umax]), waist, power)[0])

    def f(v):
        value = sinc(_paraxial_mismatch(v, k0) * half_length)
        if power == 2:
            np.multiply(value, value, out=value)
        h = two_k0 - v
        g = np.full(v.shape, g_max)
        edge = np.flatnonzero(h < umax)
        g[edge] = _gauss_moment(h[edge], waist, power)
        return np.multiply(value, g, out=value)

    band = two_k0 - umax
    edges = (0.0, band, two_k0) if band < two_k0 else (0.0, two_k0)
    # about 10 radians of p times the phase per 16-point panel, at the rate
    # L b / (4 k0) the phase reaches at each piece's top b; whole Python
    # floats, inf past overflow, priced by integrate_1d against max_evals
    length = float(cfg.crystal_length_um)
    panels = [
        2.0 + float(np.ceil(power * length * b * (b - a) / (4.0 * k0) / 10.0))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    result = integrate_1d(f, edges, cfg.quadrature, panels)
    # the doubling delta can reach 0 while rounding still counts: each
    # node's sinc is off by about eps whatever its phase, as the phase is
    # rounded relative to itself, so the sum is off by about eps times the
    # integral of g_p, the separable integral. mpmath references measure
    # at most one such unit; eight of them are added.
    err = result.error_estimate + 8.0 * _EPS * _separable_closed_form(cfg, power).value
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
    names: Iterable[str],
    kernel: Optional[TabulatedKernel] = None,
    grid_nodes: Optional[Dict[str, int]] = None,
) -> Dict[str, IntegralResult]:
    """The named INTEGRALS at cfg, in the order of names.

    A kernel weights the coherent integrals I1 only. Each integral takes its
    cheapest exact route, named by its result's method:
    - paraxial, unweighted: I1_sep and I2_sep in closed form, I1_ent and
      I2_ent by integrate_1d over v, I2w the paraxial obliquity times I2;
    - otherwise one call of the module-global integrate_2d, looked up at
      call time; the exact regime makes its six calls in INTEGRALS order.
      The 2D integrals of one kind are the terms of one _reduced_terms
      integrand, their only integrand: each is a component of the kind's
      GridShare, so each grid that any of them refines is evaluated once,
      while each keeps its own schedule, evals and result. Without a kernel
      the separable integrands never read L and start from L -> 0+ panels. A kernel ratio's
      separable triple keeps the L-dependent start: from L -> 0+ the
      quadrupole's R at (50, 3) um lands 3.9e-7 from its rel_tol 1e-10
      reference instead of 3.2e-8.
    grid_nodes, if given, receives for each kind's value the integrand
    nodes actually evaluated, over all its routes.
    """
    check_narrowband_guard(cfg)
    paraxial = cfg.regime is Regime.PARAXIAL
    even_kernel = _even_kernel(kernel, cfg.k0) if kernel is not None else None
    names = tuple(names)
    # the 2D integrals of each kind, name -> (power, obliquity, weighted)
    planar: Dict[AmplitudeKind, Dict[str, Tuple[int, bool, bool]]] = {k: {} for k in AmplitudeKind}
    for name in names:
        kind, power, obliquity = INTEGRALS[name]
        weighted = kernel is not None and power == 1
        if not paraxial or weighted:
            planar[kind][name] = (power, obliquity, weighted)
    shares = {kind: GridShare(_reduced_terms(cfg, kind, tuple(terms.values()), even_kernel))
              for kind, terms in planar.items()}
    computed: Dict[str, IntegralResult] = {}
    for name in names:
        kind, power, _ = INTEGRALS[name]
        separable = kind is AmplitudeKind.SEPARABLE
        terms = planar[kind]
        if name not in terms:
            # I2w is the constant paraxial obliquity times I2: each norm runs once
            norm = name.replace("I2w", "I2")
            if norm not in computed:
                route = _separable_closed_form if separable else _paraxial_entangled
                computed[norm] = route(cfg, power)
            computed[name] = computed[norm] if norm == name else _paraxial_i2w(computed[norm])
        else:
            f = shares[kind].component(list(terms).index(name))
            panels = _initial_panels(cfg, reads_length=kernel is not None or not separable)
            computed[name] = integrate_2d(f, _ANGLE_DOMAIN, cfg.quadrature, panels)
    if grid_nodes is not None:
        for kind, share in shares.items():
            # the nodes of the shared grids and of the 1D routes
            grid_nodes[kind.value] = share.nodes + sum(
                result.evals for name, result in computed.items()
                if INTEGRALS[name][0] is kind and name not in planar[kind]
            )
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
    conventions and grid_nodes: for each kind's value, the integrand nodes
    actually evaluated, which grids shared by its integrals may keep below
    the sum of their evals.
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
