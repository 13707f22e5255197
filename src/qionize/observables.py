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
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .amplitude import AmplitudeKind, _kz_sum, _reduced_amplitude, check_narrowband_guard
from .quadrature import ConvergenceError, EvenDomain, IntegralResult, integrate_2d
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
    "ratio_from_integrals",
    "enhancement_ratio",
]


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
        object.__setattr__(self, "values", arr)

    def evaluate(self, kix, ksx, k0: float):
        """Bilinear interpolation at (kix, ksx) for central wavenumber k0."""
        if not k0 > 0.0:
            raise DomainError(f"k0 must be > 0, got {k0!r}")
        ti = np.clip(np.asarray(kix, dtype=float) / k0, -1.0, 1.0)
        ts = np.clip(np.asarray(ksx, dtype=float) / k0, -1.0, 1.0)
        ni, ns = self.values.shape
        # cell index and offset along each axis
        pos_i = (ti + 1.0) * 0.5 * (ni - 1)
        pos_s = (ts + 1.0) * 0.5 * (ns - 1)
        idx_i = np.clip(pos_i.astype(int), 0, ni - 2)
        idx_s = np.clip(pos_s.astype(int), 0, ns - 2)
        fi = pos_i - idx_i
        fs = pos_s - idx_s
        v00 = self.values[idx_i, idx_s]
        v10 = self.values[idx_i + 1, idx_s]
        v01 = self.values[idx_i, idx_s + 1]
        v11 = self.values[idx_i + 1, idx_s + 1]
        out = (
            v00 * (1 - fi) * (1 - fs)
            + v10 * fi * (1 - fs)
            + v01 * (1 - fi) * fs
            + v11 * fi * fs
        )
        if np.ndim(kix) == 0 and np.ndim(ksx) == 0:
            return float(out)
        return out


def load_kernel(path: str, name: Optional[str] = None) -> TabulatedKernel:
    """Read a kernel table.

    Format: header line ``kernel v1 <n_i> <n_s>`` followed by n_i lines of
    n_s whitespace-separated values (row-major over the uniform normalized
    grid). ``#`` lines are comments.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise KernelError(f"{path}: empty kernel file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "kernel" or header[1] != "v1":
        raise KernelError(f"{path}: expected header 'kernel v1 <n_i> <n_s>', got {lines[0]!r}")
    try:
        ni, ns = int(header[2]), int(header[3])
    except ValueError:
        raise KernelError(f"{path}: non-integer grid sizes in header {lines[0]!r}") from None
    rows = []
    for ln in lines[1:]:
        try:
            rows.extend(float(tok) for tok in ln.split())
        except ValueError:
            raise KernelError(f"{path}: malformed kernel value in line {ln!r}") from None
    if len(rows) != ni * ns:
        raise KernelError(f"{path}: expected {ni * ns} values, got {len(rows)}")
    values = np.array(rows, dtype=float).reshape(ni, ns)
    return TabulatedKernel(name or path, values)


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


def _c_quantity(i2: float) -> Quantity:
    return Quantity(1.0 / math.sqrt(i2), FilterFactor(g2=-1))


def _f_quantity(i1: float, i2w: float) -> Quantity:
    return Quantity(i1**2 / i2w, FilterFactor(g1=4, g2=-2))


def _phi_quantity(i2: float, i2w: float) -> Quantity:
    return Quantity(C_UM_PER_S * i2w / math.sqrt(i2), FilterFactor(g2=1))


def _umax(cfg: ExperimentConfig) -> float:
    # pump tails truncated at 10/omega_p (error bound exp(-50)) or the
    # kinematic edge |u| = 2 k0, whichever is tighter
    return min(10.0 / cfg.pump_waist_um, 2.0 * cfg.k0 * (1.0 - 1e-12))


def _even_kernel(kernel: TabulatedKernel, k0: float) -> Callable:
    """K averaged over the reduced integrand's two reflections, at (kix, ksx).

    Photon exchange (s -> -s) maps K(kix, ksx) to K(ksx, kix), the table's
    transpose; (kix, ksx) -> (-ksx, -kix) (t -> -t) maps it to the transpose
    of v[::-1, ::-1]. The reduced amplitude is invariant under both, so the
    average leaves the integral of F K over the square unchanged and makes
    the integrand even in s and in t. On a square table the average is one
    table: bilinear interpolation on the uniform grid through +-1 commutes
    with transposing and reversing it.
    """
    v = kernel.values + kernel.values[::-1, ::-1]
    if v.shape[0] == v.shape[1]:
        table = TabulatedKernel(kernel.name, 0.25 * (v + v.T))
        return lambda kix, ksx: table.evaluate(kix, ksx, k0)
    # a non-square table's transpose lies on another grid: exchange on the fly
    table = TabulatedKernel(kernel.name, 0.5 * v)
    return lambda kix, ksx: 0.5 * (table.evaluate(kix, ksx, k0) + table.evaluate(ksx, kix, k0))


def _reduced_integrand(
    cfg: ExperimentConfig,
    kind: AmplitudeKind,
    power: int,
    obliquity: bool,
    even_kernel: Optional[Callable],
) -> Callable:
    """Integrand over angle coordinates (s, t) covering the open rhombus.

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
    even_kernel is (see _even_kernel); _ANGLE_DOMAIN relies on that.

    A call works in place in block-sized buffers that the integrand keeps
    for its lifetime, and returns a fresh array: integrate_2d's row blocks
    then cost one allocation each, not a few dozen.
    """
    k0 = cfg.k0
    two_k0 = 2.0 * k0
    paraxial = cfg.regime is Regime.PARAXIAL
    entangled = kind is AmplitudeKind.ENTANGLED
    umax = _umax(cfg)
    # rows of one slab hold u, jac_u, kix, ksx and _reduced_amplitude's four
    # arrays; it grows only for a block with more nodes than any before it.
    # One slab rather than eight arrays halved a ratio panel's page faults.
    slab = [np.empty((8, 0))]

    def f(s, t):
        shape = np.broadcast_shapes(np.shape(s), np.shape(t))
        size = math.prod(shape)
        if size > slab[0].shape[1]:
            slab[0] = np.empty((8, size))
        u, jac, kix, ksx, *work = (row[:size].reshape(shape) for row in slab[0])
        v = two_k0 * np.sin(s)
        jac_v = two_k0 * np.cos(s)
        half_u = np.minimum(umax, two_k0 - np.abs(v))
        np.multiply(half_u, np.sin(t), out=u)
        np.multiply(half_u, np.cos(t), out=jac)
        np.multiply(np.add(u, v, out=kix), 0.5, out=kix)
        np.multiply(np.subtract(u, v, out=ksx), 0.5, out=ksx)
        value = _reduced_amplitude(u, kix, ksx, cfg, kind, work)
        if power == 2:
            np.multiply(value, value, out=value)
        if obliquity:
            if paraxial:
                np.multiply(value, 2.0, out=value)
            else:
                # an exact entangled amplitude has left kiz + ksz in work[1]
                kz_sum = work[1] if entangled else _kz_sum(kix, ksx, k0, work[1], work[2])
                np.multiply(value, np.divide(kz_sum, k0, out=kz_sum), out=value)
        if even_kernel is not None:
            np.multiply(value, even_kernel(kix, ksx), out=value)
        # the one fresh array of the call, which a caller may keep
        return value * np.multiply(0.5 * jac_v, jac, out=jac)

    return f


_HALF_PI = 0.5 * math.pi
# even in s and t: the rule evaluates the quadrant s, t >= 0 only
_ANGLE_DOMAIN = EvenDomain(((-_HALF_PI, _HALF_PI), (-_HALF_PI, _HALF_PI)))


def _initial_panels(cfg: ExperimentConfig) -> Tuple[int, int]:
    # the phase-matching argument reaches L*k0/2 along s; along t it only
    # varies through the exact dispersion's curvature in u, roughly
    # L*umax^2/(4 k0). Start with a few oscillations per 16-point panel and
    # let per-axis refinement and freezing take it from there.
    k0 = cfg.k0
    length = cfg.crystal_length_um
    n_s = int(np.clip(4 + math.ceil(length * k0 / 5.0), 8, 6000))
    if cfg.regime is Regime.PARAXIAL:
        n_t = 2
    else:
        phase_t = length * _umax(cfg) ** 2 / (4.0 * k0)
        n_t = int(np.clip(2 + math.ceil(phase_t / 12.0), 2, 2000))
    return (n_s, n_t)


def _reduced_integrals(
    cfg: ExperimentConfig, names: Iterable[str], kernel: Optional[TabulatedKernel] = None
) -> Dict[str, IntegralResult]:
    """The named INTEGRALS at cfg, in the order of names.

    A kernel weights the coherent integrals I1 only. Each name is one call
    of the module-global integrate_2d, looked up at call time.
    """
    check_narrowband_guard(cfg)
    panels = _initial_panels(cfg)
    even_kernel = _even_kernel(kernel, cfg.k0) if kernel is not None else None
    results = {}
    for name in names:
        kind, power, obliquity = INTEGRALS[name]
        f = _reduced_integrand(cfg, kind, power, obliquity, even_kernel if power == 1 else None)
        results[name] = integrate_2d(f, _ANGLE_DOMAIN, cfg.quadrature, panels)
    return results


def _require_all_converged(integrals: Mapping[str, IntegralResult]) -> None:
    failed = [name for name, result in integrals.items() if not result.converged]
    if failed:
        results = [integrals[name] for name in failed]
        raise ConvergenceError(f"integrals {', '.join(failed)} did not converge", results)


def _converged_values(kind: AmplitudeKind, cfg: ExperimentConfig, *prefixes: str) -> List[float]:
    """Values of the integrals prefix_ent or prefix_sep of kind, all converged."""
    label = "ent" if kind is AmplitudeKind.ENTANGLED else "sep"
    integrals = _reduced_integrals(cfg, [f"{prefix}_{label}" for prefix in prefixes])
    _require_all_converged(integrals)
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
    integrals = _reduced_integrals(cfg_eff, INTEGRALS, channel.kernel)
    if strict:
        _require_all_converged(integrals)

    ratio, parts = ratio_from_integrals({name: r.value for name, r in integrals.items()})
    rel = sum(weight * _relative_error(integrals[name]) for name, weight in _ERR_R_WEIGHTS.items())

    diagnostics: Dict[str, object] = dict(integrals)
    kernel = channel.kernel
    diagnostics["kernel"] = "none" if kernel is None else f"model_kernel:{kernel.name}"
    diagnostics["conventions"] = {
        "obliquity_exact": "per-photon kz/|k| summed",
        "obliquity_paraxial": 2.0,
        "pump_truncation_sigmas": 10.0,
        "filter_factor_R": str(ratio.factor),
    }

    return RatioResult(
        R=ratio.value,
        regime=cfg_eff.regime,
        channel=channel.name,
        converged=all(r.converged for r in integrals.values()),
        err_R=abs(ratio.value) * rel,
        diagnostics=diagnostics,
        **parts,
    )
