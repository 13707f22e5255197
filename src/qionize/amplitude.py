"""Two-photon momentum-space amplitudes.

The pair amplitude factorizes into a pump envelope over the summed transverse
momenta, per-photon spectral filters, and (for the entangled kind) the
longitudinal phase-matching sinc of the source crystal. The separable
reference amplitude is the identical product with the sinc replaced by 1, so
entangled and separable values coincide pointwise as the crystal length goes
to zero.

All wavenumbers are um^-1, lengths um. Functions broadcast over numpy arrays
and return scalars for scalar input.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

from .units import DomainError, ExperimentConfig, Regime

__all__ = [
    "AmplitudeKind",
    "NarrowbandGuardError",
    "sinc",
    "delta_kz_exact",
    "delta_kz_paraxial",
    "pump_envelope",
    "eval_amplitude",
    "eval_reduced",
]

# reduced 2D path requires the filters to be this many times narrower than
# the kinematic scale: Omega * k0 and Omega_y * k0 must both exceed it
NARROWBAND_GUARD = 1.0e3

ArrayLike = Union[float, np.ndarray]


class AmplitudeKind(enum.Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"


class NarrowbandGuardError(DomainError):
    """Filters are too wide for the reduced 2D model to be valid."""


def _maybe_scalar(value, *inputs):
    if all(np.ndim(arg) == 0 for arg in inputs):
        return float(value)
    return value


def sinc(x: ArrayLike, out: Optional[np.ndarray] = None) -> ArrayLike:
    """Unnormalized sinc, sin(x)/x with sinc(0) = 1 and sinc(+-inf) = 0.

    |x| < 1e-4 uses the Taylor series 1 - x^2/6 + x^4/120, exact to double
    precision in that range; elsewhere the direct quotient. out, a float
    array of x's shape other than x itself, receives the values and is
    returned.
    """
    arr = np.asarray(x, dtype=float)
    # an explicit out keeps even a 0-d result an array, writable in place
    value = np.empty(arr.shape) if out is None else out
    small = np.abs(arr, out=value) < 1e-4
    infinite = value.max(initial=0.0) == np.inf  # one reduction, no mask array
    # x == 0 gives 0/0 and x == +-inf gives sin(inf) = nan; both are overwritten
    with np.errstate(invalid="ignore"):
        np.sin(arr, out=value)
        np.divide(value, arr, out=value)
    if small.any():
        tiny = arr[small]
        value[small] = 1.0 - tiny**2 / 6.0 + tiny**4 / 120.0
    if infinite:
        value[np.isinf(arr)] = 0.0
    return value if out is not None else _maybe_scalar(value, x)


def delta_kz_exact(kix: ArrayLike, ksx: ArrayLike, k0: float) -> ArrayLike:
    """Longitudinal wavevector mismatch, full square-root dispersion.

    sqrt(4 k0^2 - (kix+ksx)^2) - sqrt(k0^2 - kix^2) - sqrt(k0^2 - ksx^2).
    Requires |kix| <= k0, |ksx| <= k0 and |kix + ksx| < 2 k0. Identically
    zero along kix = ksx for any k0. Symmetric under photon exchange.
    """
    if not k0 > 0.0:
        raise DomainError(f"k0 must be > 0, got {k0!r}")
    kix_arr = np.asarray(kix, dtype=float)
    ksx_arr = np.asarray(ksx, dtype=float)
    if np.any(np.abs(kix_arr) > k0) or np.any(np.abs(ksx_arr) > k0):
        raise DomainError("delta_kz_exact requires |kx| <= k0 for each photon")
    pump = kix_arr + ksx_arr
    if np.any(np.abs(pump) >= 2.0 * k0):
        raise DomainError("delta_kz_exact requires |kix + ksx| < 2 k0")
    shape = np.broadcast_shapes(kix_arr.shape, ksx_arr.shape)
    value = _exact_mismatch(pump, kix_arr, ksx_arr, k0, np.empty(shape), np.empty(shape))
    return _maybe_scalar(value, kix, ksx)


def delta_kz_paraxial(kix: ArrayLike, ksx: ArrayLike, k0: float) -> ArrayLike:
    """Quadratic transverse expansion of the longitudinal mismatch.

    Per-photon terms kx^2/(2 k0) minus the pump term (kix+ksx)^2/(4 k0),
    algebraically (kix - ksx)^2 / (4 k0) and evaluated in that form, so
    nothing cancels.
    """
    if not k0 > 0.0:
        raise DomainError(f"k0 must be > 0, got {k0!r}")
    value = _paraxial_mismatch(np.asarray(kix, dtype=float) - np.asarray(ksx, dtype=float), k0)
    return _maybe_scalar(value, kix, ksx)


def _paraxial_mismatch(v, k0: float):
    """(kix - ksx)^2 / (4 k0) at the difference coordinate v = kix - ksx."""
    return np.square(v) / (4.0 * k0)


def _exact_mismatch(u, kix, ksx, k0: float, out, tmp):
    """sqrt(4 k0^2 - u^2) - (kiz + ksz) at pump sum u, roots clamped, into out.

    Grouping the per-photon roots keeps exchange symmetry bit for bit.
    """
    for kx, kz in ((kix, tmp), (ksx, out)):
        np.subtract(k0**2, np.square(kx, out=kz), out=kz)
        np.sqrt(np.maximum(kz, 0.0, out=kz), out=kz)
    kz_sum = np.add(tmp, out, out=tmp)
    np.subtract(4.0 * k0**2, np.square(u, out=out), out=out)
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    return np.subtract(out, kz_sum, out=out)


def pump_envelope(
    kpx: ArrayLike, kpy: ArrayLike, omega_p: float, omega_py: float
) -> ArrayLike:
    """Gaussian pump spectrum over summed transverse momenta.

    exp(-omega_p^2 kpx^2 / 2 - omega_py^2 kpy^2 / 2); peak value 1 at the
    origin, 1/e at kpx = sqrt(2)/omega_p. A square that overflows gives
    its exact limit 0, without a warning.
    """
    if not (omega_p > 0.0 and omega_py > 0.0):
        raise DomainError("pump waists must be > 0")
    with np.errstate(over="ignore"):
        value = np.exp(
            -0.5 * (omega_p * np.asarray(kpx, dtype=float)) ** 2
            - 0.5 * (omega_py * np.asarray(kpy, dtype=float)) ** 2
        )
    return _maybe_scalar(value, kpx, kpy)


def _separable_6d(ki, ks, cfg: ExperimentConfig, work):
    """Separable 6D amplitude with |ki| and |ks|; no kz check.

    ki and ks are (kx, ky, kz) triplets of float arrays. The entangled
    amplitude is this value times _entangling_6d at the same magnitudes.
    work (required) is four float arrays of the inputs' broadcast shape,
    none of them an input: the value, |ki| and |ks| are written into
    work[0:3] and returned, work[3] is scratch. Squares that overflow give
    exp(-inf) = 0 without a warning.
    """
    kix, kiy, _ = ki
    ksx, ksy, _ = ks
    value, mag_i, mag_s, tmp = work
    with np.errstate(over="ignore"):
        for (kx, ky, kz), mag in ((ki, mag_i), (ks, mag_s)):
            np.square(kx, out=mag)
            np.add(mag, np.square(ky, out=tmp), out=mag)
            np.add(mag, np.square(kz, out=tmp), out=mag)
            np.sqrt(mag, out=mag)
        # pump_envelope(kix + ksx, kiy + ksy, ...), one in-place step at a time
        np.square(np.multiply(np.add(kix, ksx, out=value), cfg.pump_waist_um, out=value), out=value)
        np.multiply(value, -0.5, out=value)
        np.square(np.multiply(np.add(kiy, ksy, out=tmp), cfg.pump_waist_y, out=tmp), out=tmp)
        np.subtract(value, np.multiply(tmp, 0.5, out=tmp), out=value)
        np.exp(value, out=value)
        # exp(-0.5 * (omega (arg - center))^2) for each photon's spectral, then
        # transverse filter; subtracting a center of 0.0 leaves ky as it is
        for arg, center, omega in ((mag_i, cfg.k0, cfg.filter_omega_um),
                                   (mag_s, cfg.k0, cfg.filter_omega_um),
                                   (kiy, 0.0, cfg.filter_omega_y_um),
                                   (ksy, 0.0, cfg.filter_omega_y_um)):
            np.multiply(np.subtract(arg, center, out=tmp), omega, out=tmp)
            np.multiply(np.square(tmp, out=tmp), -0.5, out=tmp)
            np.multiply(value, np.exp(tmp, out=tmp), out=value)
    return value, mag_i, mag_s


def _entangling_6d(ki, ks, mag_i, mag_s, cfg: ExperimentConfig, work):
    """Phase-matching factor sinc(L * delta_kz / 2) in the configured regime.

    The paraxial mismatch is kix^2 + kiy^2 over 2|ki|, plus the same for ks,
    minus the pump's (kix + ksx)^2 + (kiy + ksy)^2 over 2(|ki| + |ks|); the
    exact one is sqrt((|ki| + |ks|)^2 - (kix + ksx)^2 - (kiy + ksy)^2),
    clamped at 0, minus kiz + ksz. work (required) is three float arrays of
    the inputs' broadcast shape, none of them an input: the factor is
    written into work[0] and returned, the rest is scratch. A phase that
    overflows gives sinc(inf) = 0 without a warning.
    """
    kix, kiy, kiz = ki
    ksx, ksy, ksz = ks
    value, mismatch, tmp = work
    with np.errstate(over="ignore"):
        if cfg.regime is Regime.PARAXIAL:
            for (kx, ky, _), mag, term in ((ki, mag_i, mismatch), (ks, mag_s, value)):
                np.add(np.square(kx, out=term), np.square(ky, out=tmp), out=term)
                np.divide(term, np.multiply(mag, 2.0, out=tmp), out=term)
            np.add(mismatch, value, out=mismatch)
            np.square(np.add(kix, ksx, out=value), out=value)
            np.add(value, np.square(np.add(kiy, ksy, out=tmp), out=tmp), out=value)
            np.multiply(np.add(mag_i, mag_s, out=tmp), 2.0, out=tmp)
            np.subtract(mismatch, np.divide(value, tmp, out=value), out=mismatch)
        else:
            np.square(np.add(mag_i, mag_s, out=mismatch), out=mismatch)
            np.subtract(mismatch, np.square(np.add(kix, ksx, out=tmp), out=tmp), out=mismatch)
            np.subtract(mismatch, np.square(np.add(kiy, ksy, out=tmp), out=tmp), out=mismatch)
            # nonnegative whenever both kz >= 0, by the transverse triangle inequality
            np.sqrt(np.maximum(mismatch, 0.0, out=mismatch), out=mismatch)
            np.subtract(np.subtract(mismatch, kiz, out=mismatch), ksz, out=mismatch)
        np.multiply(mismatch, 0.5 * cfg.crystal_length_um, out=mismatch)
    return sinc(mismatch, out=value)


def eval_amplitude(ki, ks, cfg: ExperimentConfig, kind: AmplitudeKind) -> ArrayLike:
    """Full six-dimensional pair amplitude at photon momenta ki, ks.

    Product of the pump envelope over (kix+ksx, kiy+ksy), a per-photon
    spectral filter exp(-Omega^2 (|k| - k0)^2 / 2), a per-photon transverse
    filter exp(-Omega_y^2 ky^2 / 2), and, for the entangled kind, the
    phase-matching factor sinc(L * delta_kz / 2) in the configured regime.
    Zero wherever either kz < 0. ki and ks are (kx, ky, kz) triplets of
    broadcastable arrays. Squares and phases that overflow give their exact
    limits, exp(-inf) = 0 and sinc(inf) = 0, without a warning.
    """
    if not isinstance(kind, AmplitudeKind):
        raise DomainError(f"kind must be an AmplitudeKind, got {kind!r}")
    kix, kiy, kiz = (np.asarray(k, dtype=float) for k in ki)
    ksx, ksy, ksz = (np.asarray(k, dtype=float) for k in ks)

    forward = (kiz >= 0.0) & (ksz >= 0.0)
    ki_safe = (kix, kiy, np.where(forward, kiz, 0.0))
    ks_safe = (ksx, ksy, np.where(forward, ksz, 0.0))
    # the separable value, |ki|, |ks|, then the phase matching's two rows
    shape = np.broadcast_shapes(*(k.shape for k in ki_safe + ks_safe))
    work = [np.empty(shape) for _ in range(6)]
    value, mag_i, mag_s = _separable_6d(ki_safe, ks_safe, cfg, work[:4])
    if kind is AmplitudeKind.ENTANGLED:
        np.multiply(value, _entangling_6d(ki_safe, ks_safe, mag_i, mag_s, cfg, work[3:]), out=value)
    np.copyto(value, 0.0, where=~forward)
    return _maybe_scalar(value, kix, kiy, kiz, ksx, ksy, ksz)


def check_narrowband_guard(cfg: ExperimentConfig) -> None:
    """Raise unless both filters are narrow enough for the reduced model."""
    k0 = cfg.k0
    if cfg.filter_omega_um * k0 <= NARROWBAND_GUARD or cfg.filter_omega_y_um * k0 <= NARROWBAND_GUARD:
        raise NarrowbandGuardError(
            "reduced 2D amplitude requires narrowband filters "
            f"(need filter_omega_um * k0 > {NARROWBAND_GUARD:g} and "
            f"filter_omega_y_um * k0 > {NARROWBAND_GUARD:g}; got "
            f"{cfg.filter_omega_um * k0:.3g} and {cfg.filter_omega_y_um * k0:.3g}); "
            "use the full6d reduction instead"
        )


def eval_reduced(point, cfg: ExperimentConfig, kind: AmplitudeKind) -> ArrayLike:
    """Reduced transverse-plane amplitude at (kix, ksx).

    With both filters narrow, the ky and |k| integrals factor out and the
    amplitude collapses to
    exp(-omega_p^2 (kix+ksx)^2 / 2) * sinc(L * delta_kz / 2)
    on the open square (-k0, k0)^2, the sinc present only for the entangled
    kind, delta_kz chosen by cfg.regime. point is a (kix, ksx) pair of
    broadcastable arrays. A pump or phase argument that overflows gives its
    exact limit, exp(-inf) = 0 or sinc(inf) = 0, without a warning.
    """
    if not isinstance(kind, AmplitudeKind):
        raise DomainError(f"kind must be an AmplitudeKind, got {kind!r}")
    check_narrowband_guard(cfg)
    kix, ksx = point
    kix_arr = np.asarray(kix, dtype=float)
    ksx_arr = np.asarray(ksx, dtype=float)
    k0 = cfg.k0
    if np.any(np.abs(kix_arr) >= k0) or np.any(np.abs(ksx_arr) >= k0):
        raise DomainError("eval_reduced requires |kx| < k0 for each photon (open square)")

    u = kix_arr + ksx_arr
    value = np.empty(u.shape)
    with np.errstate(over="ignore"):
        mismatch = None if kind is AmplitudeKind.SEPARABLE else (
            _paraxial_mismatch(kix_arr - ksx_arr, k0) if cfg.regime is Regime.PARAXIAL
            else _exact_mismatch(u, kix_arr, ksx_arr, k0, np.empty(u.shape), value))
        value = _reduced_amplitude(_pump_envelope(u, cfg, value), mismatch, cfg, kind, value)
    return _maybe_scalar(value, kix, ksx)


def _pump_envelope(u, cfg: ExperimentConfig, out):
    """exp(-0.5 (omega_p u)^2) at pump sum u, one in-place step at a time in out of u's shape."""
    np.square(np.multiply(u, cfg.pump_waist_um, out=out), out=out)
    return np.exp(np.multiply(out, -0.5, out=out), out=out)


def _reduced_amplitude(pump, mismatch, cfg: ExperimentConfig, kind: AmplitudeKind, out):
    """Unchecked reduced amplitude from its pump envelope and phase mismatch delta_kz.

    The separable value is the envelope pump itself, returned as is. The
    entangled value is pump times sinc(L mismatch / 2), the sinc computed on
    mismatch's shape (a column when it is one), written into out, a float
    array of the broadcast shape other than mismatch, and returned.
    """
    if kind is AmplitudeKind.SEPARABLE:
        return pump
    return np.multiply(pump, sinc(mismatch * (0.5 * cfg.crystal_length_um)), out=out)
