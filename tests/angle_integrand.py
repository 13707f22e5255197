"""The reduced integrand in angle coordinates (s, t): a second formulation.

In u = kix + ksx, v = kix - ksx the domain is the rhombus |u| + |v| < 2 k0
cut at |u| <= umax. v = 2 k0 sin(s) and u = min(umax, 2 k0 - |v|) sin(t)
cover it for |s|, |t| < pi/2, where d kix d ksx = (1/2) du dv is
(1/2) (2 k0 cos s) (h cos t) ds dt. The phase mismatch is computed from kix
and ksx, node by node, and nothing assumes the integrand is even: integrate
it over the whole SQUARE. The package integrates the same integrals in the
phase-matching coordinates (sigma, tau) of observables._reduced_terms.
"""

import math

import numpy as np

from qionize import amplitude, observables
from qionize.amplitude import AmplitudeKind
from qionize.units import Regime

SQUARE = ((-0.5 * math.pi, 0.5 * math.pi), (-0.5 * math.pi, 0.5 * math.pi))


def square_panels(cfg):
    """Start panels on SQUARE: a few phase cycles per panel along s, and along t
    the exact dispersion's curvature in u, about L umax^2 / (4 k0) radians."""
    k0, length, umax = cfg.k0, cfg.crystal_length_um, observables._umax(cfg)
    n_s = max(8.0, 4.0 + float(np.ceil(length * k0 / 5.0)))
    n_t = 2.0
    if cfg.regime is Regime.EXACT:
        n_t += float(np.ceil(length * umax * umax / (4.0 * k0) / 12.0))
    return n_s, n_t


def angle_terms(cfg, kind, terms, kernel=None):
    """Vector integrand over (s, t): one array per (power, obliquity, weighted) term.

    A weighted term is multiplied by kernel(kix, ksx), any callable.
    """
    k0, length = cfg.k0, cfg.crystal_length_um
    paraxial = cfg.regime is Regime.PARAXIAL

    def f(s, t):
        v = 2.0 * k0 * np.sin(s)
        half_u = np.minimum(observables._umax(cfg), 2.0 * k0 - np.abs(v))
        u = half_u * np.sin(t)
        jac = 0.5 * (2.0 * k0 * np.cos(s)) * (half_u * np.cos(t))
        kix, ksx = 0.5 * (u + v), 0.5 * (u - v)
        kz_sum = np.sqrt(np.maximum(k0**2 - kix**2, 0.0)) + np.sqrt(
            np.maximum(k0**2 - ksx**2, 0.0))
        value = np.exp(-0.5 * (u * cfg.pump_waist_um) ** 2)
        if kind is AmplitudeKind.ENTANGLED:
            if paraxial:
                mismatch = (kix - ksx) ** 2 / (4.0 * k0)
            else:
                mismatch = np.sqrt(np.maximum(4.0 * k0**2 - u**2, 0.0)) - kz_sum
            value = value * amplitude.sinc(mismatch * (0.5 * length))
        obliquity = 2.0 if paraxial else kz_sum / k0
        parts = []
        for power, oblique, weighted in terms:
            part = value**power * jac
            if oblique:
                part = part * obliquity
            if weighted:
                part = part * kernel(kix, ksx)
            parts.append(part)
        return tuple(parts)

    return f
