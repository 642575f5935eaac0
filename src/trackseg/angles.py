"""Angle wrapping helpers for the azimuth (period 2*pi) and ellipse
rotation (period pi) conventions used throughout the package."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def _mod(x, period):
    """x modulo period in [0, period) for a float or an array; a tiny
    negative x, which the modulo rounds up to period, folds to 0."""
    r = x % period
    return r - period * (r == period)


def wrap_phi(phi):
    """Wrap an azimuth into [0, 2*pi)."""
    return _mod(phi, TWO_PI)


def signed_dphi(phi_a, phi_b):
    """Shortest signed arc phi_a - phi_b, in (-pi, pi]."""
    d = np.mod(phi_a - phi_b + np.pi, TWO_PI) - np.pi
    # mod can return -pi for exact half-turn differences; fold to +pi
    return np.where(d <= -np.pi, d + TWO_PI, d) if np.ndim(d) else (
        d + TWO_PI if d <= -np.pi else d)


def wrap_theta(theta):
    """Wrap an ellipse rotation into the canonical range [0, pi)."""
    return _mod(theta, np.pi)


def wrap_half_pi(x):
    """Map an angle to its representative in [-pi/2, pi/2), period pi."""
    return _mod(x + 0.5 * np.pi, np.pi) - 0.5 * np.pi


def circular_mean(angles, period=TWO_PI, where=True):
    """Mean of angles with the given period, via the unit-vector average
    along the last axis over the entries `where` selects.

    Returns values in [0, period), a float for a 1-d input.  Undefined
    (0.0) where the vector average cancels exactly.
    """
    a = np.asarray(angles, dtype=float) * (TWO_PI / period)
    s = np.sin(a).mean(axis=-1, where=where)
    c = np.cos(a).mean(axis=-1, where=where)
    mean = np.where((np.abs(s) < 1e-300) & (np.abs(c) < 1e-300), 0.0,
                    _mod(np.arctan2(s, c) * (period / TWO_PI), period))
    return mean if mean.ndim else float(mean)
