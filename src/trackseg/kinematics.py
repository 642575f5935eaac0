"""Closed-form transverse-plane track geometry.

Circles in the transverse (x, y) plane map to u-v space via
(u, v) = (x, y) / (x^2 + y^2).  A circle through the beamline becomes the
line v = 1/(2b) - u*(a/b); a slightly displaced circle becomes a parabola
whose quadratic term carries the transverse impact parameter.  Fitting
that parabola and inverting the coefficient relations yields the circle
center (a, b), radius R and impact parameter, and p_T = 0.3*B*R.

The fits work on many hit sets at once: coefficients and track
parameters are rows of arrays, and a set the fit cannot determine gets a
row of NaN.  Units are meters, tesla and GeV throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# p_T [GeV] = PT_COEFF * B [T] * R [m]
PT_COEFF = 0.3

# normal-equation condition number above which a fit gives NaN
FIT_CONDITION_LIMIT = 1e10


def conformal_xy(x, y):
    """Vectorized conformal map (u, v) = (x, y)/(x^2 + y^2), an involution."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho2 = x * x + y * y
    if np.any(rho2 <= 0.0):
        raise DomainError("conformal map undefined at the beamline (x=y=0)")
    return x / rho2, y / rho2


def pseudorapidity(theta):
    """eta = -ln(tan(theta/2)) of a polar angle, or of each of an array of
    them, with theta/2 in (0, pi/2); math.tan and math.log map over the
    half angles, so an array's values are the scalar's bit for bit."""
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * theta
    bad = ~((0.0 < half) & (half < 0.5 * math.pi))
    if bad.any():
        raise DomainError(f"polar angle must lie in (0, pi), got "
                          f"{theta.flat[np.argmax(bad)]}")
    eta = -np.array(list(map(math.log, map(math.tan, half.ravel().tolist()))),
                    dtype=float).reshape(half.shape)
    return float(eta) if eta.ndim == 0 else eta


def fit_parabolas(uv, sizes) -> np.ndarray:
    """Least-squares (c0, c1, c2) of v = c0 + c1*u + c2*u^2 for each set
    of (u, v) rows, (n, 3) (c0: 1/m, c1: 1, c2: m); `uv` holds the rows
    of the sets one set after another and `sizes` their counts.

    The sets are padded with zero-weight rows to one (sets, points)
    batch, each design column is scaled to unit norm and the normal
    equations are solved.  Every sum runs over a set's points in order,
    so its row does not depend on the batch.  A set gets a row of NaN
    when it has fewer than 3 points, all its u are equal (a singular
    normal matrix) or the scaled normal matrix has a condition number
    above FIT_CONDITION_LIMIT.
    """
    sizes = np.asarray(sizes, dtype=int)
    valid = np.arange(sizes.max(initial=0)) < sizes[:, None]
    batch = np.zeros(valid.shape + (2,))
    batch[valid] = uv
    # powers 0..4 of u, zero on the padding, and their sums with v
    u, u2 = batch[..., 0], batch[..., 0] ** 2
    powers = np.stack([valid, u, u2, u2 * u, u2 * u2], axis=2)
    moments = powers.sum(axis=1)
    rhs = (powers[..., :3] * batch[..., 1:]).sum(axis=1)
    fit = np.flatnonzero((sizes >= 3) & (moments[:, 4] > 0))
    norm = np.sqrt(moments[fit][:, [0, 2, 4]])  # of the design columns
    normal = moments[fit][:, [[0, 1, 2], [1, 2, 3], [2, 3, 4]]] \
        / (norm[:, :, None] * norm[:, None, :])
    # a symmetric positive semi-definite matrix's condition number is
    # the ratio of its extreme eigenvalues; NaN fails too
    low, _, high = np.linalg.eigvalsh(normal).T
    ok = low * FIT_CONDITION_LIMIT >= high
    coeffs = np.full((len(sizes), 3), np.nan)
    coeffs[fit[ok]] = np.linalg.solve(
        normal[ok], (rhs[fit] / norm)[ok][..., None])[..., 0] / norm[ok]
    return coeffs


def canonical_fits(xy, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Parabola coefficients of each set of (x, y) hits in its canonical
    frame, (n, 3), and the frame angles, (n,); `xy` and `sizes` as in
    fit_parabolas.

    A set is rotated by minus its angle, the azimuth of its mean point,
    so that the mean points along +x before the conformal fit.  The raw
    v(u) parabola degenerates when a circle's center lies near the
    x-axis; in this frame the center lies near the y-axis, so the
    coefficients are well conditioned for any track orientation.  They
    determine the rotation invariants (R, eps_T, p_T); track_params
    rotates the center back.  An empty set's angle is 0.
    """
    x, y = np.asarray(xy, dtype=float).reshape(-1, 2).T
    segment = np.repeat(np.arange(len(sizes)), sizes)
    # bincount sums each set's coordinates in order
    alpha = np.arctan2(np.bincount(segment, y, len(sizes)),
                       np.bincount(segment, x, len(sizes)))
    ca, sa = np.cos(alpha)[segment], np.sin(alpha)[segment]
    uv = np.stack(conformal_xy(x * ca + y * sa, -x * sa + y * ca), axis=1)
    return fit_parabolas(uv, sizes), alpha


def track_params(coeffs, alpha, field_b: float) -> np.ndarray:
    """Transverse track parameters (p_T, eps_T, a, b) of parabola
    coefficient rows fitted in frames rotated by alpha, (n, 4), the
    center (a, b) rotated back.

    b' = 1/(2 c0), a' = -c1 b', R^2 ~= a'^2 + b'^2, eps_T = -c2 b'^3 / R^3,
    p_T = 0.3 B R.  eps_T keeps the sign the inversion produces; compare
    magnitudes against unsigned truth displacements.  A row is NaN where
    c0 = 0 (an infinite radius) or the coefficients are NaN.
    """
    c0, c1, c2 = np.asarray(coeffs, dtype=float).reshape(-1, 3).T
    b = np.divide(0.5, c0, out=np.full(c0.shape, np.nan), where=c0 != 0)
    a = -c1 * b
    radius = np.hypot(a, b)
    eps_t = -c2 * (b / radius) ** 3
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.stack([PT_COEFF * field_b * radius, eps_t,
                     a * ca - b * sa, a * sa + b * ca], axis=1)
