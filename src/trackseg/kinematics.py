"""Closed-form transverse-plane track geometry.

Circles in the transverse (x, y) plane map to u-v space via
(u, v) = (x, y) / (x^2 + y^2).  A circle through the beamline becomes the
line v = 1/(2b) - u*(a/b); a slightly displaced circle becomes a parabola
whose quadratic term carries the transverse impact parameter.  Fitting
that parabola and inverting the coefficient relations yields the circle
center (a, b), radius R and impact parameter, and p_T = 0.3*B*R.

Units are meters, tesla and GeV throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import DomainError, FitError

# p_T [GeV] = PT_COEFF * B [T] * R [m]
PT_COEFF = 0.3

# normal-equation condition number above which a fit is rejected
FIT_CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class CircleTrack:
    """Transverse circle (x-a)^2 + (y-b)^2 = R^2.

    R^2 - a^2 - b^2 vanishes for circles through the beamline; parabola
    extraction assumes it is small against R^2 (enforced by callers, not
    here).
    """
    a: float
    b: float
    R: float

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise DomainError(f"circle radius must be positive, got {self.R}")


@dataclass(frozen=True)
class ParabolaCoeffs:
    """Coefficients of v = c0 + c1*u + c2*u^2 (c0: 1/m, c1: 1, c2: m)."""
    c0: float
    c1: float
    c2: float


@dataclass(frozen=True)
class TrackParams:
    """Transverse track parameters: momentum, impact parameter, center."""
    p_t: float
    eps_t: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.p_t > 0 and math.isfinite(self.p_t)):
            raise DomainError(f"p_T must be positive, got {self.p_t}")
        if not math.isfinite(self.eps_t):
            raise DomainError("eps_T must be finite")


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


def pt_from_radius(field_b: float, radius: float) -> float:
    """Transverse momentum in GeV of a circle of the given radius (m)
    in a solenoidal field of the given strength (T)."""
    if not (field_b > 0):
        raise DomainError(f"field strength must be positive, got {field_b}")
    if not (radius > 0):
        raise DomainError(f"radius must be positive, got {radius}")
    return PT_COEFF * field_b * radius


def fit_parabola(points) -> ParabolaCoeffs:
    """Least-squares fit of v = c0 + c1*u + c2*u^2 over n >= 3 (u, v) rows.

    Solved via normal equations after scaling each design column to unit
    norm; rank-deficient designs (all-equal u, or any scaled normal
    matrix with condition number above 1e10) raise FitError.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise DomainError(f"need >= 3 (u, v) points, got shape {arr.shape}")
    u, v = arr[:, 0], arr[:, 1]
    if np.ptp(u) == 0.0:
        raise FitError("all u-values identical; parabola fit is rank-deficient")

    design = np.stack([np.ones_like(u), u, u * u], axis=1)
    col_scale = np.linalg.norm(design, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    scaled = design / col_scale
    normal = scaled.T @ scaled
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > FIT_CONDITION_LIMIT:
        raise FitError("ill-conditioned parabola fit", condition=float(cond))
    coeffs = np.linalg.solve(normal, scaled.T @ v) / col_scale
    return ParabolaCoeffs(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))


def extract_track_params(c: ParabolaCoeffs, field_b: float) -> TrackParams:
    """Invert the parabola coefficients into transverse track parameters.

    b = 1/(2 c0), a = -c1 b, R^2 ~= a^2 + b^2, eps_T = -c2 b^3 / R^3,
    p_T = 0.3 B R.  eps_T keeps the sign the inversion produces; compare
    magnitudes against unsigned truth displacements.
    """
    if c.c0 == 0.0:
        raise DomainError("c0 = 0: infinite-radius track, extraction undefined")
    b = 0.5 / c.c0
    a = -c.c1 * b
    radius = math.hypot(a, b)
    eps_t = -c.c2 * (b / radius) ** 3
    return TrackParams(pt_from_radius(field_b, radius), eps_t, a, b)


def canonical_parabola_coeffs(xy: np.ndarray) -> ParabolaCoeffs:
    """Parabola coefficients of a hit set in its canonical frame.

    Rotates the hits so their mean azimuth points along +x before the
    conformal fit; the resulting coefficients are well-conditioned for
    any track orientation and still determine the rotation-invariant
    quantities (R, eps_T, p_T).
    """
    xy = np.asarray(xy, dtype=float)
    alpha = math.atan2(xy[:, 1].mean(), xy[:, 0].mean())
    ca, sa = math.cos(alpha), math.sin(alpha)
    xr = xy[:, 0] * ca + xy[:, 1] * sa
    yr = -xy[:, 0] * sa + xy[:, 1] * ca
    u, v = conformal_xy(xr, yr)
    return fit_parabola(np.stack([u, v], axis=1))


def fit_track_conformal(xy: np.ndarray, field_b: float) -> TrackParams:
    """Fit one track's transverse hits through the conformal pipeline.

    The raw v(u) parabola model degenerates when the circle center lies
    near the x-axis, so the hits are first rotated so their mean azimuth
    points along +x (center then lies near the y-axis), fitted there, and
    the recovered center rotated back.  R, eps_T and p_T are rotation
    invariants.
    """
    xy = np.asarray(xy, dtype=float)
    alpha = math.atan2(xy[:, 1].mean(), xy[:, 0].mean())
    ca, sa = math.cos(alpha), math.sin(alpha)
    params = extract_track_params(canonical_parabola_coeffs(xy), field_b)
    a = params.a * ca - params.b * sa
    b = params.a * sa + params.b * ca
    return TrackParams(params.p_t, params.eps_t, a, b)
