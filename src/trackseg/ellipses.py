"""Rotated elliptical bounding boxes in the eta-phi plane.

An ellipse is parametrized by 5 degrees of freedom: center (eta_c, phi_c),
semi-axes a >= b > 0 and rotation theta of the major axis with respect to
the eta-axis, canonical in [0, pi).  phi is periodic with period 2*pi and
all phi differences are taken along the shortest arc; theta is periodic
with period pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import (circular_mean, signed_dphi, wrap_half_pi, wrap_phi,
                     wrap_theta)
from .errors import DomainError
from .jsonio import number

# membership is boundary-inclusive; the slack absorbs rounding on points
# constructed to lie exactly on the boundary
_MEMBERSHIP_SLACK = 1e-9

# smallest admissible semi-axis, in eta-phi units
AXIS_FLOOR = 1e-4

# vertices of the inscribed polygons ellipse_ious intersects; the first
# unit angle again closes the ring
IOU_RESOLUTION = 64
_RING = np.append(np.linspace(0.0, 2.0 * math.pi, IOU_RESOLUTION,
                              endpoint=False), 0.0)

# mvee stops once no step can gain more than this relative amount
MVEE_TOLERANCE = 1e-6

# scales of the box encoding; they bring each encoded component to a
# comparable magnitude for pixel-scale tracks
ETA_M = 0.01
PHI_M = 0.004
A_M = 0.038
B_M = 0.005
THETA_M = math.pi / 4.0
DELTA_THETA = 0.5


@dataclass(frozen=True)
class Ellipse5:
    """5-dof rotated ellipse; invariant a >= b > 0, theta in [0, pi)."""
    eta_c: float
    phi_c: float
    a: float
    b: float
    theta: float

    def __post_init__(self):
        if not (self.a >= self.b > 0.0):
            raise DomainError(f"semi-axes must satisfy a >= b > 0, "
                              f"got a={self.a}, b={self.b}")
        if not (0.0 <= self.theta < math.pi):
            raise DomainError(f"theta must lie in [0, pi), got {self.theta}")


def make_ellipse(eta_c: float, phi_c: float, a: float, b: float,
                 theta: float) -> Ellipse5:
    """Canonicalize raw parameters into a valid Ellipse5.

    Swaps the axes (rotating theta by pi/2) when a < b, wraps theta into
    [0, pi) and phi_c into [0, 2*pi).
    """
    if a < b:
        a, b = b, a
        theta = theta + 0.5 * math.pi
    return Ellipse5(float(eta_c), float(wrap_phi(phi_c)), float(a), float(b),
                    float(wrap_theta(theta)))


def encode_box(e: Ellipse5, vertex: tuple[float, float]) -> np.ndarray:
    """Encode an ellipse as the dimensionless residual row (d_eta, d_phi,
    d_a, d_b, d_theta) relative to a vertex position.

    d_eta and d_phi are scaled center offsets (phi along the shortest
    signed arc), d_a and d_b are log-ratios against the scale axes, and
    d_theta is (theta + DELTA_THETA)/THETA_M with the numerator folded
    into [-pi/2, pi/2) so that theta = -DELTA_THETA (mod pi) encodes to
    exactly zero.
    """
    eta_v, phi_v = vertex
    return np.array([
        (e.eta_c - eta_v) / ETA_M,
        float(signed_dphi(e.phi_c, phi_v)) / PHI_M,
        math.log(e.a / A_M),
        math.log(e.b / B_M),
        float(wrap_half_pi(e.theta + DELTA_THETA)) / THETA_M,
    ])


def decode_box(d, vertex: tuple[float, float]) -> Ellipse5:
    """Exact inverse of encode_box (theta modulo pi) for any length-5
    row; re-canonicalizes the axis ordering for free-form regressed
    residuals."""
    eta_v, phi_v = vertex
    d_eta, d_phi, d_a, d_b, d_theta = d
    try:
        a, b = math.exp(d_a) * A_M, math.exp(d_b) * B_M
    except OverflowError as err:
        raise DomainError(f"log-axes ({d_a}, {d_b}) overflow") from err
    return make_ellipse(
        eta_v + d_eta * ETA_M,
        phi_v + d_phi * PHI_M,
        a, b,
        d_theta * THETA_M - DELTA_THETA,
    )


def _quad_form(e: Ellipse5, eta, phi):
    """Quadratic form of the ellipse; <= 1 on and inside the boundary."""
    d_eta = np.asarray(eta, dtype=float) - e.eta_c
    d_phi = signed_dphi(np.asarray(phi, dtype=float), e.phi_c)
    ct, st = math.cos(e.theta), math.sin(e.theta)
    major = ct * d_eta + st * d_phi
    minor = -st * d_eta + ct * d_phi
    return (major / e.a) ** 2 + (minor / e.b) ** 2


def point_in_ellipse(e: Ellipse5, p):
    """Boundary-inclusive membership test with phi wrapped to the
    shortest arc, of one (eta, phi) point or elementwise of two arrays."""
    return _quad_form(e, p[0], p[1]) <= 1.0 + _MEMBERSHIP_SLACK


def _polygons(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inscribed IOU_RESOLUTION-gons of ellipses with parameter rows
    (n, 5), counterclockwise around their own centres, as closed rings
    of vertex eta and phi offsets, (n, IOU_RESOLUTION + 1) each."""
    a, b, theta = rows[:, 2:3], rows[:, 3:4], rows[:, 4:5]
    x, y = a * np.cos(_RING), b * np.sin(_RING)
    ct, st = np.cos(theta), np.sin(theta)
    return ct * x - st * y, st * x + ct * y


def _inside_fractions(sx, sy, cx, cy, open_from: int) -> np.ndarray:
    """Fraction of each edge of the rings (sx, sy) inside the convex
    counterclockwise rings (cx, cy), all (m, k + 1), by Cyrus-Beck
    clipping against every half-plane: (m, k).  Rows from open_from on
    take the half-planes open, the others closed."""
    ex, ey = np.diff(cx, axis=1)[:, :, None], np.diff(cy, axis=1)[:, :, None]
    # out[., j, i] > 0 when vertex i lies outside clip edge j; exactly 0
    # on either end of the edge, and made positive if the half-plane is open
    out = (ey * (sx[:, None, :] - cx[:, :-1, None])
           - ex * (sy[:, None, :] - cy[:, :-1, None]))
    out[open_from:] += np.finfo(float).smallest_subnormal
    o0, o1 = out[:, :, :-1], out[:, :, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = o0 / (o0 - o1)
    # entering a half-plane raises the start, leaving lowers the end; an
    # edge parallel to it has t = +inf outside, -inf inside, NaN on it
    entering = o0 >= o1
    lo = np.fmax.reduce(np.where(entering, t, 0.0), axis=1)  # skips NaN
    hi = np.where(entering, 1.0, t).min(axis=1)
    return np.maximum(hi - lo, 0.0)


def ellipse_ious(e, others) -> np.ndarray:
    """Intersection-over-union of ellipse e against each of others, all
    parameter rows (eta_c, phi_c, a, b, theta).

    Each ellipse is approximated by its inscribed polygon with
    IOU_RESOLUTION vertices (error O(1/IOU_RESOLUTION^2)); the polygons'
    intersection area is exact.  Symmetric, and exactly 0 for disjoint
    ellipses.  Centres farther apart than the summed major axes are
    rejected first; the others are placed in e's chart at their offset
    (d_eta, shortest-arc d_phi).  By Green's theorem, area(P & Q) =
    1/2 [sum_i f_i cross(p_i, p_i+1) + sum_j g_j cross(q_j, q_j+1)] with
    f_i the fraction of P's edge i inside Q and g_j that of Q's edge j
    inside P.
    """
    seed = np.asarray(e, dtype=float)
    rows = np.asarray(others, dtype=float).reshape(-1, 5)
    d_eta = rows[:, 0] - seed[0]
    d_phi = signed_dphi(rows[:, 1], seed[1])
    near = np.hypot(d_eta, d_phi) <= seed[2] + rows[:, 2]
    out = np.zeros(len(rows))
    m = int(np.count_nonzero(near))
    if m == 0:
        return out
    # rows of P (m copies of e) then Q, in e's chart; P's edges are
    # clipped by Q's closed half-planes and Q's edges by P's open ones
    sx, sy = _polygons(np.concatenate([np.repeat(seed[None], m, 0),
                                       rows[near]]))
    sx[m:] += d_eta[near, None]
    sy[m:] += d_phi[near, None]
    cross = 0.5 * (sx[:, :-1] * sy[:, 1:] - sy[:, :-1] * sx[:, 1:])
    parts = np.sum(cross * _inside_fractions(
        sx, sy, np.roll(sx, m, axis=0), np.roll(sy, m, axis=0), m), axis=1)
    inter = parts[:m] + parts[m:]
    areas = np.sum(cross, axis=1)
    out[near] = np.clip(inter / (areas[:m] + areas[m:] - inter), 0.0, 1.0)
    return out


def ellipse_to_dict(e: Ellipse5) -> dict:
    return {"eta_c": e.eta_c, "phi_c": e.phi_c, "a": e.a, "b": e.b,
            "theta": e.theta}


def ellipse_from_dict(d: dict) -> Ellipse5:
    values = [number(d[k]) for k in ("eta_c", "phi_c", "a", "b", "theta")]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"ellipse parameters must be finite, got {values}")
    return Ellipse5(*values)


def mvee(points) -> Ellipse5:
    """Minimum-area enclosing ellipse of eta-phi points.

    Runs the Khachiyan barycentric-coordinate-descent scheme to
    MVEE_TOLERANCE, then rescales the result so the farthest input point
    lies exactly on the boundary (guaranteeing containment).  Degenerate
    inputs are handled directly: a single or coincident point set yields
    a floor-radius circle, collinear points a segment-spanning ellipse
    with the minor axis at the floor.  phi is unwrapped around its
    circular mean first, so point sets straddling the 2*pi seam are fine.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise DomainError("mvee needs at least one point")

    phi_ref = circular_mean(pts[:, 1])
    flat = np.stack(
        [pts[:, 0], phi_ref + np.asarray(signed_dphi(pts[:, 1], phi_ref))],
        axis=1)

    center = flat.mean(axis=0)
    spread = flat - center
    scale = float(np.abs(spread).max())

    if scale < 1e-12:  # all points coincident
        return make_ellipse(center[0], center[1], AXIS_FLOOR, AXIS_FLOOR, 0.0)

    # principal direction; collinear sets get the segment treatment
    _, svals, vecs = np.linalg.svd(spread, full_matrices=False)
    if len(svals) < 2 or svals[1] <= 1e-7 * svals[0]:
        axis = vecs[0]
        proj = spread @ axis
        mid = center + 0.5 * (proj.min() + proj.max()) * axis
        half = 0.5 * float(proj.max() - proj.min())
        theta = math.atan2(axis[1], axis[0])
        a, b = max(half, AXIS_FLOOR), AXIS_FLOOR
        e = make_ellipse(mid[0], mid[1], a, b, theta)
        return _rescale_to_contain(e, flat)

    # the problem is affine-equivariant: normalize each axis to unit
    # extent so elongated sets converge as fast as round ones
    axis_scale = np.maximum(flat.max(axis=0) - flat.min(axis=0), 1e-30)
    norm = spread / axis_scale

    n, d = norm.shape
    q = np.column_stack([norm, np.ones(n)]).T  # (3, n)
    u = np.full(n, 1.0 / n)
    lift = d + 1.0
    for _ in range(100_000):
        x = q @ (u[:, None] * q.T)
        m = np.einsum("ij,ji->i", q.T @ np.linalg.inv(x), q)
        j_add = int(np.argmax(m))
        # away step over the current support gives linear convergence
        # (plain ascent needs O(1/MVEE_TOLERANCE) iterations)
        support = u > 1e-12
        m_support = np.where(support, m, np.inf)
        j_away = int(np.argmin(m_support))
        gain_add = m[j_add] - lift
        gain_away = lift - m_support[j_away]
        if max(gain_add, gain_away) <= lift * MVEE_TOLERANCE:
            break
        j = j_add if gain_add >= gain_away else j_away
        beta = (m[j] - lift) / (lift * (m[j] - 1.0))
        beta = max(beta, -u[j] / (1.0 - u[j]))  # drop step floor
        u *= 1.0 - beta
        u[j] += beta

    c_norm = u @ norm
    shape_norm = np.linalg.inv(
        norm.T @ (u[:, None] * norm) - np.outer(c_norm, c_norm)) / d
    # undo the axis scaling: x = D z + center with D = diag(axis_scale)
    d_inv = np.diag(1.0 / axis_scale)
    shape = d_inv @ shape_norm @ d_inv
    c = center + c_norm * axis_scale
    evals, evecs = np.linalg.eigh(shape)  # ascending; semi-axis = 1/sqrt
    a = 1.0 / math.sqrt(max(evals[0], 1e-30))
    b = 1.0 / math.sqrt(max(evals[1], 1e-30))
    theta = math.atan2(evecs[1, 0], evecs[0, 0])
    e = make_ellipse(c[0], c[1], max(a, AXIS_FLOOR), max(b, AXIS_FLOOR),
                     theta)
    return _rescale_to_contain(e, flat)


def _rescale_to_contain(e: Ellipse5, flat_points: np.ndarray) -> Ellipse5:
    """Scale semi-axes so the farthest point sits on the boundary, never
    dropping below the axis floor."""
    q = float(np.max(_quad_form(e, flat_points[:, 0], flat_points[:, 1])))
    if q <= 0.0:
        return e
    s = math.sqrt(q)
    return make_ellipse(e.eta_c, e.phi_c, max(e.a * s, AXIS_FLOOR),
                        max(e.b * s, AXIS_FLOOR), e.theta)
