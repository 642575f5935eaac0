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

# membership is boundary-inclusive; the slack absorbs rounding on points
# constructed to lie exactly on the boundary
_MEMBERSHIP_SLACK = 1e-9

# smallest admissible semi-axis, in eta-phi units
AXIS_FLOOR = 1e-4


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

    @property
    def area(self) -> float:
        return math.pi * self.a * self.b


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


@dataclass(frozen=True)
class EncodedBox:
    """Dimensionless residual encoding of an ellipse against a vertex."""
    d_eta: float
    d_phi: float
    d_a: float
    d_b: float
    d_theta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.d_eta, self.d_phi, self.d_a, self.d_b,
                         self.d_theta])


@dataclass(frozen=True)
class BoxScales:
    """Constant scale parameters of the box encoding.

    Defaults bring each encoded component to a comparable magnitude for
    pixel-scale tracks.
    """
    eta_m: float = 0.01
    phi_m: float = 0.004
    a_m: float = 0.038
    b_m: float = 0.005
    theta_m: float = math.pi / 4.0
    delta_theta: float = 0.5

    def __post_init__(self):
        for name in ("eta_m", "phi_m", "a_m", "b_m", "theta_m"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"scale {name} must be positive")


def encode_box(e: Ellipse5, vertex: tuple[float, float],
               scales: BoxScales = BoxScales()) -> EncodedBox:
    """Encode an ellipse as residuals relative to a vertex position.

    d_eta and d_phi are scaled center offsets (phi along the shortest
    signed arc), d_a and d_b are log-ratios against the scale axes, and
    d_theta is (theta + delta_theta)/theta_m with the numerator folded
    into [-pi/2, pi/2) so that theta = -delta_theta (mod pi) encodes to
    exactly zero.
    """
    eta_v, phi_v = vertex
    return EncodedBox(
        d_eta=(e.eta_c - eta_v) / scales.eta_m,
        d_phi=float(signed_dphi(e.phi_c, phi_v)) / scales.phi_m,
        d_a=math.log(e.a / scales.a_m),
        d_b=math.log(e.b / scales.b_m),
        d_theta=float(wrap_half_pi(e.theta + scales.delta_theta))
        / scales.theta_m,
    )


def decode_box(d: EncodedBox, vertex: tuple[float, float],
               scales: BoxScales = BoxScales()) -> Ellipse5:
    """Exact inverse of encode_box (theta modulo pi); re-canonicalizes
    the axis ordering for free-form regressed residuals."""
    eta_v, phi_v = vertex
    return make_ellipse(
        eta_v + d.d_eta * scales.eta_m,
        phi_v + d.d_phi * scales.phi_m,
        math.exp(d.d_a) * scales.a_m,
        math.exp(d.d_b) * scales.b_m,
        d.d_theta * scales.theta_m - scales.delta_theta,
    )


def _quad_form(e: Ellipse5, eta, phi):
    """Quadratic form of the ellipse; <= 1 on and inside the boundary."""
    d_eta = np.asarray(eta, dtype=float) - e.eta_c
    d_phi = signed_dphi(np.asarray(phi, dtype=float), e.phi_c)
    ct, st = math.cos(e.theta), math.sin(e.theta)
    major = ct * d_eta + st * d_phi
    minor = -st * d_eta + ct * d_phi
    return (major / e.a) ** 2 + (minor / e.b) ** 2


def point_in_ellipse(e: Ellipse5, p: tuple[float, float]) -> bool:
    """Boundary-inclusive membership test with phi wrapped to the
    shortest arc."""
    return bool(_quad_form(e, p[0], p[1]) <= 1.0 + _MEMBERSHIP_SLACK)


def _polygon(e: Ellipse5, resolution: int, phi_center: float) -> np.ndarray:
    """Inscribed polygon of the ellipse in a flat chart whose phi
    coordinate is continuous around phi_center."""
    t = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    ct, st = math.cos(e.theta), math.sin(e.theta)
    x = e.a * np.cos(t)
    y = e.b * np.sin(t)
    eta = e.eta_c + ct * x - st * y
    phi = (phi_center + float(signed_dphi(e.phi_c, phi_center))
           + st * x + ct * y)
    return np.stack([eta, phi], axis=1)


def _shoelace(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman intersection of two convex polygons (both
    counterclockwise)."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        if not output:
            break
        points = output
        output = []
        m = len(points)
        # signed distance to the clip edge; inside = left of a->b
        side = [
            (bx - ax) * (py - ay) - (by - ay) * (px - ax) for px, py in points
        ]
        for j in range(m):
            cur, nxt = points[j], points[(j + 1) % m]
            s_cur, s_nxt = side[j], side[(j + 1) % m]
            if s_cur >= 0.0:
                output.append(cur)
            if (s_cur > 0.0) != (s_nxt > 0.0) and s_cur != s_nxt:
                t = s_cur / (s_cur - s_nxt)
                output.append((cur[0] + t * (nxt[0] - cur[0]),
                               cur[1] + t * (nxt[1] - cur[1])))
    return np.asarray(output, dtype=float).reshape(-1, 2)


def ellipse_iou(e1: Ellipse5, e2: Ellipse5, resolution: int = 64) -> float:
    """Intersection-over-union of two ellipses.

    Each ellipse is approximated by an inscribed polygon with
    `resolution` vertices and the intersection computed by convex-polygon
    clipping, so the approximation error is O(1/resolution^2).  Symmetric
    in its arguments and exactly 0 for disjoint ellipses.
    """
    if resolution < 8:
        raise DomainError(f"resolution must be >= 8, got {resolution}")
    # quick reject: centers farther than the summed major axes
    center_gap = math.hypot(e1.eta_c - e2.eta_c,
                            float(signed_dphi(e2.phi_c, e1.phi_c)))
    if center_gap > e1.a + e2.a:
        return 0.0
    p1 = _polygon(e1, resolution, e1.phi_c)
    p2 = _polygon(e2, resolution, e1.phi_c)
    inter = _shoelace(_clip_convex(p1, p2))
    union = _shoelace(p1) + _shoelace(p2) - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def ellipse_to_dict(e: Ellipse5) -> dict:
    return {"eta_c": e.eta_c, "phi_c": e.phi_c, "a": e.a, "b": e.b,
            "theta": e.theta}


def ellipse_from_dict(d: dict) -> Ellipse5:
    return Ellipse5(float(d["eta_c"]), float(d["phi_c"]), float(d["a"]),
                    float(d["b"]), float(d["theta"]))


def mvee(points, tolerance: float = 1e-6, axis_floor: float = AXIS_FLOOR,
         max_iterations: int = 100_000) -> Ellipse5:
    """Minimum-area enclosing ellipse of eta-phi points.

    Runs the Khachiyan barycentric-coordinate-descent scheme to the given
    tolerance, then rescales the result so the farthest input point lies
    exactly on the boundary (guaranteeing containment).  Degenerate
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
        return make_ellipse(center[0], center[1], axis_floor, axis_floor, 0.0)

    # principal direction; collinear sets get the segment treatment
    _, svals, vecs = np.linalg.svd(spread, full_matrices=False)
    if len(svals) < 2 or svals[1] <= 1e-7 * svals[0]:
        axis = vecs[0]
        proj = spread @ axis
        mid = center + 0.5 * (proj.min() + proj.max()) * axis
        half = 0.5 * float(proj.max() - proj.min())
        theta = math.atan2(axis[1], axis[0])
        a, b = max(half, axis_floor), axis_floor
        e = make_ellipse(mid[0], mid[1], a, b, theta)
        return _rescale_to_contain(e, flat, axis_floor)

    # the problem is affine-equivariant: normalize each axis to unit
    # extent so elongated sets converge as fast as round ones
    axis_scale = np.maximum(flat.max(axis=0) - flat.min(axis=0), 1e-30)
    norm = spread / axis_scale

    n, d = norm.shape
    q = np.column_stack([norm, np.ones(n)]).T  # (3, n)
    u = np.full(n, 1.0 / n)
    lift = d + 1.0
    for _ in range(max_iterations):
        x = q @ (u[:, None] * q.T)
        m = np.einsum("ij,ji->i", q.T @ np.linalg.inv(x), q)
        j_add = int(np.argmax(m))
        # away step over the current support gives linear convergence
        # (plain ascent needs O(1/tolerance) iterations)
        support = u > 1e-12
        m_support = np.where(support, m, np.inf)
        j_away = int(np.argmin(m_support))
        gain_add = m[j_add] - lift
        gain_away = lift - m_support[j_away]
        if max(gain_add, gain_away) <= lift * tolerance:
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
    e = make_ellipse(c[0], c[1], max(a, axis_floor), max(b, axis_floor), theta)
    return _rescale_to_contain(e, flat, axis_floor)


def _rescale_to_contain(e: Ellipse5, flat_points: np.ndarray,
                        axis_floor: float) -> Ellipse5:
    """Scale semi-axes so the farthest point sits on the boundary, never
    dropping below the axis floor."""
    q = float(np.max(_quad_form(e, flat_points[:, 0], flat_points[:, 1])))
    if q <= 0.0:
        return e
    s = math.sqrt(q)
    return make_ellipse(e.eta_c, e.phi_c, max(e.a * s, axis_floor),
                        max(e.b * s, axis_floor), e.theta)
