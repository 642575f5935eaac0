"""Rotated elliptical bounding boxes in the eta-phi plane.

An ellipse is parametrized by 5 degrees of freedom: center (eta_c, phi_c),
semi-axes a >= b > 0 and rotation theta of the major axis with respect to
the eta-axis, canonical in [0, pi).  phi is periodic with period 2*pi and
all phi differences are taken along the shortest arc; theta is periodic
with period pi.  Every ellipse is a parameter row (eta_c, phi_c, a, b,
theta), and many are an (n, 5) array of them.
"""

from __future__ import annotations

import math

import numpy as np

from .angles import (circular_mean, signed_dphi, wrap_half_pi, wrap_phi,
                     wrap_theta)
from .errors import DomainError, check_rows

# the columns of a parameter row, float each, as jsonio tables store them
SHAPE_COLUMNS = dict.fromkeys(("eta_c", "phi_c", "a", "b", "theta"), float)

# membership is boundary-inclusive; the slack absorbs rounding on points
# constructed to lie exactly on the boundary
MEMBERSHIP_SLACK = 1e-9

# smallest admissible semi-axis, in eta-phi units
AXIS_FLOOR = 1e-4

# vertices of the inscribed polygons ellipse_ious intersects; the first
# unit angle again closes the ring
IOU_RESOLUTION = 64
_RING = np.append(np.linspace(0.0, 2.0 * math.pi, IOU_RESOLUTION,
                              endpoint=False), 0.0)

# an edge whose ends both lie within _INSIDE of another ellipse's
# quadratic form lies inside its inscribed polygon, which holds the
# ellipse shrunk by cos(pi / IOU_RESOLUTION); an edge whose closest point
# lies beyond _OUTSIDE misses the polygon.  The margins are far wider
# than rounding, so neither kind of edge needs clipping.
_INSIDE = math.cos(math.pi / IOU_RESOLUTION) ** 2 * (1.0 - 1e-6)
_OUTSIDE = 1.0 + 1e-6

# mvee stops once no step can gain more than this relative amount: at
# the optimum to rounding
MVEE_TOLERANCE = 1e-12

# scales of the box encoding; they bring each encoded component to a
# comparable magnitude for pixel-scale tracks
ETA_M = 0.01
PHI_M = 0.004
A_M = 0.038
B_M = 0.005
THETA_M = math.pi / 4.0
DELTA_THETA = 0.5


def canonical_rows(eta_c, phi_c, a, b, theta) -> np.ndarray:
    """Parameter rows, (n, 5), of raw parameters, each a float or an
    (n,) array: the axes swapped where a < b (theta rotated by pi/2),
    then phi_c wrapped into [0, 2*pi) and theta into [0, pi)."""
    eta_c, phi_c, a, b, theta = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (eta_c, phi_c, a, b, theta)))
    swap = a < b
    return np.stack([eta_c, wrap_phi(phi_c), np.where(swap, b, a),
                     np.where(swap, a, b),
                     wrap_theta(np.where(swap, theta + 0.5 * math.pi,
                                         theta))], axis=-1).reshape(-1, 5)


def check_ellipses(rows, name) -> None:
    """check_rows' DomainError for the first parameter row of `rows`,
    (n, 5), that breaks the ellipse invariant: all parameters finite,
    a >= b > 0 and theta in [0, pi)."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    _, _, a, b, theta = rows.T
    check_rows({
        "ellipse parameters must be finite: {row}":
            ~np.isfinite(rows).all(axis=1),
        "semi-axes must satisfy a >= b > 0, got a={a}, b={b}":
            ~((a >= b) & (b > 0.0)),
        "theta must lie in [0, pi), got {theta}":
            ~((0.0 <= theta) & (theta < math.pi))},
        name, row=rows, a=a, b=b, theta=theta)


def encode_box(rows, eta, phi) -> np.ndarray:
    """Encode each ellipse parameter row of `rows`, (n, 5), as the
    dimensionless residual row (d_eta, d_phi, d_a, d_b, d_theta)
    relative to its vertex (eta, phi).

    d_eta and d_phi are scaled center offsets (phi along the shortest
    signed arc), d_a and d_b are log-ratios against the scale axes, and
    d_theta is (theta + DELTA_THETA)/THETA_M with the numerator folded
    into [-pi/2, pi/2) so that theta = -DELTA_THETA (mod pi) encodes to
    exactly zero.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    # math.log of each ratio, as decode_box maps math.exp
    logs = np.array(list(map(math.log, (rows[:, 2:4] / (A_M, B_M))
                             .ravel().tolist()))).reshape(-1, 2)
    return np.stack([(rows[:, 0] - eta) / ETA_M,
                     signed_dphi(rows[:, 1], phi) / PHI_M, *logs.T,
                     wrap_half_pi(rows[:, 4] + DELTA_THETA) / THETA_M],
                    axis=1)


def _exp(x: float) -> float:
    """math.exp, inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def decode_box(d, eta, phi) -> np.ndarray:
    """Exact inverse of encode_box (theta modulo pi) for each encoded row
    of d, (n, 5), at its vertex (eta, phi): the parameter rows (eta_c,
    phi_c, a, b, theta), (n, 5), canonical (canonical_rows).
    The first row whose log-axes overflow, or that gives no valid
    ellipse (check_ellipses), raises DomainError naming it."""
    d = np.asarray(d, dtype=float).reshape(-1, 5)
    # math.exp of each value: np.exp differs from it in the last bit for
    # some inputs
    axes = np.array(list(map(_exp, d[:, 2:4].ravel().tolist())))
    a, b = (axes.reshape(-1, 2) * (A_M, B_M)).T
    rows = canonical_rows(eta + d[:, 0] * ETA_M, phi + d[:, 1] * PHI_M, a, b,
                          d[:, 4] * THETA_M - DELTA_THETA)
    check_ellipses(rows, lambda k: f"row {k}, {d[k].tolist()}, decodes to "
                   f"no valid ellipse: ")
    return rows


def quad_form(eta_c, phi_c, a, b, ct, st, eta, phi):
    """Quadratic form of the ellipse with centre (eta_c, phi_c), semi-axes
    a and b and rotation cosine and sine ct and st, broadcast over its
    arguments; <= 1 on and inside the boundary."""
    d_eta = np.asarray(eta, dtype=float) - eta_c
    d_phi = signed_dphi(np.asarray(phi, dtype=float), phi_c)
    major = ct * d_eta + st * d_phi
    minor = -st * d_eta + ct * d_phi
    return (major / a) ** 2 + (minor / b) ** 2


def point_in_ellipse(row, p):
    """Boundary-inclusive membership test, in the ellipse of parameter
    row (eta_c, phi_c, a, b, theta) with phi wrapped to the shortest
    arc, of one (eta, phi) point or elementwise of two arrays."""
    eta_c, phi_c, a, b, theta = row
    return quad_form(eta_c, phi_c, a, b, math.cos(theta), math.sin(theta),
                     p[0], p[1]) <= 1.0 + MEMBERSHIP_SLACK


def _polygons(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inscribed IOU_RESOLUTION-gons of ellipses with parameter rows
    (n, 5), counterclockwise around their own centres, as closed rings
    of vertex eta and phi offsets, (n, IOU_RESOLUTION + 1) each."""
    a, b, theta = rows[:, 2:3], rows[:, 3:4], rows[:, 4:5]
    x, y = a * np.cos(_RING), b * np.sin(_RING)
    ct, st = np.cos(theta), np.sin(theta)
    return ct * x - st * y, st * x + ct * y


def _edge_classes(x, y, rows, c_eta, c_phi):
    """Which edges of the rings (x, y), (k, n + 1), lie inside and which
    outside the inscribed polygons of the ellipses `rows`, (k, 5),
    centred at (c_eta, c_phi), (k,) each: two (k, n) masks, judged by
    the ellipses' quadratic forms."""
    ct, st = np.cos(rows[:, 4:5]), np.sin(rows[:, 4:5])
    dx, dy = x - c_eta[:, None], y - c_phi[:, None]
    # the rings in each ellipse's frame, where it is the unit circle
    u = (ct * dx + st * dy) / rows[:, 2:3]
    v = (ct * dy - st * dx) / rows[:, 3:4]
    q = u * u + v * v
    inside = (q[:, :-1] <= _INSIDE) & (q[:, 1:] <= _INSIDE)
    du, dv = np.diff(u, axis=1), np.diff(v, axis=1)
    u0, v0 = u[:, :-1], v[:, :-1]
    length2 = du * du + dv * dv
    # each edge's point closest to the centre; a zero-length edge's start
    s = np.clip(np.divide(-(u0 * du + v0 * dv), length2,
                          out=np.zeros_like(length2), where=length2 > 0.0),
                0.0, 1.0)
    outside = (u0 + s * du) ** 2 + (v0 + s * dv) ** 2 > _OUTSIDE
    return inside, outside


def _clipped_fractions(x0, y0, x1, y1, cx, cy, open_) -> np.ndarray:
    """Fraction of each edge (x0, y0) -> (x1, y1), (s,) each, inside its
    convex counterclockwise ring (cx, cy), (s, k + 1), by Cyrus-Beck
    clipping against every half-plane of the ring: (s,).  Edges where
    `open_` take the half-planes open, the others closed."""
    ex, ey = np.diff(cx, axis=1), np.diff(cy, axis=1)

    def out(x, y):
        # > 0 when (x, y) lies outside clip edge j; exactly 0 on either
        # end of the edge, and made positive if the half-plane is open
        o = (ey * (x[:, None] - cx[:, :-1])
             - ex * (y[:, None] - cy[:, :-1]))
        o[open_] += np.finfo(float).smallest_subnormal
        return o

    o0, o1 = out(x0, y0), out(x1, y1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = o0 / (o0 - o1)
    # entering a half-plane raises the start, leaving lowers the end; an
    # edge parallel to it has t = +inf outside, -inf inside, NaN on it
    entering = o0 >= o1
    lo = np.fmax.reduce(np.where(entering, t, 0.0), axis=1)  # skips NaN
    hi = np.where(entering, 1.0, t).min(axis=1)
    return np.maximum(hi - lo, 0.0)


def ellipse_ious(seeds, others, stats: dict | None = None) -> np.ndarray:
    """Intersection-over-union of each seed ellipse against its partner
    in others, all parameter rows (eta_c, phi_c, a, b, theta): one seed
    row per partner, or one row that every partner is measured against.

    Each ellipse is approximated by its inscribed polygon with
    IOU_RESOLUTION vertices (error O(1/IOU_RESOLUTION^2)); the polygons'
    intersection area is exact.  Symmetric, and exactly 0 for disjoint
    ellipses, whose edges all classify outside or clip to nothing.
    Every pair given is measured: a caller with many pairs first drops
    those whose centres lie farther apart than the summed major axes
    (postprocess._near_pairs).  Each partner is placed in its seed's
    chart at its offset (d_eta, shortest-arc d_phi).  By Green's
    theorem, area(P & Q) = 1/2 [sum_i f_i cross(p_i, p_i+1) + sum_j g_j
    cross(q_j, q_j+1)] with f_i the fraction of P's edge i inside Q and
    g_j that of Q's edge j inside P.  An edge whose ends both lie well
    inside the other ellipse's quadratic form (within the polygon's
    inscribed ellipse, cos^2(pi/IOU_RESOLUTION) times it) has fraction
    1, and one whose closest point lies outside the ellipse has 0, both
    by a relative margin of 1e-6; only the edges left, those near the
    other boundary, are clipped against the other polygon's half-planes.
    The margins are wide enough that the clip would give the classified
    edges exactly 1 and 0 as well, so the result is the same to the bit.

    `stats`, when given, gains the number of clipped edges under
    "edges_clipped".
    """
    rows = np.asarray(others, dtype=float).reshape(-1, 5)
    seeds = np.broadcast_to(np.asarray(seeds, dtype=float), rows.shape)
    m = len(rows)
    d_eta = rows[:, 0] - seeds[:, 0]
    d_phi = signed_dphi(rows[:, 1], seeds[:, 1])
    # rows of P (the seeds) then Q, each pair in its seed's chart; P's
    # edges are clipped by Q's closed half-planes and Q's edges by P's
    # open ones
    pq = np.concatenate([seeds, rows])
    sx, sy = _polygons(pq)
    sx[m:] += d_eta[:, None]
    sy[m:] += d_phi[:, None]
    # the ellipse each ring is clipped by, and its centre
    zeros = np.zeros(m)
    inside, outside = _edge_classes(
        sx, sy, np.roll(pq, m, axis=0), np.concatenate([d_eta, zeros]),
        np.concatenate([d_phi, zeros]))
    frac = inside.astype(float)
    r, k = np.nonzero(~(inside | outside))
    ring = (r + m) % (2 * m)  # the other polygon of edge k of ring r
    frac[r, k] = _clipped_fractions(sx[r, k], sy[r, k], sx[r, k + 1],
                                    sy[r, k + 1], sx[ring], sy[ring], r >= m)
    if stats is not None:
        stats["edges_clipped"] = stats.get("edges_clipped", 0) + len(r)
    cross = 0.5 * (sx[:, :-1] * sy[:, 1:] - sy[:, :-1] * sx[:, 1:])
    parts = np.sum(cross * frac, axis=1)
    inter = parts[:m] + parts[m:]
    areas = np.sum(cross, axis=1)
    return np.clip(inter / (areas[:m] + areas[m:] - inter), 0.0, 1.0)


def mvee(points, sizes, stats: dict | None = None) -> np.ndarray:
    """Minimum-area enclosing ellipse of each set of eta-phi points, as
    parameter rows (eta_c, phi_c, a, b, theta), (n, 5), canonical
    (canonical_rows); `points` holds the (eta, phi) rows of the sets one
    set after another and `sizes` their counts, each at least 1.

    Solves Khachiyan's dual (see _khachiyan_ellipses) to MVEE_TOLERANCE,
    that is to rounding, then rescales the result so the farthest input
    point lies exactly on the boundary (guaranteeing containment).
    Degenerate inputs are handled directly: a single or coincident point
    set yields a floor-radius circle, collinear points a segment-spanning
    ellipse with the minor axis at the floor.  phi is unwrapped around
    its circular mean first, so point sets straddling the 2*pi seam are
    fine.

    All sets are solved at once: they are padded with zero-weight slots
    to one (sets, points) batch, and each iteration updates the sets that
    have not converged yet, so every set takes the steps it would take
    alone.  `stats`, when given, gains the number of batched iterations
    under "iterations".
    """
    sizes = np.asarray(sizes, dtype=int)
    if not len(sizes):
        return np.zeros((0, 5))
    if np.any(sizes == 0):
        raise DomainError("mvee needs at least one point per set")
    valid = np.arange(sizes.max()) < sizes[:, None]
    pts = np.zeros(valid.shape + (2,))
    pts[valid] = points

    phi_ref = circular_mean(pts[..., 1], where=valid)[:, None]
    flat = np.stack([pts[..., 0],
                     phi_ref + signed_dphi(pts[..., 1], phi_ref)], axis=2)
    center = flat.mean(axis=1, where=valid[..., None])
    spread = np.where(valid[..., None], flat - center[:, None], 0.0)

    # rows (eta_c, phi_c, a, b, theta); coincident sets keep the floor
    # circle, the others are filled in below
    rows = np.column_stack([center, np.full((len(sizes), 2), AXIS_FLOOR),
                            np.zeros(len(sizes))])
    solve = np.flatnonzero(np.abs(spread).max(axis=(1, 2)) >= 1e-12)
    iterations = 0
    if len(solve):
        _, svals, vecs = np.linalg.svd(spread[solve], full_matrices=False)
        line = svals[:, 1] <= 1e-7 * svals[:, 0]
        rows[solve[line]] = _segment_ellipses(
            center[solve[line]], spread[solve[line]], valid[solve[line]],
            vecs[line, 0])
        rest = solve[~line]
        rows[rest], iterations = _khachiyan_ellipses(
            center[rest], spread[rest], valid[rest], sizes[rest],
            svals[~line], vecs[~line])
    if stats is not None:
        stats["iterations"] = stats.get("iterations", 0) + iterations
    rows = canonical_rows(*rows.T)
    rows[solve] = _rescale_to_contain(rows[solve], flat[solve], valid[solve])
    return rows


def _segment_ellipses(center, spread, valid, axis) -> np.ndarray:
    """Rows of the ellipses spanning collinear sets along their unit
    principal axes, the minor axis at the floor."""
    proj = np.einsum("tkd,td->tk", spread, axis)
    lo = np.where(valid, proj, np.inf).min(axis=1)
    hi = np.where(valid, proj, -np.inf).max(axis=1)
    mid = center + (0.5 * (lo + hi))[:, None] * axis
    return np.column_stack([mid, np.maximum(0.5 * (hi - lo), AXIS_FLOOR),
                            np.full(len(mid), AXIS_FLOOR),
                            np.arctan2(axis[:, 1], axis[:, 0])])


def _inv3(x: np.ndarray) -> np.ndarray:
    """Inverses of symmetric 3 x 3 matrices, (n, 3, 3), by cofactors."""
    a, b, c = x[:, 0, 0], x[:, 0, 1], x[:, 0, 2]
    d, e, f = x[:, 1, 1], x[:, 1, 2], x[:, 2, 2]
    co_a, co_b, co_c = d * f - e * e, c * e - b * f, b * e - c * d
    co_d, co_e, co_f = a * f - c * c, b * c - a * e, a * d - b * b
    adj = np.stack([co_a, co_b, co_c, co_b, co_d, co_e, co_c, co_e, co_f],
                   axis=1).reshape(-1, 3, 3)
    return adj / (a * co_a + b * co_b + c * co_c)[:, None, None]


def _newton_steps(k, u, support):
    """Damped Newton steps of log det X(u) over each set's weights u,
    (n, k), on its support face: the new weights, and which sets have
    converged with this step.

    With K, (n, k, k), the Gram matrix of the lifted points under
    X(u)^-1, the gradient on the support is diag K and the Hessian is -H,
    H = K o K.  The step du solves H du = diag K - lam 1 with sum du = 0
    and is damped to 1 / (1 + delta), delta^2 = du' H du the squared
    Newton decrement, or shortened so no weight turns negative.  A full
    damped step with delta^2 <= 1e-12 leaves the set within about that
    of the optimum, as Newton converges quadratically, so it is the
    set's last.
    """
    h = np.where(support[:, :, None] & support[:, None, :], k * k, 0.0)
    slots = np.arange(u.shape[1])
    h[:, slots, slots] += ~support  # slots off the support solve to 0
    rhs = np.stack([np.einsum("tkk->tk", k), np.ones_like(u)], axis=2)
    x = _support_solve(h, rhs * support[..., None], u, support)
    lam = x[..., 0].sum(axis=1) / x[..., 1].sum(axis=1)
    du = np.where(support, x[..., 0] - lam[:, None] * x[..., 1], 0.0)
    decrement = np.maximum(np.einsum("tk,tkl,tl->t", du, h, du), 0.0)
    damped = 1.0 / (1.0 + np.sqrt(decrement))
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where(du < 0.0, u / -du, np.inf).min(axis=1)
    t = np.minimum(damped, cap)
    return (np.where(support, np.maximum(u + t[:, None] * du, 0.0), u),
            (decrement <= 1e-12) & (cap >= damped))


def _support_solve(h, rhs, u, support):
    """Least-norm solutions of h x = rhs, (n, k, k) and (n, k, 2), for
    the Newton steps at weights u with the given support.

    Repeated or co-elliptic support points make h singular, but diag K
    and the ones vector both lie in its range, so the pseudo-inverse
    solves it.  Where the support has at most 6 points (the dimension of
    the lifted outer products) LU is tried first; it is kept where the
    first column, diag K, gives back the support weights (H u = diag K)
    to 1e-9, which bounds the error a nearly singular h lets in.
    """
    x = np.empty_like(rhs)
    lu = np.count_nonzero(support, axis=1) <= 6
    try:
        x[lu] = np.linalg.solve(h[lu], rhs[lu])
        lu[lu] = np.abs(x[lu, :, 0] - np.where(support[lu], u[lu], 0.0)
                        ).max(axis=1) <= 1e-9
    except np.linalg.LinAlgError:  # an exactly singular h
        lu[:] = False
    if not lu.all():
        x[~lu] = np.linalg.pinv(h[~lu], 1e-12, hermitian=True) @ rhs[~lu]
    return x


def _khachiyan_ellipses(center, spread, valid, sizes, svals, vecs
                        ) -> tuple[np.ndarray, int]:
    """Rows of the minimum-area enclosing ellipses of non-degenerate
    sets, to MVEE_TOLERANCE, and the number of batched iterations.

    Khachiyan's dual: maximise log det X(u), X(u) = sum_k u_k q_k q_k',
    over weights u >= 0 summing to 1, where q_k = (z_k, 1) lifts point
    z_k; the weights are optimal when no m_k = q_k' X^-1 q_k exceeds
    d + 1 and those with weight equal it.  A set whose points off its
    support all meet this certificate takes a damped Newton step on its
    support face (Sun & Freund 2004); any other takes Khachiyan's
    one-coordinate step toward the point farthest out, which only adds
    weight.  A set ends when the certificate holds or a Newton step
    converges.
    """
    # the problem is affine-equivariant: whiten each set along its
    # principal axes so thin sets converge as fast as round ones
    scale = svals / np.sqrt(sizes)[:, None]
    norm = np.einsum("tkd,ted->tke", spread, vecs) / scale[:, None]
    d = norm.shape[2]
    lift = d + 1.0
    q = np.concatenate([norm, valid[..., None].astype(float)], axis=2)
    u = valid / sizes[:, None]

    # the sets still iterating, their points, weights and real slots
    live = np.arange(len(u))
    q_live, u_live, valid_live = q, u.copy(), valid
    iterations = 0
    while len(live) and iterations < 100_000:
        iterations += 1
        x = np.matmul(q_live.transpose(0, 2, 1), u_live[..., None] * q_live)
        k = q_live @ _inv3(x) @ q_live.transpose(0, 2, 1)
        m = np.einsum("tkk->tk", k)
        support = u_live > 1e-12
        m_add = np.where(valid_live, m, -np.inf)
        gain_add = m_add.max(axis=1) - lift
        gain_away = lift - np.where(support, m, np.inf).min(axis=1)
        gain_off = np.where(support, -np.inf, m_add).max(axis=1) - lift
        done = np.maximum(gain_add, gain_away) <= lift * MVEE_TOLERANCE
        newton = ~done & (gain_off <= lift * MVEE_TOLERANCE)
        if newton.any():
            u_live[newton], done[newton] = _newton_steps(
                k[newton], u_live[newton], support[newton])
        step = np.flatnonzero(~(done | newton))
        j = m_add[step].argmax(axis=1)
        m_j = m[step, j]
        beta = (m_j - lift) / (lift * (m_j - 1.0))
        u_live[step] *= (1.0 - beta)[:, None]
        u_live[step, j] += beta
        if done.any():
            u[live[done]] = u_live[done]  # a converged set's weights freeze
            go = ~done
            live, q_live, u_live, valid_live = (
                live[go], q_live[go], u_live[go], valid_live[go])
    u[live] = u_live

    c_norm = np.einsum("tk,tkd->td", u, norm)
    # the ellipse is {x: (x - c)' E^-1 (x - c) <= 1} with E = d times the
    # weighted covariance; E's eigenvalues are the squared semi-axes, and
    # its largest, the major axis, is exact to rounding however thin the
    # ellipse.  Undo the whitening: x - center = V' S z, S = diag(scale)
    # and V the principal axes as rows
    cov_norm = (np.matmul(norm.transpose(0, 2, 1), u[..., None] * norm)
                - c_norm[:, :, None] * c_norm[:, None, :])
    from_norm = vecs * scale[:, :, None]
    evals, evecs = np.linalg.eigh(
        d * from_norm.transpose(0, 2, 1) @ cov_norm @ from_norm)
    return np.column_stack([
        center + np.einsum("td,tde->te", c_norm, from_norm),
        np.maximum(np.sqrt(np.maximum(evals[:, ::-1], 0.0)), AXIS_FLOOR),
        np.arctan2(evecs[:, 1, 1], evecs[:, 0, 1])]), iterations


def _rescale_to_contain(rows: np.ndarray, flat: np.ndarray,
                        valid: np.ndarray) -> np.ndarray:
    """Rows with the semi-axes scaled so each set's farthest point sits
    on the boundary, never dropping below the axis floor."""
    eta_c, phi_c, a, b, theta = (rows[:, [k]] for k in range(5))
    q = quad_form(eta_c, phi_c, a, b, np.cos(theta), np.sin(theta),
              flat[..., 0], flat[..., 1])
    s = np.sqrt(np.where(valid, q, 0.0).max(axis=1))
    grow = s > 0.0
    out = rows.copy()
    out[grow, 2:4] = np.maximum(rows[grow, 2:4] * s[grow, None], AXIS_FLOOR)
    return out
