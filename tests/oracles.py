"""Independent reference implementations used as test oracles.

Nothing here may call the code paths it checks: DBSCAN is re-derived
from the density-connectivity definition, IoU from Monte Carlo sampling
or by clipping every polygon edge against every half-plane, ellipse
membership from the raw quadratic form, box decoding one value at a
time, the segment max by np.maximum.at and a row-by-row search for the
winners, plain message passing vertex by vertex, the initial parameters
from the layer widths written out, and the parabola fit one set at a
time through a matrix product.
"""

import math

import numpy as np


def segment_max_oracle(rows, segment_ids, n):
    """Componentwise maximum of the rows in each of n segments, folded by
    np.maximum.at from -inf, with zero rows for empty segments, and the
    rows the gradient reaches: per (segment, column) the first row, in
    row order, that equals the maximum (none where it is NaN).  Returns
    the (n, k) maxima and a boolean (rows, k) mask of those entries."""
    rows = np.asarray(rows, dtype=float)
    m, k = rows.shape
    out = np.full((n, k), -np.inf)
    np.maximum.at(out, segment_ids, rows)
    out[np.bincount(segment_ids, minlength=n) == 0] = 0.0
    routed = np.zeros((m, k), dtype=bool)
    for seg in range(n):
        for c in range(k):
            for i in range(m):
                if segment_ids[i] == seg and rows[i, c] == out[seg, c]:
                    routed[i, c] = True
                    break
    return out, routed


def wrap_dphi(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def _dense(params, prefix, x):
    """ReLU stack read layer by layer from params: W0, b0, W1, ..."""
    k = 0
    while f"{prefix}W{k}" in params:
        if k:
            x = np.maximum(x, 0.0)
        x = x @ params[f"{prefix}W{k}"] + params[f"{prefix}b{k}"]
        k += 1
    return x


def initial_flat(iterations, hidden, seed):
    """The network's initial parameter vector, drawn block by block from
    one stream seeded by `seed`: per iteration h, f and g, then the
    classifier, the box regressor and the track-parameter head.  Each
    layer is a U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weight matrix followed
    by a zero bias.  The widths are the paper's: states and coordinate
    offsets of 2, edge features of 4, 5 head features (3 parabola
    coefficients and a state max), 5 box values, 2 track parameters."""
    w = hidden
    h, f, g = (2, w, 2), (4, w, w, 4), (6, w, 2)
    heads = [(2, w, w, w, 1), (2, w, w, w, 5), (5, w, 2)]
    rng = np.random.default_rng(seed)
    parts = []
    for widths in [h, f, g] * iterations + heads:
        for fan_in, fan_out in zip(widths, widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            parts.append(rng.uniform(-bound, bound, (fan_in, fan_out)).ravel())
            parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def plain_message_passing(params, iterations, graph):
    """Message passing without auto-registration, vertex by vertex, in
    the form of Point-GNN (Shi & Rajkumar, CVPR 2020):
    s_i <- g([max_j f([x_j - x_i, s_j]), s_i]) + s_i over the neighbors
    j of i, with x = (eta, phi), phi differences wrapped and initial
    states s = (z, layer); a vertex without neighbors aggregates zeros.
    Returns the final states, the classifier's probabilities and the
    encoded boxes."""
    n = graph.n_vertices
    neighbors = [[] for _ in range(n)]
    for i, j in graph.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    s = np.column_stack([graph.hits.z, graph.hits.layer]).astype(float)
    for t in range(1, iterations + 1):
        new = np.empty_like(s)
        for i in range(n):
            js = np.array(neighbors[i], dtype=int)
            d_phi = (graph.phi[js] - graph.phi[i] + math.pi) % (
                2.0 * math.pi) - math.pi
            msgs = _dense(params, f"f{t}.", np.column_stack(
                [graph.eta[js] - graph.eta[i], d_phi, s[js]]))
            agg = msgs.max(axis=0) if len(js) else np.zeros(msgs.shape[1])
            new[i] = _dense(params, f"g{t}.",
                            np.concatenate([agg, s[i]])[None, :])[0] + s[i]
        s = new
    prob = 1.0 / (1.0 + np.exp(-_dense(params, "cls.", s)))
    return s, prob, _dense(params, "loc.", s)


def brute_force_dbscan(points, eps, min_pts):
    """Exhaustive-neighborhood DBSCAN.

    Core points: >= min_pts neighbors within eps, counting self.
    Clusters: connected components of core points under eps-adjacency,
    numbered by their smallest core index.  Border points join the
    earliest-numbered cluster that reaches them; everything else is -1.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)
    deta = pts[:, 0][:, None] - pts[:, 0][None, :]
    dphi = wrap_dphi(pts[:, 1][:, None], pts[:, 1][None, :])
    adj = deta**2 + dphi**2 <= eps**2
    core = adj.sum(axis=1) >= min_pts

    comp = np.full(n, -1, dtype=int)
    for i in range(n):
        if not core[i] or comp[i] != -1:
            continue
        stack = [i]
        comp[i] = i  # provisional id: founding core index
        while stack:
            k = stack.pop()
            for j in np.flatnonzero(adj[k]):
                if core[j] and comp[j] == -1:
                    comp[j] = i
                    stack.append(j)

    founders = sorted({c for c in comp if c != -1})
    relabel = {f: k for k, f in enumerate(founders)}
    labels = np.full(n, -1, dtype=int)
    for i in range(n):
        if comp[i] != -1:
            labels[i] = relabel[comp[i]]
    for i in range(n):
        if core[i] or labels[i] != -1:
            continue
        touching = [labels[j] for j in np.flatnonzero(adj[i])
                    if core[j]]
        if touching:
            labels[i] = min(touching)
    return labels


def partition_of(labels):
    """Cluster index sets plus the unclustered set, for label-free
    comparison."""
    labels = np.asarray(labels)
    clusters = frozenset(
        frozenset(np.flatnonzero(labels == c).tolist())
        for c in np.unique(labels) if c != -1)
    noise = frozenset(np.flatnonzero(labels == -1).tolist())
    return clusters, noise


def point_in_ellipse_quadform(e, eta, phi):
    """Membership in the ellipse of parameter row e via the raw
    quadratic form (vectorized)."""
    eta_c, phi_c, a, b, theta = e
    d_eta = np.asarray(eta) - eta_c
    raw = np.asarray(phi) - phi_c
    d_phi = (raw + math.pi) % (2.0 * math.pi) - math.pi
    ct, st = math.cos(theta), math.sin(theta)
    major = ct * d_eta + st * d_phi
    minor = -st * d_eta + ct * d_phi
    return (major / a) ** 2 + (minor / b) ** 2 <= 1.0


def monte_carlo_iou(e1, e2, n_samples, seed=0):
    """IoU of two parameter rows estimated by uniform sampling of the
    joint bounding box."""
    rng = np.random.default_rng(seed)
    eta1, phi1, reach1 = e1[:3]
    eta2, phi2_c, reach2 = e2[:3]
    lo_eta = min(eta1 - reach1, eta2 - reach2)
    hi_eta = max(eta1 + reach1, eta2 + reach2)
    # place e2's phi in the chart of e1 to bound the box
    dphi = (phi2_c - phi1 + math.pi) % (2.0 * math.pi) - math.pi
    phi2 = phi1 + dphi
    lo_phi = min(phi1 - reach1, phi2 - reach2)
    hi_phi = max(phi1 + reach1, phi2 + reach2)
    eta = rng.uniform(lo_eta, hi_eta, n_samples)
    phi = rng.uniform(lo_phi, hi_phi, n_samples)
    in1 = point_in_ellipse_quadform(e1, eta, phi)
    in2 = point_in_ellipse_quadform(e2, eta, phi)
    union = np.count_nonzero(in1 | in2)
    if union == 0:
        return 0.0
    return np.count_nonzero(in1 & in2) / union


def _inscribed_polygon(e, phi_center, resolution):
    """Inscribed polygon of the ellipse of parameter row e in a flat
    chart whose phi coordinate is continuous around phi_center."""
    eta_c, phi_c, a, b, theta = e
    t = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    ct, st = math.cos(theta), math.sin(theta)
    x = a * np.cos(t)
    y = b * np.sin(t)
    dphi = (phi_c - phi_center + math.pi) % (2.0 * math.pi) - math.pi
    eta = eta_c + ct * x - st * y
    phi = phi_center + dphi + st * x + ct * y
    return np.stack([eta, phi], axis=1)


def _shoelace(poly):
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1))
                           - np.dot(y, np.roll(x, -1))))


def _clip_convex(subject, clip):
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
        side = [(bx - ax) * (py - ay) - (by - ay) * (px - ax)
                for px, py in points]
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


def polygon_iou(e1, e2, resolution):
    """IoU of the inscribed resolution-gons of two parameter rows, clipped
    vertex by vertex in e1's chart (absolute eta, phi continuous around
    e1's centre)."""
    p1 = _inscribed_polygon(e1, e1[1], resolution)
    p2 = _inscribed_polygon(e2, e1[1], resolution)
    inter = _shoelace(_clip_convex(p1, p2))
    union = _shoelace(p1) + _shoelace(p2) - inter
    return min(max(inter / union, 0.0), 1.0)


def _full_clip_fractions(sx, sy, cx, cy, open_from):
    """Fraction of each edge of the rings (sx, sy) inside the convex
    counterclockwise rings (cx, cy), all (m, k + 1), by Cyrus-Beck
    clipping of every edge against every half-plane: (m, k).  Rows from
    open_from on take the half-planes open, the others closed."""
    ex, ey = np.diff(cx, axis=1)[:, :, None], np.diff(cy, axis=1)[:, :, None]
    out = (ey * (sx[:, None, :] - cx[:, :-1, None])
           - ex * (sy[:, None, :] - cy[:, :-1, None]))
    out[open_from:] += np.finfo(float).smallest_subnormal
    o0, o1 = out[:, :, :-1], out[:, :, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = o0 / (o0 - o1)
    entering = o0 >= o1
    lo = np.fmax.reduce(np.where(entering, t, 0.0), axis=1)
    hi = np.where(entering, 1.0, t).min(axis=1)
    return np.maximum(hi - lo, 0.0)


def full_clip_ious(seed, others, resolution):
    """IoU of the ellipse row seed against each of the rows others
    (eta_c, phi_c, a, b, theta), every edge of both inscribed
    resolution-gons clipped against all of the other's half-planes.
    The same arithmetic in the same order as the package's kernel, so
    its results must agree bit for bit."""
    seed = np.asarray(seed, dtype=float)
    rows = np.asarray(others, dtype=float).reshape(-1, 5)
    d_eta = rows[:, 0] - seed[0]
    d_phi = _signed_dphi(rows[:, 1], seed[1])
    near = np.hypot(d_eta, d_phi) <= seed[2] + rows[:, 2]
    out = np.zeros(len(rows))
    m = int(np.count_nonzero(near))
    if m == 0:
        return out
    pq = np.concatenate([np.repeat(seed[None], m, 0), rows[near]])
    ring = np.append(np.linspace(0.0, 2.0 * math.pi, resolution,
                                 endpoint=False), 0.0)
    x, y = pq[:, 2:3] * np.cos(ring), pq[:, 3:4] * np.sin(ring)
    ct, st = np.cos(pq[:, 4:5]), np.sin(pq[:, 4:5])
    sx, sy = ct * x - st * y, st * x + ct * y
    sx[m:] += d_eta[near, None]
    sy[m:] += d_phi[near, None]
    cross = 0.5 * (sx[:, :-1] * sy[:, 1:] - sy[:, :-1] * sx[:, 1:])
    parts = np.sum(cross * _full_clip_fractions(
        sx, sy, np.roll(sx, m, axis=0), np.roll(sy, m, axis=0), m), axis=1)
    inter = parts[:m] + parts[m:]
    areas = np.sum(cross, axis=1)
    out[near] = np.clip(inter / (areas[:m] + areas[m:] - inter), 0.0, 1.0)
    return out


def _signed_dphi(a, b):
    d = (np.asarray(a) - b + math.pi) % (2.0 * math.pi) - math.pi
    return np.where(d <= -math.pi, d + 2.0 * math.pi, d)


def _mod(x, period):
    r = float(x) % period
    return 0.0 if r == period else r


def _canonical(eta_c, phi_c, a, b, theta):
    """(eta_c, phi_c, a, b, theta) with a >= b, phi_c in [0, 2 pi) and
    theta in [0, pi)."""
    if a < b:
        a, b, theta = b, a, theta + 0.5 * math.pi
    return (float(eta_c), _mod(phi_c, 2.0 * math.pi), float(a), float(b),
            _mod(theta, math.pi))


def decode_box_row(d, vertex, scales):
    """One encoded box row d = (d_eta, d_phi, d_a, d_b, d_theta) at the
    vertex (eta, phi), decoded value by value in Python floats as
    (eta_c, phi_c, a, b, theta), with scales (ETA_M, PHI_M, A_M, B_M,
    THETA_M, DELTA_THETA): each axis from math.exp, then the axis swap
    and the wraps.  A log-axis that overflows raises OverflowError, and a
    semi-axis that comes out 0 raises ValueError."""
    eta_m, phi_m, a_m, b_m, theta_m, delta_theta = scales
    d_eta, d_phi, d_a, d_b, d_theta = map(float, d)
    eta_v, phi_v = map(float, vertex)
    row = _canonical(eta_v + d_eta * eta_m, phi_v + d_phi * phi_m,
                     math.exp(d_a) * a_m, math.exp(d_b) * b_m,
                     d_theta * theta_m - delta_theta)
    if not row[3] > 0.0:
        raise ValueError(f"semi-axis 0 in {row}")
    return row


def encode_box_row(e, vertex, scales):
    """One ellipse e = (eta_c, phi_c, a, b, theta) encoded at the vertex
    (eta, phi) value by value in Python floats, with scales as
    decode_box_row takes them: the centre offsets (phi along the
    shortest signed arc), math.log of the axis ratios, and theta +
    DELTA_THETA folded into [-pi/2, pi/2)."""
    eta_m, phi_m, a_m, b_m, theta_m, delta_theta = scales
    eta_c, phi_c, a, b, theta = map(float, e)
    eta_v, phi_v = map(float, vertex)
    d_phi = (phi_c - phi_v + math.pi) % (2.0 * math.pi) - math.pi
    if d_phi <= -math.pi:
        d_phi += 2.0 * math.pi
    folded = _mod(theta + delta_theta + 0.5 * math.pi, math.pi) \
        - 0.5 * math.pi
    return ((eta_c - eta_v) / eta_m, d_phi / phi_m, math.log(a / a_m),
            math.log(b / b_m), folded / theta_m)


def _rescale_to_contain(e, flat, floor):
    eta_c, phi_c, a, b, theta = e
    d_eta = flat[:, 0] - eta_c
    d_phi = _signed_dphi(flat[:, 1], phi_c)
    ct, st = math.cos(theta), math.sin(theta)
    q = float(np.max(((ct * d_eta + st * d_phi) / a) ** 2
                     + ((-st * d_eta + ct * d_phi) / b) ** 2))
    if q <= 0.0:
        return e
    s = math.sqrt(q)
    return _canonical(eta_c, phi_c, max(a * s, floor), max(b * s, floor),
                      theta)


def mvee_oracle(points, tolerance, floor):
    """Minimum-area enclosing ellipse of one set of eta-phi points, as
    (eta_c, phi_c, a, b, theta): Khachiyan's iteration with away steps to
    `tolerance` on the set alone, whitened along its principal axes
    (MVEE is affine-equivariant), then grown until the farthest point is
    on the boundary; semi-axes never below `floor`.  AssertionError if
    the iteration has not converged after 100 000 steps.  A coincident set
    gives a floor circle, a collinear one a segment-spanning ellipse;
    phi is unwrapped around its circular mean first."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    s, c = np.sin(pts[:, 1]).mean(), np.cos(pts[:, 1]).mean()
    phi_ref = 0.0 if abs(s) < 1e-300 and abs(c) < 1e-300 else \
        _mod(math.atan2(s, c), 2.0 * math.pi)
    flat = np.stack([pts[:, 0], phi_ref + _signed_dphi(pts[:, 1], phi_ref)],
                    axis=1)
    center = flat.mean(axis=0)
    spread = flat - center
    if float(np.abs(spread).max()) < 1e-12:
        return _canonical(center[0], center[1], floor, floor, 0.0)

    _, svals, vecs = np.linalg.svd(spread, full_matrices=False)
    if len(svals) < 2 or svals[1] <= 1e-7 * svals[0]:
        axis = vecs[0]
        proj = spread @ axis
        mid = center + 0.5 * (proj.min() + proj.max()) * axis
        half = 0.5 * float(proj.max() - proj.min())
        e = _canonical(mid[0], mid[1], max(half, floor), floor,
                       math.atan2(axis[1], axis[0]))
        return _rescale_to_contain(e, flat, floor)

    # whitened along the principal axes: z = S^-1 V (x - center)
    to_norm = vecs / (svals / math.sqrt(len(flat)))[:, None]
    norm = spread @ to_norm.T
    n, d = norm.shape
    q = np.column_stack([norm, np.ones(n)]).T  # (3, n)
    u = np.full(n, 1.0 / n)
    lift = d + 1.0
    for _ in range(100_000):
        x = q @ (u[:, None] * q.T)
        m = np.einsum("ij,ji->i", q.T @ np.linalg.inv(x), q)
        j_add = int(np.argmax(m))
        support = u > 1e-12
        m_support = np.where(support, m, np.inf)
        j_away = int(np.argmin(m_support))
        gain_add = m[j_add] - lift
        gain_away = lift - m_support[j_away]
        if max(gain_add, gain_away) <= lift * tolerance:
            break
        j = j_add if gain_add >= gain_away else j_away
        beta = (m[j] - lift) / (lift * (m[j] - 1.0))
        beta = max(beta, -u[j] / (1.0 - u[j]))
        u *= 1.0 - beta
        u[j] += beta
    else:
        raise AssertionError(f"mvee_oracle has not converged to "
                             f"{tolerance:g} after 100 000 iterations")

    c_norm = u @ norm
    shape_norm = np.linalg.inv(
        norm.T @ (u[:, None] * norm) - np.outer(c_norm, c_norm)) / d
    evals, evecs = np.linalg.eigh(to_norm.T @ shape_norm @ to_norm)
    c = center + np.linalg.solve(to_norm, c_norm)
    a = 1.0 / math.sqrt(max(evals[0], 1e-30))
    b = 1.0 / math.sqrt(max(evals[1], 1e-30))
    e = _canonical(c[0], c[1], max(a, floor), max(b, floor),
                   math.atan2(evecs[1, 0], evecs[0, 0]))
    return _rescale_to_contain(e, flat, floor)


def sample_circle(a, b, radius, arc_lengths):
    """Exact points on the circle (x-a)^2 + (y-b)^2 = radius^2 along the
    outgoing branch from the point of closest approach."""
    psi_pca = math.atan2(b, a) + math.pi
    psis = psi_pca + np.asarray(arc_lengths, dtype=float) / radius
    return np.stack([a + radius * np.cos(psis),
                     b + radius * np.sin(psis)], axis=1)


def parabola_fit_oracle(points, condition_limit):
    """(c0, c1, c2) of the least-squares parabola v = c0 + c1*u + c2*u^2
    through one set of (u, v) rows, from the normal equations of its
    design matrix formed by a matrix product, each column scaled to unit
    norm; NaN for fewer than 3 points, all u equal, or a condition
    number above condition_limit."""
    arr = np.asarray(points, dtype=float).reshape(-1, 2)
    u, v = arr[:, 0], arr[:, 1]
    if len(arr) < 3 or np.ptp(u) == 0.0:
        return np.full(3, np.nan)
    design = np.stack([np.ones_like(u), u, u * u], axis=1)
    col_scale = np.linalg.norm(design, axis=0)
    scaled = design / col_scale
    normal = scaled.T @ scaled
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > condition_limit:
        return np.full(3, np.nan)
    return np.linalg.solve(normal, scaled.T @ v) / col_scale
