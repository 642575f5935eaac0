"""Independent reference implementations used as test oracles.

Nothing here may call the code paths it checks: DBSCAN is re-derived
from the density-connectivity definition, IoU from Monte Carlo sampling,
ellipse membership from the raw quadratic form, plain message passing
vertex by vertex, and the gradient checks reduce to a scalar through a
test-local node.
"""

import math

import numpy as np


def weighted_sum(v, w):
    """Scalar sum(v * w) recorded on v's tape as one node: a linear
    reducer for gradient checks of the autodiff ops."""
    w = np.asarray(w, dtype=float)

    def backward(g):
        v.grad += g * w

    return v.tape.node(np.sum(v.data * w), backward)


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


def plain_message_passing(params, iterations, graph):
    """Message passing without auto-registration, vertex by vertex, in
    the form of Point-GNN (Shi & Rajkumar, CVPR 2020):
    s_i <- g([max_j f([x_j - x_i, s_j]), s_i]) + s_i over the neighbors
    j of i, with x = (eta, phi) and phi differences wrapped; a vertex
    without neighbors aggregates zeros.  Returns the final states, the
    classifier's probabilities and the encoded boxes."""
    n = len(graph.state)
    neighbors = [[] for _ in range(n)]
    for i, j in graph.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    s = np.array(graph.state, dtype=float)
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
    """Membership via the raw quadratic form (vectorized)."""
    d_eta = np.asarray(eta) - e.eta_c
    raw = np.asarray(phi) - e.phi_c
    d_phi = (raw + math.pi) % (2.0 * math.pi) - math.pi
    ct, st = math.cos(e.theta), math.sin(e.theta)
    major = ct * d_eta + st * d_phi
    minor = -st * d_eta + ct * d_phi
    return (major / e.a) ** 2 + (minor / e.b) ** 2 <= 1.0


def monte_carlo_iou(e1, e2, n_samples, seed=0):
    """IoU estimated by uniform sampling of the joint bounding box."""
    rng = np.random.default_rng(seed)
    reach1 = e1.a
    reach2 = e2.a
    lo_eta = min(e1.eta_c - reach1, e2.eta_c - reach2)
    hi_eta = max(e1.eta_c + reach1, e2.eta_c + reach2)
    # place e2's phi in the chart of e1 to bound the box
    dphi = (e2.phi_c - e1.phi_c + math.pi) % (2.0 * math.pi) - math.pi
    phi2 = e1.phi_c + dphi
    lo_phi = min(e1.phi_c - reach1, phi2 - reach2)
    hi_phi = max(e1.phi_c + reach1, phi2 + reach2)
    eta = rng.uniform(lo_eta, hi_eta, n_samples)
    phi = rng.uniform(lo_phi, hi_phi, n_samples)
    in1 = point_in_ellipse_quadform(e1, eta, phi)
    in2 = point_in_ellipse_quadform(e2, eta, phi)
    union = np.count_nonzero(in1 | in2)
    if union == 0:
        return 0.0
    return np.count_nonzero(in1 & in2) / union


def sample_circle(a, b, radius, arc_lengths):
    """Exact points on the circle (x-a)^2 + (y-b)^2 = radius^2 along the
    outgoing branch from the point of closest approach."""
    psi_pca = math.atan2(b, a) + math.pi
    psis = psi_pca + np.asarray(arc_lengths, dtype=float) / radius
    return np.stack([a + radius * np.cos(psis),
                     b + radius * np.sin(psis)], axis=1)
