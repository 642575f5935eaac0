"""Graph construction: DBSCAN clustering in eta-phi, edge building,
state initialization and per-track target ellipses."""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .ellipses import Ellipse5, ellipse_from_dict, ellipse_to_dict, mvee
from .errors import ConfigError, ConsistencyError
from .events import Event
from .jsonio import number, numbers, parsing

# target ellipses are the tracks' enclosing ellipses grown by this factor
TARGET_PADDING = 1.1

GRAPH_FORMAT = "graph-v2"


@dataclass(frozen=True)
class DbscanParams:
    eps: float = 0.05
    min_pts: int = 2

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigError(f"dbscan eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ConfigError(f"dbscan min_pts must be >= 1, got {self.min_pts}")


@dataclass
class Graph:
    """Hit graph of one event.

    Vertices are hits with coordinates (eta, phi) and initial state
    (z, layer); edges are undirected, stored once with i < j.  The truth
    block (particle ids, transverse hit coordinates, per-particle
    parameters and target ellipses) makes a stored graph a
    self-contained training sample.
    """
    event_id: int
    eta: np.ndarray
    phi: np.ndarray
    state: np.ndarray
    edges: np.ndarray
    vertex_hit_ids: np.ndarray
    vertex_particle_id: np.ndarray  # 0 for noise vertices
    vertex_xy: np.ndarray
    truth_params: dict[int, tuple[float, float]] = field(default_factory=dict)
    vertex_target_ellipse: list = field(default_factory=list)

    @property
    def vertex_class(self) -> np.ndarray:
        """True for track vertices."""
        return self.vertex_particle_id != 0

    @property
    def n_vertices(self) -> int:
        return len(self.eta)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _adjacency(points: np.ndarray, eps: float) -> np.ndarray:
    """Boolean n x n matrix of pairs within eps (inclusive, self included)."""
    eta = points[:, 0]
    phi = points[:, 1]
    deta = eta[:, None] - eta[None, :]
    dphi = np.abs(phi[:, None] - phi[None, :]) % (2.0 * math.pi)
    dphi = np.minimum(dphi, 2.0 * math.pi - dphi)
    return deta * deta + dphi * dphi <= eps * eps


def dbscan(points, params: DbscanParams) -> np.ndarray:
    """DBSCAN over (eta, phi) points; returns one cluster id per point,
    -1 for unclustered.

    A core point has >= min_pts neighbors within eps, counting itself.
    Points are scanned in ascending index order, so cluster ids follow
    founding order and border-point ties always go to the
    earliest-founded cluster.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    within = _adjacency(pts, params.eps)
    core = within.sum(axis=1) >= params.min_pts

    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = deque(np.flatnonzero(within[i]).tolist())
        while queue:
            j = queue.popleft()
            if labels[j] != -1:
                continue
            labels[j] = cluster
            if core[j]:
                queue.extend(np.flatnonzero(within[j]).tolist())
        cluster += 1
    return labels


def build_graph(e: Event, params: DbscanParams) -> Graph:
    """Build the hit graph of an event.

    Hits are clustered in eta-phi; every cluster contributes all its pairs
    as edges (a complete subgraph), unclustered hits stay isolated.
    Vertex states initialize to (z, layer).
    """
    if not e.hits:
        raise ConsistencyError("cannot build a graph from an empty event")
    eta = np.array([h.eta for h in e.hits])
    phi = np.array([h.phi for h in e.hits])
    layers = np.array([h.layer for h in e.hits])
    pid = np.array([h.particle_id for h in e.hits])

    labels = dbscan(np.stack([eta, phi], axis=1), params)
    edges: list[tuple[int, int]] = []
    for cluster in range(labels.max() + 1 if labels.size else 0):
        members = np.flatnonzero(labels == cluster).tolist()
        edges.extend(itertools.combinations(members, 2))

    return Graph(
        event_id=e.event_id,
        eta=eta,
        phi=phi,
        state=np.stack([np.array([h.z for h in e.hits]),
                        layers.astype(float)], axis=1),
        edges=np.array(edges, dtype=int).reshape(-1, 2),
        vertex_hit_ids=np.array([h.hit_id for h in e.hits], dtype=int),
        vertex_particle_id=pid,
        vertex_xy=np.array([[h.x, h.y] for h in e.hits]),
        truth_params={t.particle_id: (t.params.p_t, t.params.eps_t)
                      for t in e.tracks},
        vertex_target_ellipse=[None] * len(e.hits),
    )


def truth_ellipses(e: Event) -> list[tuple[int, Ellipse5]]:
    """Minimum-area enclosing ellipse of each truth track's (eta, phi)
    hits, inflated by TARGET_PADDING on both semi-axes.  Degenerate
    tracks (one hit, collinear hits) fall back to the semi-axis floor."""
    hit_lookup = {h.hit_id: h for h in e.hits}
    out = []
    for t in e.tracks:
        pts = [(hit_lookup[i].eta, hit_lookup[i].phi) for i in t.hit_ids]
        base = mvee(np.asarray(pts))
        padded = Ellipse5(base.eta_c, base.phi_c, base.a * TARGET_PADDING,
                          base.b * TARGET_PADDING, base.theta)
        out.append((t.particle_id, padded))
    return out


def assign_vertex_targets(g: Graph, ellipses) -> Graph:
    """Attach each track vertex's own particle ellipse as its target.

    `ellipses` is a dict or (particle_id, Ellipse5) sequence.  Noise
    vertices get no target.  A track vertex without a matching ellipse is
    a consistency error.
    """
    table = dict(ellipses)
    targets = []
    for pid in g.vertex_particle_id.tolist():
        if pid == 0:
            targets.append(None)
            continue
        if pid not in table:
            raise ConsistencyError(f"no truth ellipse for particle {pid}")
        targets.append(table[pid])
    g.vertex_target_ellipse = targets
    return g


def graph_to_dict(g: Graph) -> dict:
    """Serialize a graph to the graph-v2 JSON document layout, which
    stores each particle's target ellipse once, in its truth entry."""
    targets = {}
    for pid, target in zip(g.vertex_particle_id.tolist(),
                           g.vertex_target_ellipse):
        if target is not None:
            targets.setdefault(pid, target)
    return {
        "format": GRAPH_FORMAT,
        "event_id": g.event_id,
        "vertices": [
            {"eta": eta, "phi": phi, "state": state, "hit_id": hit_id}
            for eta, phi, state, hit_id in zip(
                g.eta.tolist(), g.phi.tolist(), g.state.tolist(),
                g.vertex_hit_ids.tolist())],
        "edges": g.edges.tolist(),
        "truth": {
            "vertex_particle_id": g.vertex_particle_id.tolist(),
            "vertex_xy": g.vertex_xy.tolist(),
            "particles": [
                {"particle_id": pid, "pt": pt, "eps_t": eps,
                 "target": ellipse_to_dict(targets[pid])
                 if pid in targets else None}
                for pid, (pt, eps) in sorted(g.truth_params.items())],
        },
    }


def graph_from_dict(d: dict) -> Graph:
    """Decode a graph-v2 document.  Edges must be [i, j] pairs of
    distinct vertices, ids and edge ends JSON ints, every other number
    a finite JSON number and every nonzero vertex particle id listed
    under truth.particles; otherwise, and for a graph-v1 document,
    raises ConsistencyError."""
    if isinstance(d, dict) and d.get("format") == "graph-v1":
        raise ConsistencyError("graph-v1 document: rebuild the graphs with "
                               "build-graphs")
    with parsing(d, GRAPH_FORMAT):
        return _graph_from_doc(d)


def _finite(values, what: str):
    if not np.all(np.isfinite(values)):
        raise ConsistencyError(f"graph {what} has non-finite values")
    return values


def _graph_from_doc(d: dict) -> Graph:
    verts = d["vertices"]
    n = len(verts)
    truth = d["truth"]

    def per_vertex(values, what: str, dtype=float, row=()) -> np.ndarray:
        arr = np.array(values, dtype=dtype)
        # an empty list stands for zero rows of any width
        if arr.shape != (n, *row) and not arr.size == n == 0:
            raise ConsistencyError(f"graph {what} has shape {arr.shape}, "
                                   f"expected {(n, *row)}")
        numbers(itertools.chain.from_iterable(values) if row else values,
                dtype)
        return _finite(arr.reshape(n, *row), what)

    edges = np.array(d["edges"], dtype=int)
    if edges.shape == (0,):
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ConsistencyError("graph edges must be [i, j] pairs")
    numbers(itertools.chain.from_iterable(d["edges"]), int)
    if np.any((edges < 0) | (edges >= n)) or \
            np.any(edges[:, 0] == edges[:, 1]):
        raise ConsistencyError(f"graph edges must join two distinct "
                               f"vertices in [0, {n})")
    pid = per_vertex(truth["vertex_particle_id"], "truth.vertex_particle_id",
                     int)
    params, targets = {}, {}
    for p in truth["particles"]:
        k = number(p["particle_id"], int)
        params[k] = _finite((number(p["pt"]), number(p["eps_t"])),
                            f"particle {k}")
        targets[k] = ellipse_from_dict(p["target"]) \
            if p["target"] is not None else None
    missing = set(pid[pid != 0].tolist()) - params.keys()
    if missing:
        raise ConsistencyError(f"graph vertices belong to particles "
                               f"{sorted(missing)}, which have no entry")
    return Graph(
        event_id=number(d["event_id"], int),
        eta=per_vertex([v["eta"] for v in verts], "eta"),
        phi=per_vertex([v["phi"] for v in verts], "phi"),
        state=per_vertex([v["state"] for v in verts], "state", row=(2,)),
        edges=edges,
        vertex_hit_ids=per_vertex([v["hit_id"] for v in verts], "hit_id",
                                  int),
        vertex_particle_id=pid,
        vertex_xy=per_vertex(truth["vertex_xy"], "truth.vertex_xy", row=(2,)),
        truth_params=params,
        vertex_target_ellipse=[targets[k] if k else None
                               for k in pid.tolist()],
    )
