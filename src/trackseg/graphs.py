"""Graph construction: DBSCAN clustering in eta-phi, edge building,
state initialization, truth edge labels and per-track target ellipses."""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .ellipses import Ellipse5, ellipse_from_dict, ellipse_to_dict, mvee
from .errors import ConfigError, ConsistencyError
from .events import Event


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
    parameters) makes a stored graph a self-contained training sample.
    """
    event_id: int
    eta: np.ndarray
    phi: np.ndarray
    state: np.ndarray
    edges: np.ndarray
    truth_edge_labels: np.ndarray
    vertex_hit_ids: np.ndarray
    vertex_class: np.ndarray  # True for track vertices
    vertex_particle_id: np.ndarray
    vertex_xy: np.ndarray
    truth_params: dict[int, tuple[float, float]] = field(default_factory=dict)
    vertex_target_ellipse: list = field(default_factory=list)

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
    An edge is labeled true iff both endpoints share a nonzero particle
    id.  Vertex states initialize to (z, layer).
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
    edge_arr = np.array(edges, dtype=int).reshape(-1, 2)
    truth = (pid[edge_arr[:, 0]] == pid[edge_arr[:, 1]]) \
        & (pid[edge_arr[:, 0]] != 0) if len(edge_arr) else np.zeros(0, bool)

    return Graph(
        event_id=e.event_id,
        eta=eta,
        phi=phi,
        state=np.stack([np.array([h.z for h in e.hits]),
                        layers.astype(float)], axis=1),
        edges=edge_arr,
        truth_edge_labels=truth,
        vertex_hit_ids=np.array([h.hit_id for h in e.hits], dtype=int),
        vertex_class=pid != 0,
        vertex_particle_id=pid,
        vertex_xy=np.array([[h.x, h.y] for h in e.hits]),
        truth_params={t.particle_id: (t.params.p_t, t.params.eps_t)
                      for t in e.tracks},
        vertex_target_ellipse=[None] * len(e.hits),
    )


def truth_ellipses(e: Event, padding_factor: float = 1.1,
                   axis_floor: float = 1e-4,
                   tolerance: float = 1e-6) -> list[tuple[int, Ellipse5]]:
    """Minimum-area enclosing ellipse of each truth track's (eta, phi)
    hits, inflated by padding_factor on both semi-axes.  Degenerate
    tracks (one hit, collinear hits) fall back to the semi-axis floor."""
    hit_lookup = {h.hit_id: h for h in e.hits}
    out = []
    for t in e.tracks:
        pts = [(hit_lookup[i].eta, hit_lookup[i].phi) for i in t.hit_ids]
        base = mvee(np.asarray(pts), tolerance, axis_floor)
        padded = Ellipse5(base.eta_c, base.phi_c, base.a * padding_factor,
                          base.b * padding_factor, base.theta)
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
    for is_track, pid in zip(g.vertex_class, g.vertex_particle_id):
        if not is_track:
            targets.append(None)
            continue
        if int(pid) not in table:
            raise ConsistencyError(f"no truth ellipse for particle {pid}")
        targets.append(table[int(pid)])
    g.vertex_target_ellipse = targets
    return g


def graph_to_dict(g: Graph) -> dict:
    """Serialize a graph to the graph-v1 JSON document layout."""
    vertices = []
    for i in range(g.n_vertices):
        target = g.vertex_target_ellipse[i] if g.vertex_target_ellipse else None
        vertices.append({
            "eta": float(g.eta[i]),
            "phi": float(g.phi[i]),
            "state": [float(g.state[i, 0]), float(g.state[i, 1])],
            "hit_id": int(g.vertex_hit_ids[i]),
            "class": "track" if g.vertex_class[i] else "noise",
            "target": ellipse_to_dict(target) if target is not None else None,
        })
    return {
        "format": "graph-v1",
        "event_id": g.event_id,
        "vertices": vertices,
        "edges": [[int(i), int(j), bool(t)]
                  for (i, j), t in zip(g.edges, g.truth_edge_labels)],
        "truth": {
            "vertex_particle_id": [int(p) for p in g.vertex_particle_id],
            "vertex_xy": [[float(x), float(y)] for x, y in g.vertex_xy],
            "particles": [
                {"particle_id": int(pid), "pt": pt, "eps_t": eps}
                for pid, (pt, eps) in sorted(g.truth_params.items())],
        },
    }


def graph_from_dict(d: dict) -> Graph:
    if d.get("format") != "graph-v1":
        raise ConsistencyError(f"not a graph-v1 document: "
                               f"format={d.get('format')!r}")
    try:
        return _graph_from_doc(d)
    except KeyError as err:
        raise ConsistencyError(f"graph-v1 document lacks key {err}") \
            from err


def _graph_from_doc(d: dict) -> Graph:
    verts = d["vertices"]
    n = len(verts)
    edges = np.array([[e[0], e[1]] for e in d["edges"]],
                     dtype=int).reshape(-1, 2)
    truth = d.get("truth", {})
    return Graph(
        event_id=int(d["event_id"]),
        eta=np.array([v["eta"] for v in verts], dtype=float),
        phi=np.array([v["phi"] for v in verts], dtype=float),
        state=np.array([v["state"] for v in verts],
                       dtype=float).reshape(n, 2),
        edges=edges,
        truth_edge_labels=np.array([bool(e[2]) for e in d["edges"]],
                                   dtype=bool),
        vertex_hit_ids=np.array([v["hit_id"] for v in verts], dtype=int),
        vertex_class=np.array([v["class"] == "track" for v in verts]),
        vertex_particle_id=np.array(
            truth.get("vertex_particle_id", [0] * n), dtype=int),
        vertex_xy=np.array(truth.get("vertex_xy", [[0.0, 0.0]] * n),
                           dtype=float).reshape(n, 2),
        truth_params={int(p["particle_id"]): (float(p["pt"]),
                                              float(p["eps_t"]))
                      for p in truth.get("particles", [])},
        vertex_target_ellipse=[
            ellipse_from_dict(v["target"]) if v["target"] is not None else None
            for v in verts],
    )
