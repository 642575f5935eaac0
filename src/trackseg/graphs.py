"""Graph construction: DBSCAN clustering in eta-phi, edge building,
state initialization and per-track target ellipses."""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .ellipses import Ellipse5, ellipse_from_dict, ellipse_to_dict, mvee
from .errors import ConfigError, ConsistencyError
from .events import Event, hit_from_dict
from .jsonio import number, numbers, parsing

# target ellipses are the tracks' enclosing ellipses grown by this factor
TARGET_PADDING = 1.1

GRAPH_FORMAT = "graph-v3"


@dataclass(frozen=True)
class DbscanParams:
    eps: float = 0.05
    min_pts: int = 2

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigError(f"dbscan eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ConfigError(f"dbscan min_pts must be >= 1, got {self.min_pts}")


@dataclass(frozen=True)
class Graph:
    """Hit graph of one event, as build_graph or graph_from_dict builds it.

    Vertices are hits with coordinates (eta, phi) and initial state
    (z, layer); edges are undirected, stored once with i < j.  Each
    vertex's particle id, transverse coordinates and target ellipse (its
    particle's, None for noise), with the per-particle parameters, make
    a stored graph a self-contained training sample.
    """
    event_id: int
    eta: np.ndarray
    phi: np.ndarray
    state: np.ndarray
    edges: np.ndarray
    vertex_hit_ids: np.ndarray
    vertex_particle_id: np.ndarray  # 0 for noise vertices
    vertex_xy: np.ndarray
    truth_params: dict[int, tuple[float, float]]
    vertex_target_ellipse: list

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


def build_graph(e: Event, params: DbscanParams, targets: list) -> Graph:
    """Build the hit graph of an event, with each hit's target.

    Hits are clustered in eta-phi; every cluster contributes all its pairs
    as edges (a complete subgraph), unclustered hits stay isolated.
    Vertex states initialize to (z, layer).
    """
    if not e.hits:
        raise ConsistencyError("cannot build a graph from an empty event")
    labels = dbscan([(h.eta, h.phi) for h in e.hits], params)
    edges: list[tuple[int, int]] = []
    for cluster in range(labels.max() + 1 if labels.size else 0):
        members = np.flatnonzero(labels == cluster).tolist()
        edges.extend(itertools.combinations(members, 2))
    return _graph(e.event_id, e.hits, edges,
                  {t.particle_id: (t.params.p_t, t.params.eps_t)
                   for t in e.tracks}, targets)


def _graph(event_id: int, hits, edges, truth_params: dict,
           targets: list) -> Graph:
    """The Graph of `hits` joined by `edges`, with `targets[i]` the target
    of hit i.  Raises ConsistencyError unless the hits' nonzero particle
    ids are the keys of `truth_params` and exactly the track hits have a
    target."""
    found = {h.particle_id for h in hits} - {0}
    if found != truth_params.keys():
        odd = sorted(found ^ truth_params.keys())
        raise ConsistencyError(f"graph particles {odd} lack a vertex or "
                               f"an entry")
    if len(targets) != len(hits) or any((t is None) != (h.particle_id == 0)
                                        for h, t in zip(hits, targets)):
        raise ConsistencyError("a graph needs one target per track vertex "
                               "and none per noise vertex")
    return Graph(
        event_id=event_id,
        eta=np.array([h.eta for h in hits]),
        phi=np.array([h.phi for h in hits]),
        state=np.array([(h.z, float(h.layer)) for h in hits]).reshape(-1, 2),
        edges=np.array(edges, dtype=int).reshape(-1, 2),
        vertex_hit_ids=np.array([h.hit_id for h in hits], dtype=int),
        vertex_particle_id=np.array([h.particle_id for h in hits],
                                    dtype=int),
        vertex_xy=np.array([(h.x, h.y) for h in hits]).reshape(-1, 2),
        truth_params=truth_params,
        vertex_target_ellipse=targets,
    )


def truth_ellipses(e: Event) -> list[tuple[int, Ellipse5]]:
    """Minimum-area enclosing ellipse of each truth track's (eta, phi)
    hits, inflated by TARGET_PADDING on both semi-axes.  Degenerate
    tracks (one hit, collinear hits) fall back to the semi-axis floor."""
    track_hits = e.track_hits()
    out = []
    for t in e.tracks:
        pts = [(h.eta, h.phi) for h in track_hits[t.particle_id]]
        base = mvee(np.asarray(pts))
        padded = Ellipse5(base.eta_c, base.phi_c, base.a * TARGET_PADDING,
                          base.b * TARGET_PADDING, base.theta)
        out.append((t.particle_id, padded))
    return out


def assign_vertex_targets(hits, ellipses) -> list:
    """The target of each hit: its particle's ellipse, None for noise
    and for a particle `ellipses` lacks (which the Graph then rejects).
    `ellipses` is a dict or (particle_id, Ellipse5) sequence."""
    table = dict(ellipses)
    return [table.get(h.particle_id) if h.particle_id else None
            for h in hits]


def graph_to_dict(g: Graph) -> dict:
    """Serialize a graph to the graph-v3 JSON document layout: each
    vertex is the hit it came from, and each particle's target ellipse
    is stored once, in its particle entry."""
    targets = dict(zip(g.vertex_particle_id.tolist(),
                       g.vertex_target_ellipse))
    return {
        "format": GRAPH_FORMAT,
        "event_id": g.event_id,
        "vertices": [
            {"hit_id": hit_id, "x": x, "y": y, "z": z, "layer": int(layer),
             "particle_id": pid}
            for hit_id, (x, y), (z, layer), pid in zip(
                g.vertex_hit_ids.tolist(), g.vertex_xy.tolist(),
                g.state.tolist(), g.vertex_particle_id.tolist())],
        "edges": g.edges.tolist(),
        "particles": [
            {"particle_id": pid, "pt": pt, "eps_t": eps,
             "target": ellipse_to_dict(targets[pid])}
            for pid, (pt, eps) in sorted(g.truth_params.items())],
    }


def graph_from_dict(d: dict) -> Graph:
    """Decode a graph-v3 document.  Edges must be [i, j] pairs of
    distinct vertices, ids and edge ends JSON ints, every other number
    a finite JSON number, no vertex on the beamline, and the particle
    entries, each with a target ellipse, exactly those of the vertices;
    otherwise, and for a graph-v1 or graph-v2 document, raises
    ConsistencyError."""
    if isinstance(d, dict) and d.get("format") in ("graph-v1", "graph-v2"):
        raise ConsistencyError(f"{d['format']} document: rebuild the graphs "
                               f"with build-graphs")
    with parsing(d, GRAPH_FORMAT):
        hits = [hit_from_dict(v) for v in d["vertices"]]
        n = len(hits)
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
        params, targets = {}, {}
        for p in d["particles"]:
            k = number(p["particle_id"], int)
            params[k] = (number(p["pt"]), number(p["eps_t"]))
            if not all(map(math.isfinite, params[k])):
                raise ConsistencyError(f"graph particle {k} has non-finite "
                                       f"values")
            if not isinstance(p["target"], dict):
                raise ConsistencyError(f"graph particle {k} needs a target "
                                       f"ellipse object")
            targets[k] = ellipse_from_dict(p["target"])
        return _graph(number(d["event_id"], int), hits, edges, params,
                      assign_vertex_targets(hits, targets))
