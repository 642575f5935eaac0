"""Graph construction: DBSCAN clustering in eta-phi (core components
over the neighbour pairs, each border point to its earliest cluster),
edge building, per-track target ellipse rows and the graph-v6 document:
the event's own tables plus edges and targets, all binary columns."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angles import TWO_PI, wrap_phi
from .ellipses import SHAPE_COLUMNS, check_ellipses, mvee
from .errors import ConfigError, ConsistencyError
from .events import Event, decode_event, encode_event
from .jsonio import decode_table, encode_table, parsing

# target ellipses are the tracks' enclosing ellipses grown by this factor
TARGET_PADDING = 1.1

GRAPH_FORMAT = "graph-v6"
EDGE_COLUMNS = dict(i=int, j=int)


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
class Graph(Event):
    """Hit graph of one event, as build_graph or graph_from_dict builds it:
    the event, its undirected edges (stored once, i < j) and its targets,
    one read-only ellipse parameter row per track row; a stored graph is
    a self-contained training sample.  Its vertices are the event's hits
    at their (eta, phi).  Construction checks the event (Event), then
    raises ConsistencyError unless there is a vertex, one target row per
    track and each edge (i, j) has 0 <= i < j < n_vertices, and
    check_ellipses' DomainError.  Graphs are equal when their events,
    edges and targets are.
    """
    edges: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if not self.n_vertices:
            raise ConsistencyError(f"graph {self.event_id} has no vertices")
        targets = np.array(self.targets, dtype=float)
        if targets.shape != (len(self.tracks), 5):
            raise ConsistencyError(f"graph {self.event_id} has targets of "
                                   f"shape {targets.shape} for "
                                   f"{len(self.tracks)} tracks")
        check_ellipses(targets, lambda row: f"target row {row}: ")
        targets.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        edges, n = self.edges, self.n_vertices
        if edges.shape[1:] != (2,) or np.any((edges < 0) | (edges >= n)) or \
                np.any(edges[:, 0] >= edges[:, 1]):
            raise ConsistencyError(f"graph edges must be pairs i < j of "
                                   f"vertices in [0, {n})")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and super().__eq__(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("edges", "targets"))

    @cached_property
    def vertex_target_ellipse(self) -> list:
        """Each vertex's target (assign_vertex_targets), built once."""
        return assign_vertex_targets(self)

    eta = property(lambda self: self.hits.eta)
    phi = property(lambda self: self.hits.phi)
    n_vertices = property(lambda self: len(self.hits))
    n_edges = property(lambda self: len(self.edges))

    @property
    def vertex_class(self) -> np.ndarray:
        """True for track vertices."""
        return self.hits.particle_id != 0


def _neighbors(pts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of points within eps (inclusive), as two index
    arrays under the same test the brute-force definition uses: each
    pair in both orders, and each point with itself.

    Candidates come from an (eta, phi) cell grid: cells are at least
    eps (padded against rounding) wide, the phi columns wrap at the seam
    and each point looks at its own and the 8 surrounding cells.  A grid
    never has more rows or columns than points, so its cell keys stay
    small however small eps is.  Memory is O(n + candidate pairs).
    """
    n = len(pts)
    eta, phi = pts[:, 0], pts[:, 1]
    width = eps * (1.0 + 2.0 ** -20)
    n_cols = int(max(1, min(n, TWO_PI // width)))
    col = (wrap_phi(phi) * (n_cols / TWO_PI)).astype(np.int64) % n_cols
    eta0 = eta.min()
    height = max(width, (eta.max() - eta0) / n)
    row = ((eta - eta0) / height).astype(np.int64)
    key = row * n_cols + col
    order = np.argsort(key, kind="stable")
    keys = key[order]
    # the 3 x 3 block, its columns deduplicated when fewer than 3 wrap
    d_col = np.array(sorted({-1 % n_cols, 0, 1 % n_cols}))
    block = ((row[:, None, None] + np.array([-1, 0, 1])[:, None]) * n_cols
             + (col[:, None, None] + d_col) % n_cols).reshape(n, -1)
    lo = np.searchsorted(keys, block, side="left").ravel()
    counts = np.searchsorted(keys, block, side="right").ravel() - lo
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(n), counts.reshape(n, -1).sum(axis=1))
    j = order[np.repeat(lo - first, counts) + np.arange(total)]
    deta = eta[i] - eta[j]
    dphi = np.abs(phi[i] - phi[j]) % TWO_PI
    dphi = np.minimum(dphi, TWO_PI - dphi)
    keep = deta * deta + dphi * dphi <= eps * eps
    return i[keep], j[keep]


def dbscan(points, params: DbscanParams) -> np.ndarray:
    """DBSCAN over (eta, phi) points; returns one cluster id per point,
    -1 for unclustered.

    A core point has >= min_pts neighbors within eps, counting itself.
    The clusters are the connected components of the core points,
    numbered in the order of their smallest indices; a border point (not
    core, but a core point's neighbor) joins the lowest-numbered cluster
    among its core neighbors.  A component's root, its smallest index,
    comes from hook-and-compress rounds (Shiloach & Vishkin 1982): each
    round hooks every root under the smallest root it is linked to and
    follows the hooks to their ends, until no link joins two roots.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)
    i, j = _neighbors(pts, params.eps)
    core = np.bincount(i, minlength=n) >= params.min_pts
    link = core[i] & core[j] & (i != j)
    a, b = i[link], j[link]
    root = np.arange(n)
    while len(a):
        np.minimum.at(root, root[a], root[b])
        jump = root[root]
        while not np.array_equal(jump, root):
            root, jump = jump, jump[jump]
        apart = root[a] != root[b]
        a, b = a[apart], b[apart]
    border = ~core[i] & core[j]
    root = np.where(core, root, n)
    np.minimum.at(root, i[border], root[j[border]])
    _, labels = np.unique(root, return_inverse=True)
    return np.where(root < n, labels, -1).astype(int)


def build_graph(e: Event, params: DbscanParams,
                stats: dict | None = None) -> Graph:
    """Build the hit graph of an event, with its tracks' target ellipses.

    Hits are clustered in eta-phi; every cluster contributes all its pairs
    as edges (a complete subgraph), unclustered hits stay isolated.
    `stats`, when given, gains the targets' MVEE iterations (see mvee).
    """
    labels = dbscan(np.stack([e.hits.eta, e.hits.phi], axis=1), params)
    return Graph(e.event_id, e.hits, e.tracks, _cluster_edges(labels),
                 truth_ellipses(e, stats))


def _cluster_edges(labels: np.ndarray) -> np.ndarray:
    """Every pair (i, j), i < j, of points that share a cluster label:
    clusters in label order, then pairs in lexicographic order, as
    itertools.combinations lists each cluster's ascending members."""
    order = np.argsort(labels, kind="stable")
    members = order[labels[order] >= 0]
    clustered = labels[members]
    # position just past the end of each member's cluster
    ends = np.searchsorted(clustered, clustered, side="right")
    partners = ends - np.arange(len(members)) - 1
    first = np.repeat(np.arange(len(members)), partners)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(partners)
                                               - partners, partners)
    return np.stack([members[first], members[first + 1 + offset]], axis=1)


def truth_ellipses(e: Event, stats: dict | None = None) -> np.ndarray:
    """Minimum-area enclosing ellipse rows (one mvee call over
    Event.track_hits) of each truth track's (eta, phi) hits, in track
    order, inflated by TARGET_PADDING on both semi-axes.  Degenerate
    tracks (one hit, collinear hits) fall back to the semi-axis floor.
    `stats` is passed on to mvee."""
    points = np.stack([e.hits.eta, e.hits.phi], axis=1)
    hits, sizes = e.track_hits()
    rows = mvee(points[hits], sizes, stats)
    rows[:, 2:4] *= TARGET_PADDING
    return rows


def assign_vertex_targets(g: Graph) -> list:
    """The target parameter row of each vertex of `g`, as a tuple: its
    track's, None for noise (particle id 0)."""
    targets = list(map(tuple, g.targets.tolist()))
    return [targets[row] if row >= 0 else None
            for row in g.track_row.tolist()]


def graph_to_dict(g: Graph) -> dict:
    """The graph-v6 document: the event's tables (events.encode_event)
    with the hits under "vertices", then the edges as columns i and j
    and the targets as SHAPE_COLUMNS, one row per track row."""
    return {
        "format": GRAPH_FORMAT,
        **encode_event(g, "vertices"),
        "edges": encode_table(EDGE_COLUMNS, g.edges.T),
        "targets": encode_table(SHAPE_COLUMNS, g.targets.T),
    }


def graph_from_dict(d: dict) -> Graph:
    """Decode a graph-v6 document: what events.decode_event accepts,
    tables jsonio.decode_table accepts, valid target ellipses and a
    valid Graph; otherwise, and for a graph document of another version,
    raises ConsistencyError."""
    with parsing(d, GRAPH_FORMAT, "rebuild the graphs with build-graphs"):
        event = decode_event(d, "vertices")
        edges = np.stack(decode_table(d["edges"], EDGE_COLUMNS), axis=1)
        return Graph(*event, edges, np.stack(
            decode_table(d["targets"], SHAPE_COLUMNS), axis=1))
