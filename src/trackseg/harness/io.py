"""JSON document schemas owned by the harness: predictions (pred-v2) and
metrics.  Event, graph and checkpoint formats live with their own
modules; jsonio holds the one codec of binary columns.

A pred-v2 document keeps format, event_id and config as plain JSON and
stores four tables of binary columns (jsonio.encode_table):

    vertices    hit_id, class_prob, assignment: one row per graph vertex;
                assignment is the index of the vertex's candidate, -1
                for none
    ellipses    vertex, eta_c, phi_c, a, b, theta: one row per vertex
                with a decoded ellipse, vertices ascending
    candidates  eta_c, phi_c, a, b, theta, confidence, pt, eps_t: one row
                per track candidate
    members     candidate, vertex: one row per member vertex, grouped by
                candidate in candidate order
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..ellipses import Ellipse5, check_ellipses
from ..errors import ConsistencyError
# perfbench/workloads.py imports read_json from this module
from ..jsonio import decode_table, encode_table, number, parsing, read_json
from ..postprocess import TrackCandidate

PRED_FORMAT = "pred-v2"
METRICS_FORMAT = "metrics-v1"

_SHAPE = dict.fromkeys((f.name for f in fields(Ellipse5)), float)
VERTEX_COLUMNS = dict(hit_id=int, class_prob=float, assignment=int)
ELLIPSE_COLUMNS = dict(vertex=int, **_SHAPE)
CANDIDATE_COLUMNS = dict(_SHAPE, confidence=float, pt=float, eps_t=float)
MEMBER_COLUMNS = dict(candidate=int, vertex=int)


def prediction_to_dict(event_id: int, vertex_hit_ids, class_prob, ellipses,
                       candidates: list[TrackCandidate], assignments,
                       config_echo: dict | None = None) -> dict:
    """The pred-v2 document of one event's inference output: per vertex
    its hit id, class probability and candidate index or None; the
    `ellipses` pair (vertices, rows), the vertices with a decoded
    ellipse, ascending, and their parameter rows; each candidate with
    its (p_T, eps_T)."""
    vertices, rows = ellipses
    doc = {
        "format": PRED_FORMAT,
        "event_id": event_id,
        "vertices": encode_table(VERTEX_COLUMNS, (
            vertex_hit_ids, class_prob,
            [-1 if a is None else a for a in assignments])),
        "ellipses": encode_table(ELLIPSE_COLUMNS,
                                 [vertices, *np.reshape(rows, (-1, 5)).T]),
        "candidates": encode_table(CANDIDATE_COLUMNS, zip(*[
            (*vars(c.ellipse).values(), c.confidence, *c.params)
            for c in candidates])),
        "members": encode_table(MEMBER_COLUMNS, zip(*[
            (k, v) for k, c in enumerate(candidates)
            for v in c.member_vertex_ids])),
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def _indices(values: np.ndarray, low: int, high: int, what: str) -> None:
    """ConsistencyError unless every one of `values` lies in [low, high)."""
    if len(values) and not low <= values.min() <= values.max() < high:
        raise ConsistencyError(f"prediction {what} outside [{low}, {high})")


def prediction_from_dict(d: dict) -> dict:
    """Decode a pred-v2 document into event_id, vertex_hit_ids,
    class_prob and assignments per vertex (None where a vertex has no
    candidate), ellipses (the pair prediction_to_dict takes) and
    candidates (TrackCandidate).  Tables
    jsonio.decode_table rejects, a repeated vertex hit id, a class
    probability outside [0, 1], an index out of range, ellipse vertices
    that do not ascend, members not grouped by candidate, an invalid
    ellipse row and a prediction document of another version raise
    ConsistencyError."""
    with parsing(d, PRED_FORMAT, "rerun infer"):
        ids, probs, assigned = decode_table(d["vertices"], VERTEX_COLUMNS)
        ellipse_vertex, *shape = decode_table(d["ellipses"], ELLIPSE_COLUMNS)
        shape = np.stack(shape, axis=1)
        rows = list(zip(*(column.tolist() for column in decode_table(
            d["candidates"], CANDIDATE_COLUMNS))))
        owner, member = decode_table(d["members"], MEMBER_COLUMNS)
        n, n_cand = len(ids), len(rows)
        if len(np.unique(ids)) < n:
            raise ConsistencyError("prediction repeats a vertex hit id")
        if not np.all((0.0 <= probs) & (probs <= 1.0)):
            raise ConsistencyError("prediction class_prob must lie in "
                                   "[0, 1]")
        _indices(assigned, -1, n_cand, "assignment")
        _indices(ellipse_vertex, 0, n, "ellipse vertex")
        _indices(owner, 0, n_cand, "member candidate")
        _indices(member, 0, n, "member vertex")
        if np.any(np.diff(ellipse_vertex) <= 0):
            raise ConsistencyError("prediction ellipse vertices do not "
                                   "ascend")
        if np.any(np.diff(owner) < 0):
            raise ConsistencyError("prediction members are not grouped by "
                                   "candidate")
        check_ellipses(shape, lambda k: f"ellipse row {k}: ")
        bounds = np.searchsorted(owner, np.arange(n_cand + 1)).tolist()
        members = member.tolist()
        return {
            "event_id": number(d["event_id"], int),
            "vertex_hit_ids": ids.tolist(),
            "class_prob": probs.tolist(),
            "ellipses": (ellipse_vertex, shape),
            "candidates": [
                TrackCandidate(Ellipse5(*row[:5]), row[5],
                               tuple(members[lo:hi]), row[6:])
                for row, lo, hi in zip(rows, bounds, bounds[1:])],
            "assignments": [None if a < 0 else a
                            for a in assigned.tolist()],
        }
