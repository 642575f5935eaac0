"""JSON document schemas owned by the harness: events (event-v4, tables
of binary columns), predictions (pred-v1, plain JSON lists and objects)
and metrics.  Graph and checkpoint formats live with their own modules;
jsonio holds the one codec of binary columns."""

from __future__ import annotations

import math

from ..ellipses import ellipse_to_dict, ellipses_from_dicts
from ..errors import ConsistencyError
from ..events import Event, TruthTrack, hit_columns, hits_from_columns
# perfbench/workloads.py imports read_json from this module
from ..jsonio import (decode_table, encode_table, number, numbers, parsing,
                      read_json)
from ..kinematics import TrackParams
from ..postprocess import TrackCandidate

EVENT_FORMAT = "event-v4"
# a track's columns: its id, then TrackParams in field order
TRACK_COLUMNS = dict(particle_id=int, pt=float, eps_t=float, a=float, b=float)
PRED_FORMAT = "pred-v1"
METRICS_FORMAT = "metrics-v1"


def event_to_dict(e: Event, config_echo: dict | None = None) -> dict:
    """The event-v4 document: tables of binary hit and truth track
    columns (jsonio.encode_table); hit eta and phi and each track's hits
    are derived again on read."""
    doc = {
        "format": EVENT_FORMAT,
        "event_id": e.event_id,
        "hits": hit_columns(e.hits),
        "tracks": encode_table(TRACK_COLUMNS, zip(*[
            (t.particle_id, *vars(t.params).values()) for t in e.tracks])),
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def event_from_dict(d: dict) -> Event:
    """Decode an event-v4 document; tables jsonio.decode_table rejects,
    hits a HitTable rejects, an Event that breaks its invariants and an
    event document of another version raise ConsistencyError."""
    with parsing(d, EVENT_FORMAT,
                 "regenerate the events with generate or ingest"):
        hits = hits_from_columns(d["hits"], volume=True)
        tracks = tuple(TruthTrack(k, TrackParams(*p)) for k, *p in zip(*(
            column.tolist() for column in decode_table(d["tracks"],
                                                       TRACK_COLUMNS))))
        return Event(number(d["event_id"], int), hits, tracks)


def prediction_to_dict(event_id: int, vertex_hit_ids, class_prob, ellipses,
                       candidates: list[TrackCandidate], assignments,
                       config_echo: dict | None = None) -> dict:
    doc = {
        "format": PRED_FORMAT,
        "event_id": event_id,
        "vertex_hit_ids": [int(i) for i in vertex_hit_ids],
        "class_prob": [float(p) for p in class_prob],
        "ellipses": [ellipse_to_dict(e) if e is not None else None
                     for e in ellipses],
        "candidates": [
            {"ellipse": ellipse_to_dict(c.ellipse),
             "confidence": c.confidence,
             "member_vertex_ids": list(c.member_vertex_ids),
             "params": list(c.params) if c.params is not None else None}
            for c in candidates],
        "assignments": [int(a) if a is not None else None
                        for a in assignments],
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def prediction_from_dict(d: dict) -> dict:
    """Decode a prediction document and check that its vertex hit ids are
    unique, that its per-vertex lists match them, that its indices and
    params are in range, that every class probability lies in [0, 1] and
    that candidate confidences and params are finite."""
    with parsing(d, PRED_FORMAT, "rerun infer"):
        ids, probs, ellipses, cands, assignments = (
            list(d[key]) for key in ("vertex_hit_ids", "class_prob",
                                     "ellipses", "candidates", "assignments"))
        members = [tuple(c["member_vertex_ids"]) for c in cands]
        params = [None if c["params"] is None else tuple(c["params"])
                  for c in cands]
        confidence = [c["confidence"] for c in cands]
        for values, kind, what in (
                (ids, int, "vertex_hit_ids"), (probs, float, "class_prob"),
                (confidence, float, "candidate confidences"),
                ([i for m in members for i in m], int, "candidate members"),
                ([v for p in params if p is not None for v in p], float,
                 "candidate params"),
                ([a for a in assignments if a is not None], int,
                 "assignments")):
            numbers(values, kind, what)
        vertex_ellipses = iter(ellipses_from_dicts(
            [e for e in ellipses if e is not None]))
        pred = {
            "event_id": number(d["event_id"], int),
            "vertex_hit_ids": ids,
            "class_prob": list(map(float, probs)),
            "ellipses": [None if e is None else next(vertex_ellipses)
                         for e in ellipses],
            "candidates": [
                TrackCandidate(ellipse, float(conf), vids,
                               None if p is None else tuple(map(float, p)))
                for ellipse, conf, vids, p in zip(
                    ellipses_from_dicts([c["ellipse"] for c in cands]),
                    confidence, members, params)],
            "assignments": assignments,
        }
    n = len(pred["vertex_hit_ids"])
    if len(set(pred["vertex_hit_ids"])) != n:
        raise ConsistencyError("prediction repeats a vertex hit id")
    for key in ("class_prob", "ellipses", "assignments"):
        if len(pred[key]) != n:
            raise ConsistencyError(f"prediction has {len(pred[key])} {key} "
                                   f"for {n} vertices")
    if not all(0.0 <= p <= 1.0 for p in pred["class_prob"]):
        raise ConsistencyError("prediction class_prob must lie in [0, 1]")
    if any(c.params is not None and len(c.params) != 2
           for c in pred["candidates"]):
        raise ConsistencyError("prediction candidate params are not "
                               "(p_T, eps_T) pairs")
    if not all(map(math.isfinite, [v for c in pred["candidates"] for v in
                                   (c.confidence, *(c.params or ()))])):
        raise ConsistencyError("prediction candidates must have finite "
                               "confidence and params")
    if any(not 0 <= i < n for c in pred["candidates"]
           for i in c.member_vertex_ids):
        raise ConsistencyError(f"prediction candidate member outside [0, {n})")
    n_cand = len(pred["candidates"])
    if any(a is not None and not 0 <= a < n_cand
           for a in pred["assignments"]):
        raise ConsistencyError(f"prediction assigns a vertex to none of "
                               f"its {n_cand} candidates")
    return pred
