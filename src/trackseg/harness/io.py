"""JSON document schemas owned by the harness: events, predictions,
metrics.  Graph and checkpoint formats live with their own modules."""

from __future__ import annotations

import math

from ..ellipses import ellipse_from_dict, ellipse_to_dict
from ..errors import ConsistencyError
from ..events import Event, TruthTrack, hit_from_xyz, validate_event
# perfbench/workloads.py imports read_json from this module
from ..jsonio import number, parsing, read_json
from ..kinematics import TrackParams
from ..postprocess import TrackCandidate

EVENT_FORMAT = "event-v2"
PRED_FORMAT = "pred-v1"
METRICS_FORMAT = "metrics-v1"


def event_to_dict(e: Event, config_echo: dict | None = None) -> dict:
    """The event-v2 document: measured hits and truth track parameters;
    hit eta and phi and each track's hits are derived again on read."""
    doc = {
        "format": EVENT_FORMAT,
        "event_id": e.event_id,
        "hits": [
            {"hit_id": h.hit_id, "x": h.x, "y": h.y, "z": h.z,
             "layer": h.layer, "particle_id": h.particle_id,
             "volume": h.volume}
            for h in e.hits],
        "tracks": [
            {"particle_id": t.particle_id, "pt": t.params.p_t,
             "eps_t": t.params.eps_t, "a": t.params.a, "b": t.params.b}
            for t in e.tracks],
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def event_from_dict(d: dict) -> Event:
    """Decode an event-v2 document and check it with validate_event; an
    event-v1 document or a hit on the beamline raises ConsistencyError."""
    if isinstance(d, dict) and d.get("format") == "event-v1":
        raise ConsistencyError("event-v1 document: regenerate the events "
                               "with generate or ingest")
    with parsing(d, EVENT_FORMAT):
        hits = tuple(
            hit_from_xyz(number(h["hit_id"], int), number(h["x"]),
                         number(h["y"]), number(h["z"]),
                         number(h["layer"], int),
                         number(h["particle_id"], int),
                         number(h["volume"], int))
            for h in d["hits"])
        tracks = tuple(
            TruthTrack(number(t["particle_id"], int),
                       TrackParams(number(t["pt"]), number(t["eps_t"]),
                                   number(t["a"]), number(t["b"])))
            for t in d["tracks"])
        event = Event(number(d["event_id"], int), hits, tracks)
    validate_event(event)
    return event


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
    """Decode a prediction document and check that its per-vertex lists
    match vertex_hit_ids, that its indices and params are in range, that
    every class probability lies in [0, 1] and that candidate confidences
    and params are finite."""
    with parsing(d, PRED_FORMAT):
        pred = {
            "event_id": number(d["event_id"], int),
            "vertex_hit_ids": [number(i, int) for i in d["vertex_hit_ids"]],
            "class_prob": [number(p) for p in d["class_prob"]],
            "ellipses": [ellipse_from_dict(e) if e is not None else None
                         for e in d["ellipses"]],
            "candidates": [
                TrackCandidate(
                    ellipse=ellipse_from_dict(c["ellipse"]),
                    confidence=number(c["confidence"]),
                    member_vertex_ids=tuple(
                        number(i, int) for i in c["member_vertex_ids"]),
                    params=tuple(number(p) for p in c["params"])
                    if c["params"] is not None else None)
                for c in d["candidates"]],
            "assignments": [number(a, int) if a is not None else None
                            for a in d["assignments"]],
        }
    n = len(pred["vertex_hit_ids"])
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
    n_cand = len(pred["candidates"])
    if any(a is not None and not 0 <= a < n_cand
           for a in pred["assignments"]):
        raise ConsistencyError(f"prediction assigns a vertex to none of "
                               f"its {n_cand} candidates")
    return pred
