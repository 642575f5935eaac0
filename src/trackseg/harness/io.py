"""JSON document schemas owned by the harness: events, predictions,
metrics.  Graph and checkpoint formats live with their own modules."""

from __future__ import annotations

import json
from pathlib import Path

from ..ellipses import ellipse_from_dict, ellipse_to_dict
from ..errors import ConsistencyError, ParseError
from ..events import Event, Hit, TruthTrack
from ..kinematics import CircleTrack, TrackParams
from ..postprocess import TrackCandidate

EVENT_FORMAT = "event-v1"
PRED_FORMAT = "pred-v1"
METRICS_FORMAT = "metrics-v1"


def write_json(path, doc: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err.msg}",
                         line=err.lineno) from err


def event_to_dict(e: Event, config_echo: dict | None = None) -> dict:
    doc = {
        "format": EVENT_FORMAT,
        "event_id": e.event_id,
        "field_b": e.field_b,
        "hits": [
            {"hit_id": h.hit_id, "x": h.x, "y": h.y, "z": h.z, "r": h.r,
             "eta": h.eta, "phi": h.phi, "layer": h.layer,
             "particle_id": h.particle_id, "volume": h.volume}
            for h in e.hits],
        "tracks": [
            {"particle_id": t.particle_id, "pt": t.params.p_t,
             "eps_t": t.params.eps_t, "a": t.circle.a, "b": t.circle.b,
             "R": t.circle.R, "charge": t.circle.charge,
             "hit_ids": list(t.hit_ids)}
            for t in e.tracks],
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def event_from_dict(d: dict) -> Event:
    if d.get("format") != EVENT_FORMAT:
        raise ConsistencyError(f"not an {EVENT_FORMAT} document: "
                               f"format={d.get('format')!r}")
    hits = tuple(
        Hit(int(h["hit_id"]), float(h["x"]), float(h["y"]), float(h["z"]),
            float(h["r"]), float(h["eta"]), float(h["phi"]),
            int(h["layer"]), int(h["particle_id"]), int(h.get("volume", 0)))
        for h in d["hits"])
    tracks = tuple(
        TruthTrack(int(t["particle_id"]),
                   TrackParams(float(t["pt"]), float(t["eps_t"]),
                               float(t["a"]), float(t["b"])),
                   CircleTrack(float(t["a"]), float(t["b"]), float(t["R"]),
                               int(t["charge"])),
                   tuple(int(i) for i in t["hit_ids"]))
        for t in d["tracks"])
    return Event(int(d["event_id"]), hits, tracks, float(d["field_b"]))


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
    if d.get("format") != PRED_FORMAT:
        raise ConsistencyError(f"not a {PRED_FORMAT} document: "
                               f"format={d.get('format')!r}")
    return {
        "event_id": int(d["event_id"]),
        "vertex_hit_ids": [int(i) for i in d["vertex_hit_ids"]],
        "class_prob": [float(p) for p in d["class_prob"]],
        "ellipses": [ellipse_from_dict(e) if e is not None else None
                     for e in d["ellipses"]],
        "candidates": [
            TrackCandidate(
                ellipse=ellipse_from_dict(c["ellipse"]),
                confidence=float(c["confidence"]),
                member_vertex_ids=tuple(c["member_vertex_ids"]),
                params=tuple(c["params"]) if c["params"] is not None
                else None)
            for c in d["candidates"]],
        "assignments": [int(a) if a is not None else None
                        for a in d["assignments"]],
    }
