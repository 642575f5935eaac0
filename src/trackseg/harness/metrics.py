"""Evaluation metrics: hit classification, instance segmentation and
parameter resolution, returned by `evaluate` as the nested body of the
metrics document.

A candidate matches a truth track when strictly more than half of the
track's hits are assigned to it.
Efficiency counts matched truth tracks; purity counts candidates that
match at least one track.  All pooling is done in ascending event-id
order so the numbers are independent of how events were supplied.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConsistencyError
from ..events import Event


def auc_score(labels, scores) -> float:
    """Rank-based ROC AUC with average ranks on ties.

    Degenerate single-class inputs return 1.0 (nothing can be misranked).
    """
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 1.0
    # the average 1-based rank of each group of tied scores
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    group_ranks = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = group_ranks[group]
    u = float(ranks[labels].sum()) - 0.5 * n_pos * (n_pos + 1)
    return u / (n_pos * n_neg)


def _rms(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(arr * arr)))
    top = float(np.abs(arr).max())
    if math.isinf(rms) and math.isfinite(top):  # squares past float range
        rms = top * float(np.sqrt(np.mean((arr / top) ** 2)))
    return rms


def evaluate(predictions: dict[int, dict], truth: dict[int, Event],
             class_threshold: float = 0.5) -> dict:
    """Score per-event predictions against truth events.

    `predictions` maps event_id to a dict with keys vertex_hit_ids,
    class_prob, candidates, assignments (as harness.io reads a pred-v2
    document), each candidate with its (p_T, eps_T).  Every
    predicted event must have a truth event.  Returns the body of the
    metrics document: hit_classification, segmentation,
    parameter_resolution, counts and flags.
    """
    missing = set(predictions) - set(truth)
    if missing:
        raise ConsistencyError(f"predictions for unknown event ids "
                               f"{sorted(missing)}")
    if not predictions:
        raise ConsistencyError("no predictions to evaluate")

    labels_all, scores_all = [], []
    n_tracks = 0
    n_candidates = 0
    n_matched_tracks = 0
    matched_candidates = 0
    pt_residuals, eps_residuals = [], []
    flags: dict = {}

    for event_id in sorted(predictions):
        pred, event = predictions[event_id], truth[event_id]
        row_of = dict(zip(event.hits.hit_id.tolist(), range(len(event.hits))))
        unknown = [i for i in pred["vertex_hit_ids"] if i not in row_of]
        if unknown:
            raise ConsistencyError(f"event {event_id}: predicted hit ids "
                                   f"{unknown[:3]} not in truth event")
        rows = np.array([row_of[i] for i in pred["vertex_hit_ids"]], int)
        labels_all.append(event.hits.particle_id[rows] != 0)
        scores_all.append(np.asarray(pred["class_prob"], dtype=float))
        candidates = pred["candidates"]
        n_candidates += len(candidates)
        # the candidate each hit is assigned to, -1 for none
        assigned = np.full(len(event.hits), -1)
        assigned[rows] = [-1 if a is None else a for a in pred["assignments"]]

        matched_this_event = set()
        n_tracks += len(event.tracks)
        for track, track_rows in zip(event.tracks, event.hits.particle_rows(
                [t.particle_id for t in event.tracks])):
            found, counts = np.unique(assigned[track_rows],
                                      return_counts=True)
            majority = found[(found >= 0) & (2 * counts > len(track_rows))]
            if len(majority):
                n_matched_tracks += 1
                matched_this_event.add(int(majority[0]))
                pt, eps_t = candidates[majority[0]].params
                pt_residuals.append((pt - track.params.p_t) / track.params.p_t)
                eps_residuals.append(eps_t - track.params.eps_t)
        matched_candidates += len(matched_this_event)

    labels_arr = np.concatenate(labels_all)
    scores_arr = np.concatenate(scores_all)
    if len(labels_arr):
        predicted = scores_arr >= class_threshold
        accuracy = float(np.mean(predicted == labels_arr))
        auc = auc_score(labels_arr, scores_arr)
    else:
        accuracy = auc = 1.0
        flags["no_hits"] = True

    if n_candidates == 0:
        purity = 0.0
        flags["no_candidates"] = True
    else:
        purity = matched_candidates / n_candidates
    if n_tracks == 0:
        efficiency = 0.0
        flags["no_tracks"] = True
    else:
        efficiency = n_matched_tracks / n_tracks
    if not pt_residuals:
        flags["no_matched_params"] = True

    return {
        "hit_classification": {"accuracy": accuracy, "auc": auc},
        "segmentation": {"efficiency": efficiency, "purity": purity},
        "parameter_resolution": {"pt_rel_rms": _rms(pt_residuals),
                                 "eps_t_abs_rms": _rms(eps_residuals)},
        "counts": {"n_events": len(predictions), "n_tracks": n_tracks,
                   "n_candidates": n_candidates},
        "flags": flags,
    }
