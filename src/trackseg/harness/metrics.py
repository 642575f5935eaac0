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
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = float(ranks[labels].sum()) - 0.5 * n_pos * (n_pos + 1)
    return u / (n_pos * n_neg)


def _rms(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(arr * arr)))


def evaluate(predictions: dict[int, dict], truth: dict[int, Event],
             class_threshold: float = 0.5) -> dict:
    """Score per-event predictions against truth events.

    `predictions` maps event_id to a dict with keys vertex_hit_ids,
    class_prob, candidates, assignments (the pred-v1 payload).  Every
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
        pred = predictions[event_id]
        event = truth[event_id]
        hit_pid = {h.hit_id: h.particle_id for h in event.hits}
        unknown = [i for i in pred["vertex_hit_ids"] if i not in hit_pid]
        if unknown:
            raise ConsistencyError(f"event {event_id}: predicted hit ids "
                                   f"{unknown[:3]} not in truth event")

        for hid, prob in zip(pred["vertex_hit_ids"], pred["class_prob"]):
            labels_all.append(hit_pid[hid] != 0)
            scores_all.append(prob)

        candidates = pred["candidates"]
        n_candidates += len(candidates)
        assignment_by_hit = {
            hid: cand for hid, cand in zip(pred["vertex_hit_ids"],
                                           pred["assignments"])
            if cand is not None}

        matched_this_event = set()
        track_hits = event.track_hits()
        for track in event.tracks:
            n_tracks += 1
            hits = track_hits[track.particle_id]
            counts: dict[int, int] = {}
            for h in hits:
                cand = assignment_by_hit.get(h.hit_id)
                if cand is not None:
                    counts[cand] = counts.get(cand, 0) + 1
            for cand, count in sorted(counts.items()):
                if 2 * count > len(hits):
                    n_matched_tracks += 1
                    matched_this_event.add(cand)
                    params = candidates[cand].params
                    if params is not None:
                        pt_residuals.append(
                            (params[0] - track.params.p_t) / track.params.p_t)
                        eps_residuals.append(params[1] - track.params.eps_t)
                    break
        matched_candidates += len(matched_this_event)

    labels_arr = np.asarray(labels_all, dtype=bool)
    scores_arr = np.asarray(scores_all, dtype=float)
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
    efficiency = n_matched_tracks / n_tracks if n_tracks else 0.0
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
