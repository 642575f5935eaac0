"""Merge per-vertex ellipses into track candidates.

A modified non-maximum suppression: instead of discarding overlaps, all
ellipses whose IoU with the current highest-scoring seed exceeds the
threshold are averaged into one candidate (circular means for the
periodic components) with the mean member score as its confidence.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .angles import circular_mean
from .ellipses import (Ellipse5, ellipse_ious, make_ellipse,
                       point_in_ellipse)
from .errors import DomainError


@dataclass(frozen=True)
class TrackCandidate:
    ellipse: Ellipse5
    confidence: float
    member_vertex_ids: tuple[int, ...]
    params: tuple[float, float] | None = None


def _mean_ellipse(rows: np.ndarray) -> Ellipse5:
    return make_ellipse(rows[:, 0].mean(), circular_mean(rows[:, 1]),
                        rows[:, 2].mean(), rows[:, 3].mean(),
                        circular_mean(rows[:, 4], period=math.pi))


def ellipse_iou(e1: Ellipse5, e2: Ellipse5) -> float:
    """IoU of one pair of ellipses.  Merging batches through ellipse_ious;
    this name stays while perfbench/tracing.py wraps IoU under it."""
    return float(ellipse_ious(astuple(e1), [astuple(e2)])[0])


def merge_ellipses(ellipses, scores,
                   t_h: float = 0.5) -> list[TrackCandidate]:
    """Greedy seed-anchored grouping of ellipses by IoU.

    Repeatedly seeds a group with the highest-scoring unassigned ellipse
    and absorbs every unassigned ellipse whose IoU against the seed
    exceeds t_h; the group's ellipse is the componentwise mean of its
    members (wrapped mean for phi_c, circular mean over period pi for
    theta) and its confidence the mean member score.  Candidates come
    back in descending confidence order.
    """
    if not 0.0 < t_h < 1.0:
        raise DomainError(f"IoU threshold must lie in (0, 1), got {t_h}")
    ellipses = list(ellipses)
    scores = np.asarray(scores, dtype=float)
    if len(ellipses) != len(scores):
        raise DomainError(f"{len(ellipses)} ellipses vs {len(scores)} scores")
    rows = np.array([astuple(e) for e in ellipses], dtype=float).reshape(-1, 5)
    # descending score; ties by ascending index for determinism
    order = np.array(sorted(range(len(ellipses)),
                            key=lambda i: (-scores[i], i)), dtype=int)
    assigned = np.zeros(len(ellipses), dtype=bool)
    candidates = []
    for seed in order:
        if assigned[seed]:
            continue
        assigned[seed] = True
        rest = order[~assigned[order]]
        absorbed = rest[ellipse_ious(rows[seed], rows[rest]) > t_h]
        assigned[absorbed] = True
        group = np.concatenate([[seed], absorbed])
        candidates.append(TrackCandidate(
            ellipse=_mean_ellipse(rows[group]),
            confidence=float(np.mean(scores[group])),
            member_vertex_ids=tuple(sorted(group.tolist())),
        ))
    candidates.sort(key=lambda c: (-c.confidence, c.member_vertex_ids))
    return candidates


def assign_hits(candidates: list[TrackCandidate], vertices,
                class_threshold: float = 0.5) -> list[int | None]:
    """Assign each track-classified vertex to the highest-confidence
    candidate whose ellipse contains it.

    `vertices` rows are (eta, phi, class_prob).  Vertices below the class
    threshold, or contained by no candidate, get None.
    """
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].confidence, i))
    rows = np.asarray(vertices, dtype=float).reshape(-1, 3)
    # per vertex the first containing candidate in confidence order; the
    # all-true last row stands for none
    inside = [point_in_ellipse(candidates[i].ellipse, (rows[:, 0], rows[:, 1]))
              for i in order] + [np.ones(len(rows), dtype=bool)]
    choice = [*order, None]
    return [None if prob < class_threshold else choice[k]
            for k, prob in zip(np.argmax(inside, axis=0), rows[:, 2])]


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    balanced_accuracy: float
    separable: bool


def choose_threshold(truth_pairs) -> ThresholdResult:
    """Pick the IoU threshold separating same-track from cross-track
    overlaps.

    Scans every interval between consecutive distinct IoU values and
    maximizes the balanced accuracy of "same track iff IoU > T_h";
    returns the midpoint of the widest optimal interval (lowest interval
    on width ties).  Inputs with only one class are an error; a best
    balanced accuracy of 0.5 is flagged non-separable.
    """
    pairs = [(float(iou), bool(same)) for iou, same in truth_pairs]
    pos = np.array([iou for iou, same in pairs if same])
    neg = np.array([iou for iou, same in pairs if not same])
    if len(pos) == 0 or len(neg) == 0:
        raise DomainError("need at least one pair of each class")

    values = np.unique([iou for iou, _ in pairs])
    # elementary intervals: below min, between consecutive values, above
    # max, all inside [0, 1] so every midpoint is a valid threshold
    bounds = np.concatenate([[max(values[0] - 1.0, 0.0)], values, [1.0]])
    intervals, accs = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        t = 0.5 * (lo + hi)
        intervals.append((float(lo), float(hi)))
        accs.append(0.5 * (float(np.mean(pos > t)) + float(np.mean(neg <= t))))
    best_acc = max(accs)

    # merge consecutive optimal intervals into maximal runs
    runs: list[tuple[float, float]] = []
    extend = False
    for (lo, hi), acc in zip(intervals, accs):
        optimal = abs(acc - best_acc) <= 1e-12
        if optimal and extend and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        elif optimal:
            runs.append((lo, hi))
        extend = optimal
    runs.sort(key=lambda r: (-(r[1] - r[0]), r[0]))
    threshold = 0.5 * (runs[0][0] + runs[0][1])
    return ThresholdResult(threshold, best_acc, separable=best_acc > 0.5)
