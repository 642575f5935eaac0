"""Merge per-vertex ellipses into track candidates.

A modified non-maximum suppression: instead of discarding overlaps, all
ellipses whose IoU with the current highest-scoring seed exceeds the
threshold are averaged into one candidate (circular means for the
periodic components) with the mean member score as its confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import circular_mean
from .ellipses import Ellipse5, ellipse_iou, make_ellipse, point_in_ellipse
from .errors import DomainError


@dataclass(frozen=True)
class TrackCandidate:
    ellipse: Ellipse5
    confidence: float
    member_vertex_ids: tuple[int, ...]
    params: tuple[float, float] | None = None


def _mean_ellipse(members: list[Ellipse5]) -> Ellipse5:
    eta_c = float(np.mean([e.eta_c for e in members]))
    phi_c = circular_mean([e.phi_c for e in members])
    a = float(np.mean([e.a for e in members]))
    b = float(np.mean([e.b for e in members]))
    theta = circular_mean([e.theta for e in members], period=math.pi)
    return make_ellipse(eta_c, phi_c, a, b, theta)


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
    # descending score; ties by ascending index for determinism
    order = sorted(range(len(ellipses)), key=lambda i: (-scores[i], i))
    assigned = np.zeros(len(ellipses), dtype=bool)
    candidates = []
    for seed in order:
        if assigned[seed]:
            continue
        group = [seed]
        assigned[seed] = True
        for j in order:
            if assigned[j]:
                continue
            if ellipse_iou(ellipses[seed], ellipses[j]) > t_h:
                group.append(j)
                assigned[j] = True
        candidates.append(TrackCandidate(
            ellipse=_mean_ellipse([ellipses[k] for k in group]),
            confidence=float(np.mean([scores[k] for k in group])),
            member_vertex_ids=tuple(sorted(group)),
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
    out: list[int | None] = []
    for eta, phi, prob in vertices:
        if prob < class_threshold:
            out.append(None)
            continue
        chosen = None
        for idx in order:
            if point_in_ellipse(candidates[idx].ellipse, (eta, phi)):
                chosen = idx
                break
        out.append(chosen)
    return out


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
    current = None
    for (lo, hi), acc in zip(intervals, accs):
        if abs(acc - best_acc) <= 1e-12:
            if current is not None and current[1] == lo:
                current = (current[0], hi)
            else:
                if current is not None:
                    runs.append(current)
                current = (lo, hi)
        elif current is not None:
            runs.append(current)
            current = None
    if current is not None:
        runs.append(current)
    runs.sort(key=lambda r: (-(r[1] - r[0]), r[0]))
    threshold = 0.5 * (runs[0][0] + runs[0][1])
    return ThresholdResult(threshold, best_acc, separable=best_acc > 0.5)
