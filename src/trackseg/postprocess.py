"""Merge per-vertex ellipses, as parameter rows, into track candidates,
whose ellipses are parameter rows too.

A modified non-maximum suppression: instead of discarding overlaps, all
ellipses whose IoU with the current highest-scoring seed exceeds the
threshold are averaged into one candidate (circular means for the
periodic components) with the mean member score as its confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import circular_mean, signed_dphi
# perfbench/tracing.py looks point_in_ellipse up in this module
from .ellipses import (MEMBERSHIP_SLACK, canonical_rows, check_ellipses,
                       ellipse_ious, point_in_ellipse, quad_form)
from .errors import DomainError


@dataclass(frozen=True)
class TrackCandidate:
    """A track candidate: its ellipse as a parameter row (eta_c, phi_c,
    a, b, theta) of floats, its confidence, its member vertices and its
    (p_T, eps_T) once estimated."""
    ellipse: tuple[float, float, float, float, float]
    confidence: float
    member_vertex_ids: tuple[int, ...]
    params: tuple[float, float] | None = None


# the pair search takes blocks of seeds of at most this many seed-row
# pairs, hit assignment blocks of candidates of at most this many
# candidate-vertex pairs, and one IoU call measures at most _IOU_CHUNK of
# the pairs found; all keep memory linear in the ellipses, the vertices
# and the pairs near enough to test
_SEARCH_BLOCK = 1 << 14
_IOU_CHUNK = 256


def ellipse_iou(row1, row2) -> float:
    """IoU of one pair of ellipse parameter rows.  Merging batches
    through ellipse_ious; this name stays while perfbench/tracing.py
    wraps IoU under it."""
    return float(ellipse_ious(row1, [row2])[0])


def _near_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (p, q), p < q, of the pairs of rows that pass the
    centre-gap reject of ellipse_ious, ordered by p, then q."""
    n = len(rows)
    block = max(1, _SEARCH_BLOCK // max(n, 1))
    found = [np.zeros((2, 0), dtype=int)]
    for start in range(0, n, block):
        seeds = rows[start:start + block, None]
        later = rows[None, start + 1:]
        # triu keeps the pairs whose second row comes after the seed
        near = np.triu(np.hypot(later[..., 0] - seeds[..., 0],
                                signed_dphi(later[..., 1], seeds[..., 1]))
                       <= seeds[..., 2] + later[..., 2])
        p, q = np.nonzero(near)
        found.append(np.stack([p + start, q + start + 1]))
    return tuple(np.concatenate(found, axis=1))


def merge_ellipses(ellipses, scores, t_h: float = 0.5,
                   stats: dict | None = None) -> list[TrackCandidate]:
    """Greedy seed-anchored grouping of ellipses, parameter rows (eta_c,
    phi_c, a, b, theta), (n, 5), by IoU.

    Repeatedly seeds a group with the highest-scoring unassigned ellipse
    and absorbs every unassigned ellipse whose IoU against the seed
    exceeds t_h; the group's ellipse is the componentwise mean of its
    members (wrapped mean for phi_c, circular mean over period pi for
    theta), canonical, and its confidence the mean member score.
    Candidates come back in descending confidence order.  An invalid
    ellipse row raises check_ellipses' DomainError naming it.

    Every pair that can matter, a higher-scoring ellipse and a lower one
    whose centres pass the centre-gap reject of ellipse_ious, is measured
    before the grouping, by batched ellipse_ious calls of up to
    _IOU_CHUNK pairs (one call for an event of a few hundred ellipses),
    and all group means are taken in one padded pass.  `stats`, when
    given, gains the counts of the pass: "pairs" (all pairs),
    "near_pairs" (past the centre-gap reject), "pairs_over_t_h" and,
    from ellipse_ious, "edges_clipped".
    """
    if not 0.0 < t_h < 1.0:
        raise DomainError(f"IoU threshold must lie in (0, 1), got {t_h}")
    rows = np.asarray(ellipses, dtype=float).reshape(-1, 5)
    scores = np.asarray(scores, dtype=float)
    if len(rows) != len(scores):
        raise DomainError(f"{len(rows)} ellipses vs {len(scores)} scores")
    check_ellipses(rows, lambda k: f"ellipse row {k}: ")
    n = len(rows)
    # descending score; ties by ascending index for determinism
    order = np.argsort(-scores, kind="stable")
    rows, scores = rows[order], scores[order]
    p, q = _near_pairs(rows)
    ious = np.zeros(len(p))
    for k in range(0, len(p), _IOU_CHUNK):
        chunk = slice(k, k + _IOU_CHUNK)
        ious[chunk] = ellipse_ious(rows[p[chunk]], rows[q[chunk]], stats)
    over = ious > t_h
    if stats is not None:
        for key, value in (("pairs", n * (n - 1) // 2),
                           ("near_pairs", len(p)),
                           ("pairs_over_t_h", int(np.count_nonzero(over)))):
            stats[key] = stats.get(key, 0) + value
    if n == 0:
        return []
    # each ellipse's partners over t_h, later in score order, in order
    partners = [[] for _ in range(n)]
    for i, j in zip(p[over].tolist(), q[over].tolist()):
        partners[i].append(j)
    assigned = [False] * n
    groups = []
    for seed in range(n):
        if assigned[seed]:
            continue
        group = [seed] + [j for j in partners[seed] if not assigned[j]]
        for j in group:
            assigned[j] = True
        groups.append(group)

    # members in score order, seed first, padded to one (groups, size) table
    sizes = np.array([len(g) for g in groups])
    valid = np.arange(sizes.max()) < sizes[:, None]
    slots = np.zeros(valid.shape, dtype=int)
    slots[valid] = np.concatenate(groups)
    members = rows[slots]
    means = canonical_rows(
        members[..., 0].mean(axis=1, where=valid),
        circular_mean(members[..., 1], where=valid),
        members[..., 2].mean(axis=1, where=valid),
        members[..., 3].mean(axis=1, where=valid),
        circular_mean(members[..., 4], period=math.pi, where=valid))
    confidence = scores[slots].mean(axis=1, where=valid).tolist()
    candidates = [TrackCandidate(ellipse=tuple(mean), confidence=conf,
                                 member_vertex_ids=tuple(sorted(
                                     order[group].tolist())))
                  for mean, conf, group in zip(means.tolist(), confidence,
                                               groups)]
    candidates.sort(key=lambda c: (-c.confidence, c.member_vertex_ids))
    return candidates


def assign_hits(candidates: list[TrackCandidate], vertices,
                class_threshold: float = 0.5) -> list[int | None]:
    """Assign each track-classified vertex to the highest-confidence
    candidate whose ellipse contains it.

    `vertices` rows are (eta, phi, class_prob).  Vertices below the class
    threshold, or contained by no candidate, get None.  Membership is
    point_in_ellipse's test, taken for a block of candidates against all
    vertices at once.
    """
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].confidence, i))
    rows = np.asarray(vertices, dtype=float).reshape(-1, 3)
    shapes = np.array([(*e[:4], math.cos(e[4]), math.sin(e[4]))
                       for e in (candidates[i].ellipse for i in order)],
                      dtype=float).reshape(-1, 6)
    # per vertex the first containing candidate in confidence order, or
    # len(order), which stands for none
    first = np.full(len(rows), len(order))
    block = max(1, _SEARCH_BLOCK // max(len(rows), 1))
    for start in range(0, len(order), block):
        inside = quad_form(*shapes[start:start + block].T[..., None],
                           rows[:, 0], rows[:, 1]) <= 1.0 + MEMBERSHIP_SLACK
        found = inside.any(axis=0) & (first == len(order))
        first[found] = start + inside.argmax(axis=0)[found]
    choice = [*order, None]
    return [None if prob < class_threshold else choice[k]
            for k, prob in zip(first.tolist(), rows[:, 2].tolist())]


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

    # return_counts keeps np.unique from importing numpy.ma
    values, _ = np.unique([iou for iou, _ in pairs], return_counts=True)
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
