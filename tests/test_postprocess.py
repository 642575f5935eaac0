import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import ellipse
from oracles import full_clip_ious
from test_ellipses import iou
from trackseg.angles import circular_mean
from trackseg.ellipses import IOU_RESOLUTION, point_in_ellipse
from trackseg import postprocess
from trackseg.errors import DomainError
from trackseg.postprocess import (ThresholdResult, TrackCandidate,
                                  assign_hits, choose_threshold,
                                  merge_ellipses)


def ellipse_at(eta, phi=3.0, a=0.2, b=0.1, theta=0.0):
    return ellipse(eta, phi, a, b, theta)


def rows_of(ellipses) -> np.ndarray:
    """Parameter rows, given one by one, as the (n, 5) array
    merge_ellipses takes."""
    return np.array(list(ellipses), dtype=float).reshape(-1, 5)


class TestMergeEllipses:
    def test_three_identical(self):
        e = ellipse_at(0.0)
        cands = merge_ellipses(rows_of([e, e, e]), [0.9, 0.8, 0.7], t_h=0.5)
        assert len(cands) == 1
        c = cands[0]
        assert c.confidence == pytest.approx(0.8)
        assert c.member_vertex_ids == (0, 1, 2)
        assert type(c.ellipse) is tuple and len(c.ellipse) == 5
        assert c.ellipse == pytest.approx(e, abs=1e-12)

    def test_disjoint_stay_separate(self):
        cands = merge_ellipses(rows_of([ellipse_at(0.0), ellipse_at(5.0)]),
                               [0.9, 0.8], t_h=0.3)
        assert len(cands) == 2

    def test_measured_iou_grouping(self):
        # construct A, B with IoU measured above 0.5, C disjoint
        a = ellipse_at(0.0)
        b = ellipse_at(0.05)
        c = ellipse_at(4.0)
        iou_ab = iou(a, b)
        assert iou_ab > 0.5
        cands = merge_ellipses(rows_of([a, b, c]), [0.9, 0.8, 0.7], t_h=0.5)
        assert len(cands) == 2
        merged = next(x for x in cands if len(x.member_vertex_ids) == 2)
        lone = next(x for x in cands if len(x.member_vertex_ids) == 1)
        assert merged.member_vertex_ids == (0, 1)
        assert merged.ellipse[0] == pytest.approx(0.025)  # eta_c
        assert lone.ellipse == c

    def test_partition_property(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            ellipses = [ellipse_at(rng.uniform(-1, 1),
                                   phi=rng.uniform(2.5, 3.5),
                                   a=rng.uniform(0.1, 0.3),
                                   b=rng.uniform(0.05, 0.1))
                        for _ in range(n)]
            scores = rng.uniform(0, 1, n)
            cands = merge_ellipses(rows_of(ellipses), scores, t_h=0.4)
            members = sorted(itertools.chain.from_iterable(
                c.member_vertex_ids for c in cands))
            assert members == list(range(n))

    def test_confidence_within_member_scores(self):
        rng = np.random.default_rng(31)
        ellipses = [ellipse_at(rng.uniform(-0.2, 0.2)) for _ in range(8)]
        scores = rng.uniform(0.1, 0.9, 8)
        for c in merge_ellipses(rows_of(ellipses), scores, t_h=0.3):
            member_scores = [scores[i] for i in c.member_vertex_ids]
            assert min(member_scores) <= c.confidence <= max(member_scores)

    def test_descending_confidence_order(self):
        ellipses = [ellipse_at(0.0), ellipse_at(3.0), ellipse_at(-3.0)]
        cands = merge_ellipses(rows_of(ellipses), [0.2, 0.9, 0.5], t_h=0.5)
        confs = [c.confidence for c in cands]
        assert confs == sorted(confs, reverse=True)

    def test_idempotent_on_separated_output(self):
        ellipses = [ellipse_at(0.0), ellipse_at(0.05), ellipse_at(3.0),
                    ellipse_at(-3.0)]
        scores = [0.9, 0.7, 0.8, 0.6]
        first = merge_ellipses(rows_of(ellipses), scores, t_h=0.5)
        assert all(iou(a.ellipse, b.ellipse) <= 0.5
                   for a, b in itertools.combinations(first, 2))
        second = merge_ellipses(rows_of([c.ellipse for c in first]),
                                [c.confidence for c in first], t_h=0.5)
        assert len(second) == len(first)
        for merged, original in zip(second, first):
            assert merged.ellipse == original.ellipse
            assert merged.confidence == pytest.approx(original.confidence)

    def test_score_order_invariance_when_separated(self):
        # two tight groups, far apart: any score permutation yields the
        # same partition
        group1 = [ellipse_at(0.0), ellipse_at(0.01), ellipse_at(0.02)]
        group2 = [ellipse_at(4.0), ellipse_at(4.01)]
        ellipses = group1 + group2
        base = None
        for perm in itertools.permutations(np.linspace(0.3, 0.9, 5)):
            cands = merge_ellipses(rows_of(ellipses), list(perm), t_h=0.2)
            partition = frozenset(c.member_vertex_ids for c in cands)
            if base is None:
                base = partition
            assert partition == base
        assert base == frozenset({(0, 1, 2), (3, 4)})

    def test_theta_circular_mean_at_wrap(self):
        e1 = ellipse(0.0, 3.0, 0.2, 0.1, 0.05)
        e2 = ellipse(0.0, 3.0, 0.2, 0.1, math.pi - 0.05)
        cands = merge_ellipses(rows_of([e1, e2]), [0.9, 0.8], t_h=0.1)
        assert len(cands) == 1
        theta = cands[0].ellipse[4]
        # mean over period pi sits at 0, not at pi/2
        assert min(theta, math.pi - theta) == pytest.approx(0.0, abs=1e-9)

    def test_phi_wrapped_mean(self):
        e1 = ellipse(0.0, 0.02, 0.2, 0.1, 0.0)
        e2 = ellipse(0.0, 2 * math.pi - 0.02, 0.2, 0.1, 0.0)
        cands = merge_ellipses(rows_of([e1, e2]), [0.9, 0.8], t_h=0.1)
        assert len(cands) == 1
        phi = cands[0].ellipse[1]
        assert min(phi, 2 * math.pi - phi) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_ellipse_row_named(self):
        rows = rows_of([ellipse_at(0.0), ellipse_at(1.0)])
        rows[1, 2:4] = rows[1, 3:1:-1]
        with pytest.raises(DomainError, match="ellipse row 1: semi-axes "
                           "must satisfy a >= b > 0"):
            merge_ellipses(rows, [0.9, 0.8])

    def test_bad_threshold(self):
        with pytest.raises(DomainError):
            merge_ellipses(np.zeros((0, 5)), [], t_h=0.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            merge_ellipses(rows_of([ellipse_at(0.0)]), [0.5, 0.6])


def merge_seed_by_seed(ellipses, scores, t_h):
    """The greedy grouping one seed at a time: IoU of each seed against
    every unassigned ellipse by the full clip, means of each group on its
    own."""
    rows = rows_of(ellipses)
    order = np.array(sorted(range(len(ellipses)),
                            key=lambda i: (-scores[i], i)), dtype=int)
    assigned = np.zeros(len(ellipses), dtype=bool)
    candidates = []
    for seed in order:
        if assigned[seed]:
            continue
        assigned[seed] = True
        rest = order[~assigned[order]]
        absorbed = rest[full_clip_ious(rows[seed], rows[rest],
                                       IOU_RESOLUTION) > t_h]
        assigned[absorbed] = True
        group = np.concatenate([[seed], absorbed])
        members = rows[group]
        candidates.append(TrackCandidate(
            ellipse=ellipse(
                members[:, 0].mean(), circular_mean(members[:, 1]),
                members[:, 2].mean(), members[:, 3].mean(),
                circular_mean(members[:, 4], period=math.pi)),
            confidence=float(np.mean(scores[group])),
            member_vertex_ids=tuple(sorted(group.tolist()))))
    candidates.sort(key=lambda c: (-c.confidence, c.member_vertex_ids))
    return candidates


def clustered_ellipses(rng, n, n_clusters):
    """n ellipses scattered around n_clusters centres, some across the
    phi seam."""
    centres = rng.uniform([-2.0, -0.3], [2.0, 2.0 * math.pi - 0.3],
                          (n_clusters, 2))
    out = []
    for k in rng.integers(n_clusters, size=n):
        a = rng.uniform(0.02, 0.2)
        out.append(ellipse(centres[k, 0] + rng.normal(0.0, 0.03),
                           centres[k, 1] + rng.normal(0.0, 0.03), a,
                           rng.uniform(0.2, 1.0) * a,
                           rng.uniform(0.0, math.pi)))
    return out


class TestMergeEqualsSeedBySeed:
    def test_bit_for_bit_with_score_ties(self):
        rng = np.random.default_rng(32)
        merged = 0
        for _ in range(60):
            n = int(rng.integers(0, 60))
            ellipses = clustered_ellipses(rng, n, int(rng.integers(1, 10)))
            # one decimal: many scores tie
            scores = np.round(rng.uniform(0.0, 1.0, n), 1)
            t_h = float(rng.uniform(0.1, 0.8))
            got = merge_ellipses(rows_of(ellipses), scores, t_h)
            assert repr(got) == repr(merge_seed_by_seed(ellipses, scores,
                                                        t_h))
            merged += n - len(got)
        assert merged >= 100

    def test_stats_count_the_pass(self):
        rng = np.random.default_rng(33)
        ellipses = clustered_ellipses(rng, 40, 5)
        stats = {"pairs": 1}
        cands = merge_ellipses(rows_of(ellipses), rng.uniform(0.0, 1.0, 40),
                               0.3, stats=stats)
        assert stats["pairs"] == 1 + 40 * 39 // 2
        assert 40 - len(cands) <= stats["pairs_over_t_h"] \
            <= stats["near_pairs"] < stats["pairs"]
        assert 0 < stats["edges_clipped"] \
            <= 2 * IOU_RESOLUTION * stats["near_pairs"]

    def test_memory_stays_far_below_a_pair_matrix(self):
        # 2000 ellipses on a grid, each near about 20 others: an n x n
        # array of doubles alone would take 32 MB
        n = 2000
        rng = np.random.default_rng(34)
        ellipses = [ellipse(0.03 * (i % 50), 0.03 * (i // 50) + 1.0,
                            0.04, 0.02, rng.uniform(0.0, math.pi))
                    for i in range(n)]
        rows, scores = rows_of(ellipses), rng.uniform(0.0, 1.0, n)
        stats = {}
        tracemalloc.start()
        try:
            cands = merge_ellipses(rows, scores, 0.2, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["near_pairs"] > 9 * n and len(cands) < n / 2
        assert peak < n * n * 8 / 4


class TestAssignHits:
    def make_candidates(self):
        return [
            TrackCandidate(ellipse_at(0.0, a=0.3, b=0.2), 0.9, (0,)),
            TrackCandidate(ellipse_at(0.4, a=0.3, b=0.2), 0.6, (1,)),
        ]

    def test_inside_one(self):
        cands = self.make_candidates()
        out = assign_hits(cands, [(0.65, 3.0, 0.9)])
        assert out == [1]

    def test_overlap_goes_to_higher_confidence(self):
        cands = self.make_candidates()
        out = assign_hits(cands, [(0.2, 3.0, 0.9)])  # inside both
        assert out == [0]

    def test_below_threshold_unassigned(self):
        cands = self.make_candidates()
        out = assign_hits(cands, [(0.0, 3.0, 0.2)], class_threshold=0.5)
        assert out == [None]

    def test_contained_by_none(self):
        cands = self.make_candidates()
        out = assign_hits(cands, [(5.0, 3.0, 0.9)])
        assert out == [None]


def assign_one_by_one(candidates, vertices, class_threshold):
    """Scalar reference: each vertex at or above the threshold takes the
    first candidate containing it in descending confidence, ties by
    index."""
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].confidence, i))
    out = []
    for eta, phi, prob in vertices:
        chosen = None
        if not prob < class_threshold:
            chosen = next((i for i in order if point_in_ellipse(
                candidates[i].ellipse, (eta, phi))), None)
        out.append(chosen)
    return out


class TestAssignHitsBatch:
    def test_matches_scalar_loop_on_random_inputs(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n_cand = int(rng.integers(0, 8))
            cands = [TrackCandidate(
                ellipse(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3),
                        rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.1),
                        rng.uniform(0, math.pi)),
                float(rng.choice([0.3, 0.6, 0.9])), (k,))
                for k in range(n_cand)]
            # phi straddles the seam
            vertices = [(rng.uniform(-0.8, 0.8),
                         rng.uniform(-0.5, 0.5) % (2 * math.pi),
                         float(rng.choice([0.2, 0.5, 0.8])))
                        for _ in range(int(rng.integers(0, 60)))]
            assert assign_hits(cands, vertices, 0.5) == \
                assign_one_by_one(cands, vertices, 0.5)

    def test_boundary_seam_and_threshold_cases(self):
        e = ellipse(0.0, 0.01, 0.2, 0.1, 0.3)
        tip = (0.2 * math.cos(0.3), 0.01 + 0.2 * math.sin(0.3), 0.9)
        cands = [TrackCandidate(ellipse(3.0, 3.0, 0.2, 0.1, 0.0), 0.9, (0,)),
                 TrackCandidate(e, 0.7, (1,)),
                 TrackCandidate(e, 0.7, (2,))]
        vertices = [tip,                       # on the boundary
                    (0.0, 2 * math.pi - 0.02, 0.9),  # across the seam
                    (0.0, 0.01, 0.5),          # at the class threshold
                    (0.0, 0.01, 0.4999),       # just below it
                    (1.0, 1.0, 0.9)]           # in no candidate
        expected = [1, 1, 1, None, None]
        assert assign_one_by_one(cands, vertices, 0.5) == expected
        assert assign_hits(cands, vertices, 0.5) == expected

    @pytest.mark.parametrize("block", [1, 120, 1 << 14],
                             ids=["one-candidate", "three", "all"])
    def test_blocks_of_candidates_match_scalar_loop(self, monkeypatch,
                                                    block):
        # 40 vertices: each block of `block` candidate-vertex pairs holds
        # one candidate, three, or all 20
        monkeypatch.setattr(postprocess, "_SEARCH_BLOCK", block)
        rng = np.random.default_rng(34)
        cands = [TrackCandidate(
            ellipse(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                    rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.1),
                    rng.uniform(0, math.pi)),
            float(rng.choice([0.4, 0.7])), (k,)) for k in range(20)]
        # half the vertices on a candidate's boundary, at its major tip
        tips = [(eta_c + a * math.cos(theta),
                 (phi_c + a * math.sin(theta)) % (2 * math.pi), 0.9)
                for eta_c, phi_c, a, _, theta in (c.ellipse for c in cands)]
        vertices = tips + [(rng.uniform(-0.6, 0.6),
                            rng.uniform(-0.4, 0.4) % (2 * math.pi), 0.9)
                           for _ in range(20)]
        expected = assign_one_by_one(cands, vertices, 0.5)
        assert assign_hits(cands, vertices, 0.5) == expected
        assert None not in expected[:20]

    def test_each_block_calls_point_in_ellipse(self, monkeypatch):
        # containment is postprocess.point_in_ellipse, called once per
        # block of candidates: 3 vertices and blocks of 6 pairs give
        # blocks of 2 of the 7 candidates, each passed as (5, k, 1)
        # columns
        calls = []

        def counting(rows, p):
            calls.append(rows.shape[1])
            return point_in_ellipse(rows, p)

        monkeypatch.setattr(postprocess, "point_in_ellipse", counting)
        monkeypatch.setattr(postprocess, "_SEARCH_BLOCK", 6)
        cands = [TrackCandidate(ellipse_at(0.1 * k), 0.9 - 0.1 * k, (k,))
                 for k in range(7)]
        vertices = [(0.0, 3.0, 0.9), (0.65, 3.0, 0.9), (5.0, 1.0, 0.9)]
        assert assign_hits(cands, vertices, 0.5) == [0, 5, None]
        assert calls == [2, 2, 2, 1]

    def test_no_candidates(self):
        vertices = [(0.0, 1.0, 0.9), (0.5, 2.0, 0.1)]
        assert assign_hits([], vertices, 0.5) == [None, None]
        assert assign_hits([], [], 0.5) == []


class TestChooseThreshold:
    def test_separable_midpoint(self):
        pairs = [(0.85, True), (0.8, True), (0.95, True),
                 (0.2, False), (0.1, False)]
        result = choose_threshold(pairs)
        assert result.threshold == pytest.approx(0.5)
        assert result.balanced_accuracy == 1.0
        assert result.separable

    def test_one_pair_each(self):
        result = choose_threshold([(0.9, True), (0.1, False)])
        assert result.threshold == pytest.approx(0.5)

    def test_identical_distributions_not_separable(self):
        values = [0.2, 0.4, 0.6, 0.8]
        pairs = [(v, True) for v in values] + [(v, False) for v in values]
        result = choose_threshold(pairs)
        assert result.balanced_accuracy == pytest.approx(0.5)
        assert not result.separable

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            pos = rng.uniform(0.3, 1.0, 10)
            neg = rng.uniform(0.0, 0.7, 10)
            pairs = [(v, True) for v in pos] + [(v, False) for v in neg]
            result = choose_threshold(pairs)
            # oracle: dense scan over candidate thresholds
            grid = np.linspace(0, 1, 2001)
            accs = [0.5 * (np.mean(pos > t) + np.mean(neg <= t))
                    for t in grid]
            assert result.balanced_accuracy == pytest.approx(
                max(accs), abs=1e-9)
            t = result.threshold
            acc_at = 0.5 * (np.mean(pos > t) + np.mean(neg <= t))
            assert acc_at == pytest.approx(result.balanced_accuracy)

    def test_iou_of_one_stays_inside_unit_interval(self):
        for pairs in ([(1.0, True), (1.0, False)],
                      [(0.5, True), (1.0, False)]):
            result = choose_threshold(pairs)
            assert 0.0 < result.threshold < 1.0
            merge_ellipses(np.zeros((0, 5)), [], result.threshold)  # accepted

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            choose_threshold([(0.5, True), (0.6, True)])

    def test_result_type(self):
        r = choose_threshold([(0.9, True), (0.1, False)])
        assert isinstance(r, ThresholdResult)
