import itertools
import math

import numpy as np
import pytest

from test_ellipses import iou
from trackseg.ellipses import make_ellipse, point_in_ellipse
from trackseg.errors import DomainError
from trackseg.postprocess import (ThresholdResult, TrackCandidate,
                                  assign_hits, choose_threshold,
                                  merge_ellipses)


def ellipse_at(eta, phi=3.0, a=0.2, b=0.1, theta=0.0):
    return make_ellipse(eta, phi, a, b, theta)


class TestMergeEllipses:
    def test_three_identical(self):
        e = ellipse_at(0.0)
        cands = merge_ellipses([e, e, e], [0.9, 0.8, 0.7], t_h=0.5)
        assert len(cands) == 1
        c = cands[0]
        assert c.confidence == pytest.approx(0.8)
        assert c.member_vertex_ids == (0, 1, 2)
        assert c.ellipse.eta_c == pytest.approx(e.eta_c, abs=1e-12)
        assert c.ellipse.phi_c == pytest.approx(e.phi_c, abs=1e-12)
        assert c.ellipse.a == pytest.approx(e.a, abs=1e-12)
        assert c.ellipse.b == pytest.approx(e.b, abs=1e-12)
        assert c.ellipse.theta == pytest.approx(e.theta, abs=1e-12)

    def test_disjoint_stay_separate(self):
        cands = merge_ellipses([ellipse_at(0.0), ellipse_at(5.0)],
                               [0.9, 0.8], t_h=0.3)
        assert len(cands) == 2

    def test_measured_iou_grouping(self):
        # construct A, B with IoU measured above 0.5, C disjoint
        a = ellipse_at(0.0)
        b = ellipse_at(0.05)
        c = ellipse_at(4.0)
        iou_ab = iou(a, b)
        assert iou_ab > 0.5
        cands = merge_ellipses([a, b, c], [0.9, 0.8, 0.7], t_h=0.5)
        assert len(cands) == 2
        merged = next(x for x in cands if len(x.member_vertex_ids) == 2)
        lone = next(x for x in cands if len(x.member_vertex_ids) == 1)
        assert merged.member_vertex_ids == (0, 1)
        assert merged.ellipse.eta_c == pytest.approx(0.025)
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
            cands = merge_ellipses(ellipses, scores, t_h=0.4)
            members = sorted(itertools.chain.from_iterable(
                c.member_vertex_ids for c in cands))
            assert members == list(range(n))

    def test_confidence_within_member_scores(self):
        rng = np.random.default_rng(31)
        ellipses = [ellipse_at(rng.uniform(-0.2, 0.2)) for _ in range(8)]
        scores = rng.uniform(0.1, 0.9, 8)
        for c in merge_ellipses(ellipses, scores, t_h=0.3):
            member_scores = [scores[i] for i in c.member_vertex_ids]
            assert min(member_scores) <= c.confidence <= max(member_scores)

    def test_descending_confidence_order(self):
        ellipses = [ellipse_at(0.0), ellipse_at(3.0), ellipse_at(-3.0)]
        cands = merge_ellipses(ellipses, [0.2, 0.9, 0.5], t_h=0.5)
        confs = [c.confidence for c in cands]
        assert confs == sorted(confs, reverse=True)

    def test_idempotent_on_separated_output(self):
        ellipses = [ellipse_at(0.0), ellipse_at(0.05), ellipse_at(3.0),
                    ellipse_at(-3.0)]
        scores = [0.9, 0.7, 0.8, 0.6]
        first = merge_ellipses(ellipses, scores, t_h=0.5)
        assert all(iou(a.ellipse, b.ellipse) <= 0.5
                   for a, b in itertools.combinations(first, 2))
        second = merge_ellipses([c.ellipse for c in first],
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
            cands = merge_ellipses(ellipses, list(perm), t_h=0.2)
            partition = frozenset(c.member_vertex_ids for c in cands)
            if base is None:
                base = partition
            assert partition == base
        assert base == frozenset({(0, 1, 2), (3, 4)})

    def test_theta_circular_mean_at_wrap(self):
        e1 = make_ellipse(0.0, 3.0, 0.2, 0.1, 0.05)
        e2 = make_ellipse(0.0, 3.0, 0.2, 0.1, math.pi - 0.05)
        cands = merge_ellipses([e1, e2], [0.9, 0.8], t_h=0.1)
        assert len(cands) == 1
        theta = cands[0].ellipse.theta
        # mean over period pi sits at 0, not at pi/2
        assert min(theta, math.pi - theta) == pytest.approx(0.0, abs=1e-9)

    def test_phi_wrapped_mean(self):
        e1 = make_ellipse(0.0, 0.02, 0.2, 0.1, 0.0)
        e2 = make_ellipse(0.0, 2 * math.pi - 0.02, 0.2, 0.1, 0.0)
        cands = merge_ellipses([e1, e2], [0.9, 0.8], t_h=0.1)
        assert len(cands) == 1
        phi = cands[0].ellipse.phi_c
        assert min(phi, 2 * math.pi - phi) == pytest.approx(0.0, abs=1e-9)

    def test_bad_threshold(self):
        with pytest.raises(DomainError):
            merge_ellipses([], [], t_h=0.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            merge_ellipses([ellipse_at(0.0)], [0.5, 0.6])


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
                make_ellipse(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3),
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
        e = make_ellipse(0.0, 0.01, 0.2, 0.1, 0.3)
        tip = (0.2 * math.cos(0.3), 0.01 + 0.2 * math.sin(0.3), 0.9)
        cands = [TrackCandidate(make_ellipse(3.0, 3.0, 0.2, 0.1, 0.0), 0.9,
                                (0,)),
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
            merge_ellipses([], [], result.threshold)  # accepted

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            choose_threshold([(0.5, True), (0.6, True)])

    def test_result_type(self):
        r = choose_threshold([(0.9, True), (0.1, False)])
        assert isinstance(r, ThresholdResult)
