import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ellipse
from oracles import (decode_box_row, encode_box_row, full_clip_ious,
                     monte_carlo_iou, mvee_oracle, point_in_ellipse_quadform,
                     polygon_iou)
from trackseg.ellipses import (A_M, AXIS_FLOOR, B_M, DELTA_THETA, ETA_M,
                               IOU_RESOLUTION, PHI_M, THETA_M, canonical_rows,
                               check_ellipses, decode_box, ellipse_ious,
                               encode_box, mvee, point_in_ellipse)
from trackseg.errors import ConsistencyError, DomainError
from trackseg.harness.io import prediction_from_dict, prediction_to_dict
from trackseg.jsonio import to_base64

TWO_PI = 2.0 * math.pi


def iou(e1, e2):
    """IoU of two parameter rows through the batched kernel."""
    return float(ellipse_ious(e1, [e2])[0])


def decoded(d, vertex) -> tuple:
    """The parameter row of one encoded row at one vertex."""
    return tuple(decode_box(d, *vertex)[0].tolist())


def enclosing(pts) -> tuple:
    """The minimum-area enclosing ellipse of one point set, a valid
    parameter row."""
    rows = mvee([pts])
    check_ellipses(rows, lambda k: "enclosing ellipse: ")
    return tuple(rows[0].tolist())


def random_ellipse(rng, a_range=(0.02, 0.4)):
    a = rng.uniform(*a_range)
    b = rng.uniform(0.2 * a, a)
    return ellipse(rng.uniform(-2, 2), rng.uniform(0, TWO_PI), a, b,
                   rng.uniform(0, math.pi))


class TestEllipse5:
    """An ellipse as a parameter row: canonical_rows makes the canonical
    form, check_ellipses states the invariant, and a prediction
    document stores rows."""

    def test_canonicalization_swaps_axes(self):
        rows = canonical_rows([0.0, 1.0], [0.0, 7.0], [0.1, 0.3],
                              [0.3, 0.1], [0.2, -0.1])
        assert rows.shape == (2, 5)
        eta_c, phi_c, a, b, theta = rows[0]
        assert (eta_c, phi_c, a, b) == (0.0, 0.0, 0.3, 0.1)
        assert theta == pytest.approx(0.2 + math.pi / 2)
        # no swap where a >= b; phi_c and theta wrapped into range
        assert rows[1].tolist() == pytest.approx(
            [1.0, 7.0 - TWO_PI, 0.3, 0.1, math.pi - 0.1])
        assert ellipse(0, 0, 0.1, 0.3, 0.2) == tuple(rows[0].tolist())
        check_ellipses(rows, lambda k: f"row {k}: ")

    def test_invalid(self):
        good = ellipse(0, 0, 0.1, 0.05, 0.0)
        for row, message in [
                ((0, 0, 0.1, 0.2, 0.0), "semi-axes must satisfy a >= b > 0, "
                 "got a=0.1, b=0.2"),
                ((0, 0, 0.1, 0.05, -0.1), "theta must lie in [0, pi), got "
                 "-0.1"),
                ((0, 0, 0.1, 0.0, 0.0), "semi-axes must satisfy a >= b > 0"),
                ((0, math.nan, 0.1, 0.05, 0.0), "ellipse parameters must be "
                 "finite")]:
            with pytest.raises(DomainError, match="row 1: " + re.escape(
                    message)) as err:
                check_ellipses([good, row, row], lambda k: f"row {k}: ")
            assert err.value.row == 1

    # a stored ellipse is a row of a prediction document's ellipse table:
    # that of the one vertex of this document
    @staticmethod
    def stored(e: tuple) -> dict:
        return json.loads(json.dumps(prediction_to_dict(
            0, [1], [0.5], ([0], [e]), [], [None])))

    def test_dict_round_trip(self):
        e = ellipse(0.5, 1.2, 0.3, 0.1, 2.0)
        vertices, rows = prediction_from_dict(self.stored(e))["ellipses"]
        assert vertices.tolist() == [0] and rows.tolist() == [list(e)]

    @pytest.mark.parametrize("key", ["eta_c", "phi_c", "a", "b", "theta"])
    def test_dict_non_finite_rejected(self, key):
        doc = self.stored(ellipse(0.5, 1.2, 0.3, 0.1, 2.0))
        for value in (math.nan, math.inf):
            doc["ellipses"][key] = ["<f8", to_base64([value], "<f8")]
            with pytest.raises(ConsistencyError, match=f"column '{key}' has "
                               f"a non-finite value at row 0"):
                prediction_from_dict(doc)


def encoded(e: tuple, vertex) -> np.ndarray:
    """The encoded row of one parameter row at one vertex."""
    rows = encode_box([e], *vertex)
    assert rows.shape == (1, 5)
    return rows[0]


class TestEncodeDecode:
    def test_zero_case_with_default_scales(self):
        e = ellipse(0.5, 2.0, A_M, B_M, -DELTA_THETA)
        assert encoded(e, (0.5, 2.0)) == pytest.approx(np.zeros(5),
                                                       abs=1e-12)

    def test_eta_offset_unit(self):
        e = ellipse(0.51, 2.0, A_M, B_M, -DELTA_THETA)
        assert encoded(e, (0.5, 2.0)) == \
            pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_theta_encoding(self):
        # THETA_M = pi/4, DELTA_THETA = 0.5
        e = ellipse(0.0, 0.0, 0.1, 0.05, math.pi / 4)
        assert encoded(e, (0.0, 0.0))[4] == \
            pytest.approx(1.0 + 2.0 / math.pi)

    def test_decode_zero(self):
        _, _, a, b, theta = decoded(np.zeros(5), (0.0, 0.0))
        assert a == pytest.approx(A_M)
        assert b == pytest.approx(B_M)
        assert theta == pytest.approx(math.pi - DELTA_THETA)

    def test_log_axis_decoding(self):
        _, _, a, _, _ = decoded([0, 0, math.log(2.0), 0, 0], (0, 0))
        assert a == pytest.approx(0.076)

    def test_phi_wrap_in_encoding(self):
        e = ellipse(0.0, 0.002, 0.05, 0.01, 0.0)
        d = encoded(e, (0.0, TWO_PI - 0.002))
        assert d[1] == pytest.approx(0.004 / PHI_M)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(10_000):
            e = random_ellipse(rng)
            vertex = (e[0] + rng.uniform(-0.02, 0.02),
                      (e[1] + rng.uniform(-0.01, 0.01)) % TWO_PI)
            cases.append((e, vertex))
        eta, phi = np.array([vertex for _, vertex in cases]).T
        rows = decode_box(encode_box([e for e, _ in cases], eta, phi), eta,
                          phi)
        check_ellipses(rows, lambda k: f"case {k}: ")
        for (e, _), back in zip(cases, rows.tolist()):
            assert abs(back[0] - e[0]) < 1e-12
            assert abs((back[1] - e[1] + math.pi) % TWO_PI
                       - math.pi) < 1e-12
            assert abs(back[2] - e[2]) < 1e-12
            assert abs(back[3] - e[3]) < 1e-12
            dt = abs(back[4] - e[4]) % math.pi
            assert min(dt, math.pi - dt) < 1e-12

    # theta is only identifiable away from the circular case a == b,
    # where canonicalization may legitimately swap the axes
    @given(eta=st.floats(-2, 2), phi=st.floats(0, 6.28),
           a=st.floats(0.01, 0.5), ratio=st.floats(0.1, 0.99),
           theta=st.floats(0, 3.14))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_hypothesis(self, eta, phi, a, ratio, theta):
        e = ellipse(eta, phi, a, a * ratio, theta)
        back = decoded(encoded(e, (eta, phi)), (eta, phi))
        assert back[2] == pytest.approx(e[2], rel=1e-12)
        assert back[3] == pytest.approx(e[3], rel=1e-12)
        dt = abs(back[4] - e[4]) % math.pi
        assert min(dt, math.pi - dt) < 1e-9


# the box scales in the order decode_box_row takes them
SCALES = (ETA_M, PHI_M, A_M, B_M, THETA_M, DELTA_THETA)


def _encoded_rows(rng, n):
    """n encoded rows, spread like free-form regressed residuals, and
    their vertices.  The first eighth puts vertices at and next to phi =
    0 and 2 pi with offsets across the seam, the second puts d_theta at
    the fold DELTA_THETA / THETA_M and the float below it; the spread of
    d_a and d_b makes a < b in about a sixth of the rows."""
    d = rng.normal(0.0, [3.0, 3.0, 1.5, 1.5, 3.0], size=(n, 5))
    vertices = np.column_stack([rng.uniform(-3.0, 3.0, n),
                                rng.uniform(0.0, TWO_PI, n)])
    k = n // 8
    vertices[:k, 1] = rng.choice([0.0, 1e-12, 1e-3, TWO_PI - 1e-3,
                                  np.nextafter(TWO_PI, 0.0)], k)
    d[:k, 1] = rng.uniform(-1.0, 1.0, k)
    fold = DELTA_THETA / THETA_M
    d[k:2 * k, 4] = rng.choice([fold, np.nextafter(fold, 0.0),
                                np.nextafter(fold, 1.0), -fold], k)
    return d, vertices


class TestDecodeOracle:
    """decode_box decodes all rows at once; decoding one value at a time
    in Python floats is the reference, and the two agree bit for bit."""

    def test_equals_row_by_row_decoding_bit_for_bit(self):
        d, vertices = _encoded_rows(np.random.default_rng(91), 2400)
        expected = [decode_box_row(row, vertex, SCALES)
                    for row, vertex in zip(d, vertices)]
        assert np.array_equal(_bits(decode_box(d, *vertices.T)),
                              _bits(expected))
        swapped = np.exp(d[:, 2]) * A_M < np.exp(d[:, 3]) * B_M
        assert 300 <= np.count_nonzero(swapped) <= 2100
        # centres on both sides of the seam, and theta folded to 0
        phi_c = np.array(expected)[:, 1]
        assert np.any(phi_c < 1e-3) and np.any(phi_c > TWO_PI - 1e-3)
        assert np.any(np.array(expected)[:, 4] == 0.0)

    def test_no_rows(self):
        assert decode_box(np.zeros((0, 5)), [], []).shape == (0, 5)

    @pytest.mark.parametrize("column, value", [
        (2, 720.0), (3, 720.0), (3, -800.0), (2, -800.0)],
        ids=["a-overflows", "b-overflows", "b-zero", "a-zero"])
    def test_first_undecodable_row_is_named(self, column, value):
        d, vertices = _encoded_rows(np.random.default_rng(92), 40)
        d[[17, 30], column] = value
        with pytest.raises(DomainError) as err:
            decode_box(d, *vertices.T)
        assert err.value.row == 17
        for row, vertex in zip(d[:17], vertices[:17]):
            decode_box_row(row, vertex, SCALES)
        with pytest.raises((OverflowError, ValueError)):
            decode_box_row(d[17], vertices[17], SCALES)

    def test_zero_axis_of_one_row(self):
        with pytest.raises(DomainError, match="no valid ellipse"):
            decode_box([0, 0, 0, -800, 0], 0.0, 1.0)


class TestEncodeOracle:
    """encode_box encodes all rows at once; encoding one value at a time
    in Python floats is the reference, and the two agree bit for bit."""

    def test_equals_row_by_row_encoding_bit_for_bit(self):
        # ellipses decoded from spread residuals: centres on both sides
        # of the phi seam, theta at the fold, a < b swapped
        d, vertices = _encoded_rows(np.random.default_rng(93), 2400)
        rows = decode_box(d, *vertices.T)
        expected = [encode_box_row(row, vertex, SCALES)
                    for row, vertex in zip(rows, vertices)]
        got = encode_box(rows, *vertices.T)
        assert np.array_equal(_bits(got), _bits(expected))

    def test_no_rows(self):
        assert encode_box(np.zeros((0, 5)), [], []).shape == (0, 5)


class TestMembership:
    def test_center(self):
        e = ellipse(0.1, 1.0, 0.2, 0.1, 0.5)
        assert point_in_ellipse(e, (0.1, 1.0))

    def test_boundary_inclusive(self):
        e = ellipse(0.0, 1.0, 0.2, 0.1, 0.3)
        tip = (0.2 * math.cos(0.3), 1.0 + 0.2 * math.sin(0.3))
        assert point_in_ellipse(e, tip)
        beyond = (0.2 * 1.001 * math.cos(0.3),
                  1.0 + 0.2 * 1.001 * math.sin(0.3))
        assert not point_in_ellipse(e, beyond)

    def test_phi_wrap(self):
        e = ellipse(0.0, 0.01, 0.1, 0.05, 0.0)
        assert point_in_ellipse(e, (0.0, TWO_PI - 0.01))

    def test_arrays_match_points(self):
        rng = np.random.default_rng(5)
        e = ellipse(0.0, 0.02, 0.1, 0.05, 0.4)
        eta = rng.uniform(-0.15, 0.15, 200)
        phi = rng.uniform(-0.15, 0.15, 200) % TWO_PI
        inside = point_in_ellipse(e, (eta, phi))
        assert inside.shape == (200,) and 0 < inside.sum() < 200
        assert inside.tolist() == [bool(point_in_ellipse(e, p))
                                   for p in zip(eta, phi)]


class TestIou:
    def test_identical(self):
        e = ellipse(0.3, 2.0, 0.2, 0.1, 1.0)
        assert iou(e, e) == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_exact_zero(self):
        e1 = ellipse(0.0, 1.0, 0.1, 0.05, 0.0)
        e2 = ellipse(1.0, 1.0, 0.1, 0.05, 0.0)
        assert iou(e1, e2) == 0.0

    def test_two_unit_circles(self):
        e1 = ellipse(0.0, 3.0, 1.0, 1.0, 0.0)
        e2 = ellipse(1.0, 3.0, 1.0, 1.0, 0.0)
        lens = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
        expected = lens / (2.0 * math.pi - lens)
        assert iou(e1, e2) == pytest.approx(expected, abs=0.005)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            e1, e2 = random_ellipse(rng), random_ellipse(rng)
            assert iou(e1, e2) == pytest.approx(iou(e2, e1), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            eta_c, phi_c, a, b, theta = e1 = random_ellipse(rng)
            e2 = ellipse(eta_c + rng.uniform(-0.1, 0.1),
                         phi_c + rng.uniform(-0.1, 0.1), a, b, theta)
            assert 0.0 <= iou(e1, e2) <= 1.0

    def test_dilation_monotone(self):
        e = ellipse(0.0, 1.0, 0.2, 0.1, 0.7)
        factors = [1.2, 1.5, 2.0, 3.0]
        ious = [iou(e, ellipse(0.0, 1.0, 0.2 * k, 0.1 * k, 0.7))
                for k in factors]
        assert all(x > y for x, y in zip(ious, ious[1:]))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            e1 = random_ellipse(rng, a_range=(0.1, 0.3))
            e2 = ellipse(e1[0] + rng.uniform(-0.2, 0.2),
                         e1[1] + rng.uniform(-0.2, 0.2),
                         rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.1),
                         rng.uniform(0, math.pi))
            mc = monte_carlo_iou(e1, e2, 200_000, seed=trial)
            assert iou(e1, e2) == pytest.approx(mc, abs=0.01)

    def test_phi_translation_equivariance(self):
        rng = np.random.default_rng(9)
        e1, e2 = random_ellipse(rng), random_ellipse(rng)
        base = iou(e1, e2)
        for shift in (1.0, 3.0, 6.0):
            s1, s2 = (ellipse(eta_c, phi_c + shift, a, b, theta)
                      for eta_c, phi_c, a, b, theta in (e1, e2))
            assert iou(s1, s2) == pytest.approx(base, abs=1e-9)


def _pair(rng, kind):
    """One seeded random pair of ellipses of the given kind."""
    if kind == "pixel":
        a1, a2 = rng.uniform(0.008, 0.012, 2)
        e1 = ellipse(rng.uniform(-2.5, 2.5), rng.uniform(0, TWO_PI),
                     a1, rng.uniform(0.004, 0.006), rng.uniform(0, math.pi))
        return e1, ellipse(e1[0] + rng.uniform(-0.015, 0.015),
                           e1[1] + rng.uniform(-0.015, 0.015),
                           a2, rng.uniform(0.004, 0.006),
                           rng.uniform(0, math.pi))
    if kind == "seam":
        e1 = random_ellipse(rng, a_range=(0.02, 0.2))
        e1 = ellipse(e1[0], rng.uniform(-0.1, 0.1), *e1[2:])
    else:
        e1 = random_ellipse(rng)
    eta_c, phi_c, a, b, theta = e1
    if kind == "identical":
        return e1, ellipse(eta_c, phi_c, a, b, theta)
    if kind == "nested":
        k = rng.uniform(0.2, 0.6)
        return e1, ellipse(eta_c + rng.uniform(-0.2, 0.2) * b,
                           phi_c + rng.uniform(-0.2, 0.2) * b,
                           k * b, rng.uniform(0.3, 1.0) * k * b,
                           rng.uniform(0, math.pi))
    if kind == "touching":
        # a copy moved by one full axis along that axis: the two
        # polygons share a vertex and nothing else
        axis = theta + (0.0 if rng.uniform() < 0.5 else 0.5 * math.pi)
        reach = 2.0 * (a if axis == theta else b)
        return e1, ellipse(eta_c + reach * math.cos(axis),
                           phi_c + reach * math.sin(axis), a, b, theta)
    a2 = rng.uniform(0.02, 0.4)
    reach = a + a2
    return e1, ellipse(eta_c + rng.uniform(-reach, reach),
                       phi_c + rng.uniform(-reach, reach),
                       a2, rng.uniform(0.2 * a2, a2),
                       rng.uniform(0, math.pi))


class TestIouOracle:
    KINDS = ("overlapping", "seam", "nested", "identical", "touching",
             "pixel")

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_vertex_by_vertex_clip(self, kind):
        # 2000 pairs in all; identical pairs are also checked exactly below
        rng = np.random.default_rng(20 + self.KINDS.index(kind))
        for _ in range(100 if kind == "identical" else 380):
            e1, e2 = _pair(rng, kind)
            assert iou(e1, e2) == pytest.approx(
                polygon_iou(e1, e2, IOU_RESOLUTION), abs=1e-9)

    def test_identical_pairs_are_exactly_one(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            e = random_ellipse(rng)
            assert iou(e, e) == 1.0

    def test_batch_equals_single(self):
        rng = np.random.default_rng(27)
        for kind in self.KINDS:
            pairs = [_pair(rng, kind) for _ in range(40)]
            e = pairs[0][0]
            # each partner keeps its offset from its own first ellipse
            others = [ellipse(e[0] + e2[0] - e1[0], e[1] + e2[1] - e1[1],
                              *e2[2:]) for e1, e2 in pairs]
            others += [e, random_ellipse(rng)]
            batch = ellipse_ious(e, others)
            assert batch.shape == (len(others),)
            assert np.count_nonzero(batch) >= 10
            for i, other in enumerate(others):
                assert batch[i] == ellipse_ious(e, [other])[0]

    def test_no_others(self):
        e = ellipse(0.0, 1.0, 0.2, 0.1, 0.3)
        assert ellipse_ious(e, []).shape == (0,)


def _classified_pair(rng, kind):
    """One seeded random pair whose polygon edges sit where the edge
    classification of ellipse_ious is tight."""
    e1 = random_ellipse(rng)
    if kind == "tangent":
        # a same-axis partner touching e1 at an end of its axis, from
        # outside or (scaled, so no more curved) from inside, moved by a
        # tiny fraction of the axis either way or not at all
        k = rng.uniform(0.2, 1.0)
        eta_c, phi_c, a, b, theta = e1
        axis = theta + (0.0 if rng.uniform() < 0.5 else 0.5 * math.pi)
        reach = a if axis == theta else b
        gap = 1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6,
                                -1e-6, 1e-3, -1e-3])
        shift = reach * (1.0 + k if rng.uniform() < 0.5 else 1.0 - k) * gap
        return e1, ellipse(eta_c + shift * math.cos(axis),
                           phi_c + shift * math.sin(axis), k * a, k * b,
                           theta)
    if kind == "thin":
        e1 = ellipse(*e1[:3], AXIS_FLOOR, e1[4])
        a2 = rng.uniform(0.01, 0.4)
        b2 = AXIS_FLOOR if rng.uniform() < 0.5 else \
            rng.uniform(AXIS_FLOOR, a2)
        return e1, ellipse(e1[0] + rng.uniform(-a2, a2),
                           e1[1] + rng.uniform(-a2, a2), a2, b2,
                                rng.uniform(0, math.pi))
    return _pair(rng, kind)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestIouEdgeClassification:
    """ellipse_ious clips only the edges near the other boundary; the
    full clip of every edge against every half-plane is the reference,
    and the two must agree bit for bit."""
    KINDS = ("overlapping", "nested", "tangent", "seam", "thin", "pixel",
             "identical")

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_full_clip_bit_for_bit(self, kind):
        rng = np.random.default_rng(40 + self.KINDS.index(kind))
        pairs = [_classified_pair(rng, kind) for _ in range(600)]
        seeds, others = zip(*pairs)
        expected = [full_clip_ious(s, [o], IOU_RESOLUTION)[0]
                    for s, o in zip(seeds, others)]
        assert np.count_nonzero(expected) >= 100
        assert np.array_equal(_bits(ellipse_ious(seeds, others)),
                              _bits(expected))

    def test_per_pair_seeds_equal_per_seed_calls(self):
        rng = np.random.default_rng(47)
        pairs = [_classified_pair(rng, kind) for kind in self.KINDS
                 for _ in range(40)]
        seeds, others = np.array(pairs).transpose(1, 0, 2)
        batch = ellipse_ious(seeds, others)
        assert np.array_equal(_bits(batch), _bits(
            [ellipse_ious(s, o[None])[0] for s, o in zip(seeds, others)]))
        # one seed row broadcasts over all others, as a per-pair copy does
        assert np.array_equal(
            _bits(ellipse_ious(seeds[0], others)),
            _bits(ellipse_ious(np.repeat(seeds[:1], len(others), 0),
                               others)))

    def test_clips_only_the_edges_near_the_other_boundary(self):
        rng = np.random.default_rng(48)
        pairs = [_pair(rng, "overlapping") for _ in range(200)]
        stats = {}
        ellipse_ious(*zip(*pairs), stats)
        # two crossing boundaries cut a few edges of each polygon; the
        # full clip would take 2 * IOU_RESOLUTION per pair
        assert 0 < stats["edges_clipped"] <= 8 * len(pairs)
        identical = {}
        e = random_ellipse(rng)
        ellipse_ious(e, [e], identical)
        assert identical["edges_clipped"] == 2 * IOU_RESOLUTION

    def test_edge_of_zero_length_in_the_other_frame(self):
        # next to a circle of radius 1e12, a floor circle's edges round
        # to zero length in the big circle's unit frame; the closest-point
        # search must not divide by that length (RuntimeWarnings are
        # errors under the test settings)
        big = (0.0, 3.0, 1e12, 1e12, 0.3)
        tiny = (5e11, 3.0, AXIS_FLOOR, AXIS_FLOOR, 0.0)
        result = ellipse_ious(big, [tiny])[0]
        assert result == pytest.approx((AXIS_FLOOR / 1e12) ** 2, rel=0.05)


class TestMvee:
    def test_unit_square(self):
        e = enclosing(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                [0.0, 1.0]]))
        r = math.sqrt(2.0) / 2.0
        assert e[0] == pytest.approx(0.5, abs=1e-3)  # eta_c
        assert e[1] == pytest.approx(0.5, abs=1e-3)  # phi_c
        assert e[2] == pytest.approx(r, abs=1e-3)  # a
        assert e[3] == pytest.approx(r, abs=1e-3)  # b

    def test_single_point(self):
        e = enclosing(np.array([[0.3, 1.5]]))
        assert e[:4] == (0.3, 1.5, AXIS_FLOOR, AXIS_FLOOR)

    def test_boundary_recovery(self):
        t = np.linspace(0, TWO_PI, 48, endpoint=False)
        a0, b0, th = 0.3, 0.1, 0.7
        pts = np.stack([
            0.5 + a0 * np.cos(t) * math.cos(th) - b0 * np.sin(t)
            * math.sin(th),
            2.0 + a0 * np.cos(t) * math.sin(th) + b0 * np.sin(t)
            * math.cos(th)], axis=1)
        _, _, a, b, theta = enclosing(pts)
        assert a == pytest.approx(a0, abs=1e-3)
        assert b == pytest.approx(b0, abs=1e-3)
        assert theta == pytest.approx(th, abs=1e-3)

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [0.05, 0.0], [0.1, 0.0], [0.15, 0.0],
                        [0.2, 0.0]])
        _, _, a, b, theta = enclosing(pts)
        assert a == pytest.approx(0.1, abs=1e-12)  # half the span
        assert b == AXIS_FLOOR
        assert theta in (pytest.approx(0.0, abs=1e-12),
                           pytest.approx(math.pi, abs=1e-12))

    def test_containment_property(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            pts = rng.normal(0, 1, (k, 2)) * rng.uniform(1e-3, 0.5, 2)
            eta_c, phi_c, a, b, theta = enclosing(pts)
            inflated = (eta_c, phi_c, a * (1 + 1e-6), b * (1 + 1e-6), theta)
            assert np.all(point_in_ellipse_quadform(
                inflated, pts[:, 0], pts[:, 1]))

    def test_phi_seam(self):
        pts = np.array([[0.0, 0.05], [0.0, TWO_PI - 0.05], [0.1, 0.01]])
        e = enclosing(pts)
        for p in pts:
            assert point_in_ellipse(e, tuple(p))
        assert e[2] < 0.5  # did not span the whole circle

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mvee([np.zeros((0, 2))])


def mixed_point_sets(rng, n):
    """n point sets cycling through every kind mvee treats apart: one
    point, coincident, collinear, straddling the phi seam, and general
    sets of 3 to 25 points."""
    sets = []
    for i in range(n):
        k = int(rng.integers(3, 26))
        kind = i % 5
        if kind == 0:
            pts = rng.uniform(0.0, 3.0, (1, 2))
        elif kind == 1:
            pts = np.repeat(rng.uniform(0.0, 3.0, (1, 2)), k, axis=0)
        elif kind == 2:
            s = rng.uniform(-0.1, 0.1, k)
            pts = np.stack([1.0 + s, 2.0 + rng.uniform(-2, 2) * s], axis=1)
        elif kind == 3:
            pts = np.stack([rng.normal(0.5, 0.02, k),
                            rng.normal(0.0, 0.02, k) % TWO_PI], axis=1)
        else:
            pts = np.stack([rng.uniform(-2, 2) + rng.normal(0, 0.01, k),
                            rng.uniform(0, TWO_PI) + rng.normal(0, 0.003, k)],
                           axis=1)
            pts[:, 1] %= TWO_PI
        sets.append(pts)
    return sets


def thin_line(rng):
    """10-25 points along a diagonal, singular-value ratio about 1e-6,
    just above the cut that makes a set a segment."""
    k = int(rng.integers(10, 26))
    s, off = rng.uniform(-0.1, 0.1, k), rng.normal(0.0, 1e-7, k)
    return np.stack([1.0 + s - off, 2.0 + s + off], axis=1), None


def repeated_triangle(rng):
    """3 distinct points, each repeated, 4-25 points in all."""
    corners = rng.uniform(0.0, 0.1, (3, 2)) + (0.5, 3.0)
    k = int(rng.integers(4, 26))
    picks = np.concatenate([np.arange(3), rng.integers(0, 3, k - 3)])
    return corners[rng.permutation(picks)], None


def co_elliptic(rng):
    """11-25 points on one ellipse, three of them the image of an
    equilateral triangle, which makes that ellipse their minimum: the
    points and the ellipse."""
    k = int(rng.integers(11, 26))
    t = np.concatenate([rng.uniform(0.0, TWO_PI) + TWO_PI / 3 * np.arange(3),
                        rng.uniform(0.0, TWO_PI, k - 3)])
    a, th = rng.uniform(0.01, 0.1), rng.uniform(0.0, math.pi)
    b = a * rng.uniform(0.05, 0.8)
    x, y = a * np.cos(t), b * np.sin(t)
    pts = np.stack([-1.0 + x * math.cos(th) - y * math.sin(th),
                    1.0 + x * math.sin(th) + y * math.cos(th)], axis=1)
    return rng.permutation(pts), (-1.0, 1.0, a, b, th)


def near_straight(rng):
    """4-point tracks up to 0.05 long on parabolas of curvature 0.02 to
    20, smeared by 1e-6: the minor axis falls either side of the floor."""
    s = np.sort(rng.uniform(0.0, 0.05, 4))
    slope = rng.uniform(-2.0, 2.0)
    curve = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0)
    pts = np.stack([0.3 + s, 4.0 + slope * s + curve * s * s], axis=1)
    return pts + rng.normal(0.0, 1e-6, (4, 2)), None


def assert_same_ellipse(got, want):
    """Equal rows (eta_c, phi_c, a, b, theta) to rel 1e-9, phi and
    theta along their periods."""
    for k in (0, 2, 3):
        assert got[k] == pytest.approx(want[k], rel=1e-9, abs=1e-15)
    d_phi = abs(got[1] - want[1]) % TWO_PI
    assert min(d_phi, TWO_PI - d_phi) <= 1e-9 * max(want[1], 1e-6)
    d_theta = abs(got[4] - want[4]) % math.pi
    assert min(d_theta, math.pi - d_theta) <= 1e-9 * math.pi


class TestBatchedMvee:
    def test_matches_per_set_oracle(self):
        sets = mixed_point_sets(np.random.default_rng(31), 200)
        for got, pts in zip(mvee(sets), sets):
            assert_same_ellipse(got, mvee_oracle(pts, 1e-13, AXIS_FLOOR))

    @pytest.mark.parametrize("family", [thin_line, repeated_triangle,
                                        co_elliptic, near_straight])
    def test_hard_family(self, family):
        """Sets on which a first-order method crawls: each family of 100
        converges in at most 100 batched iterations (the thin line used
        to spin to the 100 000 cap), every set contains its points, and
        every result whose minor axis is not floored is the optimum:
        the oracle's, or the exact ellipse of co-elliptic points (the
        oracle hits its iteration cap on some of those)."""
        rng = np.random.default_rng(35)
        sets, exact = zip(*(family(rng) for _ in range(100)))
        stats = {}
        rows = mvee(sets, stats)
        assert stats["iterations"] <= 100
        check_ellipses(rows, lambda k: f"set {k}: ")
        for row, pts, want in zip(rows, sets, exact):
            assert np.all(point_in_ellipse(row, (pts[:, 0], pts[:, 1])))
            if row[3] > AXIS_FLOOR:
                assert_same_ellipse(row, want or mvee_oracle(
                    pts, 1e-13, AXIS_FLOOR))

    def test_every_point_inside_its_ellipse(self):
        sets = mixed_point_sets(np.random.default_rng(32), 200)
        rows = mvee(sets)
        check_ellipses(rows, lambda k: f"set {k}: ")
        for row, pts in zip(rows, sets):
            assert np.all(point_in_ellipse(row, (pts[:, 0], pts[:, 1])))

    def test_seeded_rerun_bit_identical(self):
        first = mvee(mixed_point_sets(np.random.default_rng(33), 100))
        again = mvee(mixed_point_sets(np.random.default_rng(33), 100))
        assert first.tobytes() == again.tobytes()

    def test_set_alone_equals_set_in_batch(self):
        sets = mixed_point_sets(np.random.default_rng(34), 50)
        batch = mvee(sets)
        for row, pts in zip(batch, sets):
            assert mvee([pts])[0].tolist() == \
                pytest.approx(row.tolist(), rel=1e-12, abs=1e-15)

    def test_no_sets(self):
        assert mvee([]).shape == (0, 5)
