import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import monte_carlo_iou, point_in_ellipse_quadform
from trackseg.ellipses import (A_M, AXIS_FLOOR, B_M, DELTA_THETA, PHI_M,
                               Ellipse5, decode_box,
                               ellipse_from_dict, ellipse_iou,
                               ellipse_to_dict, encode_box, make_ellipse,
                               mvee, point_in_ellipse)
from trackseg.errors import DomainError

TWO_PI = 2.0 * math.pi


def random_ellipse(rng, a_range=(0.02, 0.4)):
    a = rng.uniform(*a_range)
    b = rng.uniform(0.2 * a, a)
    return make_ellipse(rng.uniform(-2, 2), rng.uniform(0, TWO_PI),
                        a, b, rng.uniform(0, math.pi))


class TestEllipse5:
    def test_canonicalization_swaps_axes(self):
        e = make_ellipse(0.0, 0.0, 0.1, 0.3, 0.2)
        assert e.a == 0.3 and e.b == 0.1
        assert e.theta == pytest.approx(0.2 + math.pi / 2)

    def test_invalid(self):
        with pytest.raises(DomainError):
            Ellipse5(0, 0, 0.1, 0.2, 0.0)  # a < b
        with pytest.raises(DomainError):
            Ellipse5(0, 0, 0.1, 0.05, -0.1)  # theta out of range

    def test_dict_round_trip(self):
        e = make_ellipse(0.5, 1.2, 0.3, 0.1, 2.0)
        assert ellipse_from_dict(ellipse_to_dict(e)) == e

    @pytest.mark.parametrize("key", ["eta_c", "phi_c", "a", "b", "theta"])
    def test_dict_non_finite_rejected(self, key):
        d = ellipse_to_dict(make_ellipse(0.5, 1.2, 0.3, 0.1, 2.0))
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError):
                ellipse_from_dict({**d, key: value})


class TestEncodeDecode:
    def test_zero_case_with_default_scales(self):
        e = make_ellipse(0.5, 2.0, A_M, B_M, -DELTA_THETA)
        d = encode_box(e, (0.5, 2.0))
        assert d.shape == (5,)
        assert d == pytest.approx(np.zeros(5), abs=1e-12)

    def test_eta_offset_unit(self):
        e = make_ellipse(0.51, 2.0, A_M, B_M, -DELTA_THETA)
        assert encode_box(e, (0.5, 2.0)) == \
            pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_theta_encoding(self):
        # THETA_M = pi/4, DELTA_THETA = 0.5
        e = make_ellipse(0.0, 0.0, 0.1, 0.05, math.pi / 4)
        assert encode_box(e, (0.0, 0.0))[4] == \
            pytest.approx(1.0 + 2.0 / math.pi)

    def test_decode_zero(self):
        e = decode_box(np.zeros(5), (0.0, 0.0))
        assert e.a == pytest.approx(A_M)
        assert e.b == pytest.approx(B_M)
        assert e.theta == pytest.approx(math.pi - DELTA_THETA)

    def test_log_axis_decoding(self):
        e = decode_box([0, 0, math.log(2.0), 0, 0], (0, 0))
        assert e.a == pytest.approx(0.076)

    def test_phi_wrap_in_encoding(self):
        e = make_ellipse(0.0, 0.002, 0.05, 0.01, 0.0)
        d = encode_box(e, (0.0, TWO_PI - 0.002))
        assert d[1] == pytest.approx(0.004 / PHI_M)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            e = random_ellipse(rng)
            vertex = (e.eta_c + rng.uniform(-0.02, 0.02),
                      (e.phi_c + rng.uniform(-0.01, 0.01)) % TWO_PI)
            back = decode_box(encode_box(e, vertex), vertex)
            assert abs(back.eta_c - e.eta_c) < 1e-12
            assert abs((back.phi_c - e.phi_c + math.pi) % TWO_PI
                       - math.pi) < 1e-12
            assert abs(back.a - e.a) < 1e-12
            assert abs(back.b - e.b) < 1e-12
            dt = abs(back.theta - e.theta) % math.pi
            assert min(dt, math.pi - dt) < 1e-12

    # theta is only identifiable away from the circular case a == b,
    # where canonicalization may legitimately swap the axes
    @given(eta=st.floats(-2, 2), phi=st.floats(0, 6.28),
           a=st.floats(0.01, 0.5), ratio=st.floats(0.1, 0.99),
           theta=st.floats(0, 3.14))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_hypothesis(self, eta, phi, a, ratio, theta):
        e = make_ellipse(eta, phi, a, a * ratio, theta)
        back = decode_box(encode_box(e, (eta, phi)), (eta, phi))
        assert back.a == pytest.approx(e.a, rel=1e-12)
        assert back.b == pytest.approx(e.b, rel=1e-12)
        dt = abs(back.theta - e.theta) % math.pi
        assert min(dt, math.pi - dt) < 1e-9


class TestMembership:
    def test_center(self):
        e = make_ellipse(0.1, 1.0, 0.2, 0.1, 0.5)
        assert point_in_ellipse(e, (0.1, 1.0))

    def test_boundary_inclusive(self):
        e = make_ellipse(0.0, 1.0, 0.2, 0.1, 0.3)
        tip = (0.2 * math.cos(0.3), 1.0 + 0.2 * math.sin(0.3))
        assert point_in_ellipse(e, tip)
        beyond = (0.2 * 1.001 * math.cos(0.3),
                  1.0 + 0.2 * 1.001 * math.sin(0.3))
        assert not point_in_ellipse(e, beyond)

    def test_phi_wrap(self):
        e = make_ellipse(0.0, 0.01, 0.1, 0.05, 0.0)
        assert point_in_ellipse(e, (0.0, TWO_PI - 0.01))


class TestIou:
    def test_identical(self):
        e = make_ellipse(0.3, 2.0, 0.2, 0.1, 1.0)
        assert ellipse_iou(e, e) == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_exact_zero(self):
        e1 = make_ellipse(0.0, 1.0, 0.1, 0.05, 0.0)
        e2 = make_ellipse(1.0, 1.0, 0.1, 0.05, 0.0)
        assert ellipse_iou(e1, e2) == 0.0

    def test_two_unit_circles(self):
        e1 = make_ellipse(0.0, 3.0, 1.0, 1.0, 0.0)
        e2 = make_ellipse(1.0, 3.0, 1.0, 1.0, 0.0)
        lens = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
        expected = lens / (2.0 * math.pi - lens)
        assert ellipse_iou(e1, e2) == pytest.approx(expected, abs=0.005)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            e1, e2 = random_ellipse(rng), random_ellipse(rng)
            assert ellipse_iou(e1, e2) == pytest.approx(
                ellipse_iou(e2, e1), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e1 = random_ellipse(rng)
            e2 = make_ellipse(e1.eta_c + rng.uniform(-0.1, 0.1),
                              e1.phi_c + rng.uniform(-0.1, 0.1),
                              e1.a, e1.b, e1.theta)
            assert 0.0 <= ellipse_iou(e1, e2) <= 1.0

    def test_dilation_monotone(self):
        e = make_ellipse(0.0, 1.0, 0.2, 0.1, 0.7)
        factors = [1.2, 1.5, 2.0, 3.0]
        ious = [ellipse_iou(e, make_ellipse(e.eta_c, e.phi_c, e.a * k,
                                            e.b * k, e.theta))
                for k in factors]
        assert all(x > y for x, y in zip(ious, ious[1:]))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            e1 = random_ellipse(rng, a_range=(0.1, 0.3))
            e2 = make_ellipse(e1.eta_c + rng.uniform(-0.2, 0.2),
                              e1.phi_c + rng.uniform(-0.2, 0.2),
                              rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.1),
                              rng.uniform(0, math.pi))
            mc = monte_carlo_iou(e1, e2, 200_000, seed=trial)
            assert ellipse_iou(e1, e2) == pytest.approx(mc, abs=0.01)

    def test_phi_translation_equivariance(self):
        rng = np.random.default_rng(9)
        e1, e2 = random_ellipse(rng), random_ellipse(rng)
        base = ellipse_iou(e1, e2)
        for shift in (1.0, 3.0, 6.0):
            s1 = make_ellipse(e1.eta_c, e1.phi_c + shift, e1.a, e1.b,
                              e1.theta)
            s2 = make_ellipse(e2.eta_c, e2.phi_c + shift, e2.a, e2.b,
                              e2.theta)
            assert ellipse_iou(s1, s2) == pytest.approx(base, abs=1e-9)


class TestMvee:
    def test_unit_square(self):
        e = mvee(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        r = math.sqrt(2.0) / 2.0
        assert e.eta_c == pytest.approx(0.5, abs=1e-3)
        assert e.phi_c == pytest.approx(0.5, abs=1e-3)
        assert e.a == pytest.approx(r, abs=1e-3)
        assert e.b == pytest.approx(r, abs=1e-3)

    def test_single_point(self):
        e = mvee(np.array([[0.3, 1.5]]))
        assert (e.eta_c, e.phi_c) == (0.3, 1.5)
        assert e.a == AXIS_FLOOR and e.b == AXIS_FLOOR

    def test_boundary_recovery(self):
        t = np.linspace(0, TWO_PI, 48, endpoint=False)
        a0, b0, th = 0.3, 0.1, 0.7
        pts = np.stack([
            0.5 + a0 * np.cos(t) * math.cos(th) - b0 * np.sin(t)
            * math.sin(th),
            2.0 + a0 * np.cos(t) * math.sin(th) + b0 * np.sin(t)
            * math.cos(th)], axis=1)
        e = mvee(pts)
        assert e.a == pytest.approx(a0, abs=1e-3)
        assert e.b == pytest.approx(b0, abs=1e-3)
        assert e.theta == pytest.approx(th, abs=1e-3)

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [0.05, 0.0], [0.1, 0.0], [0.15, 0.0],
                        [0.2, 0.0]])
        e = mvee(pts)
        assert e.a == pytest.approx(0.1, abs=1e-12)  # half the span
        assert e.b == AXIS_FLOOR
        assert e.theta in (pytest.approx(0.0, abs=1e-12),
                           pytest.approx(math.pi, abs=1e-12))

    def test_containment_property(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            pts = rng.normal(0, 1, (k, 2)) * rng.uniform(1e-3, 0.5, 2)
            e = mvee(pts)
            inflated = Ellipse5(e.eta_c, e.phi_c, e.a * (1 + 1e-6),
                                e.b * (1 + 1e-6), e.theta)
            assert np.all(point_in_ellipse_quadform(
                inflated, pts[:, 0], pts[:, 1]))

    def test_phi_seam(self):
        pts = np.array([[0.0, 0.05], [0.0, TWO_PI - 0.05], [0.1, 0.01]])
        e = mvee(pts)
        for p in pts:
            assert point_in_ellipse(e, tuple(p))
        assert e.a < 0.5  # did not span the whole circle

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mvee(np.zeros((0, 2)))
