import math

import numpy as np
import pytest

from oracles import sample_circle
from trackseg.errors import DomainError, FitError
from trackseg.kinematics import (CircleTrack, ParabolaCoeffs,
                                 canonical_parabola_coeffs, conformal_xy,
                                 extract_track_params, fit_parabola,
                                 fit_track_conformal, pseudorapidity,
                                 pt_from_radius)

# -ln(tan(pi/6)) = ln(3)/2, evaluated independently at high precision
ETA_AT_PI_OVER_3 = 0.5493061443340548


class TestConformal:
    def test_on_axis(self):
        u, v = conformal_xy(2.0, 0.0)
        assert (u, v) == (0.5, 0.0)

    def test_symmetric(self):
        u, v = conformal_xy(1.0, 1.0)
        assert (u, v) == (0.5, 0.5)

    def test_prompt_circle_point_hits_line_form(self):
        # (0, 2) lies on the circle through the origin with a=0, b=1
        u, v = conformal_xy(0.0, 2.0)
        assert u == 0.0
        assert v == pytest.approx(1.0 / (2.0 * 1.0), abs=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            conformal_xy(0.0, 0.0)

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            r = 10.0 ** rng.uniform(-3, 3)
            ang = rng.uniform(0, 2 * math.pi)
            x, y = r * math.cos(ang), r * math.sin(ang)
            qx, qy = conformal_xy(*conformal_xy(x, y))
            assert abs(qx - x) <= 1e-12 * max(1.0, abs(x))
            assert abs(qy - y) <= 1e-12 * max(1.0, abs(y))


class TestPseudorapidity:
    def test_midplane(self):
        assert pseudorapidity(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_analytic_inverse(self):
        assert pseudorapidity(2.0 * math.atan(math.exp(-1.0))) == \
            pytest.approx(1.0, abs=1e-14)

    def test_pi_over_3(self):
        assert pseudorapidity(math.pi / 3) == \
            pytest.approx(ETA_AT_PI_OVER_3, abs=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(1e-3, math.pi - 1e-3, 200):
            assert pseudorapidity(math.pi - theta) == \
                pytest.approx(-pseudorapidity(theta), abs=1e-12)

    def test_strictly_decreasing(self):
        thetas = np.linspace(0.1, math.pi - 0.1, 50)
        etas = [pseudorapidity(t) for t in thetas]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    # the smallest positive theta halves to 0
    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.1, 4.0, 5e-324])
    def test_domain(self, theta):
        with pytest.raises(DomainError):
            pseudorapidity(theta)


class TestPtFromRadius:
    def test_values(self):
        assert pt_from_radius(2.0, 1.0) == pytest.approx(0.6)
        # inverts the 2 GeV selection radius at B = 2 T
        assert pt_from_radius(2.0, 10.0 / 3.0) == pytest.approx(2.0)

    def test_linear(self):
        assert pt_from_radius(4.0, 3.0) == \
            pytest.approx(2 * pt_from_radius(2.0, 3.0))

    @pytest.mark.parametrize("b,r", [(1.0, 0.0), (0.0, 1.0), (-2.0, 1.0)])
    def test_domain(self, b, r):
        with pytest.raises(DomainError):
            pt_from_radius(b, r)


class TestFitParabola:
    def test_constant(self):
        c = fit_parabola([(0.0, 0.5), (0.1, 0.5), (0.2, 0.5)])
        assert c.c0 == pytest.approx(0.5, abs=1e-12)
        assert c.c1 == pytest.approx(0.0, abs=1e-12)
        assert c.c2 == pytest.approx(0.0, abs=1e-12)

    def test_three_point_interpolation(self):
        c = fit_parabola(np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 9.0]]))
        assert (c.c0, c.c1, c.c2) == (
            pytest.approx(1.0, abs=1e-10), pytest.approx(0.0, abs=1e-10),
            pytest.approx(2.0, abs=1e-10))
        for u, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 9.0)]:
            assert c.c0 + c.c1 * u + c.c2 * u * u == pytest.approx(v, abs=1e-9)

    def test_noiseless_line(self):
        u = np.linspace(-1.0, 3.0, 50)
        pts = np.stack([u, 0.25 - 0.5 * u], axis=1)
        c = fit_parabola(pts)
        assert c.c0 == pytest.approx(0.25, abs=1e-12)
        assert c.c1 == pytest.approx(-0.5, abs=1e-12)
        assert c.c2 == pytest.approx(0.0, abs=1e-12)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-2, 2, 30)
        v = rng.normal(0, 1, 30)
        c = fit_parabola(np.stack([u, v], axis=1))
        refit = fit_parabola(
            np.stack([u, c.c0 + c.c1 * u + c.c2 * u * u], axis=1))
        assert refit.c0 == pytest.approx(c.c0, abs=1e-12)
        assert refit.c1 == pytest.approx(c.c1, abs=1e-12)
        assert refit.c2 == pytest.approx(c.c2, abs=1e-12)

    def test_identical_u_rejected(self):
        with pytest.raises(FitError):
            fit_parabola(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))

    def test_near_degenerate_reports_condition(self):
        pts = np.array([[1.0, 0.0], [1.0 + 1e-14, 1.0], [1.0 - 1e-14, 2.0]])
        with pytest.raises(FitError) as err:
            fit_parabola(pts)
        assert err.value.condition is None or err.value.condition > 1e10 \
            or "identical" in str(err.value)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_parabola(np.array([[0.0, 1.0], [1.0, 2.0]]))


class TestExtractTrackParams:
    def test_prompt(self):
        t = extract_track_params(ParabolaCoeffs(0.5, 0.0, 0.0), 2.0)
        assert (t.b, t.a, t.eps_t) == (1.0, 0.0, 0.0)
        assert t.p_t == pytest.approx(0.6)

    def test_displaced_line(self):
        t = extract_track_params(ParabolaCoeffs(0.25, -0.5, 0.0), 2.0)
        assert (t.b, t.a) == (2.0, 1.0)
        assert t.eps_t == 0.0
        assert t.p_t == pytest.approx(0.6 * math.sqrt(5.0))

    def test_zero_c0(self):
        with pytest.raises(DomainError):
            extract_track_params(ParabolaCoeffs(0.0, 1.0, 0.0), 2.0)

    @pytest.mark.parametrize("side", [+1, -1])
    def test_round_trip_exact_circle(self, side):
        # oracle: exact circle sampler, independent of the fit under test
        a0, b0, eps = 0.1, 1.0, 5e-4
        d = math.hypot(a0, b0)
        radius = d + side * eps
        pts = sample_circle(a0, b0, radius, np.linspace(0.03, 0.2, 12))
        t = fit_track_conformal(pts, 2.0)
        assert t.a == pytest.approx(a0, rel=1e-3)
        assert t.b == pytest.approx(b0, rel=1e-3)
        assert abs(t.eps_t) == pytest.approx(eps, rel=5e-2)
        assert t.p_t == pytest.approx(0.6 * radius, rel=1e-3)


class TestPromptCircleLinearity:
    def test_line_form_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            radius = rng.uniform(1.0, 5.0)
            beta = rng.uniform(0.15, math.pi - 0.15)  # keep |b| away from 0
            if rng.integers(0, 2):
                beta = -beta
            a0 = radius * math.cos(beta)
            b0 = radius * math.sin(beta)
            pts = sample_circle(a0, b0, radius, np.linspace(0.02, 0.3, 10))
            u = pts[:, 0] / (pts[:, 0]**2 + pts[:, 1]**2)
            v = pts[:, 1] / (pts[:, 0]**2 + pts[:, 1]**2)
            residual = np.abs(v - (1.0 / (2.0 * b0) - u * a0 / b0))
            assert residual.max() < 1e-9


class TestDisplacedParabolaAccuracy:
    def test_residual_shrinks_quadratically(self):
        # residual of the best parabola is O(delta^2): halving delta must
        # shrink it by roughly 4x
        a0, b0 = 0.05, 2.0
        d = math.hypot(a0, b0)
        arcs = np.linspace(0.03, 0.25, 20)

        def residual(delta):
            radius = math.sqrt(d * d + delta)
            pts = sample_circle(a0, b0, radius, arcs)
            u = pts[:, 0] / (pts[:, 0]**2 + pts[:, 1]**2)
            v = pts[:, 1] / (pts[:, 0]**2 + pts[:, 1]**2)
            c = fit_parabola(np.stack([u, v], axis=1))
            return np.abs(v - (c.c0 + c.c1 * u + c.c2 * u * u)).max()

        delta = 1e-3 * d * d
        r1, r2 = residual(delta), residual(delta / 2.0)
        assert r1 / r2 >= 3.5


class TestCircleTrack:
    def test_invalid(self):
        with pytest.raises(DomainError):
            CircleTrack(0.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            CircleTrack(0.0, 0.0, math.inf)


def test_canonical_coeffs_match_raw_fit_when_well_oriented():
    a0, b0, radius = 0.1, 1.0, math.hypot(0.1, 1.0)
    pts = sample_circle(a0, b0, radius, np.linspace(0.03, 0.2, 8))
    u = pts[:, 0] / (pts[:, 0]**2 + pts[:, 1]**2)
    v = pts[:, 1] / (pts[:, 0]**2 + pts[:, 1]**2)
    raw = fit_parabola(np.stack([u, v], axis=1))
    canon = canonical_parabola_coeffs(pts)
    # same circle, so both fits recover the same radius
    t_raw = extract_track_params(raw, 2.0)
    t_can = extract_track_params(canon, 2.0)
    assert t_can.p_t == pytest.approx(t_raw.p_t, rel=1e-6)
