import math

import numpy as np
import pytest

from oracles import parabola_fit_oracle, sample_circle
from trackseg.errors import DomainError
from trackseg.kinematics import (FIT_CONDITION_LIMIT, canonical_fits,
                                 conformal_xy, fit_parabolas, pseudorapidity,
                                 track_params)

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
        with pytest.raises(DomainError, match=f"got {theta}"):
            pseudorapidity(np.array([1.0, theta]))

    def test_array_is_the_scalar_formula_bit_for_bit(self):
        thetas = np.random.default_rng(3).uniform(1e-6, math.pi - 1e-6,
                                                  4444)
        etas = pseudorapidity(thetas)
        assert etas.dtype == np.float64 and etas.shape == thetas.shape
        assert [e.hex() for e in etas.tolist()] == \
            [(-math.log(math.tan(0.5 * t))).hex() for t in thetas.tolist()]
        assert pseudorapidity(float(thetas[0])) == etas[0]
        assert pseudorapidity(np.empty(0)).shape == (0,)


def fit_parabola(points):
    """The fitted coefficients of one set of (u, v) rows."""
    return fit_parabolas(points, [len(points)])[0]


def one_track(coeffs, field_b=2.0):
    """(p_T, eps_T, a, b) of one coefficient row fitted unrotated."""
    return track_params([coeffs], np.zeros(1), field_b)[0]


def fit_track(xy, field_b=2.0):
    """(p_T, eps_T, a, b) of one (x, y) hit set through the canonical
    frame."""
    coeffs, alpha = canonical_fits(xy, [len(xy)])
    return track_params(coeffs, alpha, field_b)[0]


class TestPtFromRadius:
    # a prompt circle centred at (0, R) has the coefficients (1/(2R), 0, 0)
    def test_values(self):
        assert one_track([0.5, 0.0, 0.0])[0] == pytest.approx(0.6)
        # inverts the 2 GeV selection radius at B = 2 T
        assert one_track([0.15, 0.0, 0.0])[0] == pytest.approx(2.0)

    def test_linear(self):
        assert one_track([1 / 6, 0.0, 0.0], 4.0)[0] == \
            pytest.approx(2 * one_track([1 / 6, 0.0, 0.0], 2.0)[0])


class TestFitParabola:
    def test_constant(self):
        c0, c1, c2 = fit_parabola([(0.0, 0.5), (0.1, 0.5), (0.2, 0.5)])
        assert c0 == pytest.approx(0.5, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)

    def test_three_point_interpolation(self):
        c0, c1, c2 = fit_parabola(
            np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 9.0]]))
        assert (c0, c1, c2) == (
            pytest.approx(1.0, abs=1e-10), pytest.approx(0.0, abs=1e-10),
            pytest.approx(2.0, abs=1e-10))
        for u, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 9.0)]:
            assert c0 + c1 * u + c2 * u * u == pytest.approx(v, abs=1e-9)

    def test_noiseless_line(self):
        u = np.linspace(-1.0, 3.0, 50)
        pts = np.stack([u, 0.25 - 0.5 * u], axis=1)
        c0, c1, c2 = fit_parabola(pts)
        assert c0 == pytest.approx(0.25, abs=1e-12)
        assert c1 == pytest.approx(-0.5, abs=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-2, 2, 30)
        v = rng.normal(0, 1, 30)
        c = fit_parabola(np.stack([u, v], axis=1))
        refit = fit_parabola(
            np.stack([u, c[0] + c[1] * u + c[2] * u * u], axis=1))
        assert refit == pytest.approx(c, abs=1e-12)

    def test_identical_u_rejected(self):
        assert np.isnan(fit_parabola(
            np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))).all()

    def test_near_degenerate_rejected(self):
        pts = np.array([[1.0, 0.0], [1.0 + 1e-14, 1.0], [1.0 - 1e-14, 2.0]])
        assert np.isnan(fit_parabola(pts)).all()

    def test_too_few_points(self):
        assert np.isnan(fit_parabola(
            np.array([[0.0, 1.0], [1.0, 2.0]]))).all()

    def test_matches_the_scalar_oracle(self):
        # random sets of mixed sizes, the degenerate sizes among them
        rng = np.random.default_rng(5)
        sets = [rng.normal(size=(k, 2)) * [1.0, 3.0]
                for k in rng.permutation([1, 2, 3, 4, 12] * 40)]
        expected = [parabola_fit_oracle(p, FIT_CONDITION_LIMIT)
                    for p in sets]
        got = fit_parabolas(np.concatenate(sets), [len(p) for p in sets])
        assert got.shape == (len(sets), 3)
        assert np.isnan(got[[len(p) < 3 for p in sets]]).all()
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)

    def test_row_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(6)
        longer = rng.normal(size=(20, 2))
        for k in (1, 2, 3, 4, 7, 12, 19):
            points = rng.normal(size=(k, 2))
            alone = fit_parabolas(points, [k])[0]
            batched = fit_parabolas(np.concatenate([points, longer]),
                                    [k, 20])[0]
            assert alone.tobytes() == batched.tobytes()
            xy = points + [3.0, 0.0]
            alone, alpha = canonical_fits(xy, [k])
            batched, alphas = canonical_fits(
                np.concatenate([longer + [3.0, 0.0], xy]), [20, k])
            assert alone[0].tobytes() == batched[1].tobytes()
            assert alpha[0] == alphas[1]

    def test_empty_list(self):
        assert fit_parabolas(np.zeros((0, 2)), []).shape == (0, 3)
        coeffs, alpha = canonical_fits(np.zeros((0, 2)), [])
        assert coeffs.shape == (0, 3) and alpha.shape == (0,)
        assert track_params(coeffs, alpha, 2.0).shape == (0, 4)


class TestExtractTrackParams:
    def test_prompt(self):
        p_t, eps_t, a, b = one_track([0.5, 0.0, 0.0])
        assert (b, a, eps_t) == (1.0, 0.0, 0.0)
        assert p_t == pytest.approx(0.6)

    def test_displaced_line(self):
        p_t, eps_t, a, b = one_track([0.25, -0.5, 0.0])
        assert (b, a) == (2.0, 1.0)
        assert eps_t == 0.0
        assert p_t == pytest.approx(0.6 * math.sqrt(5.0))

    def test_zero_c0(self):
        assert np.isnan(one_track([0.0, 1.0, 0.0])).all()
        rows = track_params([[0.5, 0.0, 0.0], [np.nan] * 3], np.zeros(2),
                            2.0)
        assert not np.isnan(rows[0]).any() and np.isnan(rows[1]).all()

    @pytest.mark.parametrize("side", [+1, -1])
    def test_round_trip_exact_circle(self, side):
        # oracle: exact circle sampler, independent of the fit under test
        a0, b0, eps = 0.1, 1.0, 5e-4
        d = math.hypot(a0, b0)
        radius = d + side * eps
        pts = sample_circle(a0, b0, radius, np.linspace(0.03, 0.2, 12))
        p_t, eps_t, a, b = fit_track(pts)
        assert a == pytest.approx(a0, rel=1e-3)
        assert b == pytest.approx(b0, rel=1e-3)
        assert abs(eps_t) == pytest.approx(eps, rel=5e-2)
        assert p_t == pytest.approx(0.6 * radius, rel=1e-3)


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
            c0, c1, c2 = fit_parabola(np.stack([u, v], axis=1))
            return np.abs(v - (c0 + c1 * u + c2 * u * u)).max()

        delta = 1e-3 * d * d
        r1, r2 = residual(delta), residual(delta / 2.0)
        assert r1 / r2 >= 3.5


def test_canonical_coeffs_match_raw_fit_when_well_oriented():
    a0, b0, radius = 0.1, 1.0, math.hypot(0.1, 1.0)
    pts = sample_circle(a0, b0, radius, np.linspace(0.03, 0.2, 8))
    u = pts[:, 0] / (pts[:, 0]**2 + pts[:, 1]**2)
    v = pts[:, 1] / (pts[:, 0]**2 + pts[:, 1]**2)
    # same circle, so both fits recover the same radius
    p_raw = one_track(fit_parabola(np.stack([u, v], axis=1)))[0]
    assert fit_track(pts)[0] == pytest.approx(p_raw, rel=1e-6)
