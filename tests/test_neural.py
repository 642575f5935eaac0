import math

import numpy as np
import pytest

from trackseg.errors import ConfigError, ShapeError, StateError
from trackseg.neural import (AdamState, MlpSpec, Tape, adam_step, bce_loss,
                             gradients, huber_loss, mlp_forward,
                             mse_tracking_loss)
from trackseg.neural import autodiff as ad


def finite_difference(f, x0, h=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp.flat[i] += h
        xm = x0.copy()
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def check_op_gradient(build, x0, h=1e-6, tol=1e-6):
    """build(tape, var) -> scalar Var; compares reverse-mode against
    central differences."""
    def value(x):
        t = Tape()
        v = t.leaf(x)
        return float(build(t, v).data)

    t = Tape()
    v = t.leaf(x0)
    loss = build(t, v)
    t.backward(loss)
    fd = finite_difference(value, x0, h)
    assert np.allclose(v.grad, fd, rtol=tol, atol=tol), \
        f"analytic {v.grad} vs fd {fd}"


class TestPrimitiveGradients:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, (3, 2))

        def build(t, v):
            return ad.sum_all(ad.mul(ad.matmul(v, t.const(w)),
                                     t.const(rng_fixed)))

        rng_fixed = rng.normal(0, 1, (4, 2))
        check_op_gradient(build, rng.normal(0, 1, (4, 3)))

    def test_bias_add(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (5, 3))

        def build(t, v):
            return ad.sum_all(ad.square(ad.add(t.const(x), v)))

        check_op_gradient(build, rng.normal(0, 1, 3))

    def test_relu_away_from_kink(self):
        x0 = np.array([[0.5, -0.7], [1.2, -0.1]])
        check_op_gradient(lambda t, v: ad.sum_all(ad.relu(v)), x0)

    def test_sigmoid(self):
        rng = np.random.default_rng(2)
        check_op_gradient(
            lambda t, v: ad.sum_all(ad.square(ad.sigmoid(v))),
            rng.normal(0, 2, (4, 3)))

    def test_log_clip_interior(self):
        x0 = np.array([[0.3, 0.6], [0.9, 0.2]])
        check_op_gradient(
            lambda t, v: ad.sum_all(ad.log(ad.clip(v, 1e-12, 1 - 1e-12))),
            x0)

    def test_clip_blocks_gradient_outside(self):
        t = Tape()
        v = t.leaf(np.array([2.0, 0.5]))
        loss = ad.sum_all(ad.clip(v, 0.0, 1.0))
        t.backward(loss)
        assert v.grad[0] == 0.0 and v.grad[1] == 1.0

    def test_huber_both_branches(self):
        x0 = np.array([[0.4, -0.3], [1.7, -2.5]])
        check_op_gradient(
            lambda t, v: ad.sum_all(ad.huber_elem(v, 1.0)), x0)

    def test_concat_slice_gather(self):
        rng = np.random.default_rng(3)
        idx = np.array([2, 0, 1, 2])

        def build(t, v):
            g = ad.gather_rows(v, idx)
            c = ad.concat_cols([g, ad.scale(g, 2.0)])
            return ad.sum_all(ad.square(ad.slice_cols(c, 1, 3)))

        check_op_gradient(build, rng.normal(0, 1, (3, 2)))

    def test_segment_max_gradient_routing(self):
        # upstream gradient flows only to the argmax entries
        x0 = np.array([[1.0, 2.0], [3.0, 0.5], [0.2, 0.9]])
        seg = np.array([0, 0, 1])
        t = Tape()
        v = t.leaf(x0)
        out = ad.segment_max(v, seg, 2)
        t.backward(ad.sum_all(out))
        expected = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(v.grad, expected)

    def test_segment_max_finite_difference(self):
        rng = np.random.default_rng(4)
        seg = np.array([0, 1, 0, 1, 0])
        x0 = rng.normal(0, 1, (5, 3))

        def build(t, v):
            return ad.sum_all(ad.square(ad.segment_max(v, seg, 2)))

        check_op_gradient(build, x0)


def max_aggregate(features, segment_ids, num_segments):
    """Forward value of segment_max on a plain array."""
    v = Tape().const(np.asarray(features, dtype=float))
    return ad.segment_max(v, segment_ids, num_segments).data


class TestMaxAggregate:
    """Forward contract of segment_max, the per-vertex max aggregation."""

    def test_identity_single_edges(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = max_aggregate(feats, np.array([0, 1]), 2)
        assert np.array_equal(out, feats)

    def test_componentwise(self):
        out = max_aggregate(np.array([[1.0, 2.0], [3.0, 0.0]]),
                            np.array([0, 0]), 1)
        assert np.array_equal(out, np.array([[3.0, 2.0]]))

    def test_empty_segment_zeros(self):
        out = max_aggregate(np.array([[1.0, -2.0]]), np.array([1]), 3)
        assert np.array_equal(out[0], np.zeros(2))
        assert np.array_equal(out[2], np.zeros(2))
        assert np.array_equal(out[1], np.array([1.0, -2.0]))

    def test_tie_routes_to_lowest_index(self):
        t = Tape()
        v = t.leaf(np.array([[5.0], [5.0]]))
        out = ad.segment_max(v, np.array([0, 0]), 1)
        t.backward(ad.sum_all(out))
        assert np.array_equal(v.grad, np.array([[1.0], [0.0]]))
        assert t.kink_margin == 0.0  # a tie is a kink

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            max_aggregate(np.ones((2, 2)), np.array([0, 5]), 2)


class TestMlp:
    def test_zero_weights_bias_only(self):
        spec = MlpSpec((3, 2), output_activation="identity")
        t = Tape()
        params = {"W0": t.const(np.zeros((3, 2))),
                  "b0": t.const(np.array([0.5, -1.0]))}
        out = mlp_forward(spec, params, t.const(np.random.default_rng(0)
                                                .normal(0, 1, (4, 3))))
        assert np.allclose(out.data, np.tile([0.5, -1.0], (4, 1)))

    def test_identity_layer(self):
        spec = MlpSpec((3, 3))
        t = Tape()
        params = {"W0": t.const(np.eye(3)), "b0": t.const(np.zeros(3))}
        x = np.random.default_rng(1).normal(0, 1, (5, 3))
        out = mlp_forward(spec, params, t.const(x))
        assert np.array_equal(out.data, x)

    def test_hand_unrolled_relu_net(self):
        # one hidden relu layer evaluated by hand
        spec = MlpSpec((2, 2, 1))
        w0 = np.array([[1.0, -1.0], [2.0, 0.5]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[1.0], [-2.0]])
        b1 = np.array([0.3])
        x = np.array([[0.5, -1.0]])
        hidden = np.maximum(x @ w0 + b0, 0.0)
        expected = hidden @ w1 + b1
        t = Tape()
        params = {"W0": t.const(w0), "b0": t.const(b0),
                  "W1": t.const(w1), "b1": t.const(b1)}
        out = mlp_forward(spec, params, t.const(x))
        assert np.allclose(out.data, expected)

    def test_shape_error_names_both(self):
        spec = MlpSpec((3, 2))
        t = Tape()
        params = {"W0": t.const(np.zeros((3, 2))),
                  "b0": t.const(np.zeros(2))}
        with pytest.raises(ShapeError, match="4.*3|3.*4"):
            mlp_forward(spec, params, t.const(np.zeros((1, 4))))

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            MlpSpec((3,))
        with pytest.raises(ConfigError):
            MlpSpec((3, 2), hidden_activation="tanh")


class TestBce:
    def test_perfect(self):
        assert bce_loss([1.0], [1.0 - 1e-15]) == pytest.approx(0.0, abs=1e-9)

    def test_half(self):
        assert bce_loss([1.0], [0.5]) == pytest.approx(math.log(2.0))

    def test_two_sample(self):
        expected = -(math.log(0.9) + math.log(0.9)) / 2.0
        assert bce_loss([1.0, 0.0], [0.9, 0.1]) == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss([1.0, 0.0], [0.5])

    def test_convex_in_logit(self):
        logits = np.linspace(-6, 6, 121)
        values = [bce_loss([1.0], [1.0 / (1.0 + math.exp(-z))])
                  for z in logits]
        second = np.diff(values, 2)
        assert np.all(second >= -1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            y = rng.integers(0, 2, n).astype(float)
            p = rng.uniform(0, 1, n)
            assert bce_loss(y, p) >= 0.0


class TestHuber:
    def test_zero(self):
        assert huber_loss(np.zeros((3, 5)), np.zeros((3, 5)),
                          np.ones(3)) == 0.0

    def test_quadratic_branch(self):
        pred = np.zeros((1, 5))
        target = np.zeros((1, 5))
        target[0, 0] = -0.5
        assert huber_loss(pred, target, [1.0], delta=1.0) == \
            pytest.approx(0.125)

    def test_linear_branch(self):
        pred = np.zeros((1, 5))
        target = np.zeros((1, 5))
        target[0, 0] = -2.0
        assert huber_loss(pred, target, [1.0], delta=1.0) == \
            pytest.approx(1.5)

    def test_mask_and_normalization(self):
        pred = np.zeros((4, 5))
        target = np.zeros((4, 5))
        target[:, 0] = -2.0
        # only two vertices masked in, averaged over all four
        assert huber_loss(pred, target, [1, 1, 0, 0], delta=1.0) == \
            pytest.approx(2 * 1.5 / 4)

    def test_continuity_at_knot(self):
        delta = 1.0
        eps = 1e-9
        below = huber_loss(np.array([[delta - eps, 0, 0, 0, 0]]),
                           np.zeros((1, 5)), [1.0], delta)
        above = huber_loss(np.array([[delta + eps, 0, 0, 0, 0]]),
                           np.zeros((1, 5)), [1.0], delta)
        assert abs(above - below) < 1e-8
        # derivative continuity: clamp(x) is continuous by construction
        assert abs((above - below) / (2 * eps) - delta) < 1e-4

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            value = huber_loss(rng.normal(0, 2, (n, 5)),
                               rng.normal(0, 2, (n, 5)),
                               rng.integers(0, 2, n).astype(float))
            assert value >= 0.0


class TestMseTracking:
    def test_perfect(self):
        assert mse_tracking_loss([[2.0, 1e-4]], [[2.0, 1e-4]]) == 0.0

    def test_unit_scale_residual(self):
        assert mse_tracking_loss([[3.0, 0.0]], [[2.0, 0.0]],
                                 scales=(1.0, 1e-3)) == pytest.approx(1.0)

    def test_two_cluster_average(self):
        pred = [[3.0, 0.0], [2.0, 1e-3]]
        truth = [[2.0, 0.0], [2.0, 0.0]]
        assert mse_tracking_loss(pred, truth, scales=(1.0, 1e-3)) == \
            pytest.approx(1.0)

    def test_empty_warns_zero(self):
        with pytest.warns(RuntimeWarning):
            value = mse_tracking_loss(np.zeros((0, 2)), np.zeros((0, 2)))
        assert value == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            assert mse_tracking_loss(rng.normal(0, 3, (n, 2)),
                                     rng.normal(0, 3, (n, 2))) >= 0.0


class TestAdam:
    def test_zero_gradient_no_decay(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(lr=1e-3, weight_decay=0.0)
        adam_step(state, params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], np.array([1.0, -2.0]))

    def test_first_step_magnitude(self):
        params = {"w": np.zeros(4)}
        state = AdamState(lr=1e-3, weight_decay=0.0)
        adam_step(state, params, {"w": np.ones(4)})
        assert np.allclose(params["w"], -1e-3, rtol=1e-6)

    def test_against_scripted_recurrence(self):
        # oracle: straight-line transcription of the Adam update rules
        lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 1e-2
        w = np.array([0.5, -1.5])
        m = np.zeros(2)
        v = np.zeros(2)
        grads = [np.array([1.0, -2.0]), np.array([0.3, 0.7]),
                 np.array([-1.1, 0.0])]
        expected = w.copy()
        me, ve = m.copy(), v.copy()
        for t, g in enumerate(grads, start=1):
            expected = expected * (1.0 - lr * wd)
            me = b1 * me + (1 - b1) * g
            ve = b2 * ve + (1 - b2) * g * g
            mhat = me / (1 - b1**t)
            vhat = ve / (1 - b2**t)
            expected = expected - lr * mhat / (np.sqrt(vhat) + eps)

        params = {"w": w.copy()}
        state = AdamState(lr=lr, beta1=b1, beta2=b2, eps_hat=eps,
                          weight_decay=wd)
        for g in grads:
            adam_step(state, params, {"w": g})
        assert np.array_equal(params["w"], expected)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(8)
            params = {"w": rng.normal(0, 1, (3, 3))}
            state = AdamState(lr=1e-3)
            trace = []
            for _ in range(5):
                adam_step(state, params, {"w": rng.normal(0, 1, (3, 3))})
                trace.append(params["w"].copy())
            return trace

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        state = AdamState()
        with pytest.raises(ShapeError):
            adam_step(state, {"w": np.zeros(2)}, {"w": np.zeros(3)})


class TestGradients:
    def test_sum_of_params(self):
        t = Tape()
        leaves = {"w": t.leaf(np.array([1.0, 2.0, 3.0]))}
        g = gradients(ad.sum_all(leaves["w"]), leaves)
        assert np.array_equal(g["w"], np.ones(3))

    def test_quadratic(self):
        t = Tape()
        w0 = np.random.default_rng(9).normal(0, 1, (3, 2))
        leaves = {"w": t.leaf(w0)}
        loss = ad.scale(ad.sum_all(ad.square(leaves["w"])), 0.5)
        g = gradients(loss, leaves)
        assert np.allclose(g["w"], w0)

    def test_tape_reuse_rejected(self):
        t = Tape()
        v = t.leaf(np.array([1.0]))
        loss = ad.sum_all(v)
        t.backward(loss)
        with pytest.raises(StateError):
            t.backward(loss)
        # a tape ended by its context manager is used up as well
        with Tape() as t:
            loss = ad.sum_all(t.leaf(np.array([1.0, 2.0])))
        assert loss.item() == 3.0
        with pytest.raises(StateError):
            t.backward(loss)

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(StateError):
            ad.add(t1.leaf(np.zeros(2)), t2.leaf(np.zeros(2)))

    def test_nan_check_mode(self):
        t = Tape(nan_check=True)
        v = t.leaf(np.array([1.0, 0.0]))
        with np.errstate(divide="ignore"):
            with pytest.raises(FloatingPointError):
                ad.log(v)
