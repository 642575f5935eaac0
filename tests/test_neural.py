import math
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import segment_max_oracle
from trackseg.errors import ConfigError, ShapeError
from trackseg.neural import autodiff as ad
from trackseg.neural.autodiff import Segments
from trackseg.tracknet import ModelConfig
from trackseg.neural.nn import (HUBER_DELTA, AdamState, MlpSpec, adam_step,
                                bce_loss, huber_loss, mlp_forward,
                                mse_tracking_loss)


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


def check_op_gradient(op, x0, w, h=1e-6, tol=1e-6):
    """Compares the backward of the array op `op` at x0, run on the
    weights w, against central differences of sum(w * op(x)[0])."""
    analytic = op(x0)[1](w)
    fd = finite_difference(lambda x: float(np.sum(w * op(x)[0])), x0, h)
    assert np.allclose(analytic, fd, rtol=tol, atol=tol), \
        f"analytic {analytic} vs fd {fd}"


def layers_of(slots):
    """(W, b, dW, db) layer tuples for slots = [(W0, dW0), (b0, db0),
    (W1, dW1), ...]."""
    return [(w, b, dw, db) for (w, dw), (b, db)
            in zip(slots[::2], slots[1::2])]


def layer_slots(arrays):
    """(W, b, dW, db) layer tuples for arrays = [W0, b0, W1, b1, ...],
    each with a zero gradient slot."""
    return layers_of([(a, np.zeros_like(a)) for a in arrays])


def slot_op(arrays, k, run):
    """arrays[k] as the input of an array op: its value is run(slots)'s,
    where slots pairs each of arrays, arrays[k] replaced by the input,
    with a zero gradient slot, and its backward runs run's and returns
    the input's slot."""
    def op(a):
        slots = [(a if i == k else b, np.zeros_like(b))
                 for i, b in enumerate(arrays)]
        out, backward = run(slots)

        def slot_backward(g):
            backward(g)
            return slots[k][1]

        return out, slot_backward
    return op


def mlp_gradient_ops(arrays, sigmoid_out):
    """Array ops of mlp(x) for arrays = [x, W0, b0, W1, b1, ...]: one per
    array, each a function of that array."""
    x, params = arrays[0], arrays[1:]
    return [lambda a: ad.mlp(a, layer_slots(params), sigmoid_out)] + [
        slot_op(params, k, lambda slots: ad.mlp(x, layers_of(slots),
                                                 sigmoid_out))
        for k in range(len(params))]


def message_passing_ops(seed):
    """check_op_gradient arguments for message_passing(x) on a 4-vertex
    graph whose vertex 3 receives no message, with ReLU blocks
    h 2 -> 3 -> 2, f 4 -> 3 -> 3 and g 5 -> 3 -> 2: name -> (op, x0, w),
    varying the state and one weight each of h, f and g."""
    rng = np.random.default_rng(seed)
    src = np.array([1, 0, 2, 1, 0])
    dst = np.array([0, 2, 1, 2, 1])
    coord_diff = rng.normal(0, 1, (5, 2))
    receivers = Segments.of(dst, 4)
    # [h W0, h b0, h W1, h b1, f W0, ..., g b1]
    params = [rng.normal(0, 1, shape)
              for fan_in, fan_out in ((2, 2), (4, 3), (5, 2))
              for shape in ((fan_in, 3), (3,), (3, fan_out), (fan_out,))]
    x0 = rng.normal(0, 1, (4, 2))
    mix = rng.normal(0, 1, (4, 2))

    def run(x, slots):
        h, f, g = (partial(ad.mlp, layers=layers_of(slots[4 * j:4 * j + 4]),
                           sigmoid_out=False) for j in range(3))
        return ad.message_passing(x, src, dst, coord_diff, receivers, h, f,
                                  g)

    def weight(k):
        return (slot_op(params, k, partial(run, x0)), params[k], mix)

    return {"message_passing_x": (
                lambda a: run(a, [(p, np.zeros_like(p)) for p in params]),
                x0, mix),
            "message_passing_h_W0": weight(0),
            "message_passing_f_W1": weight(6),
            "message_passing_g_b0": weight(9)}


def weights(spec, **arrays):
    """Stand-in model for mlp_forward: the arrays as the layers of its
    block "", each with a zero gradient slot."""
    return SimpleNamespace(layers={"": layer_slots(
        [arrays[name] for w, b, _, _ in spec.layers() for name in (w, b)])})


class TestPrimitiveGradients:
    def test_mlp_affine_layer(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, (3, 2))
        rng_fixed = rng.normal(0, 1, (4, 2))
        arrays = [rng.normal(0, 1, (4, 3)), w, rng.normal(0, 1, 2)]
        for op, x0 in zip(mlp_gradient_ops(arrays, False), arrays):
            check_op_gradient(op, x0, rng_fixed)

    def test_relu_away_from_kink(self):
        # identity layers: the hidden pre-activation is x0 itself
        x0 = np.array([[0.5, -0.7], [1.2, -0.1]])
        arrays = [x0, np.eye(2), np.zeros(2), np.eye(2), np.zeros(2)]
        for op, a in zip(mlp_gradient_ops(arrays, False), arrays):
            check_op_gradient(op, a, np.ones((2, 2)))

    def test_sigmoid(self):
        # identity layer: the sigmoid's input is x0 itself
        rng = np.random.default_rng(2)
        x0 = rng.normal(0, 2, (4, 3))
        arrays = [x0, np.eye(3), np.zeros(3)]
        mix = rng.normal(0, 1, (4, 3))
        for op, a in zip(mlp_gradient_ops(arrays, True), arrays):
            check_op_gradient(op, a, mix)

    # the losses below run under a weight, so their upstream gradient is
    # not 1

    def test_log_clip_interior(self):
        x0 = np.array([[0.3], [0.6], [0.9], [0.2]])
        y = np.array([[1.0], [0.0], [0.0], [1.0]])
        check_op_gradient(partial(bce_loss, y), x0, 0.7)

    def test_clip_blocks_gradient_outside(self):
        # 1.0 lies beyond the clamp at 1 - BCE_CLAMP
        _, backward = bce_loss(np.ones((2, 1)), np.array([[1.0], [0.5]]))
        grad = backward(1.0)
        assert grad[0, 0] == 0.0 and grad[1, 0] == -1.0

    def test_huber_both_branches(self):
        # the last row is masked out: zero gradient
        x0 = np.array([[0.4, -0.3], [1.7, -2.5], [0.6, 2.2]])
        mask = np.array([[1.0], [1.0], [0.0]])
        check_op_gradient(lambda a: huber_loss(a, np.zeros((3, 2)), mask),
                          x0, 0.7)

    def test_scaled_mse(self):
        # the default tracking scales (1, 1e-3)
        rng = np.random.default_rng(5)
        truth = rng.normal(0, 1, (3, 2))
        x0 = truth + 1e-3 * rng.normal(0, 1, (3, 2))
        check_op_gradient(lambda a: mse_tracking_loss(a, truth), x0, 0.7)

    def test_segment_max_gradient_routing(self):
        # upstream gradient flows only to the argmax entries
        x0 = np.array([[1.0, 2.0], [3.0, 0.5], [0.2, 0.9]])
        _, backward = ad.segment_max(x0, Segments.of([0, 0, 1], 2))
        expected = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(backward(np.ones((2, 2))), expected)

    def test_segment_max_finite_difference(self):
        rng = np.random.default_rng(4)
        segments = Segments.of([0, 1, 0, 1, 0], 2)
        x0 = rng.normal(0, 1, (5, 3))
        w = rng.normal(0, 1, (2, 3))
        check_op_gradient(lambda a: ad.segment_max(a, segments), x0, w)

    @pytest.mark.parametrize("name", list(message_passing_ops(0)))
    def test_message_passing_finite_difference(self, name):
        check_op_gradient(*message_passing_ops(11)[name])


def max_aggregate(features, segment_ids, num_segments):
    """Forward value of segment_max on a plain array."""
    return ad.segment_max(np.asarray(features, dtype=float),
                          Segments.of(segment_ids, num_segments))[0]


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
        _, backward = ad.segment_max(np.array([[5.0], [5.0]]),
                                     Segments.of([0, 0], 1))
        assert np.array_equal(backward(np.ones((1, 1))),
                              np.array([[1.0], [0.0]]))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            max_aggregate(np.ones((2, 2)), np.array([0, 5]), 2)

    def test_rows_must_be_a_matrix(self):
        with pytest.raises(ShapeError):
            max_aggregate(np.array([1.0, 2.0]), np.array([0, 0]), 1)

    def test_infinite_maximum_is_kept(self):
        # only a segment without rows reads 0; an overflowed message
        # must reach the non-finite checks downstream
        feats = np.array([[np.inf, 1.0], [2.0, -np.inf]])
        out = max_aggregate(feats, np.array([0, 1]), 2)
        assert np.array_equal(out, feats)


class TestSegmentMaxOracle:
    """segment_max over its layout against np.maximum.at and a row-by-row
    search for the winners."""

    @staticmethod
    def check(rows, segment_ids, n):
        rows = np.asarray(rows, dtype=float)
        seg = np.asarray(segment_ids, dtype=int)
        expected, routed = segment_max_oracle(rows, seg, n)
        out, backward = ad.segment_max(rows, Segments.of(seg, n))
        assert out.tobytes() == expected.tobytes()
        g = np.random.default_rng(len(rows)).normal(0, 1, out.shape)
        assert backward(g).tobytes() == \
            np.where(routed, g[seg], 0.0).tobytes()
        return out, backward(np.ones_like(out))

    def test_random_layouts(self):
        # few distinct values, so ties are common; unsorted and grouped
        # ids, empty segments, NaN rows and infinities
        rng = np.random.default_rng(12)
        for trial in range(300):
            m = int(rng.integers(0, 25))
            n = int(rng.integers(1, 8))
            rows = rng.integers(-2, 3, (m, int(rng.integers(1, 4)))) \
                .astype(float)
            special = rng.random(rows.shape)
            rows[special < 0.05] = np.nan
            rows[(special > 0.05) & (special < 0.08)] = np.inf
            seg = rng.integers(0, n, m)
            self.check(rows, np.sort(seg) if trial % 3 == 0 else seg, n)

    def test_ties_route_to_the_lowest_row(self):
        _, grad = self.check([[1.0, 4.0], [2.0, 4.0], [2.0, 3.0],
                              [1.0, 4.0]], [1, 0, 1, 1], 2)
        assert grad.tolist() == [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0],
                                 [0.0, 0.0]]

    def test_nan_propagates_without_gradient(self):
        out, grad = self.check([[1.0, 2.0], [np.nan, 5.0], [3.0, 1.0]],
                               [0, 0, 1], 2)
        assert np.isnan(out[0, 0]) and out[0, 1] == 5.0
        assert grad.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

    def test_empty_segments_get_zero_rows_and_no_gradient(self):
        out, grad = self.check([[-3.0], [-1.0]], [2, 2], 4)
        assert out.tolist() == [[0.0], [0.0], [-1.0], [0.0]]
        assert grad.tolist() == [[0.0], [1.0]]

    def test_zero_messages(self):
        out, grad = self.check(np.zeros((0, 3)), [], 3)
        assert out.tolist() == [[0.0] * 3] * 3
        assert grad.shape == (0, 3)

    def test_layout_is_read_only(self):
        layout = Segments.of([2, 0, 2, 1], 3)
        assert layout.order.tolist() == [1, 3, 0, 2]
        assert (layout.starts.tolist(), layout.sizes.tolist(),
                layout.ids.tolist()) == ([0, 1, 2], [1, 1, 2], [0, 1, 2])
        assert Segments.of([0, 0, 2], 3).order.tolist() == [0, 1, 2]
        for array in (layout.order, layout.starts, layout.sizes,
                      layout.ids):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_row_count_must_match_the_layout(self):
        with pytest.raises(ShapeError):
            ad.segment_max(np.zeros((3, 2)), Segments.of([0, 1], 2))


class TestMlp:
    def test_zero_weights_bias_only(self):
        spec = MlpSpec((3, 2))
        params = weights(spec, W0=np.zeros((3, 2)), b0=np.array([0.5, -1.0]))
        out, _ = mlp_forward(spec, params, np.random.default_rng(0)
                             .normal(0, 1, (4, 3)))
        assert np.allclose(out, np.tile([0.5, -1.0], (4, 1)))

    def test_identity_layer(self):
        spec = MlpSpec((3, 3))
        params = weights(spec, W0=np.eye(3), b0=np.zeros(3))
        x = np.random.default_rng(1).normal(0, 1, (5, 3))
        out, _ = mlp_forward(spec, params, x)
        assert np.array_equal(out, x)

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
        params = weights(spec, W0=w0, b0=b0, W1=w1, b1=b1)
        out, _ = mlp_forward(spec, params, x)
        assert np.allclose(out, expected)

    def test_shape_error_names_both(self):
        spec = MlpSpec((3, 2))
        params = weights(spec, W0=np.zeros((3, 2)), b0=np.zeros(2))
        with pytest.raises(ShapeError, match="4.*3|3.*4"):
            mlp_forward(spec, params, np.zeros((1, 4)))

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            MlpSpec((3,))


def bce(y, p):
    return float(bce_loss(y, np.reshape(p, (-1, 1)))[0])


def huber(pred, target, mask):
    return float(huber_loss(np.asarray(pred, dtype=float), target,
                            mask)[0])


def mse(pred, truth, **kwargs):
    return float(mse_tracking_loss(np.reshape(pred, (-1, 2)), truth,
                                   **kwargs)[0])


class TestBce:
    def test_perfect(self):
        assert bce([1.0], [1.0 - 1e-15]) == pytest.approx(0.0, abs=1e-9)

    def test_half(self):
        assert bce([1.0], [0.5]) == pytest.approx(math.log(2.0))

    def test_two_sample(self):
        expected = -(math.log(0.9) + math.log(0.9)) / 2.0
        assert bce([1.0, 0.0], [0.9, 0.1]) == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bce([1.0, 0.0], [0.5])

    def test_convex_in_logit(self):
        logits = np.linspace(-6, 6, 121)
        values = [bce([1.0], [1.0 / (1.0 + math.exp(-z))]) for z in logits]
        second = np.diff(values, 2)
        assert np.all(second >= -1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            y = rng.integers(0, 2, n).astype(float)
            p = rng.uniform(0, 1, n)
            assert bce(y, p) >= 0.0


class TestHuber:
    def test_zero(self):
        assert huber(np.zeros((3, 5)), np.zeros((3, 5)), np.ones(3)) == 0.0

    def test_quadratic_branch(self):
        pred = np.zeros((1, 5))
        target = np.zeros((1, 5))
        target[0, 0] = -0.5
        assert huber(pred, target, [1.0]) == pytest.approx(0.125)

    def test_linear_branch(self):
        pred = np.zeros((1, 5))
        target = np.zeros((1, 5))
        target[0, 0] = -2.0
        assert huber(pred, target, [1.0]) == pytest.approx(1.5)

    def test_mask_and_normalization(self):
        pred = np.zeros((4, 5))
        target = np.zeros((4, 5))
        target[:, 0] = -2.0
        # only two vertices masked in, averaged over all four
        assert huber(pred, target, [1, 1, 0, 0]) == \
            pytest.approx(2 * 1.5 / 4)

    def test_continuity_at_knot(self):
        delta = HUBER_DELTA
        eps = 1e-9
        below = huber(np.array([[delta - eps, 0, 0, 0, 0]]),
                      np.zeros((1, 5)), [1.0])
        above = huber(np.array([[delta + eps, 0, 0, 0, 0]]),
                      np.zeros((1, 5)), [1.0])
        assert abs(above - below) < 1e-8
        # derivative continuity: clamp(x) is continuous by construction
        assert abs((above - below) / (2 * eps) - delta) < 1e-4

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            value = huber(rng.normal(0, 2, (n, 5)), rng.normal(0, 2, (n, 5)),
                          rng.integers(0, 2, n).astype(float))
            assert value >= 0.0


class TestMseTracking:
    def test_perfect(self):
        assert mse([[2.0, 1e-4]], [[2.0, 1e-4]]) == 0.0

    def test_unit_scale_residual(self):
        assert mse([[3.0, 0.0]], [[2.0, 0.0]], scales=(1.0, 1e-3)) == \
            pytest.approx(1.0)

    def test_two_cluster_average(self):
        pred = [[3.0, 0.0], [2.0, 1e-3]]
        truth = [[2.0, 0.0], [2.0, 0.0]]
        assert mse(pred, truth, scales=(1.0, 1e-3)) == pytest.approx(1.0)

    def test_empty_warns_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, backward = mse_tracking_loss(np.zeros((0, 2)),
                                                np.zeros((0, 2)))
            grad = backward(1.0)
        assert value == 0.0 and grad.shape == (0, 2)

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            assert mse(rng.normal(0, 3, (n, 2)),
                       rng.normal(0, 3, (n, 2))) >= 0.0


def scripted_adam(w, grads, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: straight-line transcription of the Adam update rules;
    returns the parameters and both moments after the last gradient."""
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        w = w * (1.0 - lr * wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w = w - lr * mhat / (np.sqrt(vhat) + eps)
    return w, m, v


class TestAdam:
    def test_zero_gradient_no_decay(self):
        w = np.array([1.0, -2.0])
        state = AdamState(lr=1e-3, weight_decay=0.0)
        adam_step(state, w, np.zeros(2))
        assert np.array_equal(w, np.array([1.0, -2.0]))

    def test_first_step_magnitude(self):
        w = np.zeros(4)
        state = AdamState(lr=1e-3, weight_decay=0.0)
        adam_step(state, w, np.ones(4))
        assert np.allclose(w, -1e-3, rtol=1e-6)

    def test_against_scripted_recurrence(self):
        lr, wd = 1e-2, 1e-2
        w = np.array([0.5, -1.5])
        grads = [np.array([1.0, -2.0]), np.array([0.3, 0.7]),
                 np.array([-1.1, 0.0])]
        expected, me, ve = scripted_adam(w.copy(), grads, lr, wd)

        state = AdamState(lr=lr, weight_decay=wd)
        for g in grads:
            adam_step(state, w, g)
        assert np.array_equal(w, expected)
        assert np.array_equal(state.m, me)
        assert np.array_equal(state.v, ve)

    def test_full_size_matches_recurrence_in_place(self):
        # a model-sized vector over many steps: bit for bit the scripted
        # recurrence, with the moments and scratch updated in place
        n = ModelConfig().n_params
        rng = np.random.default_rng(9)
        w = rng.normal(0.0, 0.1, n)
        grads = [rng.normal(0.0, 1.0, n) * rng.uniform(0.0, 3.0)
                 for _ in range(60)]
        expected, me, ve = scripted_adam(w.copy(), grads, 1e-3, 1e-5)

        state = AdamState(lr=1e-3, weight_decay=1e-5)
        adam_step(state, w, grads[0])
        buffers = (state.m, state.v, *state.scratch)
        for g in grads[1:]:
            adam_step(state, w, g)
        assert all(a is b for a, b in
                   zip((state.m, state.v, *state.scratch), buffers))
        assert np.array_equal(w, expected)
        assert np.array_equal(state.m, me)
        assert np.array_equal(state.v, ve)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(8)
            w = rng.normal(0, 1, 9)
            state = AdamState(lr=1e-3, weight_decay=1e-5)
            trace = []
            for _ in range(5):
                adam_step(state, w, rng.normal(0, 1, 9))
                trace.append(w.copy())
            return trace

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        state = AdamState(lr=1e-3, weight_decay=0.0)
        with pytest.raises(ShapeError):
            adam_step(state, np.zeros(2), np.zeros(3))
        assert state.step == 0 and state.m is None
