import base64
import gc
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (JSON_VALUES, doc_paths, ellipse, hit_at, hit_table,
                      make_training_graph, set_at, track_table)
from oracles import decode_box_row, initial_flat, plain_message_passing
from trackseg import tracknet as tn
from test_ellipses import SCALES
from trackseg.errors import (ConfigError, ConsistencyError, DataError,
                             DomainError, NumericError, ParseError)
from trackseg.events import Event, HitTable
from trackseg.graphs import (DbscanParams, Graph, build_graph,
                             graph_from_dict, graph_to_dict)
from trackseg.neural.nn import AdamState, mlp_forward


def small_config(iterations=2, hidden=8, **kwargs):
    return tn.ModelConfig(iterations=iterations, hidden=hidden, **kwargs)


def zero_model(config):
    m = tn.Model(config)
    m.flat[:] = 0.0
    return m


def tiny_graph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 2))):
    """A valid Graph of one n-vertex track and its target ellipse."""
    rng = np.random.default_rng(77)
    edges = np.array(edges, dtype=int).reshape(-1, 2)
    xy = rng.uniform(0.02, 0.2, (n, 2))
    return Graph(
        event_id=0,
        hits=HitTable(np.arange(1, n + 1), xy[:, 0], xy[:, 1],
                      rng.normal(0, 0.3, n), rng.integers(0, 4, n),
                      np.ones(n, dtype=int), np.zeros(n, dtype=int)),
        tracks=track_table([(1, 2.5, 3e-4, 0.0, 1.0)]),
        edges=edges,
        targets=[ellipse(0, 0, 0.05, 0.01, 0.0)],
    )


def forward(model, graph):
    """The forward pass over a graph's inputs, as infer runs it."""
    return tn.gnn_forward(model, tn.graph_inputs(graph))


class TestForward:
    def test_zero_model_fixed_point(self, toy_graph):
        m = zero_model(small_config())
        out = forward(m, toy_graph)
        assert np.all(out.class_prob.data == 0.5)
        assert np.array_equal(out.final_state.data,
                              tn.graph_inputs(toy_graph).state)
        assert np.all(out.encoded_box.data == 0.0)

    def test_single_vertex_graph(self):
        g = tiny_graph(n=1, edges=())
        m = tn.Model(small_config(), seed=3)
        out = forward(m, g)
        assert out.class_prob.data.shape == (1, 1)
        assert 0.0 < out.class_prob.data[0, 0] < 1.0

    def test_permutation_equivariance(self):
        g = make_training_graph(seed=31, n_tracks=4)[1]
        m = tn.Model(small_config(), seed=4)
        out = forward(m, g)

        rng = np.random.default_rng(5)
        perm = rng.permutation(g.n_vertices)
        inv = np.argsort(perm)
        pg = replace(
            g, hits=g.hits.take(perm),
            edges=np.sort(inv[g.edges], axis=1) if g.n_edges else g.edges)
        pout = forward(m, pg)
        assert np.allclose(pout.final_state.data, out.final_state.data[perm],
                           atol=1e-12)
        assert np.allclose(pout.class_prob.data, out.class_prob.data[perm],
                           atol=1e-12)

    def test_auto_registration_off_equals_zero_h(self, toy_graph):
        m = tn.Model(small_config(), seed=6)
        for k, v in m.params.items():
            if k.startswith("h"):
                v[...] = 0.0
        out = forward(m, toy_graph)
        plain = plain_message_passing(m.params, m.config.iterations,
                                      toy_graph)
        for a, b in zip((out.final_state, out.class_prob, out.encoded_box),
                        plain):
            assert np.max(np.abs(a.data - b)) <= 1e-12

    def test_per_iteration_parameters_distinct(self):
        m = tn.Model(small_config(iterations=3))
        assert m.params["f1.W0"] is not m.params["f2.W0"]
        assert not np.array_equal(m.params["f1.W0"], m.params["f2.W0"])
        assert m.config.iterations == 3

    def test_params_are_views_of_flat(self):
        m = tn.Model(small_config(), seed=2)
        assert m.flat.dtype == np.float64
        assert sum(p.size for p in m.params.values()) == m.flat.size
        for p in m.params.values():
            assert np.shares_memory(p, m.flat)
        copy = tn.Model(m.config, seed=2)
        assert not np.shares_memory(copy.flat, m.flat)
        assert np.array_equal(copy.flat, m.flat)
        for p in copy.params.values():
            assert np.shares_memory(p, copy.flat)

    def test_default_iterations_is_four(self):
        assert tn.ModelConfig().iterations == 4

    def test_config_shape_validation(self):
        with pytest.raises(ConfigError):
            tn.ModelConfig(hidden=0)
        with pytest.raises(ConfigError):
            tn.ModelConfig(iterations=0)


class TestTotalLoss:
    def test_perfect_predictions(self, toy_graph):
        m = tn.Model(small_config(), seed=9)
        out = forward(m, toy_graph)
        y, enc = tn.build_targets(toy_graph)
        tape = out.final_state.tape
        perfect = tn.VertexOutputs(
            class_prob=tape.const(y[:, None]),
            encoded_box=tape.const(enc),
            final_state=out.final_state)
        preds = tape.const(np.array([[2.0, 1e-4]]))
        total, comps = tn.total_loss(perfect, (y, enc), preds,
                                     [(2.0, 1e-4)], m.config.loss_weights)
        assert comps["l_total"] == pytest.approx(0.0, abs=1e-9)

    def test_gamma_zero_ignores_tracking(self, toy_graph):
        m = tn.Model(small_config(), seed=10)
        out = forward(m, toy_graph)
        targets = tn.build_targets(toy_graph)
        tape = out.final_state.tape
        p1 = tape.const(np.array([[5.0, 1.0]]))
        p2 = tape.const(np.array([[-3.0, 2.0]]))
        t1, _ = tn.total_loss(out, targets, p1, [(2.0, 1e-4)],
                              weights=(1.0, 1.0, 0.0))
        t2, _ = tn.total_loss(out, targets, p2, [(2.0, 1e-4)],
                              weights=(1.0, 1.0, 0.0))
        assert float(t1.data) == pytest.approx(float(t2.data), abs=1e-15)

    def test_weighted_sum(self):
        g = tiny_graph()
        m = tn.Model(small_config(), seed=11)
        out = forward(m, g)
        targets = tn.build_targets(g)
        preds = out.final_state.tape.const(np.array([[2.0, 1e-4]]))
        _, comps = tn.total_loss(out, targets, preds, [(2.5, 3e-4)],
                                 weights=(1.0, 1.0, 1.0))
        expected = comps["l_c"] + comps["l_loc"] + comps["l_t"]
        assert comps["l_total"] == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_weights(self, toy_graph):
        m = tn.Model(small_config(), seed=12)

        def total(weights):
            out = forward(m, toy_graph)
            targets = tn.build_targets(toy_graph)
            preds = out.final_state.tape.const(np.array([[2.0, 1e-4]]))
            _, comps = tn.total_loss(out, targets, preds, [(2.5, 3e-4)],
                                     weights=weights)
            return comps

        c1 = total((1.0, 0.0, 0.0))
        c2 = total((0.0, 2.0, 0.0))
        c3 = total((1.0, 2.0, 3.0))
        assert c3["l_total"] == pytest.approx(
            c1["l_c"] + 2.0 * c2["l_loc"] + 3.0 * c3["l_t"], rel=1e-9)


class TestPredictClusterParams:
    def test_zero_weight_head_outputs_bias(self):
        g = tiny_graph()
        cfg = small_config()
        m = tn.Model(cfg, seed=13)
        for k in m.params:
            if k.startswith("trk."):
                m.params[k][...] = 0.0
        m.params["trk.b1"][:] = [3.5, 2e-4]
        out = forward(m, g)
        pred = tn.predict_cluster_params(
            m, out.final_state, tn.cluster_features([[0, 1, 2, 3]],
                                                    g))
        assert np.allclose(pred.data, [[3.5, 2e-4]])

    def test_prompt_track_has_small_c2_feature(self):
        from trackseg.kinematics import canonical_parabola_coeffs
        from oracles import sample_circle
        pts = sample_circle(0.0, 2.0, 2.0, np.linspace(0.03, 0.2, 6))
        c = canonical_parabola_coeffs(pts)
        assert abs(c.c2) < 1e-9

    def test_small_cluster_zeroes_fit(self):
        g = tiny_graph()
        m = tn.Model(small_config(), seed=14)
        out = forward(m, g)
        pred = tn.predict_cluster_params(
            m, out.final_state, tn.cluster_features([[0, 1]], g))
        # the parabola features are zeroed: only the state max is read
        state_max = out.final_state.data[:2].max(axis=0)
        feats = out.final_state.tape.const(
            np.concatenate([np.zeros(3), state_max])[None])
        zero_fit = mlp_forward(m.config.blocks["trk."], m, feats, "trk.")
        assert np.array_equal(pred.data, zero_fit.data)
        assert pred.data.shape == (1, 2)

    def test_output_shape(self):
        g = tiny_graph()
        m = tn.Model(small_config(), seed=15)
        out = forward(m, g)
        pred = tn.predict_cluster_params(
            m, out.final_state, tn.cluster_features([[0, 1, 2]], g))
        assert pred.data.shape == (1, 2)
        none = tn.predict_cluster_params(
            m, out.final_state, tn.cluster_features([], g))
        assert none.data.shape == (0, 2)

    def test_batched_matches_one_call_per_cluster(self):
        g = make_training_graph(seed=32, n_tracks=4)[1]
        m = tn.Model(small_config(), seed=15)
        out = forward(m, g)
        clusters = [np.flatnonzero(g.hits.particle_id == pid)
                    for pid in g.tracks.particle_id] + [[0, 1], [2]]
        batched = tn.predict_cluster_params(
            m, out.final_state, tn.cluster_features(clusters, g))
        assert batched.data.shape == (len(clusters), 2)
        for k, vids in enumerate(clusters):
            single = tn.predict_cluster_params(
                m, out.final_state, tn.cluster_features([vids], g))
            assert np.allclose(batched.data[k], single.data[0], rtol=1e-12,
                               atol=0.0)

    def test_numpy_path_matches_tape_path(self):
        g = tiny_graph()
        m = tn.Model(small_config(), seed=16)
        out = forward(m, g)
        vids = [0, 1, 2, 3]
        pred = tn.predict_cluster_params(
            m, out.final_state, tn.cluster_features([vids], g))
        (pt, eps), = tn.cluster_params_from_states(
            m, out.final_state.data, [vids], g)
        assert pt == pytest.approx(pred.data[0, 0], rel=1e-12)
        assert eps == pytest.approx(pred.data[0, 1], rel=1e-12)


def composite_loss(cfg, graph, flat):
    """Full gnn_forward + total_loss composite at the flat parameter
    vector `flat`, unit tracking scales so the finite-difference
    comparison stays well conditioned.  Returns the loss Var and the
    model, whose `grad` the reverse sweep fills."""
    m = tn.Model(cfg)
    m.flat[:] = flat
    view = tn.training_view(graph)
    out = tn.gnn_forward(m, view.inputs)
    preds = tn.predict_cluster_params(m, out.final_state, view.clusters)
    total, _ = tn.total_loss(out, view.targets, preds, view.truths,
                             cfg.loss_weights, tracking_scales=(1.0, 1.0))
    return total, m


def sweep_composite_gradients(graph, cfg, model_seed, element_cap=None,
                              h=1e-6, seed=19):
    """Compare reverse-mode gradients of the composite against central
    differences.

    Relative error uses a denominator floor of 1e-4: at h = 1e-6 the
    difference quotient carries ~eps*|loss|/(2h) of cancellation noise,
    so gradient entries below the floor are effectively checked in
    absolute terms at that noise level.  Returns the worst relative
    error and the number of elements checked.
    """
    model = tn.Model(cfg, seed=model_seed)
    rng = np.random.default_rng(18)
    for k in model.params:
        if ".b" in k:
            model.params[k][...] = rng.uniform(0.01, 0.2,
                                               model.params[k].shape)

    total, swept = composite_loss(cfg, graph, model.flat)
    total.tape.backward(total)
    grads = swept.grad

    rng2 = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    offset = 0  # of the parameter in the flat gradient vector
    for name, p in model.params.items():
        idx = range(p.size) if element_cap is None else rng2.choice(
            p.size, size=min(element_cap, p.size), replace=False)
        for fi in idx:
            flat = model.flat.copy()
            flat[offset + fi] += h
            lp, _ = composite_loss(cfg, graph, flat)
            flat[offset + fi] -= 2 * h
            lm, _ = composite_loss(cfg, graph, flat)
            fd = (float(lp.data) - float(lm.data)) / (2 * h)
            an = grads[offset + fi]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
            checked += 1
        offset += p.size
    return worst, checked


class TestEndToEndGradient:
    def test_full_forward_and_loss_vs_finite_differences(self):
        _, graph = make_training_graph(seed=41, n_tracks=2,
                                       noise_fraction=0.2)
        assert graph.n_vertices <= 12
        cfg = small_config(iterations=2, hidden=6)
        worst, checked = sweep_composite_gradients(graph, cfg, model_seed=17,
                                                   element_cap=6)
        sampled = sum(min(6, p.size) for p in tn.Model(cfg).params.values())
        assert checked == sampled > 100
        assert worst < 1e-4


class TestTrain:
    def test_all_noise_empty_edges(self):
        hits = hit_table([hit_at(i + 1, float(i), (2.0 * i) % 6.28)
                          for i in range(6)])
        e = Event(0, hits, track_table([]))
        g = build_graph(e, DbscanParams(eps=0.01, min_pts=2))
        assert g.n_edges == 0
        m = tn.Model(small_config(), seed=20)
        history = tn.train(m, [g], tn.TrainConfig(epochs=1, lr=1e-3))
        assert history[0]["l_loc"] == 0.0
        assert history[0]["l_t"] == 0.0
        assert math.isfinite(history[0]["l_c"])
        assert history[0]["l_c"] > 0.0

    def test_deterministic_history(self):
        graphs = [make_training_graph(seed=s, n_tracks=3)[1]
                  for s in (51, 52, 53)]

        def run():
            m = tn.Model(small_config(), seed=21)
            hist = tn.train(m, graphs, tn.TrainConfig(epochs=3, lr=1e-3),
                            seed=5)
            return hist, m.params

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_non_finite_loss_aborts_with_diagnostics(self):
        g = make_training_graph(seed=54, n_tracks=2)[1]
        m = tn.Model(small_config(), seed=22)
        m.params["loc.W0"][:] = np.inf  # poisons the localization loss
        with pytest.raises(NumericError) as err:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tn.train(m, [g], tn.TrainConfig(epochs=1, lr=1e-3))
        assert err.value.epoch == 1
        assert err.value.graph_id == g.event_id
        assert err.value.component == "l_loc"
        assert str(err.value).count("graph=") == 1
        assert str(err.value).count("component=") == 1

    def test_constants_are_built_once_per_graph(self, monkeypatch):
        graphs = [make_training_graph(seed=s, n_tracks=3)[1]
                  for s in (55, 56)]
        calls = {"canonical_parabola_coeffs": 0, "encode_box": 0}

        def counted(name):
            original = getattr(tn, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(tn, name, wrapper)

        for name in calls:
            counted(name)

        def count(epochs):
            for name in calls:
                calls[name] = 0
            tn.train(tn.Model(small_config(), seed=30), graphs,
                     tn.TrainConfig(epochs=epochs, lr=1e-3))
            return dict(calls)

        once = count(1)
        assert once["canonical_parabola_coeffs"] > 0
        assert once["encode_box"] == len(graphs)
        assert count(3) == once

    def test_fresh_copies_of_the_same_graphs_train_alike(self):
        # views live only inside one train() call: graphs loaded after
        # others were freed (and may reuse their ids) see their own
        # constants
        docs = {key: [graph_to_dict(make_training_graph(seed=s, n_tracks=3,
                                                        event_id=i)[1])
                      for i, s in enumerate(seeds)]
                for key, seeds in (("a", (57, 58)), ("b", (59, 60)))}

        def history(key):
            m = tn.Model(small_config(), seed=31)
            return tn.train(m, [graph_from_dict(d) for d in docs[key]],
                            tn.TrainConfig(epochs=2, lr=1e-3))

        first = {key: history(key) for key in "ba"}
        assert first["a"] != first["b"]
        for key in "babab":
            assert history(key) == first[key]

    def test_training_view_is_read_only(self):
        view = tn.training_view(make_training_graph(seed=54, n_tracks=2)[1])
        arrays = [view.inputs.state, view.inputs.src, view.inputs.dst,
                  view.inputs.coord_diff, view.clusters.members,
                  view.clusters.segment, view.clusters.coeffs,
                  *view.targets, view.truths]
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_train_step_without_truth_tracks(self):
        g = tiny_graph()
        g = replace(g, hits=replace(g.hits,
                                    particle_id=np.zeros(4, dtype=int)),
                    tracks=track_table([]), targets=np.zeros((0, 5)))
        assert g.n_edges > 0
        m = tn.Model(small_config(), seed=28)
        comps = tn.train_step(m, tn.training_view(g),
                              AdamState(lr=1e-3, weight_decay=1e-5))
        assert math.isfinite(comps["l_total"])
        assert comps["l_t"] == 0.0

    def test_empty_dataset_rejected(self):
        m = tn.Model(small_config())
        with pytest.raises(ConfigError):
            tn.train(m, [], tn.TrainConfig())

    def test_loss_decreases_on_tiny_problem(self):
        graphs = [make_training_graph(seed=s, n_tracks=3)[1]
                  for s in (61, 62)]
        m = tn.Model(small_config(hidden=16), seed=23)
        hist = tn.train(m, graphs, tn.TrainConfig(epochs=10, lr=1e-3))
        assert hist[-1]["l_total"] < hist[0]["l_total"]


class TestInfer:
    def test_threshold_one_no_ellipses(self, toy_graph):
        m = tn.Model(small_config(), seed=24)
        r = tn.infer(m, toy_graph, threshold=1.1)
        assert len(r.kept) == 0 and r.rows.shape == (0, 5)

    def test_threshold_zero_all_ellipses(self, toy_graph):
        m = tn.Model(small_config(), seed=25)
        r = tn.infer(m, toy_graph, threshold=0.0)
        assert r.kept.tolist() == list(range(toy_graph.n_vertices))
        assert r.rows.shape == (toy_graph.n_vertices, 5)

    def test_decoded_ellipses_canonical(self):
        # decoded boxes satisfy the type invariants on random models
        for seed in range(5):
            g = make_training_graph(seed=70 + seed, n_tracks=3)[1]
            m = tn.Model(small_config(), seed=seed)
            r = tn.infer(m, g, threshold=0.0)
            for _, _, a, b, theta in r.rows.tolist():
                assert a >= b > 0.0
                assert 0.0 <= theta < math.pi

    def test_ellipses_equal_vertex_by_vertex_decoding(self):
        g = make_training_graph(seed=75, n_tracks=3)[1]
        m = tn.Model(small_config(), seed=8)
        r = tn.infer(m, g, threshold=0.5)
        boxes = forward(m, g).encoded_box.data
        expected = [decode_box_row(boxes[i], (g.eta[i], g.phi[i]), SCALES)
                    if r.class_prob[i] >= 0.5 else None
                    for i in range(g.n_vertices)]
        assert 0 < sum(e is not None for e in expected) < g.n_vertices
        assert r.kept.tolist() == [i for i, e in enumerate(expected)
                                   if e is not None]
        assert [np.array(e).view(np.int64).tolist()
                for e in expected if e is not None] == \
            r.rows.view(np.int64).tolist()

    @pytest.mark.parametrize("column, value", [(3, -800.0), (2, 720.0)],
                             ids=["zero-axis", "overflow"])
    def test_undecodable_box_names_the_vertex(self, toy_graph, column,
                                              value):
        # every vertex is a track vertex with the same encoded box
        m = tn.Model(small_config(), seed=9)
        box = [0.0] * 5
        box[column] = value
        for prefix, bias in (("cls.", [50.0]), ("loc.", box)):
            last = max(k for k in m.params if k.startswith(prefix + "b"))
            m.params[last.replace(".b", ".W")][:] = 0.0
            m.params[last][:] = bias
        with pytest.raises(NumericError, match="undecodable inference "
                           "output at vertex 0 graph=0 "
                           "component=encoded_box"):
            tn.infer(m, toy_graph)

    def test_leaves_no_reference_cycles(self, toy_graph):
        # forward-only tapes are released, so refcounting frees them and
        # peak memory does not wait on the cyclic GC
        m = tn.Model(small_config(), seed=27)
        vids = list(range(toy_graph.n_vertices))
        gc.collect()
        gc.disable()
        try:
            r = tn.infer(m, toy_graph, threshold=0.0)
            tn.cluster_params_from_states(m, r.final_state, [vids],
                                          toy_graph)
            assert gc.collect() == 0
        finally:
            gc.enable()


def byte_offset(view, whole):
    return (view.__array_interface__["data"][0]
            - whole.__array_interface__["data"][0])


class TestLayout:
    """One block table lays out and draws the parameters."""

    @pytest.mark.parametrize("iterations, hidden, seed", [
        (4, 64, 0), (4, 64, 101), (2, 8, 3), (1, 1, 7)],
        ids=["default-0", "default-101", "small-3", "width-1"])
    def test_initial_parameters_match_the_reference(self, iterations,
                                                    hidden, seed):
        cfg = tn.ModelConfig(iterations=iterations, hidden=hidden)
        flat = tn.Model(cfg, seed=seed).flat
        assert flat.tobytes() == initial_flat(iterations, hidden,
                                              seed).tobytes()
        assert flat.size == cfg.n_params

    def test_parameter_names_in_table_order(self):
        m = tn.Model(small_config(iterations=2))
        # (block, layer count) in parameter order
        blocks = [(f"{b}{t}", n) for t in (1, 2)
                  for b, n in zip("hfg", (2, 3, 2))] + \
            [("cls", 4), ("loc", 4), ("trk", 2)]
        assert list(m.params) == [f"{block}.{kind}{i}" for block, n in blocks
                                  for i in range(n) for kind in "Wb"]
        assert list(m.config.blocks) == [f"{block}." for block, _ in blocks]


class TestGradientVector:
    """The model owns one gradient vector laid out like its parameters."""

    def test_grads_line_up_with_params(self):
        m = tn.Model(small_config(), seed=2)
        assert m.grad.shape == m.flat.shape
        assert np.array_equal(m.grad, np.zeros_like(m.flat))
        assert list(m.grads) == list(m.params)
        for name, p in m.params.items():
            g = m.grads[name]
            assert g.shape == p.shape and np.shares_memory(g, m.grad)
            assert byte_offset(g, m.grad) == byte_offset(p, m.flat)

    def test_inference_keeps_the_gradient_zero(self, toy_graph):
        m = tn.Model(small_config(), seed=3)
        r = tn.infer(m, toy_graph, threshold=0.0)
        tn.cluster_params_from_states(m, r.final_state,
                                      [list(range(toy_graph.n_vertices))],
                                      toy_graph)
        assert np.array_equal(m.grad, np.zeros_like(m.grad))

    def test_train_step_starts_from_a_zero_gradient(self):
        g = make_training_graph(seed=54, n_tracks=2)[1]
        fresh = tn.Model(small_config(), seed=29)
        stale = tn.Model(small_config(), seed=29)
        stale.grad.fill(np.nan)
        view = tn.training_view(g)
        comps = [tn.train_step(m, view, AdamState(lr=1e-3, weight_decay=1e-5))
                 for m in (fresh, stale)]
        assert comps[1] == comps[0]
        assert stale.flat.tobytes() == fresh.flat.tobytes()
        assert stale.grad.tobytes() == fresh.grad.tobytes()


FUZZ_GRAPH = make_training_graph(seed=82, n_tracks=2, noise_fraction=0.2)[1]


def _trained_checkpoint_doc():
    model = tn.Model(tn.ModelConfig(iterations=1, hidden=2), seed=28)
    tn.train(model, [FUZZ_GRAPH], tn.TrainConfig(epochs=1, lr=1e-3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        tn.save_checkpoint(model, path)
        return path.read_text()


CHECKPOINT_DOC = _trained_checkpoint_doc()
CHECKPOINT_DOC_PATHS = list(doc_paths(json.loads(CHECKPOINT_DOC)))


class TestCheckpoint:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_infers_or_is_a_load_error(self, data):
        doc = json.loads(CHECKPOINT_DOC)
        set_at(doc, data.draw(st.sampled_from(CHECKPOINT_DOC_PATHS)),
               data.draw(JSON_VALUES))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            path.write_text(json.dumps(doc))
            try:
                model = tn.load_checkpoint(path)
            except DataError:
                return
        try:
            tn.infer(model, FUZZ_GRAPH)
        except (DomainError, NumericError):
            pass  # finite weights with undecodable or non-finite outputs

    def test_huge_iteration_count_rejected_without_its_block_table(
            self, tmp_path):
        # a draw of the test above: a block table of 3 * 2e12 entries
        # would exhaust memory before the parameter count is compared
        doc = json.loads(CHECKPOINT_DOC)
        doc["config"]["iterations"] = 2_086_169_630_852
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyError, match="config needs "):
            tn.load_checkpoint(path)

    def test_round_trip(self, tmp_path):
        g = make_training_graph(seed=81, n_tracks=2)[1]
        m = tn.Model(small_config(), seed=26)
        tn.train(m, [g], tn.TrainConfig(epochs=2, lr=1e-3))
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        assert set(json.loads(path.read_text())) == {"format", "config",
                                                     "params"}
        m2 = tn.load_checkpoint(path)
        assert m2.config == m.config
        assert np.array_equal(m2.flat, m.flat)
        # the restored model produces identical outputs
        o1 = forward(m, g)
        o2 = forward(m2, g)
        assert np.array_equal(o1.class_prob.data, o2.class_prob.data)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(tn.Model(small_config(), seed=27), path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial weights")

        monkeypatch.setattr(tn.np.random, "default_rng", no_draw)
        tn.load_checkpoint(path)

    def test_loaded_parameters_are_writable_and_owned(self, tmp_path):
        m = tn.Model(small_config(), seed=27)
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        m2 = tn.load_checkpoint(path)
        assert m2.flat.flags.writeable and m2.flat.flags.owndata
        assert m2.flat.dtype == np.float64
        m2.flat[0] = 1.5
        assert m2.params["h1.W0"][0, 0] == 1.5
        assert np.array_equal(m2.flat[1:], m.flat[1:])

    def test_rejects_mismatched_shapes(self, tmp_path):
        m = tn.Model(small_config(), seed=27)
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        doc = json.loads(path.read_text())
        # one whole float64 value fewer, not a cut base64 string
        raw = base64.b64decode(doc["params"])
        doc["params"] = base64.b64encode(raw[:-8]).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="parameters, config needs"):
            tn.load_checkpoint(path)

    def test_rejects_oversized_config_before_building(self, tmp_path):
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(tn.Model(small_config()), path)
        doc = json.loads(path.read_text())
        doc["config"]["hidden"] = 10**6  # terabytes of parameters
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            tn.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("iterations", -1), ("loss_weights", [1, -1, 1]),
        ("iterations", 2.9), ("loss_weights", [1.0, True, 1.0]),
        ("loss_weights", [1, 1])])
    def test_rejects_invalid_config_as_data(self, tmp_path, key, value):
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(tn.Model(small_config()), path)
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyError):
            tn.load_checkpoint(path)

    def test_rejects_v2_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(tn.Model(small_config()), path)
        doc = json.loads(path.read_text())
        doc["format"] = "tracknet-v2"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="retrain"):
            tn.load_checkpoint(path)

    def test_rejects_v3_checkpoint(self, tmp_path):
        m = tn.Model(small_config())
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        doc = json.loads(path.read_text())
        doc.update(format="tracknet-v3", params=m.flat.tolist())
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="retrain"):
            tn.load_checkpoint(path)

    def test_params_are_base64_of_little_endian_float64(self, tmp_path):
        m = tn.Model(small_config(), seed=27)
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "tracknet-v4"
        assert np.frombuffer(base64.b64decode(doc["params"]),
                             "<f8").tobytes() == m.flat.tobytes()

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        m = tn.Model(small_config(), seed=27)
        extremes = [-0.0, 5e-324, 1.7976931348623157e308,
                    -1.7976931348623157e308]
        m.flat[:4] = extremes
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        m2 = tn.load_checkpoint(path)
        assert m2.flat.view(np.int64).tolist() == \
            m.flat.view(np.int64).tolist()
        assert m2.flat[:4].view(np.int64).tolist() == \
            np.array(extremes).view(np.int64).tolist()

    @pytest.mark.parametrize("damage, message", [
        (lambda text, raw: text[:40] + "*" + text[41:], "base64"),
        (lambda text, raw: text[:40] + "\n" + text[40:], "base64"),
        (lambda text, raw: base64.b64encode(raw[:-4]).decode(),
         "multiple of element size"),
        (lambda text, raw: base64.b64encode(
            np.float64(np.nan).tobytes() + raw[8:]).decode(), "non-finite"),
        (lambda text, raw: base64.b64encode(
            raw[:-8] + np.float64(-np.inf).tobytes()).decode(), "non-finite"),
        (lambda text, raw: base64.b64encode(raw + raw[:8]).decode(),
         "parameters, config needs"),
        (lambda text, raw: np.frombuffer(raw).tolist(),
         "checkpoint params is not a base64 string"),
        (lambda text, raw: None, "checkpoint params is not a base64 string")],
        ids=["not-in-alphabet", "newline", "partial-value", "nan", "inf",
             "one-value-too-many", "a-list", "null"])
    def test_rejects_bad_params(self, tmp_path, damage, message):
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(tn.Model(small_config(), seed=27), path)
        doc = json.loads(path.read_text())
        doc["params"] = damage(doc["params"],
                               base64.b64decode(doc["params"]))
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=message):
            tn.load_checkpoint(path)

    def test_loads_config_with_seed_key(self, tmp_path):
        # a config key the model does not use, like an old model seed,
        # is ignored
        m = tn.Model(small_config(), seed=27)
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        doc = json.loads(path.read_text())
        assert set(doc["config"]) == {"iterations", "hidden", "loss_weights"}
        doc["config"]["seed"] = 27
        path.write_text(json.dumps(doc))
        m2 = tn.load_checkpoint(path)
        assert m2.config == m.config
        assert np.array_equal(m2.flat, m.flat)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        m = tn.Model(small_config(), seed=27)
        path = tmp_path / "ckpt.json"
        tn.save_checkpoint(m, path)
        path.write_text(path.read_text()[:50])
        with pytest.raises(ParseError):
            tn.load_checkpoint(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ConsistencyError):
            tn.load_checkpoint(path)
