"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived were computed from the
independent oracles in oracles.py (brute-force DBSCAN, Monte Carlo IoU,
exact circle sampling) or from closed forms evaluated by hand.
"""

import inspect
import json
import math
import time

import numpy as np
import pytest

from conftest import decoded, ellipse, make_training_graph
from oracles import (brute_force_dbscan, monte_carlo_iou, partition_of,
                     plain_message_passing, sample_circle, weighted_sum)
from test_ellipses import iou
from test_events import HITS_CSV, write_trackml
from test_harness import tiny_cli_config, truth_identity_prediction
from test_postprocess import rows_of
from test_neural import check_op_gradient, mlp_gradient_builds
from test_tracknet import small_config, sweep_composite_gradients
from trackseg import tracknet as tn
from trackseg.ellipses import check_ellipses, decode_box, encode_box, mvee
from trackseg.errors import ParseError
from trackseg.events import (DetectorConfig, GenConfig, generate_event,
                             read_trackml_event)
from trackseg.graphs import DbscanParams, build_graph, dbscan
from trackseg.harness.cli import main
from trackseg.harness.metrics import auc_score, evaluate
from trackseg.kinematics import extract_track_params, fit_parabola
from trackseg.neural import autodiff as ad
from trackseg.neural.nn import bce_loss, huber_loss, mse_tracking_loss
from trackseg.postprocess import choose_threshold, merge_ellipses

TWO_PI = 2.0 * math.pi


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_conformal_geometry():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    # prompt circles (delta = 0): mapped points satisfy the line form
    worst_line = 0.0
    for _ in range(1000):
        radius = rng.uniform(1.0, 5.0)
        beta = rng.uniform(0.15, math.pi - 0.15) * rng.choice([-1.0, 1.0])
        a0 = radius * math.cos(beta)
        b0 = radius * math.sin(beta)
        pts = sample_circle(a0, b0, radius,
                            rng.uniform(0.02, 0.3, 8))
        rho2 = pts[:, 0]**2 + pts[:, 1]**2
        u = pts[:, 0] / rho2
        v = pts[:, 1] / rho2
        worst_line = max(worst_line, float(np.max(np.abs(
            v - (1.0 / (2.0 * b0) - u * a0 / b0)))))
    assert worst_line < 1e-9

    # involution over random magnitudes
    r = 10.0 ** rng.uniform(-3, 3, 10_000)
    ang = rng.uniform(0, TWO_PI, 10_000)
    x, y = r * np.cos(ang), r * np.sin(ang)
    rho2 = x * x + y * y
    u, v = x / rho2, y / rho2
    s2 = u * u + v * v
    bx, by = u / s2, v / s2
    scale = np.maximum(1.0, np.abs(x))
    worst_inv = max(float(np.max(np.abs(bx - x) / scale)),
                    float(np.max(np.abs(by - y) / np.maximum(1.0,
                                                             np.abs(y)))))
    assert worst_inv < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("1 conformal geometry",
           f"(line residual {worst_line:.2e}, involution {worst_inv:.2e}, "
           f"{elapsed:.2f}s)")


def test_criterion_2_parameter_extraction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_a = worst_b = worst_eps = 0.0
    for _ in range(500):
        radius = rng.uniform(1.0, 5.0)
        eps = rng.uniform(0.2, 1.0) * min(1e-3, 4.99e-4 * radius)
        side = rng.choice([-1.0, 1.0])
        d = radius + side * eps
        # orientation keeps |b| dominant so the v(u) parabola model is
        # well conditioned; the arc span is kept moderate because the
        # conformal image is really a circle of radius R/|delta| and a
        # parabola only approximates a limited stretch of it
        beta = rng.uniform(math.radians(60), math.radians(120))
        if rng.integers(0, 2):
            beta = -beta
        a0, b0 = d * math.cos(beta), d * math.sin(beta)
        assert abs(radius**2 - d * d) / radius**2 <= 1e-3
        pts = sample_circle(a0, b0, radius, np.linspace(0.2, 0.6, 12))
        rho2 = pts[:, 0]**2 + pts[:, 1]**2
        coeffs = fit_parabola(np.stack([pts[:, 0] / rho2,
                                        pts[:, 1] / rho2], axis=1))
        t = extract_track_params(coeffs, 2.0)
        worst_a = max(worst_a, abs(t.a - a0) / abs(a0))
        worst_b = max(worst_b, abs(t.b - b0) / abs(b0))
        worst_eps = max(worst_eps, abs(abs(t.eps_t) - eps) / eps)
    assert worst_a < 1e-3
    assert worst_b < 1e-3
    assert worst_eps < 5e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("2 parameter extraction",
           f"(worst rel: a {worst_a:.2e}, b {worst_b:.2e}, "
           f"eps {worst_eps:.2e}, {elapsed:.2f}s)")


def test_criterion_3_dbscan_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for trial in range(500):
        n = int(rng.integers(2, 201))
        spread = rng.uniform(0.3, 2.0)
        pts = np.stack([rng.uniform(-spread, spread, n),
                        rng.uniform(0, TWO_PI, n)], axis=1)
        if trial % 3 == 0:  # force wraparound neighborhoods
            pts[: n // 2, 1] = rng.uniform(-0.1, 0.1, n // 2) % TWO_PI
        eps = float(rng.uniform(0.03, 0.3))
        min_pts = int(rng.integers(1, 6))
        labels = dbscan(pts, DbscanParams(eps=eps, min_pts=min_pts))
        oracle = brute_force_dbscan(pts, eps, min_pts)
        assert partition_of(labels) == partition_of(oracle)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("3 dbscan oracle equivalence", f"({elapsed:.1f}s)")


def test_criterion_4_ellipse_suite():
    rng = np.random.default_rng(103)

    # encode/decode identity over 10^4 random cases
    cases = []
    for _ in range(10_000):
        a = rng.uniform(0.02, 0.4)
        e = ellipse(rng.uniform(-2, 2), rng.uniform(0, TWO_PI), a,
                    rng.uniform(0.2 * a, a), rng.uniform(0, math.pi))
        vtx = (e[0] + rng.uniform(-0.02, 0.02),
               (e[1] + rng.uniform(-0.01, 0.01)) % TWO_PI)
        cases.append((e, vtx))
    eta, phi = np.array([vtx for _, vtx in cases]).T
    rows = decode_box(encode_box([e for e, _ in cases], eta, phi), eta, phi)
    check_ellipses(rows, lambda k: f"case {k}: ")
    worst = 0.0
    for (e, _), back in zip(cases, rows.tolist()):
        dphi = abs(back[1] - e[1] + math.pi) % TWO_PI - math.pi
        dtheta = abs(back[4] - e[4]) % math.pi
        worst = max(worst, abs(back[0] - e[0]), abs(dphi),
                    abs(back[2] - e[2]), abs(back[3] - e[3]),
                    min(dtheta, math.pi - dtheta))
    assert worst < 1e-12

    # IoU against 10^6-sample Monte Carlo on 50 random pairs
    worst_mc = 0.0
    for trial in range(50):
        a1 = rng.uniform(0.1, 0.4)
        e1 = ellipse(rng.uniform(-0.2, 0.2), 3.0 + rng.uniform(-0.2, 0.2),
                     a1, rng.uniform(0.3 * a1, a1), rng.uniform(0, math.pi))
        a2 = rng.uniform(0.1, 0.4)
        e2 = ellipse(e1[0] + rng.uniform(-0.3, 0.3),
                     e1[1] + rng.uniform(-0.3, 0.3),
                     a2, rng.uniform(0.3 * a2, a2), rng.uniform(0, math.pi))
        mc = monte_carlo_iou(e1, e2, 1_000_000, seed=trial)
        worst_mc = max(worst_mc, abs(iou(e1, e2) - mc))
    assert worst_mc < 0.005

    # closed-form two-unit-circle lens value
    c1 = ellipse(0.0, 3.0, 1.0, 1.0, 0.0)
    c2 = ellipse(1.0, 3.0, 1.0, 1.0, 0.0)
    lens = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
    expected = lens / (2.0 * math.pi - lens)
    assert iou(c1, c2) == pytest.approx(expected, abs=0.005)

    # MVEE of the unit square corners
    (sq_eta, sq_phi, sq_a, sq_b, _), = mvee(
        [np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])])
    r = math.sqrt(2.0) / 2.0
    assert abs(sq_a - r) < 1e-3 and abs(sq_b - r) < 1e-3
    assert abs(sq_eta - 0.5) < 1e-3 and abs(sq_phi - 0.5) < 1e-3

    report("4 ellipse suite",
           f"(encode/decode {worst:.1e}, IoU vs MC {worst_mc:.4f}, "
           f"lens {iou(c1, c2):.4f} vs {expected:.4f})")


def test_criterion_5_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(104)

    # every public op and the three losses against central differences;
    # constants are drawn once so the perturbed evaluations see the same
    # function
    mix = rng.normal(0, 1, (4, 2))
    base53 = rng.normal(0, 1, (5, 3))
    weights32 = rng.normal(0, 1, (3, 2))
    seg = np.array([0, 1, 0, 1])
    idx = np.array([2, 0, 1])
    # [x, W0, b0, ...]: ReLU layers 3 -> 4 -> 4 -> 2 with an identity
    # output, and 3 -> 4 -> 2 with a sigmoid output
    relu_net = [rng.normal(0, 1, shape) for shape in
                ((4, 3), (3, 4), (4,), (4, 4), (4,), (4, 2), (2,))]
    sigmoid_net = [rng.normal(0, 1, shape) for shape in
                   ((4, 3), (3, 4), (4,), (4, 2), (2,))]
    relu_builds = mlp_gradient_builds(relu_net, False, mix)
    sigmoid_builds = mlp_gradient_builds(sigmoid_net, True, mix)
    # weights of the linear reducer, one array per output shape
    w53, w34, w23 = (rng.normal(0, 1, shape)
                     for shape in ((5, 3), (3, 4), (2, 3)))
    labels = np.array([[1.0], [0.0], [0.0], [1.0]])
    # residuals on both sides of the Huber knot; the last row masked out
    huber_x0 = np.array([[0.4, -0.3], [1.7, -2.5], [0.6, 2.2]])
    huber_mask = np.array([[1.0], [1.0], [0.0]])
    mse_truth = rng.normal(0, 1, (3, 2))
    op_builds = {
        **{f"mlp_relu_{name}": (relu_builds[k], relu_net[k])
           for k, name in ((0, "x"), (3, "W1"), (6, "b2"))},
        **{f"mlp_sigmoid_{name}": (sigmoid_builds[k], sigmoid_net[k])
           for k, name in ((0, "x"), (3, "W1"), (4, "b1"))},
        "add": (lambda t, v: weighted_sum(ad.add(t.const(base53), v), w53),
                rng.normal(0, 1, (5, 3))),
        "scale": (lambda t, v: weighted_sum(ad.scale(v, 1.7), weights32),
                  rng.normal(0, 1, (3, 2))),
        "bce_loss": (lambda t, v: bce_loss(labels, v),
                     rng.uniform(0.1, 0.9, (4, 1))),
        "huber_loss": (lambda t, v: huber_loss(
            v, np.zeros((3, 2)), huber_mask), huber_x0),
        "mse_tracking_loss": (lambda t, v: mse_tracking_loss(
            v, mse_truth, scales=(1.0, 2.0)), rng.normal(0, 1, (3, 2))),
        "concat_slice_gather": (lambda t, v: weighted_sum(
            ad.concat_cols([ad.gather_rows(v, idx), ad.gather_rows(v, idx)]),
            w34), rng.normal(0, 1, (3, 2))),
        "segment_max": (lambda t, v: weighted_sum(
            ad.segment_max(v, seg, 2), w23),
            rng.normal(0, 1, (4, 3))),
    }
    # the table must exercise every public op of the autodiff module, so
    # a new op cannot skip its finite-difference check
    public_ops = {name for name, f in vars(ad).items()
                  if inspect.isfunction(f) and f.__module__ == ad.__name__
                  and not name.startswith("_")}
    exercised = set()

    def recording(name, op):
        def call(*args, **kwargs):
            exercised.add(name)
            return op(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in public_ops:
            patch.setattr(ad, name, recording(name, getattr(ad, name)))
        for name, (build, x0) in op_builds.items():
            check_op_gradient(build, x0)
    assert exercised == public_ops, sorted(public_ops ^ exercised)

    # full gnn_forward + total_loss composite on a <= 12-vertex graph,
    # every parameter element
    _, graph = make_training_graph(seed=41, n_tracks=2, noise_fraction=0.2)
    assert graph.n_vertices <= 12
    cfg = small_config(iterations=2, hidden=6)
    worst, checked = sweep_composite_gradients(graph, cfg, model_seed=17,
                                               element_cap=None)
    assert checked == cfg.n_params
    assert worst < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("5 gradient checks",
           f"({len(op_builds)} ops + {checked} composite params, worst "
           f"{worst:.1e}, {elapsed:.1f}s)")


def test_criterion_6_architecture_fidelity(toy_graph):
    # T = 4 by default
    assert tn.ModelConfig().iterations == 4

    cfg = small_config(iterations=3)
    m = tn.Model(cfg, seed=105)

    # per-iteration parameter sets are distinct objects
    for t in range(1, cfg.iterations):
        assert m.params[f"f{t}.W0"] is not m.params[f"f{t + 1}.W0"]
        assert m.params[f"g{t}.W0"] is not m.params[f"g{t + 1}.W0"]
        assert m.params[f"h{t}.W0"] is not m.params[f"h{t + 1}.W0"]

    # with h^t forced to zero the auto-registration form (Eq. 2) reduces
    # to the plain message-passing form (Eq. 1) of the reference oracle
    for k, v in m.params.items():
        if k.startswith("h"):
            v[...] = 0.0
    inputs = tn.graph_inputs(toy_graph)
    eq2 = tn.gnn_forward(m, inputs)
    eq1 = plain_message_passing(m.params, cfg.iterations, toy_graph)
    for a, b in zip((eq2.final_state, eq2.class_prob, eq2.encoded_box),
                    eq1):
        assert np.max(np.abs(a.data - b)) <= 1e-12

    # residual connection: the zero network is a fixed point of the state
    m.flat[:] = 0.0
    out = tn.gnn_forward(m, inputs)
    assert np.array_equal(out.final_state.data, inputs.state)
    assert np.all(out.class_prob.data == 0.5)
    report("6 architecture fidelity")


def build_benchmark_graphs():
    det = DetectorConfig()
    graphs = []
    for i in range(60):
        gen = GenConfig(n_tracks=10, noise_fraction=0.1,
                        hit_smearing_sigma=2e-4)
        event = generate_event(det, gen, seed=5000 + i, event_id=i)
        graphs.append(build_graph(event, DbscanParams()))
    return graphs[:50], graphs[50:]


def run_benchmark_training(train_graphs):
    model = tn.Model(tn.ModelConfig(), seed=106)
    tcfg = tn.TrainConfig(epochs=30, lr=1e-3)
    history = tn.train(model, train_graphs, tcfg, seed=107)
    return model, history


def test_criterion_7_toy_training_benchmark():
    start = time.perf_counter()
    train_graphs, holdout = build_benchmark_graphs()
    model, history = run_benchmark_training(train_graphs)

    ratio = history[-1]["l_total"] / history[0]["l_total"]
    assert ratio <= 0.5

    labels, scores = [], []
    for g in holdout:
        result = tn.infer(model, g)
        labels.extend(g.vertex_class.tolist())
        scores.extend(result.class_prob.tolist())
    auc = auc_score(labels, scores)
    assert auc >= 0.9

    _, rerun_history = run_benchmark_training(train_graphs)
    assert rerun_history == history  # bit-identical floats

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report("7 toy training benchmark",
           f"(loss ratio {ratio:.3f}, holdout AUC {auc:.3f}, "
           f"{elapsed:.0f}s)")


def test_criterion_8_nms_merging():
    rng = np.random.default_rng(108)

    # partition property on random inputs
    for _ in range(30):
        n = int(rng.integers(1, 15))
        ellipses = [ellipse(rng.uniform(-1, 1), 3.0 + rng.uniform(-1, 1),
                            rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.1),
                            rng.uniform(0, math.pi))
                    for _ in range(n)]
        cands = merge_ellipses(rows_of(ellipses), rng.uniform(0, 1, n),
                               t_h=0.4)
        members = sorted(m for c in cands for m in c.member_vertex_ids)
        assert members == list(range(n))

    # idempotence on separated candidates
    base = [ellipse(x, 3.0, 0.15, 0.08, 0.0)
            for x in (-2.0, -1.95, 0.0, 2.0)]
    first = merge_ellipses(rows_of(base), [0.9, 0.6, 0.8, 0.7], t_h=0.5)
    import itertools as it
    assert all(iou(a.ellipse, b.ellipse) <= 0.5
               for a, b in it.combinations(first, 2))
    second = merge_ellipses(rows_of([c.ellipse for c in first]),
                            [c.confidence for c in first], t_h=0.5)
    assert [c.ellipse for c in second] == [c.ellipse for c in first]

    # three identical ellipses merge with mean confidence
    e = ellipse(0.0, 3.0, 0.2, 0.1, 0.4)
    merged = merge_ellipses(rows_of([e, e, e]), [0.9, 0.8, 0.7], t_h=0.5)
    assert len(merged) == 1
    assert merged[0].confidence == pytest.approx(0.8)

    # threshold selection on the separable fixture
    pairs = [(0.85, True), (0.9, True), (0.8, True),
             (0.2, False), (0.15, False)]
    result = choose_threshold(pairs)
    assert result.threshold == pytest.approx(0.5)
    assert result.separable
    report("8 nms merging")


def test_criterion_9_identity_pipeline():
    det = DetectorConfig()
    events = {}
    preds = {}
    for i in range(5):
        e = generate_event(det, GenConfig(n_tracks=6, noise_fraction=0.15,
                                          hit_smearing_sigma=2e-4),
                           seed=7000 + i, event_id=i)
        events[i] = e
        preds[i] = truth_identity_prediction(e)
    seg = evaluate(preds, events)["segmentation"]
    assert seg["efficiency"] == 1.0
    assert seg["purity"] == 1.0
    report("9 identity pipeline",
           f"(efficiency {seg['efficiency']}, purity {seg['purity']})")


def test_criterion_10_rendering(tmp_path):
    cfg_path = tiny_cli_config(tmp_path)
    assert main(["--config", str(cfg_path), "run"]) == 0
    out = tmp_path / "out"
    pred_path = sorted((out / "predictions").glob("pred_*.json"))[0]
    pred = decoded(json.loads(pred_path.read_text()))
    event_id = pred["event_id"]

    assert main(["--config", str(cfg_path), "plot", "--event",
                 str(event_id)]) == 0
    svg_path = out / "plots" / f"event_{event_id:05d}.svg"
    text = svg_path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    event_doc = json.loads(
        (out / "events" / f"event_{event_id:05d}.json").read_text())
    n_hits = len(decoded(event_doc)["hits"]["hit_id"])
    n_ellipses = len(pred["ellipses"]["vertex"])
    assert text.count("<circle") == n_hits
    assert text.count("<ellipse") == n_ellipses

    first = svg_path.read_bytes()
    assert main(["--config", str(cfg_path), "plot", "--event",
                 str(event_id)]) == 0
    assert svg_path.read_bytes() == first
    report("10 rendering",
           f"({n_hits} markers, {n_ellipses} outlines, byte-identical)")


def test_criterion_11_trackml_ingestion(tmp_path):
    e = read_trackml_event(*write_trackml(tmp_path))
    h = e.hits
    assert (h.x[0], h.y[0], h.z[0]) == (pytest.approx(-0.0644),
                                        pytest.approx(-0.0072),
                                        pytest.approx(-0.514))
    assert h.volume[0] == 8 and h.layer[0] == 2
    assert e.tracks.pt[0] == pytest.approx(5.0)  # 3-4-5 momenta

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    bad = HITS_CSV + "4,oops,0,0,8,2,1\n"
    with pytest.raises(ParseError) as err:
        read_trackml_event(*write_trackml(bad_dir, hits=bad))
    assert err.value.line == 5
    assert "line 5" in str(err.value)
    report("11 trackml ingestion")
