import json
import math
from dataclasses import FrozenInstanceError, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (JSON_VALUES, doc_paths, graph_of, make_training_graph,
                      set_at)
from oracles import brute_force_dbscan, partition_of
from test_events import write_trackml
from trackseg.ellipses import ellipse_from_dict, point_in_ellipse
from trackseg.errors import ConfigError, ConsistencyError, DataError
from trackseg.events import GenConfig, generate_event, read_trackml_event
from trackseg.graphs import (DbscanParams, Graph, _graph,
                             assign_vertex_targets, build_graph, dbscan,
                             graph_from_dict, graph_to_dict, truth_ellipses)

TWO_PI = 2.0 * math.pi


class TestDbscan:
    def test_all_isolated(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (1.5, 2.0)]
        labels = dbscan(pts, DbscanParams(eps=0.3, min_pts=2))
        assert list(labels) == [-1] * 5

    def test_two_groups(self):
        group1 = [(0.0, 1.0), (0.01, 1.0), (0.0, 1.01), (0.01, 1.01)]
        group2 = [(2.0, 4.0), (2.01, 4.0), (2.0, 4.01), (2.01, 4.01)]
        labels = dbscan(group1 + group2, DbscanParams(eps=0.05, min_pts=3))
        assert len(set(labels)) == 2
        assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_against_oracle_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            pts = np.stack([rng.uniform(-2, 2, n),
                            rng.uniform(0, TWO_PI, n)], axis=1)
            labels = dbscan(pts, DbscanParams(eps=0.1, min_pts=4))
            oracle = brute_force_dbscan(pts, 0.1, 4)
            assert partition_of(labels) == partition_of(oracle)
            assert np.array_equal(labels, oracle)  # founding order matches

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_against_oracle_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        pts = np.stack([rng.uniform(-1, 1, n),
                        rng.uniform(0, TWO_PI, n)], axis=1)
        eps = float(rng.uniform(0.05, 0.5))
        min_pts = int(rng.integers(1, 5))
        labels = dbscan(pts, DbscanParams(eps=eps, min_pts=min_pts))
        assert partition_of(labels) == \
            partition_of(brute_force_dbscan(pts, eps, min_pts))

    def test_phi_translation_invariance(self):
        rng = np.random.default_rng(14)
        pts = np.stack([rng.uniform(-1, 1, 80),
                        rng.uniform(0, TWO_PI, 80)], axis=1)
        params = DbscanParams(eps=0.15, min_pts=3)
        base = partition_of(dbscan(pts, params))
        for shift in (0.5, 3.0, 6.0):
            shifted = pts.copy()
            shifted[:, 1] = (shifted[:, 1] + shift) % TWO_PI
            assert partition_of(dbscan(shifted, params)) == base

    def test_wraparound_cluster(self):
        pts = [(0.0, 0.02), (0.0, TWO_PI - 0.02), (0.0, 0.05)]
        labels = dbscan(pts, DbscanParams(eps=0.08, min_pts=2))
        assert len(set(labels)) == 1 and labels[0] != -1

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            DbscanParams(eps=0.0)
        with pytest.raises(ConfigError):
            DbscanParams(eps=0.1, min_pts=0)


class TestBuildGraph:
    def test_single_cluster_complete(self, detector):
        gen = GenConfig(n_tracks=1, noise_fraction=0.0,
                        hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=21)
        g = graph_of(e)
        assert g.n_vertices == 4
        assert g.n_edges == 6  # K4
        assert len(set(g.vertex_particle_id.tolist())) == 1

    def test_mixed_cluster_edge_labels(self):
        # two particles share one cluster, which still becomes one
        # complete subgraph
        from trackseg.events import Event, Hit, TruthTrack
        from trackseg.kinematics import TrackParams

        def hit(hid, eta, phi, pid):
            return Hit(hid, 0.1, 0.0, 0.0, eta, phi, 0, pid)

        hits = (hit(1, 0.0, 1.0, 1), hit(2, 0.01, 1.0, 1),
                hit(3, 0.02, 1.0, 2), hit(4, 0.03, 1.0, 2))
        params = TrackParams(1.0, 0.0, 0.0, 1.0)
        tracks = (TruthTrack(1, params), TruthTrack(2, params))
        e = Event(0, hits, tracks)
        g = graph_of(e, DbscanParams(eps=0.05, min_pts=2))
        assert g.n_edges == 6
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                                    [2, 3]]
        assert g.vertex_class.all()

    def test_all_noise_isolated(self, detector):
        gen = GenConfig(n_tracks=0, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=1)
        # no tracks means no hits at all; construct noise-only manually
        from trackseg.events import Event, Hit
        hits = tuple(
            Hit(i + 1, 0.1, 0.0, 0.0, float(i), (i * 2.0) % TWO_PI,
                0, 0)
            for i in range(5))
        e = Event(0, hits, ())
        g = graph_of(e, DbscanParams(eps=0.05, min_pts=2))
        assert g.n_edges == 0
        assert not g.vertex_class.any()

    def test_state_initialization(self, detector):
        gen = GenConfig(n_tracks=2, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=22)
        g = graph_of(e)
        for i, h in enumerate(e.hits):
            assert g.state[i, 0] == h.z
            assert g.state[i, 1] == float(h.layer)

    def test_empty_event_rejected(self):
        from trackseg.events import Event
        with pytest.raises(ConsistencyError):
            build_graph(Event(0, (), ()), DbscanParams(), [])


class TestTruthEllipses:
    def test_containment(self, detector):
        gen = GenConfig(n_tracks=8, noise_fraction=0.1,
                        hit_smearing_sigma=2e-4)
        e = generate_event(detector, gen, seed=24)
        track_hits = e.track_hits()
        for pid, ell in truth_ellipses(e):
            for h in track_hits[pid]:
                assert point_in_ellipse(ell, (h.eta, h.phi))

    def test_two_hit_track_floor_minor_axis(self):
        from trackseg.events import Event, Hit, TruthTrack
        from trackseg.kinematics import TrackParams
        hits = (Hit(1, 0.1, 0.0, 0.0, 0.0, 1.0, 0, 1),
                Hit(2, 0.1, 0.0, 0.0, 0.02, 1.0, 1, 1))
        t = TruthTrack(1, TrackParams(1.0, 0.0, 0.0, 1.0))
        e = Event(0, hits, (t,))
        (pid, ell), = truth_ellipses(e)
        assert ell.a == pytest.approx(1.1 * 0.01, rel=1e-9)
        assert ell.b == pytest.approx(1.1 * 1e-4, rel=1e-9)

    def test_single_hit_track(self):
        from trackseg.events import Event, Hit, TruthTrack
        from trackseg.kinematics import TrackParams
        hits = (Hit(1, 0.1, 0.0, 0.0, 0.3, 2.0, 0, 1),)
        t = TruthTrack(1, TrackParams(1.0, 0.0, 0.0, 1.0))
        e = Event(0, hits, (t,))
        (pid, ell), = truth_ellipses(e)
        assert (ell.eta_c, ell.phi_c) == (0.3, 2.0)
        assert ell.a == pytest.approx(1.1e-4)
        assert ell.b == pytest.approx(1.1e-4)

    def test_collinear_in_eta(self):
        from trackseg.events import Event, Hit, TruthTrack
        from trackseg.kinematics import TrackParams
        length = 0.4
        hits = tuple(
            Hit(i + 1, 0.1, 0.0, 0.0, i * length / 4.0, 1.5, 0, 1)
            for i in range(5))
        t = TruthTrack(1, TrackParams(1.0, 0.0, 0.0, 1.0))
        e = Event(0, hits, (t,))
        (pid, ell), = truth_ellipses(e)
        assert ell.theta in (pytest.approx(0.0, abs=1e-9),
                             pytest.approx(math.pi, abs=1e-9))
        assert ell.a == pytest.approx(1.1 * length / 2.0, rel=1e-9)


class TestAssignTargets:
    def test_counts(self, detector):
        gen = GenConfig(n_tracks=5, noise_fraction=0.2, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=25)
        g = graph_of(e)
        n_targets = sum(t is not None for t in g.vertex_target_ellipse)
        assert n_targets == int(g.vertex_class.sum())
        for i in np.flatnonzero(~g.vertex_class):
            assert g.vertex_target_ellipse[i] is None

    def test_same_ellipse_per_track(self, detector):
        gen = GenConfig(n_tracks=1, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=26)
        g = graph_of(e)
        targets = [t for t in g.vertex_target_ellipse if t is not None]
        assert all(t == targets[0] for t in targets)

    def test_missing_ellipse_error(self, detector):
        gen = GenConfig(n_tracks=2, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=27)
        ellipses = truth_ellipses(e)[1:]
        with pytest.raises(ConsistencyError, match="one target per"):
            build_graph(e, DbscanParams(),
                        assign_vertex_targets(e.hits, ellipses))

    def test_targets_are_one_per_hit(self, detector):
        gen = GenConfig(n_tracks=2, noise_fraction=0.2, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=27)
        targets = assign_vertex_targets(e.hits, truth_ellipses(e))
        tracks = {h.particle_id: (h.particle_id, 0.0) for h in e.hits
                  if h.particle_id}
        for wrong in (targets[:-1], targets + [None]):
            with pytest.raises(ConsistencyError, match="one target per"):
                _graph(0, e.hits, [], tracks, wrong)

    def test_graph_is_frozen(self, toy_graph):
        with pytest.raises(FrozenInstanceError):
            toy_graph.vertex_target_ellipse = []


GRAPH_DOC = json.dumps(graph_to_dict(
    make_training_graph(seed=28, n_tracks=2, noise_fraction=0.2)[1]))
GRAPH_DOC_PATHS = list(doc_paths(json.loads(GRAPH_DOC)))


def _vertex(**fields):
    """A graph-v3 vertex: the first vertex of GRAPH_DOC with `fields`."""
    return {**json.loads(GRAPH_DOC)["vertices"][0], **fields}


def _assert_same_graph(g2, g):
    for name in ("eta", "phi", "state", "edges", "vertex_hit_ids",
                 "vertex_particle_id", "vertex_class", "vertex_xy"):
        assert np.array_equal(getattr(g2, name), getattr(g, name)), name
    assert [(e.hex(), p.hex()) for e, p in zip(g2.eta.tolist(),
                                               g2.phi.tolist())] == \
        [(e.hex(), p.hex()) for e, p in zip(g.eta.tolist(), g.phi.tolist())]
    assert g2.state.dtype == g.state.dtype == float
    assert g2.truth_params == g.truth_params
    assert g2.vertex_target_ellipse == g.vertex_target_ellipse


class TestGraphSerialization:
    def test_round_trip(self, detector):
        gen = GenConfig(n_tracks=4, noise_fraction=0.2,
                        hit_smearing_sigma=1e-4)
        e = generate_event(detector, gen, seed=28)
        g = graph_of(e)
        d = graph_to_dict(g)
        assert d["format"] == "graph-v3"
        _assert_same_graph(graph_from_dict(json.loads(json.dumps(d))), g)

    def test_trackml_round_trip(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        g = graph_of(e)
        _assert_same_graph(
            graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))), g)

    def test_format_check(self):
        with pytest.raises(ConsistencyError):
            graph_from_dict({"format": "bogus"})

    @pytest.mark.parametrize("old", ["graph-v1", "graph-v2"])
    def test_old_format_asks_for_a_rebuild(self, old):
        doc = json.loads(GRAPH_DOC)
        doc["format"] = old
        with pytest.raises(ConsistencyError, match="build-graphs"):
            graph_from_dict(doc)

    def test_targets_stored_once_per_particle(self):
        doc = json.loads(GRAPH_DOC)
        assert set(doc) == {"format", "event_id", "vertices", "edges",
                            "particles"}
        assert all(list(v) == ["hit_id", "x", "y", "z", "layer",
                               "particle_id"] for v in doc["vertices"])
        assert all(type(v["layer"]) is int for v in doc["vertices"])
        assert all(len(e) == 2 for e in doc["edges"])
        g = graph_from_dict(doc)
        targets = {p["particle_id"]: p["target"] for p in doc["particles"]}
        for pid, target in zip(g.vertex_particle_id, g.vertex_target_ellipse):
            assert target == (None if pid == 0 else
                              ellipse_from_dict(targets[pid]))

    @pytest.mark.parametrize("path, value", [
        (("edges", 0), [-1, 0]),
        (("edges", 0), [2, 2]),
        (("vertices", 0), [0.1, 0.0, 0.0]),
        (("format",), "graph-v1"),
        (("edges", 0), [0, 1, True]),
        (("edges",), [[0]]),
        (("vertices", 0, "x"), None),
        (("vertices", 0, "x"), float("inf")),
        (("vertices", 0), _vertex(z=float("nan"))),
        (("vertices", 0), _vertex(y=float("-inf"))),
        (("particles", 0, "pt"), float("nan")),
        (("particles", 0, "eps_t"), None),
        (("particles", 0, "target", "eta_c"), float("inf")),
        (("particles",), []),
        (("vertices", 0), {"x": 0.1, "y": 0.0, "z": 0.0}),
        (("edges", 0), [0.9, 1]),
        (("vertices", 0, "particle_id"), 1.5),
        (("vertices", 0, "layer"), [0]),
        (("vertices", 0, "hit_id"), "1"),
        (("particles", 0, "particle_id"), 1.0),
        (("format",), "graph-v2"),
        (("vertices", 0), _vertex(x=0.0, y=0.0)),
        (("vertices", 0, "particle_id"), 999),
        (("vertices", 0, "hit_id"), 2**63),
        (("vertices", 0, "layer"), 1.7),
        (("vertices", 0, "z"), True),
        (("particles", 0, "target"), None),
        (("particles",), [*json.loads(GRAPH_DOC)["particles"],
                          {**json.loads(GRAPH_DOC)["particles"][0],
                           "particle_id": 999}])])
    def test_inconsistent_document_rejected(self, path, value):
        doc = json.loads(GRAPH_DOC)
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError):
            graph_from_dict(doc)

    @pytest.mark.parametrize("target", [None, 1.5, "x", [0.1, 0.2]])
    def test_target_not_an_object_names_the_particle(self, target):
        doc = json.loads(GRAPH_DOC)
        particle = doc["particles"][-1]
        particle["target"] = target
        with pytest.raises(ConsistencyError,
                           match=f"graph particle {particle['particle_id']} "
                                 f"needs a target ellipse object"):
            graph_from_dict(doc)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_loads_or_is_a_data_error(self, data):
        doc = json.loads(GRAPH_DOC)
        set_at(doc, data.draw(st.sampled_from(GRAPH_DOC_PATHS)),
               data.draw(JSON_VALUES))
        try:
            graph = graph_from_dict(doc)
        except DataError:
            return
        assert isinstance(graph, Graph)
        loaded = [graph.eta, graph.phi, graph.state, graph.vertex_xy,
                  list(graph.truth_params.values()),
                  [astuple(e) for e in graph.vertex_target_ellipse
                   if e is not None]]
        for values in loaded:
            assert np.all(np.isfinite(np.asarray(values, dtype=float)))


def test_default_params_cocluster_same_track_pairs(detector):
    # the shipped eps/min_pts keep >= 95% of same-track hit pairs in one
    # cluster on 2 GeV-scale synthetic events
    total, together = 0, 0
    for seed in range(10):
        gen = GenConfig(n_tracks=10, pt_range=(2.0, 5.0),
                        noise_fraction=0.1, hit_smearing_sigma=2e-4)
        e = generate_event(detector, gen, seed=seed)
        pts = [(h.eta, h.phi) for h in e.hits]
        labels = dbscan(pts, DbscanParams())
        for t in e.tracks:
            ids = [k for k, h in enumerate(e.hits)
                   if h.particle_id == t.particle_id]
            for x in range(len(ids)):
                for y in range(x + 1, len(ids)):
                    total += 1
                    li, lj = labels[ids[x]], labels[ids[y]]
                    together += int(li == lj and li != -1)
    assert together / total >= 0.95
