import itertools
import json
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (JSON_VALUES, decoded, doc_paths, encoded, hit_at,
                      hit_table, make_training_graph, set_at, track_rows,
                      track_table)
from oracles import brute_force_dbscan, partition_of
from test_events import write_trackml
from trackseg.ellipses import SHAPE_COLUMNS, check_ellipses, point_in_ellipse
from trackseg import graphs
from trackseg.errors import (ConfigError, ConsistencyError, DataError,
                             DomainError)
from trackseg.events import (TRACK_COLUMNS, Event, GenConfig,
                             generate_event, read_trackml_event)
from trackseg.graphs import (DbscanParams, Graph,
                             build_graph, dbscan, graph_from_dict,
                             graph_to_dict, truth_ellipses)
from trackseg.jsonio import read_json, write_json
from trackseg.tracknet import graph_inputs

TWO_PI = 2.0 * math.pi
# one track of particle 1: p_T 1 GeV, eps_T 0, circle centre (0, 1)
TRACK = (1, 1.0, 0.0, 0.0, 1.0)


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

    @staticmethod
    def assert_oracle(pts, eps, min_pts):
        labels = dbscan(pts, DbscanParams(eps=eps, min_pts=min_pts))
        assert np.array_equal(labels, brute_force_dbscan(pts, eps, min_pts))
        return labels

    @staticmethod
    def with_isolated(pts, eps, count):
        """pts, then `count` points on rings of larger eta, each more than
        eps from every other point: the grid never has more columns than
        points, so these give it all floor(2 pi / eps) of them."""
        step = 1.5 * eps
        per_ring = int(TWO_PI // step)
        eta = max(p[0] for p in pts) + 2.0 * eps
        return pts + [(eta + step * (k // per_ring), step * (k % per_ring))
                      for k in range(count)]

    def test_exactly_eps_apart_across_cell_boundaries(self):
        # cells are a hair wider than eps = 0.25, so 0.25 shares row 0
        # with 0 and each later step of exactly eps crosses into a new
        # row; of the 25 phi columns, 1.0 | 1.25 straddles an edge
        chain = [(0.25 * k, 3.0) for k in range(5)]
        ring = [(1.0, 0.25 * k) for k in range(2, 9)]
        beyond = [(5.0, 3.0), (math.nextafter(5.25, 6.0), 3.0)]
        labels = self.assert_oracle(
            self.with_isolated(chain + ring + beyond, 0.25, 30), 0.25, 2)
        assert len(set(labels[:5])) == 1 and labels[0] != -1
        assert len(set(labels[5:12])) == 1 and labels[5] != -1
        assert np.all(labels[12:] == -1)

    def test_cluster_across_the_phi_seam(self):
        # of 125 columns, A is in the last and row 1, and core only
        # through B and C in the first column and row 0; D is A's border
        # point and E pins row 0 to eta 0
        seam = [(0.06, TWO_PI - 0.01), (0.04, 0.02), (0.04, 0.03),
                (0.1, TWO_PI - 0.03), (0.0, 3.0)]
        labels = self.assert_oracle(self.with_isolated(seam, 0.05, 130),
                                    0.05, 3)
        assert list(labels[:4]) == [0] * 4 and np.all(labels[4:] == -1)

    @pytest.mark.parametrize("eps", [2.5, math.pi, 3.5, 10.0])
    def test_fewer_than_three_phi_columns(self, eps):
        rng = np.random.default_rng(int(eps * 10))
        for n in (2, 7, 40):
            pts = np.stack([rng.uniform(-8, 8, n),
                            rng.uniform(0, TWO_PI, n)], axis=1)
            for min_pts in (1, 3):
                self.assert_oracle(pts, eps, min_pts)

    def test_eps_wider_than_the_eta_range(self):
        rng = np.random.default_rng(15)
        pts = np.stack([rng.uniform(0.0, 0.1, 30),
                        rng.uniform(0, TWO_PI, 30)], axis=1)
        for min_pts in (1, 2, 4):
            self.assert_oracle(pts, 0.5, min_pts)

    def test_one_point_and_coincident_points(self):
        assert list(self.assert_oracle([(0.3, 1.0)], 0.05, 1)) == [0]
        assert list(self.assert_oracle([(0.3, 1.0)], 0.05, 2)) == [-1]
        same = [(0.3, 6.0)] * 6
        assert list(self.assert_oracle(same, 0.05, 6)) == [0] * 6
        assert list(self.assert_oracle(same, 0.05, 7)) == [-1] * 6

    @staticmethod
    def chain(rng, start_phi, eps):
        """2000 points 0.8 eps apart along phi from start_phi, in random
        index order: one component whose smallest index sits anywhere
        along it, so its roots need many hook rounds to meet."""
        phi = (start_phi + 0.8 * eps * np.arange(2000)) % TWO_PI
        return rng.permutation(np.stack([np.full(2000, 0.3), phi], axis=1))

    def test_chain_in_random_order(self):
        pts = self.chain(np.random.default_rng(17), 0.5, 0.002)
        assert np.all(self.assert_oracle(pts, 0.002, 2) == 0)

    def test_chain_in_random_order_across_the_phi_seam(self):
        # the chain spans 4.8 of the 2 pi in phi, 1.5 of it before the seam
        pts = self.chain(np.random.default_rng(18), TWO_PI - 1.5, 0.003)
        assert np.all(self.assert_oracle(pts, 0.003, 2) == 0)

    def test_grid_in_random_order_with_border_ties(self):
        # a square grid 0.01 apart with 40 % of its sites left out, in
        # random order; eps reaches the 4 nearest sites.  With min_pts 3
        # border points exist; a tie needs min_pts 4, as a border point
        # with two core neighbors would itself be core under 3
        rng = np.random.default_rng(19)
        eta, phi = np.meshgrid(np.arange(40), np.arange(40))
        sites = np.stack([eta.ravel(), 100.0 + phi.ravel()], axis=1) * 0.01
        pts = rng.permutation(sites[rng.random(len(sites)) < 0.6])
        near = np.abs(pts[:, None] - pts[None]).sum(axis=2) < 0.015
        for min_pts in (3, 4):
            labels = self.assert_oracle(pts, 0.0101, min_pts)
            core = near.sum(axis=1) >= min_pts
            touching = [len(set(labels[near[i] & core]))
                        for i in np.flatnonzero(~core)]
            assert max(touching) == min_pts - 2

    def test_memory_grows_with_pairs_not_points_squared(self):
        # a dense n x n float matrix alone would take 3.2 GB here
        rng = np.random.default_rng(16)
        pts = np.stack([rng.uniform(-2.5, 2.5, 20_000),
                        rng.uniform(0, TWO_PI, 20_000)], axis=1)
        tracemalloc.start()
        try:
            dbscan(pts, DbscanParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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
        g = build_graph(e, DbscanParams())
        assert g.n_vertices == 4
        assert g.n_edges == 6  # K4
        assert len(set(g.hits.particle_id.tolist())) == 1

    def test_mixed_cluster_edge_labels(self):
        # two particles share one cluster, which still becomes one
        # complete subgraph
        hits = hit_table([hit_at(1, 0.0, 1.0, particle_id=1),
                          hit_at(2, 0.01, 1.0, particle_id=1),
                          hit_at(3, 0.02, 1.0, particle_id=2),
                          hit_at(4, 0.03, 1.0, particle_id=2)])
        e = Event(0, hits, track_table([TRACK, (2, *TRACK[1:])]))
        g = build_graph(e, DbscanParams(eps=0.05, min_pts=2))
        assert g.n_edges == 6
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                                    [2, 3]]
        assert g.vertex_class.all()

    @pytest.mark.parametrize("seed", [23, 24, 25])
    def test_edges_match_per_cluster_pairs(self, detector, seed):
        # reference: each cluster's ascending members, in label order,
        # joined pairwise in itertools.combinations order
        gen = GenConfig(n_tracks=40, noise_fraction=0.3,
                        hit_smearing_sigma=2e-4)
        e = generate_event(detector, gen, seed=seed)
        g = build_graph(e, DbscanParams())
        labels = dbscan(np.stack([e.hits.eta, e.hits.phi], axis=1),
                        DbscanParams())
        assert labels.max() > 10 and (labels == -1).any()
        expected = [pair for cluster in range(labels.max() + 1)
                    for pair in itertools.combinations(
                        np.flatnonzero(labels == cluster).tolist(), 2)]
        assert g.edges.tolist() == [list(pair) for pair in expected]

    def test_all_noise_isolated(self, detector):
        gen = GenConfig(n_tracks=0, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=1)
        # no tracks means no hits at all; construct noise-only manually
        hits = hit_table([hit_at(i + 1, float(i), (i * 2.0) % TWO_PI)
                          for i in range(5)])
        e = Event(0, hits, track_table([]))
        g = build_graph(e, DbscanParams(eps=0.05, min_pts=2))
        assert g.n_edges == 0
        assert not g.vertex_class.any()

    def test_state_initialization(self, detector):
        gen = GenConfig(n_tracks=2, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=22)
        g = build_graph(e, DbscanParams())
        assert g.hits.z.tolist() == e.hits.z.tolist()
        assert g.hits.layer.tolist() == e.hits.layer.tolist()
        assert g.hits.layer.dtype == int
        state = graph_inputs(g).state
        assert state.tolist() == [[z, float(layer)] for z, layer in
                                  zip(e.hits.z, e.hits.layer)]

    def test_empty_event_rejected(self):
        with pytest.raises(ConsistencyError):
            build_graph(Event(0, hit_table([]), track_table([])),
                        DbscanParams())


def only_target(e):
    """The one target row of a one-track event, a valid ellipse."""
    rows = truth_ellipses(e)
    check_ellipses(rows, lambda k: "target: ")
    (row,) = rows.tolist()
    return row


class TestTruthEllipses:
    def test_containment(self, detector):
        gen = GenConfig(n_tracks=8, noise_fraction=0.1,
                        hit_smearing_sigma=2e-4)
        e = generate_event(detector, gen, seed=24)
        rows = truth_ellipses(e)
        assert rows.shape == (len(e.tracks), 5)
        check_ellipses(rows, lambda k: f"target row {k}: ")
        for pid, row in zip(e.tracks.particle_id, rows.tolist()):
            mine = e.hits.particle_id == pid
            for eta, phi in zip(e.hits.eta[mine], e.hits.phi[mine]):
                assert point_in_ellipse(row, (eta, phi))

    def test_two_hit_track_floor_minor_axis(self):
        hits = hit_table([hit_at(1, 0.0, 1.0, particle_id=1),
                          hit_at(2, 0.02, 1.0, layer=1, particle_id=1)])
        _, _, a, b, _ = only_target(Event(0, hits, track_table([TRACK])))
        assert a == pytest.approx(1.1 * 0.01, rel=1e-9)
        assert b == pytest.approx(1.1 * 1e-4, rel=1e-9)

    def test_single_hit_track(self):
        hits = hit_table([hit_at(1, 0.3, 2.0, particle_id=1)])
        eta_c, phi_c, a, b, _ = only_target(Event(0, hits,
                                                  track_table([TRACK])))
        assert (eta_c, phi_c) == (0.3, 2.0)
        assert a == pytest.approx(1.1e-4)
        assert b == pytest.approx(1.1e-4)

    def test_collinear_in_eta(self):
        length = 0.4
        hits = hit_table([hit_at(i + 1, i * length / 4.0, 1.5,
                                 particle_id=1) for i in range(5)])
        _, _, a, _, theta = only_target(Event(0, hits, track_table([TRACK])))
        assert theta in (pytest.approx(0.0, abs=1e-9),
                         pytest.approx(math.pi, abs=1e-9))
        assert a == pytest.approx(1.1 * length / 2.0, rel=1e-9)


class TestAssignTargets:
    def test_counts(self, detector):
        gen = GenConfig(n_tracks=5, noise_fraction=0.2, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=25)
        g = build_graph(e, DbscanParams())
        n_targets = sum(t is not None for t in g.vertex_target_ellipse)
        assert n_targets == int(g.vertex_class.sum())
        for i in np.flatnonzero(~g.vertex_class):
            assert g.vertex_target_ellipse[i] is None
        # a vertex's target is the target row of its track row, a tuple
        assert g.vertex_target_ellipse == [
            None if row < 0 else tuple(g.targets[row].tolist())
            for row in g.track_row]
        assert all(type(t) is tuple for t in g.vertex_target_ellipse
                   if t is not None)
        assert (g.tracks.particle_id[g.track_row[g.vertex_class]]
                == g.hits.particle_id[g.vertex_class]).all()

    def test_same_ellipse_per_track(self, detector):
        gen = GenConfig(n_tracks=1, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=26)
        g = build_graph(e, DbscanParams())
        targets = [t for t in g.vertex_target_ellipse if t is not None]
        assert all(t == targets[0] for t in targets)

    def test_targets_built_once(self, toy_graph, monkeypatch):
        calls = []
        monkeypatch.setattr(graphs, "assign_vertex_targets",
                            lambda g: calls.append(g) or [])
        graph = replace(toy_graph)
        assert calls == []
        assert graph.vertex_target_ellipse is graph.vertex_target_ellipse
        assert len(calls) == 1 and calls[0] is graph

    def test_missing_ellipse_error(self, detector):
        gen = GenConfig(n_tracks=2, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=27)
        with pytest.raises(ConsistencyError,
                           match=r"^graph 0 has targets of shape \(1, 5\) "
                                 r"for 2 tracks$"):
            Graph(0, e.hits, e.tracks, np.zeros((0, 2), dtype=int),
                  truth_ellipses(e)[1:])

    @pytest.mark.parametrize("change, message", [
        (lambda g: {"hits": replace(g.hits, hit_id=np.r_[
            g.hits.hit_id[1:2], g.hits.hit_id[1:]])},
         "repeats a hit_id"),
        (lambda g: {"tracks": track_table(
            track_rows(g.tracks) + [(999, *track_rows(g.tracks)[0][1:])]),
                    "targets": np.r_[g.targets, g.targets[:1]]},
         r"particles \[999\] lack a hit"),
        (lambda g: {"tracks": replace(g.tracks, pt=0.0 * g.tracks.pt)},
         "p_T must be positive"),
        (lambda g: {"tracks": replace(g.tracks, eps_t=math.nan
                                      * g.tracks.eps_t)},
         "eps_T must be finite"),
        (lambda g: {"targets": g.targets[1:]}, "targets of shape"),
        (lambda g: {"targets": np.r_[g.targets, g.targets[:1]]},
         "targets of shape"),
        (lambda g: {"targets": g.targets[:, :4]}, "targets of shape"),
        (lambda g: {"targets": np.where(  # row 1 with its axes swapped
            np.arange(len(g.targets))[:, None] == 1,
            g.targets[:, [0, 1, 3, 2, 4]], g.targets)},
         r"^target row 1: semi-axes must satisfy a >= b > 0"),
        (lambda g: {"targets": g.targets + [0.0, 0.0, 0.0, 0.0, math.pi]},
         r"^target row 0: theta must lie in \[0, pi\)"),
        (lambda g: {"edges": np.array([[0, g.n_vertices]])}, "edges"),
        (lambda g: {"edges": np.array([[1, 1]])}, "edges"),
        (lambda g: {"edges": np.array([0, 1])}, "edges"),
        (lambda g: {"edges": np.array([[1, 0]])}, "pairs i < j")],
        ids=["hit-id-repeated", "particle-without-vertex", "pt-zero",
             "eps-nan", "track-vertices-without-targets",
             "target-without-vertex", "target-of-four-values",
             "target-a-below-b", "target-theta-past-pi",
             "edge-out-of-range", "edge-self-loop",
             "edge-not-a-pair", "edge-i-above-j"])
    def test_graph_checks_its_invariants_when_built(self, toy_graph, change,
                                                    message):
        # a track's (p_T, eps_T) is checked as its TrackTable is built
        with pytest.raises((ConsistencyError, DomainError), match=message):
            replace(toy_graph, **change(toy_graph))

    def test_graphs_compare_by_event_edges_and_targets(self, toy_graph):
        g = toy_graph
        assert g == replace(g, edges=g.edges.copy())
        assert g == replace(g, targets=g.targets.copy())
        assert g != replace(g, edges=g.edges[:-1])
        assert g != replace(g, edges=np.r_[g.edges[:-1], [[0, 1]]])
        assert g != replace(g, targets=g.targets * [1.0, 1.0, 1.0, 1.0, 0.5])
        assert g != replace(g, event_id=g.event_id + 1)
        assert g != Event(g.event_id, g.hits, g.tracks)

    def test_graph_is_frozen(self, toy_graph):
        with pytest.raises(FrozenInstanceError):
            toy_graph.vertex_target_ellipse = []


GRAPH_DOC = json.dumps(graph_to_dict(
    make_training_graph(seed=28, n_tracks=2, noise_fraction=0.2)[1]))
GRAPH_DOC_PATHS = list(doc_paths(json.loads(GRAPH_DOC)))


def _table(key, row=0, **values):
    """The columns of GRAPH_DOC's table `key` as lists (conftest.decoded),
    with `values` at `row`."""
    table = decoded(json.loads(GRAPH_DOC))[key]
    for name, value in values.items():
        table[name][row] = value
    return table


def _with_row(key, row=0, **values):
    """The columns of GRAPH_DOC's table `key` as lists with a copy of row
    `row`, changed by `values`, appended."""
    table = decoded(json.loads(GRAPH_DOC))[key]
    for name, column in table.items():
        column.append(values.get(name, column[row]))
    return table


def _without(key, *names):
    """The columns of GRAPH_DOC's table `key` as lists but `names`."""
    return {name: column for name, column in
            decoded(json.loads(GRAPH_DOC))[key].items() if name not in names}


def _assert_same_graph(g2, g):
    assert g2.hits == g.hits
    assert g2.hits.volume.tolist() == g.hits.volume.tolist()
    assert g2.tracks == g.tracks
    for name in ("eta", "phi", "edges", "vertex_class"):
        assert np.array_equal(getattr(g2, name), getattr(g, name)), name
    assert [(e.hex(), p.hex()) for e, p in zip(g2.eta.tolist(),
                                               g2.phi.tolist())] == \
        [(e.hex(), p.hex()) for e, p in zip(g.eta.tolist(), g.phi.tolist())]
    assert g2.hits.z.dtype == g.hits.z.dtype == float
    assert g2.hits.layer.dtype == g.hits.layer.dtype == int
    assert np.array_equal(g2.targets, g.targets)
    assert g2 == g
    assert g2.vertex_target_ellipse == g.vertex_target_ellipse


class TestGraphSerialization:
    def test_round_trip(self, detector):
        gen = GenConfig(n_tracks=4, noise_fraction=0.2,
                        hit_smearing_sigma=1e-4)
        e = generate_event(detector, gen, seed=28)
        g = build_graph(e, DbscanParams())
        d = graph_to_dict(g)
        assert d["format"] == "graph-v6"
        _assert_same_graph(graph_from_dict(json.loads(json.dumps(d))), g)

    def test_trackml_round_trip(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        g = build_graph(e, DbscanParams())
        _assert_same_graph(
            graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))), g)

    @pytest.mark.parametrize("source", ["generated", "trackml"])
    def test_graph_text_round_trip_is_bit_identical(self, detector, source,
                                                    tmp_path):
        if source == "generated":
            e = generate_event(detector, GenConfig(
                n_tracks=5, noise_fraction=0.2, hit_smearing_sigma=2e-4),
                seed=46)
        else:
            e = read_trackml_event(*write_trackml(tmp_path))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_json(first, graph_to_dict(build_graph(e, DbscanParams())))
        write_json(second, graph_to_dict(graph_from_dict(read_json(first))))
        assert second.read_text() == first.read_text()

    def test_format_check(self):
        with pytest.raises(ConsistencyError):
            graph_from_dict({"format": "bogus"})

    @pytest.mark.parametrize("found", ["event-v3", "graphs-v4", "graph"])
    def test_format_of_another_kind_gets_no_hint(self, found):
        with pytest.raises(ConsistencyError,
                           match=f"not a graph-v6 document: "
                                 f"format='{found}'"):
            graph_from_dict({"format": found})

    @pytest.mark.parametrize("old", ["graph-v1", "graph-v2", "graph-v3",
                                     "graph-v4", "graph-v5", "graph-v7"])
    def test_old_format_asks_for_a_rebuild(self, old):
        doc = json.loads(GRAPH_DOC)
        doc["format"] = old
        with pytest.raises(ConsistencyError,
                           match=f"{old} document: rebuild the graphs with "
                                 f"build-graphs"):
            graph_from_dict(doc)

    def test_graph_without_vertices_rejected(self):
        doc = decoded(json.loads(GRAPH_DOC))
        for table in ("vertices", "tracks", "edges", "targets"):
            doc[table] = {name: [] for name in doc[table]}
        with pytest.raises(ConsistencyError, match="has no vertices"):
            graph_from_dict(encoded(doc))

    def test_graph_without_edges_or_particles_round_trips(self):
        hits = hit_table([hit_at(1, 0.0, 1.0), hit_at(2, 0.5, 3.0)])
        g = build_graph(Event(3, hits, track_table([])), DbscanParams())
        assert g.n_edges == 0
        doc = json.loads(json.dumps(graph_to_dict(g)))
        assert doc["edges"] == {"i": ["<i8", ""], "j": ["<i8", ""]}
        assert doc["tracks"]["pt"] == doc["targets"]["theta"] == \
            ["<f8", ""]
        _assert_same_graph(graph_from_dict(doc), g)

    def test_targets_stored_once_per_particle(self):
        stored = json.loads(GRAPH_DOC)
        tables = ("vertices", "tracks", "edges", "targets")
        assert {tag for table in tables
                for tag, _ in stored[table].values()} == {"<i8", "<f8"}
        assert stored["vertices"]["layer"][0] == "<i8"
        doc = decoded(stored)
        assert list(doc) == ["format", "event_id", *tables]
        assert list(doc["vertices"]) == ["hit_id", "x", "y", "z", "layer",
                                         "particle_id", "volume"]
        assert list(doc["tracks"]) == list(TRACK_COLUMNS)
        assert list(doc["edges"]) == ["i", "j"]
        assert all(i < j for i, j in zip(*doc["edges"].values()))
        assert list(doc["targets"]) == list(SHAPE_COLUMNS) == \
            ["eta_c", "phi_c", "a", "b", "theta"]
        g = graph_from_dict(stored)
        # target row k belongs to track row k
        targets = dict(zip(doc["tracks"]["particle_id"],
                           zip(*doc["targets"].values())))
        assert len(targets) == len(g.tracks) == 2
        for pid, target in zip(g.hits.particle_id,
                               g.vertex_target_ellipse):
            assert target == (None if pid == 0 else targets[pid])

    @pytest.mark.parametrize("path, value", [
        (("edges",), {"i": [-1], "j": [0]}),
        (("edges",), {"i": [2], "j": [2]}),
        (("vertices",), [dict(zip(_table("vertices"), row)) for row in
                         zip(*_table("vertices").values())]),
        (("format",), "graph-v1"),
        (("edges",), {"i": [0], "j": [True]}),
        (("edges",), [[0]]),
        (("vertices", "x", 0), None),
        (("vertices", "x", 0), float("inf")),
        (("vertices",), _table("vertices", z=float("nan"))),
        (("vertices",), _table("vertices", y=float("-inf"))),
        (("tracks", "pt", 0), float("nan")),
        (("tracks", "eps_t", 0), None),
        (("targets", "eta_c", 0), float("inf")),
        (("targets",), {name: [] for name in _table("targets")}),
        (("vertices",), _without("vertices", "hit_id", "layer",
                                 "particle_id")),
        (("edges",), {"i": [0.9], "j": [1]}),
        (("vertices", "particle_id", 0), 1.5),
        (("vertices", "layer", 0), [0]),
        (("vertices", "hit_id", 0), "1"),
        (("tracks", "particle_id", 0), 1.0),
        (("format",), "graph-v2"),
        (("vertices",), _table("vertices", x=0.0, y=0.0)),
        (("vertices", "particle_id", 0), 999),
        (("vertices", "hit_id", 0), 2**63),
        (("vertices", "layer", 0), 1.7),
        (("vertices", "z", 0), True),
        (("targets", "theta", 0), None),
        (("tracks",), _with_row("tracks", particle_id=999)),
        (("vertices", "hit_id", 1), _table("vertices")["hit_id"][0]),
        (("vertices", "layer", 0), -1),
        (("tracks", "pt", 0), 0.0),
        (("tracks", "pt", 0), -2.5),
        (("tracks",), _with_row("tracks", pt=99.0)),
        (("format",), "graph-v3"),
        (("edges", "i", 0), _table("edges")["j"][0]),
        (("edges",), {"i": [1], "j": [0]}),
        (("edges",), _with_row("edges", i=0, j=len(_table("vertices")
                                                   ["hit_id"]))),
        (("targets",), _table("targets", a=None, b=None))])
    def test_inconsistent_document_rejected(self, path, value):
        doc = decoded(json.loads(GRAPH_DOC))
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError):
            graph_from_dict(encoded(doc))

    @pytest.mark.parametrize("path, value, message", [
        (("vertices", "x"), 0.1,
         "column 'x' is not a [dtype, base64] pair"),
        (("vertices",), _without("vertices", "layer"),
         "graph-v6 document lacks key 'layer'"),
        (("edges", "j"), [1], "column 'j' has 1 values, column 'i' "),
        (("tracks", "eps_t"), [0.0], "column 'eps_t' has 1 values, "
                                     "column 'particle_id' 2"),
        (("targets", "b", 1), None,
         "column 'b' is not a [dtype, base64] pair"),
        (("edges", "i", 0), 2.0,
         "column 'i' has dtype '<f8', expected '<i8'"),
        (("vertices",), [], "expected a table of columns 'hit_id', "),
        (("edges",), [1], "expected a table of columns 'i', 'j', found "
                          "list"),
        (("edges", "i", 0), 1, "graph edges must be pairs i < j")],
        ids=["not-an-array", "missing", "edges-of-unequal-length",
             "particles-of-unequal-length", "null-in-a-target-column",
             "edge-end-not-int", "not-an-object", "edges-a-list",
             "edge-i-equals-j"])
    def test_bad_table_names_the_field(self, path, value, message):
        doc = decoded(json.loads(GRAPH_DOC))
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            graph_from_dict(encoded(doc))

    @pytest.mark.parametrize("target", [None, 1.5, "x", [0.1]])
    def test_bad_target_column_names_the_column(self, target):
        doc = json.loads(GRAPH_DOC)
        doc["targets"]["theta"] = target
        with pytest.raises(ConsistencyError, match="column 'theta'"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("change, message", [
        (lambda doc: [c.pop() for c in doc["targets"].values()],
         "graph 0 has targets of shape (1, 5) for 2 tracks"),
        (lambda doc: doc.update(targets=_with_row("targets")),
         "graph 0 has targets of shape (3, 5) for 2 tracks"),
        (lambda doc: doc.update(targets=_table("targets", 1, a=1e-4, b=0.5)),
         "semi-axes must satisfy a >= b > 0"),
        (lambda doc: doc.pop("targets"),
         "graph-v6 document lacks key 'targets'"),
        (lambda doc: doc.update(tracks=_with_row("tracks"),
                                targets=_with_row("targets")),
         "particles [1] are listed twice")],
        ids=["targets-row-short", "targets-row-long", "target-a-below-b",
             "targets-missing", "track-listed-twice"])
    def test_bad_tracks_or_targets_rejected_naming_the_check(self, change,
                                                             message):
        doc = decoded(json.loads(GRAPH_DOC))
        assert doc["tracks"]["particle_id"] == [1, 2]
        change(doc)
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            graph_from_dict(encoded(doc))

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
        loaded = [graph.eta, graph.phi, graph.hits.x, graph.hits.y,
                  graph.hits.z,
                  graph.tracks.pt, graph.tracks.eps_t, graph.targets,
                  [e for e in graph.vertex_target_ellipse if e is not None]]
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
        pts = np.stack([e.hits.eta, e.hits.phi], axis=1)
        labels = dbscan(pts, DbscanParams())
        for pid in e.tracks.particle_id:
            ids = np.flatnonzero(e.hits.particle_id == pid)
            for x in range(len(ids)):
                for y in range(x + 1, len(ids)):
                    total += 1
                    li, lj = labels[ids[x]], labels[ids[y]]
                    together += int(li == lj and li != -1)
    assert together / total >= 0.95
