import base64
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackseg
from conftest import (JSON_VALUES, decoded, doc_paths, ellipse, encoded,
                      hit_at, hit_table, set_at, track_table)
from oracles import brute_force_dbscan
from test_events import BAD_TRACKML, BAD_TRACKML_IDS, HITS_CSV, \
    write_trackml
from trackseg import tracknet
from trackseg.ellipses import IOU_RESOLUTION
from trackseg.errors import ConfigError, ConsistencyError, DataError
from trackseg.events import (DetectorConfig, Event, GenConfig,
                             event_from_dict, event_to_dict, generate_event,
                             read_trackml_event)
from trackseg.graphs import (DbscanParams, build_graph, graph_from_dict,
                             truth_ellipses)
from trackseg.harness import pipeline
from trackseg.harness.cli import main
from trackseg.harness.config import (RunConfig, apply_overrides,
                                     config_from_dict, load_config)
from trackseg.harness.io import prediction_from_dict, prediction_to_dict
from trackseg.harness.metrics import auc_score, evaluate
from trackseg.harness.render import render_event_svg
from trackseg.jsonio import read_json, write_json
from trackseg.postprocess import TrackCandidate


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed(self):
        assert auc_score([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_ties_give_half(self):
        assert auc_score([0, 1], [0.5, 0.5]) == 0.5

    def test_hand_computed(self):
        # pairs: (0.4 vs 0.3) win, (0.4 vs 0.5) loss -> AUC = 0.5
        assert auc_score([1, 0, 0], [0.4, 0.3, 0.5]) == 0.5

    def test_single_class(self):
        assert auc_score([1, 1], [0.2, 0.9]) == 1.0

    def test_matches_pairwise_count_on_ties(self):
        # AUC is the share of (positive, negative) pairs ranked right,
        # a tie counting one half; few distinct scores force many ties
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.random(n) < 0.5
            labels[:2] = (True, False)
            scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=n)
            pos, neg = scores[labels], scores[~labels]
            wins = (pos[:, None] > neg[None, :]).sum() + \
                0.5 * (pos[:, None] == neg[None, :]).sum()
            assert auc_score(labels, scores) == pytest.approx(
                wins / (len(pos) * len(neg)), abs=1e-12)


def truth_identity_prediction(event):
    """Prediction payload built from truth: one candidate per track row,
    each track vertex with its track's ellipse."""
    targets = truth_ellipses(event)
    track_row = event.track_row
    candidates = [
        TrackCandidate(tuple(target), 1.0,
                       tuple(np.flatnonzero(track_row == k).tolist()),
                       params=(pt, eps_t))
        for k, (target, pt, eps_t) in enumerate(zip(
            targets.tolist(), event.tracks.pt.tolist(),
            event.tracks.eps_t.tolist()))]
    vertices = np.flatnonzero(track_row >= 0)
    return {
        "event_id": event.event_id,
        "vertex_hit_ids": event.hits.hit_id.tolist(),
        "class_prob": (track_row >= 0).astype(float).tolist(),
        "ellipses": (vertices, targets[track_row[vertices]]),
        "candidates": candidates,
        "assignments": [k if k >= 0 else None for k in track_row.tolist()],
    }


class TestEvaluate:
    def event(self, seed=90, n_tracks=4):
        det = DetectorConfig()
        return generate_event(det, GenConfig(n_tracks=n_tracks,
                                             noise_fraction=0.1,
                                             hit_smearing_sigma=0.0),
                              seed=seed)

    def test_identity_pipeline_perfect(self):
        e = self.event()
        m = evaluate({e.event_id: truth_identity_prediction(e)},
                     {e.event_id: e})
        assert m["segmentation"] == {"efficiency": 1.0, "purity": 1.0}
        assert m["hit_classification"] == {"accuracy": 1.0, "auc": 1.0}
        assert m["parameter_resolution"] == {"pt_rel_rms": 0.0,
                                             "eps_t_abs_rms": 0.0}

    def test_zero_candidates(self):
        e = self.event(seed=91)
        pred = truth_identity_prediction(e)
        pred["candidates"] = []
        pred["assignments"] = [None] * len(pred["assignments"])
        m = evaluate({e.event_id: pred}, {e.event_id: e})
        assert m["segmentation"] == {"efficiency": 0.0, "purity": 0.0}
        assert m["flags"].get("no_candidates")

    def test_no_tracks(self):
        e = self.event(seed=91)
        noise = Event(e.event_id, e.hits.take(e.hits.particle_id == 0),
                      track_table([]))
        m = evaluate({e.event_id: truth_identity_prediction(noise)},
                     {e.event_id: noise})
        assert m["counts"]["n_tracks"] == 0
        assert m["segmentation"]["efficiency"] == 0.0
        assert m["flags"].get("no_tracks")
        tracked = evaluate({e.event_id: truth_identity_prediction(e)},
                           {e.event_id: e})
        assert "no_tracks" not in tracked["flags"]

    def test_half_matched(self):
        e = self.event(seed=92, n_tracks=2)
        pred = truth_identity_prediction(e)
        # drop the second track's assignments
        second_pid = e.tracks.particle_id[1]
        pred["assignments"] = [
            a if e.hits.particle_id[i] != second_pid else None
            for i, a in enumerate(pred["assignments"])]
        m = evaluate({e.event_id: pred}, {e.event_id: e})
        assert m["segmentation"] == {"efficiency": 0.5, "purity": 0.5}

    def test_event_id_mismatch(self):
        e = self.event(seed=93)
        with pytest.raises(ConsistencyError):
            evaluate({99: truth_identity_prediction(e)}, {e.event_id: e})

    def test_resolution_rms(self):
        e = self.event(seed=94, n_tracks=1)
        pred = truth_identity_prediction(e)
        pt, eps_t = e.tracks.pt[0], e.tracks.eps_t[0]
        biased = TrackCandidate(pred["candidates"][0].ellipse, 1.0,
                                pred["candidates"][0].member_vertex_ids,
                                params=(pt * 1.1, eps_t + 2e-4))
        pred["candidates"] = [biased]
        res = evaluate({e.event_id: pred},
                       {e.event_id: e})["parameter_resolution"]
        assert res["pt_rel_rms"] == pytest.approx(0.1)
        assert res["eps_t_abs_rms"] == pytest.approx(2e-4)

    def test_resolution_rms_of_residuals_whose_squares_overflow(self):
        e = self.event(seed=94, n_tracks=1)
        pred = truth_identity_prediction(e)
        pred["candidates"] = [TrackCandidate(
            pred["candidates"][0].ellipse, 1.0,
            pred["candidates"][0].member_vertex_ids,
            params=(e.tracks.pt[0],
                    e.tracks.eps_t[0] + 1.3407807929942597e154))]
        res = evaluate({e.event_id: pred},
                       {e.event_id: e})["parameter_resolution"]
        assert res["eps_t_abs_rms"] == pytest.approx(1.3407807929942597e154)

    def test_event_order_invariance(self):
        events = {i: self.event(seed=95 + i) for i in range(3)}
        preds = {i: truth_identity_prediction(e)
                 for i, e in events.items()}
        m1 = evaluate(preds, events)
        m2 = evaluate(dict(reversed(list(preds.items()))),
                      dict(reversed(list(events.items()))))
        assert m1 == m2


class TestRender:
    def test_empty_event_valid_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        render_event_svg(Event(0, hit_table([]), track_table([])), [], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text
        assert "<circle" not in text and "<ellipse" not in text

    def test_element_counts(self, tmp_path):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=2, noise_fraction=0.2,
                                          hit_smearing_sigma=0.0), seed=40)
        shapes = truth_ellipses(e)
        path = tmp_path / "event.svg"
        render_event_svg(e, shapes, path)
        text = path.read_text()
        assert text.count("<circle") == len(e.hits)
        assert text.count("<ellipse") == len(shapes)

    def test_single_hit_single_ellipse(self, tmp_path):
        e = Event(0, hit_table([hit_at(1, 0.5, 1.0)]), track_table([]))
        path = tmp_path / "one.svg"
        render_event_svg(e, [ellipse(0.5, 1.0, 0.1, 0.05, 0.3)], path)
        text = path.read_text()
        assert text.count("<circle") == 1
        assert text.count("<ellipse") == 1

    def test_byte_identical(self, tmp_path):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=3, hit_smearing_sigma=0.0),
                           seed=41)
        shapes = truth_ellipses(e)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_event_svg(e, shapes, p1)
        render_event_svg(e, shapes, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_old_plot(self, tmp_path, monkeypatch):
        e = generate_event(DetectorConfig(), GenConfig(n_tracks=2), seed=42)
        path = tmp_path / "event.svg"
        render_event_svg(e, [], path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            render_event_svg(e, truth_ellipses(e), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


# every settable run-config value, the top-level seed as section None
SETTINGS = [(None, "seed")] + [
    (section, key) for section, values in RunConfig().to_dict().items()
    if isinstance(values, dict) for key in values]

# (section, key, value); section None is the top level.  Each value
# fails the type or the range check of its field.
BAD_VALUES = [
    ("training", "lr", "0.001"),
    ("generator", "n_events", "3"),
    ("model", "hidden", 8.5),
    ("model", "loss_weights", [1, 1]),
    ("selection", "volumes", 7),
    ("detector", "field_b", 0),
    ("nms", "t_h", 1.5),
    ("eval", "n_holdout", -1),
    ("training", "epochs", 0),
    ("dbscan", "eps", 0),
    (None, "seed", -1),
    ("generator", "n_events", 0),
    ("nms", "class_threshold", 1.5),
    ("model", "loss_weights", [1, -1, 1]),
    ("training", "weight_decay", -1e-5)]


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.model.iterations == 4
        assert cfg.training.epochs == 30
        assert cfg.training.lr == 1e-6
        assert cfg.nms.t_h == 0.5
        assert cfg.dbscan == DbscanParams(eps=0.05, min_pts=2)
        assert cfg.selection.pt_min == 2.0
        assert cfg.selection.volumes == (7, 8, 9)

    def test_round_trip(self):
        cfg = RunConfig(seed=5)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bogus": {}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"training": {"learning_rate": 1e-3}})

    @pytest.mark.parametrize("section, key, value", [
        ("dbscan", "topology", "complete"),
        ("model", "two_logit_classifier", False),
        ("dbscan", "ellipse_padding", 1.1),
        ("dbscan", "axis_floor", 1e-4),
        ("dbscan", "mvee_tolerance", 1e-6),
        ("nms", "iou_resolution", 64),
        ("training", "huber_delta", 1.0),
        ("training", "tracking_scales", [1.0, 1e-3]),
        ("eval", "match_fraction", 0.5)])
    def test_removed_keys_exit_2(self, tmp_path, section, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert main(["--config", str(path), "generate"]) == 2

    @pytest.mark.parametrize("section, key, value", BAD_VALUES, ids=[
        ".".join(filter(None, (section, key))) + "=" + json.dumps(value)
        for section, key, value in BAD_VALUES])
    def test_bad_value_exits_2(self, tmp_path, capsys, section, key, value):
        doc = {key: value} if section is None else {section: {key: value}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc,
                                    "paths": {"out_dir": str(tmp_path)}}))
        assert main(["--config", str(path), "generate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not (tmp_path / "events").exists()

    @pytest.mark.parametrize("doc", [
        {"generator": {"eta_range": [-800, 800]}},
        {"generator": {"pt_range": [1e300, 1e308]}},
        {"detector": {"z_halflength": 1e308},
         "generator": {"eta_range": [-700, 700]}},
        {"generator": {"eps_range": [0, 1e200]}},
        {"detector": {"field_b": 1e-300}, "generator": {}}],
        ids=["eta-range-800", "pt-range-1e308", "z-halflength-1e308",
             "eps-range-1e200", "field-b-1e-300"])
    def test_generator_range_that_overflows_exits_2(self, tmp_path, capsys,
                                                    doc):
        doc = {**doc, "generator": {**doc["generator"], "n_events": 1},
               "paths": {"out_dir": str(tmp_path)}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "generate"]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "events").exists()

    @pytest.mark.parametrize("field_b", [1e-300, 3e-96])
    def test_field_too_weak_for_the_largest_radius_named(self, field_b):
        # the largest generator radius is PT_LIMIT / (0.3 field_b)
        with pytest.raises(ConfigError, match="detector.field_b must be at "
                                              "least 3.33e-96 T"):
            config_from_dict({"detector": {"field_b": field_b}})
        config_from_dict({"detector": {"field_b": 3.4e-96}})

    @given(st.lists(st.tuples(st.sampled_from(SETTINGS), JSON_VALUES),
                    max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_loads_or_is_a_config_error(self, items):
        doc = {}
        for (section, key), value in items:
            if section is None:
                doc[key] = value
            else:
                doc.setdefault(section, {})[key] = value
        try:
            cfg = config_from_dict(doc)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_file_loading(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3,
                                    "training": {"epochs": 2}}))
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.training.epochs == 2
        assert cfg.training.lr == 1e-6  # untouched default

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_bytes(b"\xff\xfe{}")  # not UTF-8 text
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), seed=9, out_dir="elsewhere")
        assert cfg.seed == 9
        assert cfg.paths.out_dir == "elsewhere"

    def test_derived_seeds_differ(self, tmp_path, monkeypatch):
        seeds = []

        def recording(fn):
            def call(*args, seed, **kwargs):
                seeds.append(seed)
                return fn(*args, seed=seed, **kwargs)
            return call

        monkeypatch.setattr(pipeline, "generate_event",
                            recording(pipeline.generate_event))
        for name in ("Model", "train"):
            monkeypatch.setattr(tracknet, name,
                                recording(getattr(tracknet, name)))
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in ("generate", "build-graphs", "train"):
            assert main(["--config", str(cfg_path), cmd]) == 0
        assert len(seeds) == 4 + 2  # four events, model init, shuffling
        assert len(set(seeds)) == len(seeds)


FUZZ_EVENT = generate_event(
    DetectorConfig(), GenConfig(n_tracks=2, noise_fraction=0.2,
                                hit_smearing_sigma=1e-4), seed=45)
EVENT_DOC = json.dumps(event_to_dict(FUZZ_EVENT))
EVENT_DOC_PATHS = list(doc_paths(json.loads(EVENT_DOC)))


def _prediction_doc():
    pred = truth_identity_prediction(FUZZ_EVENT)
    return json.dumps(prediction_to_dict(
        pred["event_id"], pred["vertex_hit_ids"], pred["class_prob"],
        pred["ellipses"], pred["candidates"], pred["assignments"]))


ELLIPSES = st.builds(
    ellipse, st.floats(-5.0, 5.0), st.floats(0.0, 2.0 * math.pi),
    st.floats(1e-4, 1.0), st.floats(1e-4, 1.0), st.floats(0.0, math.pi))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def predictions(draw):
    """prediction_to_dict's arguments: any prediction, or one with no
    candidates, no ellipses, no vertex assigned or only single-member
    candidates."""
    shape = draw(st.sampled_from(["any", "no-candidates", "no-ellipses",
                                  "unassigned", "single-member"]))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=8,
                        unique=True))
    n = len(ids)
    sizes = dict(min_size=1, max_size=1) if shape == "single-member" \
        else dict(max_size=4)
    members = st.lists(st.integers(0, n - 1), **sizes) if n else st.just([])
    candidates = [] if shape == "no-candidates" else draw(st.lists(st.builds(
        TrackCandidate, ELLIPSES, FINITE, members.map(tuple),
        st.tuples(FINITE, FINITE)), max_size=5))
    ellipses = st.none() if shape == "no-ellipses" else \
        st.none() | ELLIPSES
    assignments = st.none() if shape == "unassigned" or not candidates \
        else st.none() | st.integers(0, len(candidates) - 1)
    event_id = draw(st.integers(-2**63, 2**63 - 1))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    per_vertex = draw(st.lists(ellipses, min_size=n, max_size=n))
    vertices = [v for v, e in enumerate(per_vertex) if e is not None]
    rows = np.array([per_vertex[v] for v in vertices])
    return (event_id, ids, probs,
            (np.array(vertices, dtype=int), rows.reshape(-1, 5)), candidates,
            draw(st.lists(assignments, min_size=n, max_size=n)))


def package_env() -> dict:
    """The environment with this package's source first on PYTHONPATH,
    for a fresh interpreter."""
    src = str(Path(trackseg.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


PRED_DOC = _prediction_doc()
# every path into the document as stored, and into its columns' values
PRED_DOC_PATHS = list(doc_paths(json.loads(PRED_DOC)))
PRED_VALUE_PATHS = list(doc_paths(decoded(json.loads(PRED_DOC))))
PRED_VERTICES = decoded(json.loads(PRED_DOC))["vertices"]


class TestIo:
    def test_reading_a_prediction_leaves_numpy_ma_unimported(self, tmp_path):
        # a plain np.unique imports numpy.ma, about 1.2 MB of peak RSS
        path = tmp_path / "pred.json"
        path.write_text(PRED_DOC)
        code = ("import sys\n"
                "from trackseg.harness.io import prediction_from_dict\n"
                "from trackseg.jsonio import read_json\n"
                "pred = prediction_from_dict(read_json(sys.argv[1]))\n"
                "assert pred['candidates'], 'no candidates read'\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        result = subprocess.run([sys.executable, "-c", code, str(path)],
                                env=package_env(), capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_event_round_trip(self):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=3, noise_fraction=0.2,
                                          hit_smearing_sigma=1e-4), seed=43)
        doc = event_to_dict(e, config_echo={"seed": 1})
        assert doc["format"] == "event-v4"
        assert doc["config"] == {"seed": 1}
        restored = event_from_dict(doc)
        assert restored == e

    @pytest.mark.parametrize("source", ["generated", "trackml"])
    def test_event_text_round_trip_is_bit_identical(self, source, tmp_path):
        if source == "generated":
            e = generate_event(DetectorConfig(), GenConfig(
                n_tracks=5, noise_fraction=0.2, hit_smearing_sigma=2e-4),
                seed=46)
        else:
            e = read_trackml_event(*write_trackml(tmp_path))
        restored = event_from_dict(json.loads(json.dumps(event_to_dict(e))))
        assert restored == e
        assert [(eta.hex(), phi.hex()) for eta, phi in zip(
            restored.hits.eta.tolist(), restored.hits.phi.tolist())] == \
            [(eta.hex(), phi.hex()) for eta, phi in zip(
                e.hits.eta.tolist(), e.hits.phi.tolist())]

    def test_event_format_check(self):
        with pytest.raises(ConsistencyError):
            event_from_dict({"format": "nope"})

    def test_prediction_round_trip(self):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=2, hit_smearing_sigma=0.0),
                           seed=44)
        pred = truth_identity_prediction(e)
        doc = prediction_to_dict(
            pred["event_id"], pred["vertex_hit_ids"], pred["class_prob"],
            pred["ellipses"], pred["candidates"], pred["assignments"])
        restored = prediction_from_dict(doc)
        assert restored["candidates"] == pred["candidates"]
        assert restored["assignments"] == pred["assignments"]
        assert restored["class_prob"] == pred["class_prob"]

    @given(predictions())
    @settings(max_examples=200, deadline=None)
    def test_any_prediction_round_trips(self, prediction):
        doc = prediction_to_dict(*prediction)
        text = json.dumps(doc, sort_keys=True)
        pred = prediction_from_dict(json.loads(text))
        event_id, ids, probs, ellipses, candidates, assignments = prediction
        assert (pred["event_id"], pred["vertex_hit_ids"], pred["class_prob"],
                pred["candidates"], pred["assignments"]) == \
            (event_id, ids, probs, candidates, assignments)
        assert all(map(np.array_equal, pred["ellipses"], ellipses))
        # what the benchmark's output check compares
        again = prediction_to_dict(pred["event_id"], pred["vertex_hit_ids"],
                                   pred["class_prob"], pred["ellipses"],
                                   pred["candidates"], pred["assignments"])
        assert json.dumps(again, sort_keys=True) == text

    # each value at its path of the document's decoded columns, stored
    # again as a writer with that value would store it (conftest.encoded)
    @pytest.mark.parametrize("path, value", [
        (("vertices", "class_prob", 0), math.nan),
        (("vertices", "class_prob", 0), 1.5),
        (("vertices", "class_prob", 0), -0.1),
        (("candidates", "confidence", 0), math.inf),
        (("candidates", "eps_t", 0), math.nan),
        (("candidates", "phi_c", 0), math.nan),
        (("vertices", "assignment", 1), 0.7),
        (("members", "vertex"), [True, 1]),
        (("candidates", "a", 0), "0.1"),
        (("event_id",), False),
        (("vertices", "hit_id", 1), PRED_VERTICES["hit_id"][0]),
        (("members", "vertex", 0), -1),
        (("members", "vertex", 0), len(PRED_VERTICES["hit_id"]))])
    def test_prediction_with_bad_number_rejected(self, path, value):
        doc = decoded(json.loads(PRED_DOC))
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError):
            prediction_from_dict(encoded(doc))

    # what a writer of such a value stores: a float in an int column
    # under the dtype "<f8", and text or an id beyond int64 as no
    # [dtype, base64] pair at all
    @pytest.mark.parametrize("path, value", [
        (("hits", "layer", 0), 1.7),
        (("hits", "hit_id", 0), "1"),
        (("tracks", "particle_id", 0), 1.0),
        (("hits", "hit_id", -1), 2**63)])
    def test_event_with_wrong_typed_number_rejected(self, path, value):
        doc = decoded(json.loads(EVENT_DOC))
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError, match="column '"):
            event_from_dict(encoded(doc))

    @pytest.mark.parametrize("path, value, message", [
        (("hits", "volume"), 0,
         "column 'volume' is not a [dtype, base64] pair"),
        (("tracks", "pt"), [2.0], "column 'pt' has 1 values, column "
                                  "'particle_id' 2"),
        (("hits",), {"hit_id": [1]}, "event-v4 document lacks key 'x'"),
        (("hits",), [1], "expected a table of columns 'hit_id', 'x', "),
        (("tracks", "b", 0), None,
         "column 'b' is not a [dtype, base64] pair"),
        (("format",), "event-v2",
         "event-v2 document: regenerate the events with generate or ingest"),
        (("format",), "event-v3",
         "event-v3 document: regenerate the events with generate or ingest"),
        (("tracks", "a", 1), math.inf, "column 'a' has a non-finite value "
                                       "at row 1")],
        ids=["not-an-array", "unequal-lengths", "missing", "hits-a-list",
             "null", "v2", "v3", "track-a-inf"])
    def test_bad_event_table_names_the_field(self, path, value, message):
        doc = decoded(json.loads(EVENT_DOC))
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            event_from_dict(encoded(doc))

    def test_event_without_tracks_round_trips(self):
        e = generate_event(DetectorConfig(), GenConfig(n_tracks=0,
                                                       noise_fraction=0.5),
                           seed=47)
        assert len(e.hits) == 0 and len(e.tracks) == 0
        doc = json.loads(json.dumps(event_to_dict(e)))
        assert doc["tracks"]["pt"] == ["<f8", ""]
        assert event_from_dict(doc) == e

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_builds_a_graph_or_is_a_data_error(self, data):
        doc = json.loads(EVENT_DOC)
        set_at(doc, data.draw(st.sampled_from(EVENT_DOC_PATHS)),
               data.draw(JSON_VALUES))
        try:
            event = event_from_dict(doc)
        except DataError:
            return
        # what build-graphs does with the event
        build_graph(event, DbscanParams())

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_evaluates_or_is_a_data_error(self, data):
        # the value lands in the document as stored or, stored again as
        # a writer would store it, among a column's values
        if data.draw(st.booleans()):
            doc = json.loads(PRED_DOC)
            set_at(doc, data.draw(st.sampled_from(PRED_DOC_PATHS)),
                   data.draw(JSON_VALUES))
        else:
            doc = decoded(json.loads(PRED_DOC))
            set_at(doc, data.draw(st.sampled_from(PRED_VALUE_PATHS)),
                   data.draw(JSON_VALUES))
            doc = encoded(doc)
        try:
            pred = prediction_from_dict(doc)
            evaluate({pred["event_id"]: pred},
                     {FUZZ_EVENT.event_id: FUZZ_EVENT})
        except DataError:
            return
        n_vertices, n_candidates = (len(pred["vertex_hit_ids"]),
                                    len(pred["candidates"]))
        assert all(len(pred[key]) == n_vertices
                   for key in ("class_prob", "assignments"))
        vertices, rows = pred["ellipses"]
        assert rows.shape == (len(vertices), 5)
        assert all(0 <= v < n_vertices for v in vertices)
        assert len(set(pred["vertex_hit_ids"])) == n_vertices
        assert all(0 <= i < n_vertices for c in pred["candidates"]
                   for i in c.member_vertex_ids)
        assert all(a is None or 0 <= a < n_candidates
                   for a in pred["assignments"])
        assert all(0.0 <= p <= 1.0 for p in pred["class_prob"])
        loaded = [*rows.tolist(),
                  *(c.ellipse for c in pred["candidates"]),
                  *((c.confidence, *c.params) for c in pred["candidates"])]
        assert all(map(math.isfinite, itertools.chain(*loaded)))

    def test_failed_write_keeps_old_artifact(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            write_json(path, {"v": object()})

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_json(path, {"v": 2})
        assert read_json(path) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]


def _drop_key(key):
    return lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != key})


def _drop_last_param(doc):
    """Re-encode a checkpoint's parameters without the last value."""
    raw = base64.b64decode(doc["params"])
    doc["params"] = base64.b64encode(raw[:-8]).decode()


def _edited(change):
    """Damage that applies change(doc) to the document, its binary
    columns decoded to lists, and stores it again (conftest.encoded)."""
    def damage(text):
        doc = decoded(json.loads(text))
        change(doc)
        return json.dumps(encoded(doc))
    return damage


def _raw(change):
    """Damage that applies change(doc) to the document as stored."""
    def damage(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return damage


def _set_row(table, row, **values):
    """Set `values` at `row` of the columns `table`."""
    for name, value in values.items():
        table[name][row] = value


def _append_row(table, row=0, **values):
    """Append a copy of row `row` of the columns `table`, changed by
    `values`."""
    for name, column in table.items():
        column.append(values.get(name, column[row]))


def _empty_tables(doc):
    """Clear every column of a graph's vertex, track, edge and target
    tables."""
    for table in ("vertices", "tracks", "edges", "targets"):
        for column in doc[table].values():
            column.clear()


def _drop_vertex_particle_ids(text):
    doc = json.loads(text)
    del doc["vertices"]["particle_id"]
    return json.dumps(doc)


def _on_hits(damage):
    """Damage that applies damage(hits) to the stored hits of an event or
    graph document."""
    return _edited(lambda doc: damage(
        doc["hits"] if "hits" in doc else doc["vertices"]))


def _repeat_hit_id(hits):
    _set_row(hits, 1, hit_id=hits["hit_id"][0])


def _negative_layer(hits):
    _set_row(hits, 0, layer=-1)


def _last_hit_on_beamline(hits):
    _set_row(hits, -1, hit_id=10**6, x=0.0, y=0.0)


# the same damage to what each reader reads: (artifact, damage, command,
# what the error names); "hits.csv" is TrackML input to ingest
SAME_DAMAGE = [
    ("events/event_00000.json", _on_hits(_repeat_hit_id), "build-graphs",
     "repeats a hit_id"),
    ("graphs/graph_00000.json", _on_hits(_repeat_hit_id), "train",
     "repeats a hit_id"),
    ("events/event_00000.json", _on_hits(_negative_layer), "build-graphs",
     "negative layer -1"),
    ("graphs/graph_00000.json", _on_hits(_negative_layer), "train",
     "negative layer -1"),
    ("events/event_00000.json", _on_hits(_last_hit_on_beamline),
     "build-graphs", "hit 1000000: polar angle must lie in (0, pi)"),
    ("graphs/graph_00000.json", _on_hits(_last_hit_on_beamline), "train",
     "hit 1000000: polar angle must lie in (0, pi)"),
    ("hits.csv", lambda text: text.replace("13,2,3", "13,-1,3"), "ingest",
     "line 4: "),
    ("graphs/graph_00000.json",
     _edited(lambda doc: _set_row(doc["tracks"], 0, pt=0.0)), "train",
     "p_T must be positive, got 0.0"),
    ("graphs/graph_00000.json",
     _edited(lambda doc: _set_row(doc["tracks"], 0, pt=-2.5)), "train",
     "p_T must be positive, got -2.5"),
    ("graphs/graph_00001.json", _edited(lambda doc: doc.update(event_id=0)),
     "train", "graph_00000.json and "),
    ("events/event_00001.json", _edited(lambda doc: doc.update(event_id=0)),
     "evaluate", "event_00001.json both hold event 0")]
SAME_DAMAGE_IDS = ["event-hit-id-repeated", "graph-hit-id-repeated",
                   "event-layer-negative", "graph-layer-negative",
                   "event-last-hit-on-beamline",
                   "graph-last-hit-on-beamline",
                   "trackml-layer-negative", "graph-pt-zero",
                   "graph-pt-negative", "graph-event-id-repeated",
                   "event-event-id-repeated"]


def _on_column(table, name, change):
    """Damage that applies change(tag, data) to the stored [dtype,
    base64] pair of column `name` of `table`, and stores what it
    returns."""
    return _raw(lambda doc: doc[table].__setitem__(
        name, change(*doc[table][name])))


def _values(change):
    """change(values) applied to a column's decoded values, stored again
    under the same dtype."""
    return lambda tag, data: [tag, base64.b64encode(change(
        np.frombuffer(base64.b64decode(data), tag)).tobytes()).decode()]


def _first(value):
    return _values(lambda values: np.concatenate([[value], values[1:]]))


# damage to one binary column of an event (read by build-graphs) or a
# graph (read by train), and what the error names
BINARY_DAMAGE = [
    ("events/event_00000.json",
     _on_column("hits", "x", lambda tag, data: [tag, "*" + data[1:]]),
     "column 'x' is not base64"),
    ("events/event_00000.json",
     _on_column("hits", "y", lambda tag, data: [tag, data[:8] + "\n"
                                                + data[8:]]),
     "column 'y' is not base64"),
    ("events/event_00000.json",
     _on_column("hits", "hit_id", lambda tag, data: [tag, data[:-3]]),
     "column 'hit_id' is not base64"),
    ("events/event_00000.json",
     _on_column("hits", "layer", lambda tag, data: ["<f8", data]),
     "column 'layer' has dtype '<f8', expected '<i8'"),
    ("events/event_00000.json",
     _on_column("tracks", "pt", _values(lambda values: values[:-1])),
     "column 'pt' has "),
    ("events/event_00000.json", _on_column("hits", "z", _first(math.nan)),
     "column 'z' has a non-finite value at row 0"),
    ("events/event_00000.json", _on_column("tracks", "b", _first(math.inf)),
     "column 'b' has a non-finite value at row 0"),
    ("events/event_00000.json",
     _on_column("hits", "volume", lambda tag, data: [tag]),
     "column 'volume' is not a [dtype, base64] pair"),
    ("events/event_00000.json", _raw(lambda doc: doc.update(
        format="event-v3")), "event-v3 document: regenerate the events"),
    ("graphs/graph_00000.json",
     _on_column("edges", "i", lambda tag, data: [tag, data[:-1] + "$"]),
     "column 'i' is not base64"),
    ("graphs/graph_00000.json",
     _on_column("vertices", "x", lambda tag, data: [tag, " " + data]),
     "column 'x' is not base64"),
    ("graphs/graph_00000.json",
     _on_column("edges", "j", lambda tag, data: [tag, data[:-3]]),
     "column 'j' is not base64"),
    ("graphs/graph_00000.json",
     _on_column("targets", "theta", lambda tag, data: ["<i8", data]),
     "column 'theta' has dtype '<i8', expected '<f8'"),
    ("graphs/graph_00000.json",
     _on_column("edges", "j", _values(lambda values: values[:-1])),
     "column 'j' has "),
    ("graphs/graph_00000.json",
     _on_column("targets", "eta_c", _first(math.nan)),
     "column 'eta_c' has a non-finite value at row 0"),
    ("graphs/graph_00000.json",
     _on_column("vertices", "y", _first(-math.inf)),
     "column 'y' has a non-finite value at row 0"),
    ("graphs/graph_00000.json",
     _on_column("tracks", "pt", lambda tag, data: data),
     "column 'pt' is not a [dtype, base64] pair"),
    ("graphs/graph_00000.json", _raw(lambda doc: doc.update(
        format="graph-v4")), "graph-v4 document: rebuild the graphs"),
    ("graphs/graph_00000.json", _raw(lambda doc: doc.update(
        format="graph-v5")),
     "graph-v5 document: rebuild the graphs with build-graphs")]
BINARY_DAMAGE_IDS = [
    "event-bad-character", "event-whitespace", "event-truncated",
    "event-wrong-dtype", "event-unequal-lengths", "event-nan",
    "event-inf", "event-not-a-pair", "event-v3",
    "graph-bad-character", "graph-whitespace", "graph-truncated",
    "graph-wrong-dtype", "graph-unequal-lengths", "graph-nan", "graph-inf",
    "graph-not-a-pair", "graph-v4", "graph-v5"]



def _n_candidates(doc):
    return len(doc["candidates"]["pt"])


def _swap_first_axes(doc, table="ellipses"):
    rows = doc[table]
    _set_row(rows, 0, a=rows["b"][0], b=rows["a"][0])


# damage that each check of the prediction reader (run by evaluate)
# rejects, and what the error names
PRED_DAMAGE = [
    (_edited(lambda doc: _set_row(doc["vertices"], 1,
                                  hit_id=doc["vertices"]["hit_id"][0])),
     "prediction repeats a vertex hit id"),
    (_edited(lambda doc: _set_row(doc["vertices"], 0, class_prob=1.5)),
     "prediction class_prob must lie in [0, 1]"),
    (_edited(lambda doc: _set_row(doc["vertices"], 0, class_prob=-0.5)),
     "prediction class_prob must lie in [0, 1]"),
    (_edited(lambda doc: _set_row(doc["vertices"], 0, assignment=-2)),
     "prediction assignment outside [-1, "),
    (_edited(lambda doc: _set_row(doc["vertices"], 0,
                                  assignment=_n_candidates(doc))),
     "prediction assignment outside [-1, "),
    (_edited(lambda doc: _set_row(doc["ellipses"], -1,
                                  vertex=len(doc["vertices"]["hit_id"]))),
     "prediction ellipse vertex outside [0, "),
    (_edited(lambda doc: _set_row(doc["ellipses"], 1,
                                  vertex=doc["ellipses"]["vertex"][0])),
     "prediction ellipse vertices do not ascend"),
    (_edited(lambda doc: _set_row(doc["members"], -1,
                                  candidate=_n_candidates(doc))),
     "prediction member candidate outside [0, "),
    (_edited(lambda doc: _set_row(doc["members"], 0, vertex=-1)),
     "prediction member vertex outside [0, "),
    (_edited(lambda doc: doc["members"]["candidate"].reverse()),
     "prediction members are not grouped by candidate"),
    (_edited(_swap_first_axes), "semi-axes must satisfy a >= b > 0"),
    (_edited(lambda doc: _swap_first_axes(doc, "candidates")),
     "candidate row 0: semi-axes must satisfy a >= b > 0"),
    (_edited(lambda doc: _set_row(doc["candidates"], 0, theta=4.0)),
     "theta must lie in [0, pi)"),
    (_edited(lambda doc: _set_row(doc["candidates"], 0, pt=math.inf)),
     "column 'pt' has a non-finite value at row 0"),
    (_raw(lambda doc: doc.update(format="pred-v1")),
     "pred-v1 document: rerun infer")]
PRED_DAMAGE_IDS = [
    "hit-id-repeated", "class-prob-above-one", "class-prob-negative",
    "assignment-below-none", "assignment-past-candidates",
    "ellipse-vertex-out-of-range", "ellipse-vertex-repeated",
    "member-candidate-out-of-range", "member-vertex-negative",
    "members-not-grouped", "ellipse-axes-swapped", "candidate-axes-swapped",
    "candidate-theta-out-of-range", "candidate-pt-inf", "pred-v1"]

STAGES = ("generate", "build-graphs", "train", "infer", "evaluate")


def tiny_cli_config(tmp_path, **training):
    cfg = {
        "seed": 11,
        "generator": {"n_events": 4, "n_tracks": 4,
                      "noise_fraction": 0.1, "hit_smearing_sigma": 2e-4},
        "training": {"epochs": 2, "lr": 1e-3, **training},
        "eval": {"n_holdout": 1},
        "paths": {"out_dir": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCli:
    def test_full_run(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "run"]) == 0
        out = tmp_path / "out"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["format"] == "metrics-v1"
        assert metrics["config"]["seed"] == 11
        assert (out / "checkpoint.json").exists()
        assert (out / "run.log").exists()
        assert list((out / "plots").glob("*.svg"))
        history = json.loads((out / "history.json").read_text())
        assert len(history["history"]) == 2

    def test_run_log_has_nms_diagnostics_per_event(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "run"]) == 0
        lines = [line for line in
                 (tmp_path / "out" / "run.log").read_text().splitlines()
                 if " nms: " in line]
        preds = sorted((tmp_path / "out" / "predictions").glob("pred_*.json"))
        assert len(lines) == len(preds) == 1
        pred = prediction_from_dict(read_json(preds[0]))
        kept = len(pred["ellipses"][0])
        n_cand = len(pred["candidates"])
        head, counts = lines[0].split("; ")
        assert head.endswith(
            f"event {pred['event_id']} nms: {kept} ellipses kept, {n_cand} "
            f"candidates, mean group size {kept / max(n_cand, 1):.2f}")
        pairs, near, over, clipped = map(int, re.fullmatch(
            r"(\d+) pairs, (\d+) past the centre-gap reject, (\d+) over "
            r"t_h, (\d+) edges clipped", counts).groups())
        assert pairs == kept * (kept - 1) // 2
        # every absorbed ellipse took one pair over t_h
        assert kept - n_cand <= over <= near <= pairs
        assert clipped <= 2 * IOU_RESOLUTION * near

    def test_bad_graph_document_names_its_file(self, tmp_path, capsys):
        cfg_path = tiny_cli_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["generator"]["n_events"] = 3
        cfg_path.write_text(json.dumps(cfg))
        for cmd in STAGES[:STAGES.index("train")]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path = tmp_path / "out" / "graphs" / "graph_00001.json"
        path.write_text(_edited(lambda doc: _set_row(
            doc["vertices"], 0, x=None))(path.read_text()))
        assert main(["--config", str(cfg_path), "train"]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "graph_00001.json" in err
        assert "column 'x' is not a [dtype, base64] pair" in err

    def test_run_log_has_graph_line_per_event(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "run"]) == 0
        out = tmp_path / "out"
        log_lines = (out / "run.log").read_text().splitlines()
        lines = [line for line in log_lines if " graph: " in line]
        docs = sorted((out / "graphs").glob("graph_*.json"))
        assert len(lines) == len(docs) == 4
        dbscan = RunConfig().dbscan
        for line, path in zip(lines, docs):
            graph = graph_from_dict(read_json(path))
            labels = brute_force_dbscan(
                np.stack([graph.eta, graph.phi], axis=1), dbscan.eps,
                dbscan.min_pts)
            assert line.endswith(
                f"event {graph.event_id} graph: {graph.n_vertices} hits, "
                f"{labels.max() + 1} clusters, {graph.n_edges} edges, "
                f"{np.count_nonzero(labels == -1)} unclustered hits")
        stage, = [line for line in log_lines if " built " in line]
        assert re.search(r" built 4 graphs -> .* in \d+\.\d\d s$", stage)
        mvee_line, = [line for line in log_lines if " MVEE " in line]
        iterations = re.search(r" target ellipses took (\d+) batched MVEE "
                               r"iterations$", mvee_line)
        assert iterations and int(iterations.group(1)) > 0

    def test_run_log_has_loss_line_per_epoch(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "run"]) == 0
        out = tmp_path / "out"
        log_lines = (out / "run.log").read_text().splitlines()
        lines = [line for line in log_lines if " l_total=" in line]
        history = json.loads((out / "history.json").read_text())["history"]
        assert len(lines) == len(history) + 1 == 3
        for line, r in zip(lines, history):
            assert line.endswith(
                f"epoch {r['epoch']}/2: l_c={r['l_c']:.6g} "
                f"l_loc={r['l_loc']:.6g} l_t={r['l_t']:.6g} "
                f"l_total={r['l_total']:.6g}")
        assert re.search(r" trained 2 epochs on 3 graphs in \d+\.\d\d s "
                         r"\(\d+\.\d steps/s\); final l_total=", lines[-1])

    def test_build_graphs_rejects_repeated_event_id(self, tmp_path, capsys):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "generate"]) == 0
        events = tmp_path / "out" / "events"
        shutil.copyfile(events / "event_00000.json",
                        events / "event_00001.json")
        assert main(["--config", str(cfg_path), "build-graphs"]) == 3
        err = capsys.readouterr().err
        assert "event_00000.json and " in err
        assert "event_00001.json both hold event 0" in err

    def test_rerun_identical_metrics(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "run"]) == 0
        first = (tmp_path / "out" / "metrics.json").read_bytes()
        assert main(["--config", str(cfg_path), "run"]) == 0
        assert (tmp_path / "out" / "metrics.json").read_bytes() == first

    def test_stagewise_matches_run(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in ("generate", "build-graphs", "train", "infer",
                    "evaluate"):
            assert main(["--config", str(cfg_path), cmd]) == 0
        assert (tmp_path / "out" / "metrics.json").exists()

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["--config", str(tmp_path / "missing.json"),
                     "generate"])
        assert code == 2

    def test_missing_input_dir_exits_2(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "train"]) == 2

    @pytest.mark.parametrize("artifact, damage, command", [
        ("graphs/graph_00000.json", lambda text: text[:100], "train"),
        ("graphs/graph_00000.json", _drop_key("vertices"), "train"),
        ("events/event_00000.json", _drop_key("hits"), "build-graphs"),
        ("predictions/pred_*.json", _drop_key("candidates"), "evaluate"),
        ("checkpoint.json",
         lambda text: text.replace('"tracknet-v4"', '"tracknet-v1"'),
         "infer"),
        ("checkpoint.json", _drop_key("params"), "infer"),
        ("events/event_00000.json", _edited(lambda doc: doc.update(hits=[5])),
         "build-graphs"),
        ("checkpoint.json",
         _edited(lambda doc: doc.update(params="!" + doc["params"][1:])),
         "infer"),
        ("predictions/pred_*.json",
         _edited(lambda doc: _set_row(doc["candidates"], 0, pt="x")),
         "evaluate"),
        ("graphs/graph_00000.json", lambda text: b"\xff\xfe{}", "train"),
        ("graphs/graph_00000.json", lambda text: "[" * 100_000, "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _append_row(doc["edges"], i=0, j=999)),
         "train"),
        ("graphs/graph_00000.json", _drop_vertex_particle_ids, "train"),
        ("events/event_00000.json",
         _edited(lambda doc: _set_row(doc["hits"], 0, z=math.nan)),
         "build-graphs"),
        ("predictions/pred_*.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0, assignment=999)),
         "evaluate"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0, x=None)), "train"),
        ("predictions/pred_*.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0,
                                      class_prob=math.nan)), "evaluate"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc.update(format="graph-v1")), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["edges"]["i"].append(0)), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: [c.pop() for c in doc["tracks"].values()]),
         "train"),
        ("checkpoint.json", _edited(_drop_last_param),
         "infer"),
        ("checkpoint.json",
         _edited(lambda doc: doc["config"].update(hidden=0)), "infer"),
        ("events/event_00000.json",
         _edited(lambda doc: _set_row(doc["hits"], 0, layer=1.7)),
         "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _append_row(doc["edges"], i=0.9, j=1)),
         "train"),
        ("predictions/pred_*.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0, hit_id=doc[
             "vertices"]["hit_id"][0] + 0.5)), "evaluate"),
        ("checkpoint.json",
         _edited(lambda doc: doc["config"].update(
             iterations=doc["config"]["iterations"] + 0.9)),
         "infer"),
        ("events/event_00000.json",
         _edited(lambda doc: doc.update(format="event-v1")), "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: _set_row(doc["hits"], 0, x=0.0, y=0.0)),
         "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: _append_row(doc["tracks"], particle_id=999)),
         "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: _set_row(doc["hits"], 0, particle_id=999)),
         "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: _append_row(doc["tracks"])), "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc.update(format="graph-v2")), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0, x=0.0, y=0.0)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0, x=math.inf)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["vertices"], 0, particle_id=999)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["targets"], 0, eta_c=None)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: [_append_row(doc["tracks"], particle_id=999),
                              _append_row(doc["targets"])]), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: [_append_row(doc["tracks"], pt=99.0),
                              _append_row(doc["targets"])]), "train"),
        ("events/event_00000.json",
         _edited(lambda doc: doc.update(format="event-v2")), "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc.update(format="graph-v3")), "train"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["hits"].update(volume=0)), "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["targets"].update(theta={})), "train"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["tracks"]["pt"].pop()), "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["vertices"]["z"].append(0.1)), "train"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["hits"].pop("volume")), "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["targets"].pop("theta")), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["edges"], 0,
                                      i=doc["edges"]["j"][0])), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["edges"], 0,
                                      i=doc["edges"]["j"][0],
                                      j=doc["edges"]["i"][0])), "train"),
        ("graphs/graph_00000.json", _edited(_empty_tables), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: [c.pop() for c in doc["targets"].values()]),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _append_row(doc["targets"])), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["targets"], 0, a=1e-4, b=0.5)),
         "train"),
        ("graphs/graph_00000.json", _drop_key("targets"), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["tracks"], 0, pt=math.inf)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: _set_row(doc["tracks"], 0, eps_t=math.nan)),
         "train")],
        ids=["graph-truncated", "graph-no-vertices", "event-no-hits",
             "pred-no-candidates", "checkpoint-v1", "checkpoint-no-params",
             "event-hit-not-object", "checkpoint-param-not-number",
             "pred-param-not-number", "graph-not-utf8",
             "graph-nested-too-deep", "graph-edge-out-of-range",
             "graph-vertex-particle-id-missing", "event-hit-nan-eta",
             "pred-assignment-out-of-range",
             "graph-vertex-x-null", "pred-class-prob-nan",
             "graph-v1-format", "graph-edge-not-a-pair",
             "graph-particle-missing", "checkpoint-param-count",
             "checkpoint-hidden-zero", "event-layer-not-int",
             "graph-edge-not-int", "pred-hit-id-not-int",
             "checkpoint-iterations-not-int", "event-v1-format",
             "event-hit-on-beamline", "event-track-without-hits",
             "event-hit-without-track", "event-track-id-repeated",
             "graph-v2-format", "graph-vertex-on-beamline",
             "graph-vertex-x-inf", "graph-vertex-particle-unlisted",
             "graph-particle-target-null", "graph-particle-without-vertex",
             "graph-particle-repeated", "event-v2-format", "graph-v3-format",
             "event-column-not-an-array", "graph-column-not-an-array",
             "event-columns-of-unequal-length",
             "graph-columns-of-unequal-length", "event-column-missing",
             "graph-column-missing",
             "graph-edge-i-equals-j", "graph-edge-i-above-j",
             "graph-without-vertices", "graph-targets-row-short",
             "graph-targets-row-long", "graph-target-a-below-b",
             "graph-targets-missing", "graph-pt-inf", "graph-eps-nan"])
    def test_malformed_artifact_exits_3(self, tmp_path, capsys, artifact,
                                        damage, command):
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in STAGES[:STAGES.index(command)]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path, = (tmp_path / "out").glob(artifact)
        damaged = damage(path.read_text())
        path.write_bytes(damaged if isinstance(damaged, bytes)
                         else damaged.encode())
        assert main(["--config", str(cfg_path), command]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, damage, command, message",
                             SAME_DAMAGE, ids=SAME_DAMAGE_IDS)
    def test_same_damage_exits_3_from_each_reader(self, tmp_path, capsys,
                                                  artifact, damage, command,
                                                  message):
        cfg_path = tiny_cli_config(tmp_path)
        if artifact == "hits.csv":
            hits, truth, particles = write_trackml(tmp_path,
                                                   hits=damage(HITS_CSV))
            args = ["--hits", str(hits), "--truth", str(truth),
                    "--particles", str(particles)]
        else:
            for cmd in STAGES[:STAGES.index(command)]:
                assert main(["--config", str(cfg_path), cmd]) == 0
            path = tmp_path / "out" / artifact
            path.write_text(damage(path.read_text()))
            args = []
        assert main(["--config", str(cfg_path), command, *args]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and message in err

    @pytest.mark.parametrize("artifact, damage, message",
                             BINARY_DAMAGE, ids=BINARY_DAMAGE_IDS)
    def test_damaged_binary_column_exits_3_naming_it(self, tmp_path, capsys,
                                                     artifact, damage,
                                                     message):
        cfg_path = tiny_cli_config(tmp_path)
        command = "build-graphs" if artifact.startswith("events") \
            else "train"
        for cmd in STAGES[:STAGES.index(command)]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path = tmp_path / "out" / artifact
        path.write_text(damage(path.read_text()))
        assert main(["--config", str(cfg_path), command]) == 3
        err = capsys.readouterr().err
        assert f"data error: {path}: " in err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, message", PRED_DAMAGE,
                             ids=PRED_DAMAGE_IDS)
    def test_damaged_prediction_exits_3_naming_the_check(self, tmp_path,
                                                         capsys, damage,
                                                         message):
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in STAGES[:STAGES.index("evaluate")]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path, = (tmp_path / "out").glob("predictions/pred_*.json")
        path.write_text(damage(path.read_text()))
        event_id = int(path.stem.split("_")[1])
        for command in (["evaluate"], ["plot", "--event", str(event_id)]):
            assert main(["--config", str(cfg_path), *command]) == 3
            err = capsys.readouterr().err
            assert f"data error: {path}: " in err
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, message", [
        (_edited(lambda doc: doc["config"].update(hidden=0)),
         "checkpoint config: need hidden width >= 1, got 0"),
        (_edited(lambda doc: doc.update(params="!" + doc["params"][1:])),
         "checkpoint params is not base64"),
        (_edited(_drop_last_param), "parameters, config needs")],
        ids=["bad-config", "bad-params-string", "length-mismatch"])
    def test_bad_checkpoint_names_its_file(self, tmp_path, capsys, damage,
                                           message):
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in STAGES[:STAGES.index("infer")]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path = tmp_path / "out" / "checkpoint.json"
        path.write_text(damage(path.read_text()))
        assert main(["--config", str(cfg_path), "infer"]) == 3
        err = capsys.readouterr().err
        assert f"data error: {path}: " in err
        assert message in err

    @pytest.mark.parametrize("column, value", [(3, -800.0), (2, 720.0)],
                             ids=["zero-axis", "overflow"])
    def test_undecodable_inference_output_exits_4(self, tmp_path, capsys,
                                                  column, value):
        # finite parameters that make every vertex a track vertex whose
        # encoded box has a log-axis of -800 (an axis of 0) or 720 (past
        # the float range)
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in STAGES[:STAGES.index("infer")]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path = tmp_path / "out" / "checkpoint.json"
        model = tracknet.load_checkpoint(path)
        box = [0.0] * 5
        box[column] = value
        for prefix, bias in (("cls.", [50.0]), ("loc.", box)):
            last = max(k for k in model.params if k.startswith(prefix + "b"))
            model.params[last.replace(".b", ".W")][:] = 0.0
            model.params[last][:] = bias
        tracknet.save_checkpoint(model, path)
        assert main(["--config", str(cfg_path), "infer"]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: undecodable inference output at vertex 0 " \
            "graph=3 component=encoded_box" in err
        assert not list((tmp_path / "out").glob("predictions/pred_*.json"))

    @pytest.mark.parametrize("prefix, output", [
        ("", "component=class_prob"), ("trk.", "component=candidate")],
        ids=["whole-model", "track-head"])
    def test_non_finite_inference_output_exits_4(self, tmp_path, capsys,
                                                 prefix, output):
        # finite parameters of alternating sign +-1e200 overflow the
        # forward pass; "trk." damages only the track-parameter head
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in STAGES[:STAGES.index("infer")]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path = tmp_path / "out" / "checkpoint.json"
        model = tracknet.load_checkpoint(path)
        for name, p in model.params.items():
            if name.startswith(prefix):
                p.flat[:] = 1e200
                p.flat[1::2] = -1e200
        tracknet.save_checkpoint(model, path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["--config", str(cfg_path), "infer"]) == 4
        err = capsys.readouterr().err
        # the held-out graph is the last of the four events
        assert "numeric failure" in err and "graph=3" in err
        assert output in err
        assert not list((tmp_path / "out").glob("predictions/pred_*.json"))

    def test_python_dash_m_runs_the_cli(self):
        result = subprocess.run([sys.executable, "-m", "trackseg", "--help"],
                                env=package_env(), capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0
        assert "build-graphs" in result.stdout

    def test_run_with_missing_hits_csv_writes_nothing(self, tmp_path,
                                                       capsys):
        cfg_path = tiny_cli_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["paths"]["hits_csv"] = str(tmp_path / "missing-hits.csv")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path), "run"]) == 2
        assert "hits_csv" in capsys.readouterr().err
        assert not (tmp_path / "out" / "events").exists()

    def test_missing_trackml_path_named(self, tmp_path, capsys):
        cfg_path = tiny_cli_config(tmp_path)
        code = main(["--config", str(cfg_path), "ingest"])
        assert code == 2
        assert "hits_csv" in capsys.readouterr().err

    def test_trackml_hit_on_beamline_exits_3(self, tmp_path, capsys):
        hits, truth, particles = write_trackml(
            tmp_path, hits=HITS_CSV.replace("-64.4,-7.2", "0.0,0.0"))
        code = main(["--config", str(tiny_cli_config(tmp_path)), "ingest",
                     "--hits", str(hits), "--truth", str(truth),
                     "--particles", str(particles)])
        assert code == 3
        assert "line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("files, line, message", BAD_TRACKML[3:],
                             ids=BAD_TRACKML_IDS[3:])
    def test_bad_trackml_row_exits_3(self, tmp_path, capsys, files, line,
                                     message):
        hits, truth, particles = write_trackml(tmp_path, **files)
        code = main(["--config", str(tiny_cli_config(tmp_path)), "ingest",
                     "--hits", str(hits), "--truth", str(truth),
                     "--particles", str(particles)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"line {line}: " in err and message in err

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "generate"]) == 0
        first = (tmp_path / "out" / "events" /
                 "event_00000.json").read_text()
        assert main(["--config", str(cfg_path), "--seed", "99",
                     "generate"]) == 0
        second = (tmp_path / "out" / "events" /
                  "event_00000.json").read_text()
        assert json.loads(first)["hits"] != json.loads(second)["hits"]

    def test_plot_truth(self, tmp_path):
        cfg_path = tiny_cli_config(tmp_path)
        assert main(["--config", str(cfg_path), "generate"]) == 0
        assert main(["--config", str(cfg_path), "plot", "--event", "0",
                     "--truth"]) == 0
        assert (tmp_path / "out" / "plots" / "event_00000.svg").exists()
