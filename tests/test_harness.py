import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackseg
from conftest import JSON_VALUES, doc_paths, set_at
from test_events import BAD_TRACKML, BAD_TRACKML_IDS, HITS_CSV, \
    write_trackml
from trackseg import tracknet
from trackseg.ellipses import make_ellipse
from trackseg.errors import ConfigError, ConsistencyError, DataError
from trackseg.events import (DetectorConfig, GenConfig, generate_event,
                             read_trackml_event)
from trackseg.graphs import (DbscanParams, assign_vertex_targets, build_graph,
                             truth_ellipses)
from trackseg.harness import pipeline
from trackseg.harness.cli import main
from trackseg.harness.config import (RunConfig, apply_overrides,
                                     config_from_dict, load_config)
from trackseg.harness.io import (event_from_dict, event_to_dict,
                                 prediction_from_dict, prediction_to_dict)
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
    """Prediction payload built from truth: one candidate per track."""
    ellipses = dict(truth_ellipses(event))
    hit_ids = [h.hit_id for h in event.hits]
    class_prob = [1.0 if h.particle_id != 0 else 0.0 for h in event.hits]
    candidates = []
    track_index = {}
    for k, t in enumerate(event.tracks):
        vertex_ids = [i for i, h in enumerate(event.hits)
                      if h.particle_id == t.particle_id]
        candidates.append(TrackCandidate(
            ellipses[t.particle_id], 1.0, tuple(vertex_ids),
            params=(t.params.p_t, t.params.eps_t)))
        track_index[t.particle_id] = k
    assignments = [track_index.get(h.particle_id) for h in event.hits]
    per_vertex = [ellipses.get(h.particle_id) for h in event.hits]
    return {
        "event_id": event.event_id,
        "vertex_hit_ids": hit_ids,
        "class_prob": class_prob,
        "ellipses": per_vertex,
        "candidates": candidates,
        "assignments": assignments,
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

    def test_half_matched(self):
        e = self.event(seed=92, n_tracks=2)
        pred = truth_identity_prediction(e)
        # drop the second track's assignments
        second_pid = e.tracks[1].particle_id
        pred["assignments"] = [
            a if e.hits[i].particle_id != second_pid else None
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
        t = e.tracks[0]
        biased = TrackCandidate(pred["candidates"][0].ellipse, 1.0,
                                pred["candidates"][0].member_vertex_ids,
                                params=(t.params.p_t * 1.1,
                                        t.params.eps_t + 2e-4))
        pred["candidates"] = [biased]
        res = evaluate({e.event_id: pred},
                       {e.event_id: e})["parameter_resolution"]
        assert res["pt_rel_rms"] == pytest.approx(0.1)
        assert res["eps_t_abs_rms"] == pytest.approx(2e-4)

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
        from trackseg.events import Event
        path = tmp_path / "empty.svg"
        render_event_svg(Event(0, (), ()), [], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text
        assert "<circle" not in text and "<ellipse" not in text

    def test_element_counts(self, tmp_path):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=2, noise_fraction=0.2,
                                          hit_smearing_sigma=0.0), seed=40)
        shapes = [ell for _, ell in truth_ellipses(e)]
        path = tmp_path / "event.svg"
        render_event_svg(e, shapes, path)
        text = path.read_text()
        assert text.count("<circle") == len(e.hits)
        assert text.count("<ellipse") == len(shapes)

    def test_single_hit_single_ellipse(self, tmp_path):
        from trackseg.events import Event, Hit
        hit = Hit(1, 0.1, 0.0, 0.0, 0.5, 1.0, 0, 0)
        e = Event(0, (hit,), ())
        path = tmp_path / "one.svg"
        render_event_svg(e, [make_ellipse(0.5, 1.0, 0.1, 0.05, 0.3)], path)
        text = path.read_text()
        assert text.count("<circle") == 1
        assert text.count("<ellipse") == 1

    def test_byte_identical(self, tmp_path):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=3, hit_smearing_sigma=0.0),
                           seed=41)
        shapes = [ell for _, ell in truth_ellipses(e)]
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
            render_event_svg(e, [ell for _, ell in truth_ellipses(e)], path)
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


PRED_DOC = _prediction_doc()
PRED_DOC_PATHS = list(doc_paths(json.loads(PRED_DOC)))


class TestIo:
    def test_event_round_trip(self):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=3, noise_fraction=0.2,
                                          hit_smearing_sigma=1e-4), seed=43)
        doc = event_to_dict(e, config_echo={"seed": 1})
        assert doc["format"] == "event-v2"
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
        assert [(h.eta.hex(), h.phi.hex()) for h in restored.hits] == \
            [(h.eta.hex(), h.phi.hex()) for h in e.hits]

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

    @pytest.mark.parametrize("path, value", [
        (("class_prob", 0), math.nan),
        (("class_prob", 0), 1.5),
        (("class_prob", 0), -0.1),
        (("candidates", 0, "confidence"), math.inf),
        (("candidates", 0, "params", 1), math.nan),
        (("candidates", 0, "ellipse", "phi_c"), math.nan),
        (("assignments", 1), 0.7),
        (("candidates", 0, "member_vertex_ids"), [True, 1]),
        (("candidates", 0, "ellipse", "a"), "0.1"),
        (("event_id",), False)])
    def test_prediction_with_bad_number_rejected(self, path, value):
        doc = json.loads(PRED_DOC)
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError):
            prediction_from_dict(doc)

    # a bool is no number, an int field takes only an int, and ids must
    # fit the int64 arrays of a graph
    @pytest.mark.parametrize("path, value", [
        (("hits", 0, "layer"), 1.7),
        (("hits", 0, "hit_id"), "1"),
        (("tracks", 0, "particle_id"), 1.0),
        (("hits", -1, "hit_id"), 2**63)])
    def test_event_with_wrong_typed_number_rejected(self, path, value):
        doc = json.loads(EVENT_DOC)
        set_at(doc, path, value)
        with pytest.raises(ConsistencyError):
            event_from_dict(doc)

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
        build_graph(event, DbscanParams(),
                    assign_vertex_targets(event.hits, truth_ellipses(event)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_evaluates_or_is_a_data_error(self, data):
        doc = json.loads(PRED_DOC)
        set_at(doc, data.draw(st.sampled_from(PRED_DOC_PATHS)),
               data.draw(JSON_VALUES))
        try:
            pred = prediction_from_dict(doc)
            evaluate({pred["event_id"]: pred},
                     {FUZZ_EVENT.event_id: FUZZ_EVENT})
        except DataError:
            return
        n_vertices, n_candidates = (len(pred["vertex_hit_ids"]),
                                    len(pred["candidates"]))
        assert all(len(pred[key]) == n_vertices
                   for key in ("class_prob", "ellipses", "assignments"))
        assert all(a is None or 0 <= a < n_candidates
                   for a in pred["assignments"])
        assert all(0.0 <= p <= 1.0 for p in pred["class_prob"])
        loaded = [*(astuple(e) for e in pred["ellipses"] if e is not None),
                  *(astuple(c.ellipse) for c in pred["candidates"]),
                  *((c.confidence, *(c.params or ()))
                    for c in pred["candidates"])]
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


def _set_first(key, value):
    def damage(text):
        doc = json.loads(text)
        doc[key][0] = value
        return json.dumps(doc)
    return damage


def _edited(change):
    """Damage that applies change(doc) to the decoded document."""
    def damage(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return damage


def _append_out_of_range_edge(text):
    doc = json.loads(text)
    doc["edges"].append([0, 999])
    return json.dumps(doc)


def _drop_last_vertex_particle_id(text):
    doc = json.loads(text)
    del doc["vertices"][-1]["particle_id"]
    return json.dumps(doc)


def _non_numeric_params(text):
    doc = json.loads(text)
    for cand in doc["candidates"]:
        cand["params"] = ["x", 1.0]
    return json.dumps(doc)


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
        pred = json.loads(preds[0].read_text())
        kept = sum(e is not None for e in pred["ellipses"])
        n_cand = len(pred["candidates"])
        assert lines[0].endswith(
            f"event {pred['event_id']} nms: {kept} ellipses kept, {n_cand} "
            f"candidates, mean group size {kept / max(n_cand, 1):.2f}")

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
         lambda text: text.replace('"tracknet-v3"', '"tracknet-v1"'),
         "infer"),
        ("checkpoint.json", _drop_key("params"), "infer"),
        ("events/event_00000.json", _set_first("hits", 5), "build-graphs"),
        ("checkpoint.json", _set_first("params", "x"), "infer"),
        ("predictions/pred_*.json", _non_numeric_params, "evaluate"),
        ("graphs/graph_00000.json", lambda text: b"\xff\xfe{}", "train"),
        ("graphs/graph_00000.json", lambda text: "[" * 100_000, "train"),
        ("graphs/graph_00000.json", _append_out_of_range_edge,
         "train"),
        ("graphs/graph_00000.json", _drop_last_vertex_particle_id, "train"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["hits"][0].update(z=math.nan)),
         "build-graphs"),
        ("predictions/pred_*.json", _set_first("assignments", 999),
         "evaluate"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["vertices"][0].update(x=None)), "train"),
        ("predictions/pred_*.json", _set_first("class_prob", math.nan),
         "evaluate"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc.update(format="graph-v1")), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["edges"].append([0, 1, True])), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["particles"].pop()), "train"),
        ("checkpoint.json", _edited(lambda doc: doc["params"].pop()),
         "infer"),
        ("checkpoint.json",
         _edited(lambda doc: doc["config"].update(hidden=0)), "infer"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["hits"][0].update(layer=1.7)),
         "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["edges"].append([0.9, 1])), "train"),
        ("predictions/pred_*.json",
         _edited(lambda doc: doc["vertex_hit_ids"].__setitem__(
             0, doc["vertex_hit_ids"][0] + 0.5)), "evaluate"),
        ("checkpoint.json",
         _edited(lambda doc: doc["config"].update(
             iterations=doc["config"]["iterations"] + 0.9)),
         "infer"),
        ("events/event_00000.json",
         _edited(lambda doc: doc.update(format="event-v1")), "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["hits"][0].update(x=0.0, y=0.0)),
         "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["tracks"].append(
             dict(doc["tracks"][0], particle_id=999))), "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["hits"][0].update(particle_id=999)),
         "build-graphs"),
        ("events/event_00000.json",
         _edited(lambda doc: doc["tracks"].append(doc["tracks"][0])),
         "build-graphs"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc.update(format="graph-v2")), "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["vertices"][0].update(x=0.0, y=0.0)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["vertices"][0].update(x=math.inf)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["vertices"][0].update(particle_id=999)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["particles"][0].update(target=None)),
         "train"),
        ("graphs/graph_00000.json",
         _edited(lambda doc: doc["particles"].append(
             dict(doc["particles"][0], particle_id=999))), "train")],
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
             "graph-particle-target-null", "graph-particle-without-vertex"])
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
        src = str(Path(trackseg.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        result = subprocess.run([sys.executable, "-m", "trackseg", "--help"],
                                env=env, capture_output=True, text=True,
                                timeout=60)
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
