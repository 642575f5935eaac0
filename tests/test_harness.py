import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackseg
from trackseg import tracknet
from trackseg.ellipses import make_ellipse
from trackseg.errors import ConfigError, ConsistencyError
from trackseg.events import DetectorConfig, GenConfig, generate_event
from trackseg.graphs import DbscanParams, truth_ellipses
from trackseg.harness import pipeline
from trackseg.harness.cli import main
from trackseg.harness.config import (RunConfig, apply_overrides,
                                     config_from_dict, load_config)
from trackseg.harness.io import (event_from_dict, event_to_dict,
                                 prediction_from_dict, prediction_to_dict,
                                 read_json, write_json)
from trackseg.harness.metrics import auc_score, evaluate
from trackseg.harness.render import render_event_svg
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
        assert m.efficiency == 1.0
        assert m.purity == 1.0
        assert m.accuracy == 1.0
        assert m.auc == 1.0
        assert m.pt_rel_rms == 0.0
        assert m.eps_t_abs_rms == 0.0

    def test_zero_candidates(self):
        e = self.event(seed=91)
        pred = truth_identity_prediction(e)
        pred["candidates"] = []
        pred["assignments"] = [None] * len(pred["assignments"])
        m = evaluate({e.event_id: pred}, {e.event_id: e})
        assert m.efficiency == 0.0
        assert m.purity == 0.0
        assert m.flags.get("no_candidates")

    def test_half_matched(self):
        e = self.event(seed=92, n_tracks=2)
        pred = truth_identity_prediction(e)
        # drop the second track's assignments
        second_pid = e.tracks[1].particle_id
        pred["assignments"] = [
            a if e.hits[i].particle_id != second_pid else None
            for i, a in enumerate(pred["assignments"])]
        m = evaluate({e.event_id: pred}, {e.event_id: e})
        assert m.efficiency == 0.5
        assert m.purity == 0.5

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
        m = evaluate({e.event_id: pred}, {e.event_id: e})
        assert m.pt_rel_rms == pytest.approx(0.1)
        assert m.eps_t_abs_rms == pytest.approx(2e-4)

    def test_event_order_invariance(self):
        events = {i: self.event(seed=95 + i) for i in range(3)}
        preds = {i: truth_identity_prediction(e)
                 for i, e in events.items()}
        m1 = evaluate(preds, events)
        m2 = evaluate(dict(reversed(list(preds.items()))),
                      dict(reversed(list(events.items()))))
        assert m1.to_dict() == m2.to_dict()


class TestRender:
    def test_empty_event_valid_svg(self, tmp_path):
        from trackseg.events import Event
        path = tmp_path / "empty.svg"
        render_event_svg(Event(0, (), (), 2.0), [], path)
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
        hit = Hit(1, 0.1, 0.0, 0.0, 0.1, 0.5, 1.0, 0, 0)
        e = Event(0, (hit,), (), 2.0)
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


# every settable run-config value, the top-level seed as section None
SETTINGS = [(None, "seed")] + [
    (section, key) for section, values in RunConfig().to_dict().items()
    if isinstance(values, dict) for key in values]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)

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


class TestIo:
    def test_event_round_trip(self):
        det = DetectorConfig()
        e = generate_event(det, GenConfig(n_tracks=3, noise_fraction=0.2,
                                          hit_smearing_sigma=1e-4), seed=43)
        doc = event_to_dict(e, config_echo={"seed": 1})
        assert doc["format"] == "event-v1"
        assert doc["config"] == {"seed": 1}
        restored = event_from_dict(doc)
        assert restored == e

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
         lambda text: text.replace('"tracknet-v2"', '"tracknet-v1"'),
         "infer"),
        ("checkpoint.json", _drop_key("adam"), "infer"),
        ("events/event_00000.json", _set_first("hits", 5), "build-graphs"),
        ("checkpoint.json", _set_first("params", "x"), "infer"),
        ("predictions/pred_*.json", _non_numeric_params, "evaluate")],
        ids=["graph-truncated", "graph-no-vertices", "event-no-hits",
             "pred-no-candidates", "checkpoint-v1", "checkpoint-no-adam",
             "event-hit-not-object", "checkpoint-param-not-number",
             "pred-param-not-number"])
    def test_malformed_artifact_exits_3(self, tmp_path, capsys, artifact,
                                        damage, command):
        cfg_path = tiny_cli_config(tmp_path)
        for cmd in STAGES[:STAGES.index(command)]:
            assert main(["--config", str(cfg_path), cmd]) == 0
        path, = (tmp_path / "out").glob(artifact)
        path.write_text(damage(path.read_text()))
        assert main(["--config", str(cfg_path), command]) == 3
        assert "data error" in capsys.readouterr().err

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
