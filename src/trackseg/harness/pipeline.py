"""Pipeline stages and the end-to-end runner.

Artifacts live under the configured output directory:

    events/event_00000.json     one event-v4 document per event: hit
                                and track tables (events.HitTable and
                                events.TrackTable columns)
    graphs/graph_00000.json     one graph-v6 document per event: the
                                event's tables, edge and target tables,
                                target row k for track row k
    checkpoint.json             tracknet-v4: model config and flat
                                parameter vector in parameter-name order,
                                base64 of its little-endian float64 bytes
    history.json                per-epoch loss components
    predictions/pred_00000.json one pred-v2 document per held-out
                                event: vertex, ellipse, candidate and
                                member tables
    metrics.json                evaluation summary
    plots/event_00000.svg       eta-phi event display
    run.log                     stage log

Every table of an event, graph or prediction has binary columns: each
is a pair [dtype, base64 of its little-endian bytes], "<i8" or "<f8" by
the field's kind (jsonio.encode_table).  Each document kind's schema lives
in one module: events (event-v4), graphs (graph-v6), tracknet
(tracknet-v4), harness.io (pred-v2, metrics-v1).  Every artifact but
run.log is written atomically (temp file, then rename).  A document of
an older format version exits 3: regenerate the events, rebuild the
graphs, retrain the checkpoint or rerun infer.
Training uses all but the last `eval.n_holdout` graphs; inference and
evaluation run on the held-out tail (or everything when n_holdout is 0).
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .. import tracknet
from ..errors import ConfigError, ConsistencyError, DataError, \
    NumericError
from ..events import (apply_selection, event_from_dict, event_to_dict,
                      generate_event, read_trackml_event)
# perfbench/tracing.py looks assign_vertex_targets up in this module
from ..graphs import assign_vertex_targets, build_graph, graph_from_dict, \
    graph_to_dict, truth_ellipses
from ..jsonio import read_json, write_json
from ..postprocess import TrackCandidate, assign_hits, merge_ellipses
from .config import RunConfig
from .io import METRICS_FORMAT, prediction_from_dict, prediction_to_dict
from .metrics import evaluate
from .render import render_event_svg

log = logging.getLogger("trackseg")

# offsets of the per-stage seeds from the run seed
_EVENT_SEED_OFFSET = 1000
_MODEL_SEED_OFFSET = 101
_SHUFFLE_SEED_OFFSET = 202


def _out(cfg: RunConfig) -> Path:
    return Path(cfg.paths.out_dir)


def _events_dir(cfg): return _out(cfg) / "events"
def _graphs_dir(cfg): return _out(cfg) / "graphs"
def _preds_dir(cfg): return _out(cfg) / "predictions"
def _plots_dir(cfg): return _out(cfg) / "plots"
def _checkpoint_path(cfg): return _out(cfg) / "checkpoint.json"
def _history_path(cfg): return _out(cfg) / "history.json"
def _metrics_path(cfg): return _out(cfg) / "metrics.json"


def _sorted_files(directory: Path, pattern: str) -> list[Path]:
    if not directory.is_dir():
        raise ConfigError(f"missing input directory: {directory}")
    files = sorted(directory.glob(pattern))
    if not files:
        raise ConfigError(f"no {pattern} files under {directory}")
    return files


def stage_generate(cfg: RunConfig) -> list[Path]:
    """Write n_events synthetic events, seeded per event."""
    echo = cfg.to_dict()
    paths = []
    for i in range(cfg.generator.n_events):
        event = generate_event(cfg.detector, cfg.generator,
                               seed=cfg.seed + _EVENT_SEED_OFFSET + i,
                               event_id=i)
        path = _events_dir(cfg) / f"event_{i:05d}.json"
        write_json(path, event_to_dict(event, echo))
        paths.append(path)
    log.info("generated %d events -> %s", len(paths), _events_dir(cfg))
    return paths


def stage_ingest(cfg: RunConfig) -> list[Path]:
    """Read one TrackML event from CSV, apply the selection, store it."""
    p = cfg.paths
    for name, value in (("hits_csv", p.hits_csv), ("truth_csv", p.truth_csv),
                        ("particles_csv", p.particles_csv)):
        if value is None:
            raise ConfigError(f"paths.{name} is required for ingestion")
        if not Path(value).exists():
            raise ConfigError(f"paths.{name} does not exist: {value}")
    event = read_trackml_event(p.hits_csv, p.truth_csv, p.particles_csv,
                               field_b=cfg.detector.field_b)
    event = apply_selection(event, cfg.selection.pt_min,
                            cfg.selection.volumes)
    path = _events_dir(cfg) / f"event_{event.event_id:05d}.json"
    write_json(path, event_to_dict(event, cfg.to_dict()))
    log.info("ingested %d hits / %d tracks -> %s", len(event.hits),
             len(event.tracks), path)
    return [path]


def stage_build_graphs(cfg: RunConfig) -> list[Path]:
    """Store the graph of each event, with its tracks' target ellipses;
    an event id that two event files share raises ConsistencyError."""
    start = time.perf_counter()
    echo = cfg.to_dict()
    paths = []
    stats = Counter()
    for event in _unique_events(_sorted_files(_events_dir(cfg),
                                              "event_*.json"),
                                event_from_dict, lambda e: e.event_id):
        graph = build_graph(event, cfg.dbscan, stats)
        _log_graph(graph)
        doc = graph_to_dict(graph)
        doc["config"] = echo
        path = _graphs_dir(cfg) / f"graph_{event.event_id:05d}.json"
        write_json(path, doc)
        paths.append(path)
    log.info("target ellipses took %d batched MVEE iterations",
             stats["iterations"])
    log.info("built %d graphs -> %s in %.2f s", len(paths),
             _graphs_dir(cfg), time.perf_counter() - start)
    return paths


def _log_graph(graph) -> None:
    """Log a built graph's hits, clusters, edges and unclustered hits.
    Each cluster is a complete subgraph whose smallest vertex starts
    edges and ends none; a single-hit cluster (min_pts 1) has no edge
    and counts as unclustered."""
    starts = np.zeros(graph.n_vertices, dtype=bool)
    ends = np.zeros(graph.n_vertices, dtype=bool)
    starts[graph.edges[:, 0]] = ends[graph.edges[:, 1]] = True
    log.info("event %d graph: %d hits, %d clusters, %d edges, %d "
             "unclustered hits", graph.event_id, graph.n_vertices,
             np.count_nonzero(starts & ~ends), graph.n_edges,
             np.count_nonzero(~(starts | ends)))


def _load(path: Path, load):
    """load(document) of one file; a document load rejects is re-raised
    as the same DataError naming the file (read_json's errors name it
    already)."""
    doc = read_json(path)
    try:
        return load(doc)
    except DataError as err:
        raise type(err)(f"{path}: {err}") from err


def _unique_events(paths: list[Path], load, event_id):
    """_load(path, load) of each file in file order; an event id that two
    files share raises ConsistencyError naming both."""
    sources = {}
    for path in paths:
        item = _load(path, load)
        key = event_id(item)
        if key in sources:
            raise ConsistencyError(f"{sources[key]} and {path} both hold "
                                   f"event {key}")
        sources[key] = path
        yield item


def _by_event(paths: list[Path], load, event_id) -> dict:
    """{event id: load(document)} in file order; an event id that two
    files share raises ConsistencyError naming both."""
    return {event_id(item): item
            for item in _unique_events(paths, load, event_id)}


def _load_graphs(cfg: RunConfig):
    return list(_unique_events(_sorted_files(_graphs_dir(cfg),
                                             "graph_*.json"),
                               graph_from_dict, lambda g: g.event_id))


def _split(items, n_holdout: int):
    if n_holdout <= 0:
        return items, items
    if n_holdout >= len(items):
        raise ConfigError(f"n_holdout={n_holdout} keeps no training data "
                          f"for {len(items)} graphs")
    return items[:-n_holdout], items[-n_holdout:]


def stage_train(cfg: RunConfig) -> Path:
    start = time.perf_counter()
    graphs = _load_graphs(cfg)
    train_graphs, _ = _split(graphs, cfg.eval.n_holdout)
    model = tracknet.Model(cfg.model, seed=cfg.seed + _MODEL_SEED_OFFSET)
    history = tracknet.train(model, train_graphs, cfg.training,
                             seed=cfg.seed + _SHUFFLE_SEED_OFFSET)
    save_path = _checkpoint_path(cfg)
    tracknet.save_checkpoint(model, save_path)
    write_json(_history_path(cfg),
               {"format": "history-v1", "history": history,
                "seed": cfg.seed, "config": cfg.to_dict()})
    seconds = time.perf_counter() - start
    steps = len(history) * len(train_graphs)
    log.info("trained %d epochs on %d graphs in %.2f s (%.1f steps/s); "
             "final l_total=%.6f", len(history), len(train_graphs), seconds,
             steps / seconds, history[-1]["l_total"])
    return save_path


def _infer_one(cfg: RunConfig, model: tracknet.Model, graph, echo) -> dict:
    result = tracknet.infer(model, graph, cfg.nms.class_threshold)
    kept = result.kept.tolist()
    stats = Counter()
    raw = merge_ellipses(result.rows, result.class_prob[result.kept],
                         cfg.nms.t_h, stats=stats)
    log.info("event %d nms: %d ellipses kept, %d candidates, mean group "
             "size %.2f; %d pairs, %d past the centre-gap reject, %d over "
             "t_h, %d edges clipped", graph.event_id, len(kept), len(raw),
             len(kept) / max(len(raw), 1), stats["pairs"],
             stats["near_pairs"], stats["pairs_over_t_h"],
             stats["edges_clipped"])
    members = [tuple(kept[k] for k in cand.member_vertex_ids)
               for cand in raw]
    params = tracknet.cluster_params_from_states(
        model, result.final_state, members, graph)
    if not np.all(np.isfinite(params)):
        raise NumericError("non-finite inference output",
                           graph_id=graph.event_id,
                           component="candidate (p_T, eps_T)")
    candidates = [TrackCandidate(cand.ellipse, cand.confidence, vids,
                                 (float(pt), float(eps)))
                  for cand, vids, (pt, eps) in zip(raw, members, params)]
    vertices = np.stack([graph.eta, graph.phi, result.class_prob], axis=1)
    assignments = assign_hits(candidates, vertices, cfg.nms.class_threshold)
    return prediction_to_dict(graph.event_id, graph.hits.hit_id,
                              result.class_prob, (result.kept, result.rows),
                              candidates, assignments, echo)


def stage_infer(cfg: RunConfig) -> list[Path]:
    model = tracknet.load_checkpoint(_checkpoint_path(cfg))
    graphs = _load_graphs(cfg)
    _, eval_graphs = _split(graphs, cfg.eval.n_holdout)
    echo = cfg.to_dict()
    paths = []
    for graph in eval_graphs:
        doc = _infer_one(cfg, model, graph, echo)
        path = _preds_dir(cfg) / f"pred_{graph.event_id:05d}.json"
        write_json(path, doc)
        paths.append(path)
    log.info("inferred %d events -> %s", len(paths), _preds_dir(cfg))
    return paths


def stage_evaluate(cfg: RunConfig) -> Path:
    predictions = _by_event(_sorted_files(_preds_dir(cfg), "pred_*.json"),
                            prediction_from_dict, lambda p: p["event_id"])
    truth = _by_event(_sorted_files(_events_dir(cfg), "event_*.json"),
                      event_from_dict, lambda e: e.event_id)
    metrics = evaluate(predictions, truth, cfg.nms.class_threshold)
    doc = {"format": METRICS_FORMAT, **metrics,
           "seed": cfg.seed, "config": cfg.to_dict()}
    write_json(_metrics_path(cfg), doc)
    hits, seg = metrics["hit_classification"], metrics["segmentation"]
    log.info("metrics: accuracy=%.3f auc=%.3f efficiency=%.3f purity=%.3f",
             hits["accuracy"], hits["auc"], seg["efficiency"],
             seg["purity"])
    return _metrics_path(cfg)


def stage_plot(cfg: RunConfig, event_index: int = 0,
               use_truth: bool = False) -> Path:
    event_path = _events_dir(cfg) / f"event_{event_index:05d}.json"
    if not event_path.exists():
        raise ConfigError(f"missing input path: {event_path}")
    event = _load(event_path, event_from_dict)
    if use_truth:
        shapes = truth_ellipses(event)
    else:
        pred_path = _preds_dir(cfg) / f"pred_{event_index:05d}.json"
        if not pred_path.exists():
            raise ConfigError(f"missing input path: {pred_path}")
        pred = _load(pred_path, prediction_from_dict)
        shapes = pred["ellipses"][1]
    path = _plots_dir(cfg) / f"event_{event_index:05d}.svg"
    render_event_svg(event, shapes, path)
    log.info("wrote %s", path)
    return path


def run_pipeline(cfg: RunConfig) -> Path:
    """Full run: produce events, build graphs, train, infer, evaluate and
    plot the first evaluated event.  Ingestion checks its input paths
    before any artifact is written."""
    _out(cfg).mkdir(parents=True, exist_ok=True)
    if cfg.paths.hits_csv is not None:
        stage_ingest(cfg)
    else:
        stage_generate(cfg)
    stage_build_graphs(cfg)
    stage_train(cfg)
    stage_infer(cfg)
    metrics_path = stage_evaluate(cfg)
    first_pred = _sorted_files(_preds_dir(cfg), "pred_*.json")[0]
    event_index = _load(first_pred, prediction_from_dict)["event_id"]
    stage_plot(cfg, event_index)
    return metrics_path
