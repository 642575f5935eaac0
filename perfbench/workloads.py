"""The benchmark workloads, their inputs and their output checks.

Each workload drives the real ``trackseg.harness.pipeline`` stage
functions (what ``trackseg run`` executes) on inputs made from the
benchmark seed.  ``inputs`` is the set-up the workload needs before its
timed phase; ``rep`` runs one repetition of the timed phase, checks its
outputs and returns what it timed and counted.  Stage functions are looked up on
the pipeline module at call time, so the tracing shims see them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from trackseg.ellipses import point_in_ellipse
from trackseg.graphs import graph_from_dict
from trackseg.harness import pipeline
from trackseg.harness.config import (EvalSection, GeneratorSection,
                                     PathsSection, RunConfig, TrainingSection)
from trackseg.harness.io import (prediction_from_dict, prediction_to_dict,
                                 read_json)

# Run seeds are the benchmark seed times this stride: the package derives
# per-event and per-stage seeds by adding small offsets to the run seed,
# so neighbouring benchmark seeds would otherwise share events.
SEED_STRIDE = 10_000

# The reco-dense model is a fixture: it is trained from this fixed seed,
# so every benchmark seed reconstructs with the same network and only the
# dense events vary.
FIXTURE_SEED = 42_424

LOSS_RATIO_MAX = 0.5   # criterion 7: last/first epoch l_total
AUC_MIN = 0.9          # criterion 7: holdout hit-classification AUC


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""
    n_events: int
    n_tracks: int
    epochs: int = 0
    n_holdout: int = 0
    fixture_events: int = 0   # reco-dense: graphs the model trains on
    fixture_epochs: int = 0


SIZES = {
    "full": {
        "train": Sizes(n_events=60, n_tracks=10, epochs=30, n_holdout=10),
        "reco-dense": Sizes(n_events=4, n_tracks=30, fixture_events=12,
                            fixture_epochs=10),
        "prep-large": Sizes(n_events=2, n_tracks=1000),
    },
    # seconds-long runs for the smoke test; their quality means nothing
    "tiny": {
        "train": Sizes(n_events=6, n_tracks=3, epochs=2, n_holdout=2),
        "reco-dense": Sizes(n_events=2, n_tracks=6, fixture_events=3,
                            fixture_epochs=2),
        "prep-large": Sizes(n_events=2, n_tracks=40),
    },
}


@dataclass
class Rep:
    """One repetition of a timed phase."""
    attempted: int
    failed: int = 0
    ops: int = 0              # operations the throughput counts ...
    timed_s: float = 0.0      # ... over the wall time of these stages
    digest: str = ""          # quality outputs, config echo removed
    stage_s: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _config(out: Path, seed: int, n_events: int, n_tracks: int,
            epochs: int = 1, n_holdout: int = 0) -> RunConfig:
    return RunConfig(
        seed=seed * SEED_STRIDE,
        generator=GeneratorSection(n_events=n_events, n_tracks=n_tracks,
                                   noise_fraction=0.1,
                                   hit_smearing_sigma=2e-4),
        training=TrainingSection(epochs=epochs, lr=1e-3),
        eval=EvalSection(n_holdout=n_holdout),
        paths=PathsSection(out_dir=str(out)))


def _stages(cfg: RunConfig, names, stage_s: dict) -> bool:
    """Run pipeline stages back to back, adding each one's wall time to
    stage_s.  An exception is reported and ends the sequence."""
    for name in names:
        start = time.perf_counter()
        try:
            getattr(pipeline, f"stage_{name}")(cfg)
        except Exception:  # fails this stage's operations; the run goes on
            traceback.print_exc(file=sys.stderr)
            return False
        finally:
            stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() \
                - start
    return True


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()) \
        .hexdigest()[:16]


def _without_config(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "config"}


def _docs_digest(directory: Path, pattern: str) -> str:
    return digest([_without_config(read_json(p))
                   for p in sorted(directory.glob(pattern))])


def _out(cfg: RunConfig) -> Path:
    return Path(cfg.paths.out_dir)


# output checks: each returns a list of problems, empty when the output
# is correct ---------------------------------------------------------------

def check_prediction(doc: dict, class_threshold: float) -> list[str]:
    """Above-threshold vertices are partitioned by the candidates, every
    assignment names a candidate, and the doc round-trips."""
    pred = prediction_from_dict(doc)
    problems = []
    again = prediction_to_dict(pred["event_id"], pred["vertex_hit_ids"],
                               pred["class_prob"], pred["ellipses"],
                               pred["candidates"], pred["assignments"],
                               doc.get("config"))
    if json.dumps(again, sort_keys=True) != json.dumps(doc, sort_keys=True):
        problems.append("prediction doc does not round-trip")
    above = sorted(i for i, p in enumerate(pred["class_prob"])
                   if p >= class_threshold)
    members = sorted(v for c in pred["candidates"]
                     for v in c.member_vertex_ids)
    if members != above:
        problems.append("above-threshold vertices are not partitioned by "
                        "the candidates")
    n_cand = len(pred["candidates"])
    if len(pred["assignments"]) != len(pred["class_prob"]) or any(
            a is not None and not 0 <= a < n_cand
            for a in pred["assignments"]):
        problems.append("an assignment names no candidate")
    return problems


def check_graph(doc: dict) -> list[str]:
    """The doc reloads, every edge joins two of its vertices, and every
    track vertex lies inside its target ellipse."""
    g = graph_from_dict(doc)
    problems = []
    n = g.n_vertices
    if len(g.edges) and not ((g.edges >= 0).all() and (g.edges < n).all()
                             and (g.edges[:, 0] != g.edges[:, 1]).all()):
        problems.append("an edge does not join two vertices of the graph")
    for i in range(n):
        if not g.vertex_class[i]:
            continue
        target = g.vertex_target_ellipse[i]
        if target is None or not point_in_ellipse(target,
                                                  (g.eta[i], g.phi[i])):
            problems.append(f"track vertex {i} lies outside its target")
            break
    return problems


def _check_predictions(cfg: RunConfig, event_ids) -> tuple[int, list[str]]:
    bad, problems = 0, []
    for event_id in event_ids:
        path = _out(cfg) / "predictions" / f"pred_{event_id:05d}.json"
        found = check_prediction(read_json(path), cfg.nms.class_threshold)
        bad += bool(found)
        problems += [f"event {event_id}: {p}" for p in found]
    return bad, problems


def _reco_quality(metrics: dict) -> dict:
    return {"auc": metrics["hit_classification"]["auc"],
            "efficiency": metrics["segmentation"]["efficiency"],
            "purity": metrics["segmentation"]["purity"],
            "pt_rel_rms": metrics["parameter_resolution"]["pt_rel_rms"],
            "n_candidates": metrics["counts"]["n_candidates"]}


# workloads -----------------------------------------------------------------

class Train:
    """The acceptance run: train, then reconstruct the holdout events."""
    name = "train"
    repeats = False

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def fixture(self, work: Path):
        return None

    def inputs(self, work: Path, seed: int, fixture) -> RunConfig:
        s = self.sizes
        cfg = _config(work / "run", seed, s.n_events, s.n_tracks, s.epochs,
                      s.n_holdout)
        _out(cfg).mkdir(parents=True)
        pipeline.stage_generate(cfg)
        pipeline.stage_build_graphs(cfg)
        return cfg

    def input_digest(self, cfg: RunConfig) -> str:
        return _docs_digest(_out(cfg) / "graphs", "graph_*.json")

    def rep(self, cfg: RunConfig) -> Rep:
        s = self.sizes
        steps = (s.n_events - s.n_holdout) * s.epochs
        holdout = range(s.n_events - s.n_holdout, s.n_events)
        rep = Rep(attempted=steps + len(holdout))
        history = []
        if _stages(cfg, ("train",), rep.stage_s):
            rep.ops, rep.timed_s = steps, rep.stage_s["train"]
            history = read_json(_out(cfg) / "history.json")["history"]
            ratio = history[-1]["l_total"] / history[0]["l_total"]
            rep.quality.update(final_loss=history[-1]["l_total"],
                               loss_ratio=ratio)
            if not ratio <= LOSS_RATIO_MAX:
                rep.failed += steps
                rep.problems.append(f"loss ratio {ratio:.3f} > "
                                    f"{LOSS_RATIO_MAX}")
        else:
            rep.failed += steps
        if not history or not _stages(cfg, ("infer", "evaluate"),
                                      rep.stage_s):
            rep.failed += len(holdout)
            return rep
        metrics = _without_config(read_json(_out(cfg) / "metrics.json"))
        rep.quality.update(_reco_quality(metrics))
        bad, problems = _check_predictions(cfg, holdout)
        rep.problems += problems
        if not metrics["hit_classification"]["auc"] >= AUC_MIN:
            bad = len(holdout)
            rep.problems.append(f"holdout auc "
                                f"{metrics['hit_classification']['auc']:.3f}"
                                f" < {AUC_MIN}")
        rep.failed += bad
        rep.digest = digest({"metrics": metrics, "history": history})
        return rep


class RecoDense:
    """Reconstruct dense events with a fixed, briefly trained model."""
    name = "reco-dense"
    repeats = True

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def fixture(self, work: Path) -> Path:
        s = self.sizes
        cfg = _config(work / "model", FIXTURE_SEED, s.fixture_events, 10,
                      s.fixture_epochs)
        _out(cfg).mkdir(parents=True)
        for stage in (pipeline.stage_generate, pipeline.stage_build_graphs,
                      pipeline.stage_train):
            stage(cfg)
        return _out(cfg) / "checkpoint.json"

    def inputs(self, work: Path, seed: int, checkpoint: Path) -> RunConfig:
        s = self.sizes
        cfg = _config(work / "run", seed, s.n_events, s.n_tracks)
        _out(cfg).mkdir(parents=True)
        pipeline.stage_generate(cfg)
        pipeline.stage_build_graphs(cfg)
        shutil.copyfile(checkpoint, _out(cfg) / "checkpoint.json")
        return cfg

    def input_digest(self, cfg: RunConfig) -> str:
        return digest([_docs_digest(_out(cfg) / "graphs", "graph_*.json"),
                       hashlib.sha256((_out(cfg) / "checkpoint.json")
                                      .read_bytes()).hexdigest()])

    def rep(self, cfg: RunConfig) -> Rep:
        n = self.sizes.n_events
        rep = Rep(attempted=n)
        if not _stages(cfg, ("infer", "evaluate"), rep.stage_s):
            rep.failed = n
            return rep
        rep.ops, rep.timed_s = n, sum(rep.stage_s.values())
        metrics = _without_config(read_json(_out(cfg) / "metrics.json"))
        rep.quality.update(_reco_quality(metrics))
        rep.failed, rep.problems = _check_predictions(cfg, range(n))
        rep.digest = digest(metrics)
        return rep


class PrepLarge:
    """Build graphs and truth targets for events of a thousand tracks."""
    name = "prep-large"
    repeats = True

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def fixture(self, work: Path):
        return None

    def inputs(self, work: Path, seed: int, fixture) -> RunConfig:
        s = self.sizes
        cfg = _config(work / "run", seed, s.n_events, s.n_tracks)
        _out(cfg).mkdir(parents=True)
        pipeline.stage_generate(cfg)
        return cfg

    def input_digest(self, cfg: RunConfig) -> str:
        return _docs_digest(_out(cfg) / "events", "event_*.json")

    def rep(self, cfg: RunConfig) -> Rep:
        n = self.sizes.n_events
        rep = Rep(attempted=n)
        if not _stages(cfg, ("build_graphs",), rep.stage_s):
            rep.failed = n
            return rep
        rep.ops, rep.timed_s = n, rep.stage_s["build_graphs"]
        docs = [read_json(p) for p in
                sorted((_out(cfg) / "graphs").glob("graph_*.json"))]
        for doc in docs:
            found = check_graph(doc)
            rep.failed += bool(found)
            rep.problems += [f"graph {doc['event_id']}: {p}" for p in found]
        rep.failed += n - len(docs)
        rep.quality.update(
            n_vertices=sum(len(d["vertices"]) for d in docs),
            n_edges=sum(len(d["edges"]) for d in docs))
        rep.digest = digest([_without_config(d) for d in docs])
        return rep


WORKLOADS = {w.name: w for w in (Train, RecoDense, PrepLarge)}
