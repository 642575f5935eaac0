"""Per-layer tracing from outside the package.

Shims replace functions at the module attribute their caller looks them
up by (``pipeline.build_graph``, ``postprocess.ellipse_iou``, ...), so
the package itself is unchanged.  Every call becomes a span with a name,
start, end, parent and group: all spans of one event share the group
``event:<id>`` and all spans of one optimizer step share ``step:<n>``.
Self time is a span's duration minus the time its child spans cover.

A target that no longer exists is skipped and recorded; its metrics read
0 and are listed as absent.  ``Tracer.installed()`` restores every
original on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import re
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_PIPELINE = "trackseg.harness.pipeline"
_TRACKNET = "trackseg.tracknet"
_GRAPHS = "trackseg.graphs"
_POSTPROCESS = "trackseg.postprocess"
_AUTODIFF = "trackseg.neural.autodiff"

STAGES = ("generate", "build_graphs", "train", "infer", "evaluate")
BLOCKS = tuple(f"{b}{t}" for b in "hfg" for t in range(1, 5)) \
    + ("cls", "loc", "trk")

_PER_EVENT_FILE = re.compile(r"^(?:event|graph|pred)_(\d+)\.json$")

# group policies besides a callable that derives a group from the args
STEP = "step"      # every call opens a new train-step group
STAGE = "stage"    # bulk work: belongs to the enclosing stage


@dataclass(frozen=True)
class Target:
    """One function to wrap: span name, where the caller finds it, how
    its spans are grouped, and extra counters taken from its arguments
    and result."""
    name: str
    module: str
    attr: str
    group: object = None          # None, STEP, STAGE or fn(args, kwargs)
    leaf: bool = False            # hot leaf: aggregated, spans not kept
    count: Callable | None = None  # fn(counts, args, kwargs, result)
    span_name: Callable | None = None  # fn(args, kwargs) -> span name


def _event_of_arg(index: int):
    def group(args, kwargs):
        obj = args[index] if len(args) > index else None
        event_id = getattr(obj, "event_id", None)
        return None if event_id is None else f"event:{event_id}"
    return group


def _file_group(args, kwargs):
    match = _PER_EVENT_FILE.match(Path(args[0]).name) if args else None
    return f"event:{int(match.group(1))}" if match else STAGE


def _doc_group(args, kwargs):
    event_id = args[0].get("event_id") if args and \
        isinstance(args[0], dict) else None
    return None if event_id is None else f"event:{event_id}"


def _count_bytes(counts, args, kwargs, result):
    counts["harness.io.bytes_written"] += Path(args[0]).stat().st_size


def _count_edges(counts, args, kwargs, result):
    counts["graphs.build_graph.edges"] += result.n_edges


def _count_points(counts, args, kwargs, result):
    counts["graphs.dbscan.points"] += len(args[0])


def _count_iou(counts, args, kwargs, result):
    counts["ellipses.ellipse_iou.nonzero"] += result > 0.0


def _count_merge(counts, args, kwargs, result):
    counts["postprocess.merge_ellipses.ellipses_in"] += len(args[0])
    counts["postprocess.merge_ellipses.candidates_out"] += len(result)


def _count_assign(counts, args, kwargs, result):
    threshold = args[2] if len(args) > 2 else \
        kwargs.get("class_threshold", 0.5)
    counts["postprocess.assign_hits.eligible"] += sum(
        1 for _, _, prob in args[1] if prob >= threshold)
    counts["postprocess.assign_hits.assigned"] += sum(
        1 for a in result if a is not None)


def _forward_name(args, kwargs):
    prefix = args[3] if len(args) > 3 else kwargs.get("prefix", "")
    return "neural.forward." + prefix.rstrip(".")


TARGETS = (
    *(Target(f"harness.stage.{s}", _PIPELINE, f"stage_{s}", group=STAGE)
      for s in STAGES),
    Target("harness.io.read_json", _PIPELINE, "read_json",
           group=_file_group),
    Target("harness.io.write_json", _PIPELINE, "write_json",
           group=_file_group, count=_count_bytes),
    Target("harness.metrics.evaluate", _PIPELINE, "evaluate", group=STAGE),
    Target("events.generate_event", _PIPELINE, "generate_event",
           group=lambda a, k: f"event:{k.get('event_id')}"),
    Target("graphs.build_graph", _PIPELINE, "build_graph",
           group=_event_of_arg(0), count=_count_edges),
    Target("graphs.dbscan", _GRAPHS, "dbscan", count=_count_points),
    Target("graphs.truth_ellipses", _PIPELINE, "truth_ellipses",
           group=_event_of_arg(0)),
    Target("graphs.assign_vertex_targets", _PIPELINE,
           "assign_vertex_targets", group=_event_of_arg(0)),
    Target("graphs.graph_to_dict", _PIPELINE, "graph_to_dict",
           group=_event_of_arg(0)),
    Target("graphs.graph_from_dict", _PIPELINE, "graph_from_dict",
           group=_doc_group),
    Target("ellipses.mvee", _GRAPHS, "mvee"),
    Target("ellipses.ellipse_iou", _POSTPROCESS, "ellipse_iou", leaf=True,
           count=_count_iou),
    Target("ellipses.decode_box", _TRACKNET, "decode_box", leaf=True),
    Target("ellipses.point_in_ellipse", _POSTPROCESS, "point_in_ellipse",
           leaf=True),
    Target("neural.forward", _TRACKNET, "mlp_forward",
           span_name=_forward_name),
    Target("neural.segment_max", _AUTODIFF, "segment_max"),
    Target("neural.backward", _AUTODIFF, "Tape.backward"),
    Target("neural.adam_step", _TRACKNET, "adam_step"),
    *(Target("neural.loss", _TRACKNET, attr)
      for attr in ("bce_loss", "huber_loss", "mse_tracking_loss")),
    Target("tracknet.train_step", _TRACKNET, "train_step", group=STEP),
    Target("tracknet.gnn_forward", _TRACKNET, "gnn_forward"),
    Target("tracknet.build_targets", _TRACKNET, "build_targets"),
    *(Target("tracknet.cluster_params", _TRACKNET, attr)
      for attr in ("predict_cluster_params", "cluster_params_from_states")),
    Target("tracknet.infer", _TRACKNET, "infer", group=_event_of_arg(1)),
    *(Target("tracknet.checkpoint", _TRACKNET, attr, group=STAGE)
      for attr in ("save_checkpoint", "load_checkpoint")),
    Target("postprocess.merge_ellipses", _PIPELINE, "merge_ellipses",
           count=_count_merge),
    Target("postprocess.assign_hits", _PIPELINE, "assign_hits",
           count=_count_assign),
)

# counters kept on a span other than the one their name starts with
_COUNTED_AT = {"harness.io.bytes_written": "harness.io.write_json"}

# per-layer metrics: (name, unit, better)
PER_LAYER = (
    ("events.generate_event.s", "s", "lower"),
    ("graphs.build_graph.s", "s", "lower"),
    ("graphs.build_graph.edges", "count", "lower"),
    ("graphs.dbscan.s", "s", "lower"),
    ("graphs.dbscan.points", "count", "lower"),
    ("graphs.truth_ellipses.s", "s", "lower"),
    ("graphs.assign_vertex_targets.s", "s", "lower"),
    ("graphs.graph_to_dict.s", "s", "lower"),
    ("graphs.graph_from_dict.s", "s", "lower"),
    ("ellipses.mvee.s", "s", "lower"),
    ("ellipses.mvee.calls", "count", "lower"),
    ("ellipses.ellipse_iou.s", "s", "lower"),
    ("ellipses.ellipse_iou.calls", "count", "lower"),
    ("ellipses.ellipse_iou.nonzero_frac", "ratio", "higher"),
    ("ellipses.decode_box.s", "s", "lower"),
    ("ellipses.point_in_ellipse.s", "s", "lower"),
    ("ellipses.point_in_ellipse.calls", "count", "lower"),
    *((f"neural.forward.{b}.s", "s", "lower") for b in BLOCKS),
    ("neural.segment_max.s", "s", "lower"),
    ("neural.segment_max.calls", "count", "lower"),
    ("neural.backward.s", "s", "lower"),
    ("neural.adam_step.s", "s", "lower"),
    ("neural.loss.s", "s", "lower"),
    ("tracknet.train_step.s", "s", "lower"),
    ("tracknet.train_step.ms_p50", "ms", "lower"),
    ("tracknet.train_step.ms_p99", "ms", "lower"),
    ("tracknet.gnn_forward.s", "s", "lower"),
    ("tracknet.build_targets.s", "s", "lower"),
    ("tracknet.cluster_params.s", "s", "lower"),
    ("tracknet.cluster_params.calls", "count", "lower"),
    ("tracknet.infer.s", "s", "lower"),
    ("tracknet.checkpoint.s", "s", "lower"),
    ("postprocess.merge_ellipses.s", "s", "lower"),
    ("postprocess.merge_ellipses.ellipses_in", "count", "lower"),
    ("postprocess.merge_ellipses.candidates_out", "count", "lower"),
    ("postprocess.assign_hits.s", "s", "lower"),
    ("postprocess.assign_hits.assigned_frac", "ratio", "higher"),
    *((f"harness.stage.{s}.s", "s", "lower") for s in STAGES),
    ("harness.io.read_json.s", "s", "lower"),
    ("harness.io.write_json.s", "s", "lower"),
    ("harness.io.bytes_written", "bytes", "lower"),
    ("harness.metrics.evaluate.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(target: Target):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []  # (id, name, start, end, parent, group)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.step_ms: list[float] = []
        self.skipped: list[str] = []
        self._stack: list[list] = []  # [id, name, start, child_s, group]
        self._next_id = 0
        self._steps = 0
        self._current = None  # group of the latest event-level span

    def _group(self, policy, args, kwargs):
        if policy is STEP:
            self._steps += 1
            return f"step:{self._steps}"
        if callable(policy):
            policy = policy(args, kwargs)
        if policy is STAGE:
            stage = next((f for f in reversed(self._stack)
                          if f[1].startswith("harness.stage.")), None)
            return stage[4] if stage else "run"
        if policy is not None:
            return policy
        if self._at_stage_level():
            return self._current or "run"
        return self._stack[-1][4]

    def _at_stage_level(self) -> bool:
        return not self._stack or \
            self._stack[-1][1].startswith("harness.stage.")

    def _wrap(self, target: Target, fn):
        tracer = self

        def shim(*args, **kwargs):
            name = target.span_name(args, kwargs) if target.span_name \
                else target.name
            if name.startswith("harness.stage."):
                group = "stage:" + name.rsplit(".", 1)[1]
            else:
                group = tracer._group(target.group, args, kwargs)
            if tracer._at_stage_level():
                tracer._current = group
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, time.perf_counter(), 0.0, group]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, target.leaf)
            if target.count is not None:
                target.count(tracer.counts, args, kwargs, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def _close(self, frame, leaf: bool):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, group = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if name == "tracknet.train_step":
            self.step_ms.append(duration * 1e3)
        if not leaf:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start - self.t0, end - self.t0,
                               parent, group))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore all originals on exit."""
        restore = []
        try:
            for target in TARGETS:
                found = _resolve(target)
                if found is None:
                    label = f"{target.module}.{target.attr}"
                    if label not in self.skipped:
                        self.skipped.append(label)
                    continue
                owner, attr, original = found
                setattr(owner, attr, self._wrap(target, original))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def metrics(self, overhead_s: float) -> tuple[dict, list[str]]:
        """Every per-layer metric, plus the names no span produced."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        derived = {
            "ellipses.ellipse_iou.nonzero_frac": ratio(
                self.counts["ellipses.ellipse_iou.nonzero"],
                self.calls["ellipses.ellipse_iou"]),
            "postprocess.assign_hits.assigned_frac": ratio(
                self.counts["postprocess.assign_hits.assigned"],
                self.counts["postprocess.assign_hits.eligible"]),
            "tracknet.train_step.ms_p50": _percentile(self.step_ms, 50),
            "tracknet.train_step.ms_p99": _percentile(self.step_ms, 99),
            "trace.overhead_s": overhead_s,
        }
        values, absent = {}, []
        for name, unit, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if name in derived:
                value = derived[name]
                entered = name == "trace.overhead_s" or self.calls[base] > 0
            elif kind == "s":
                value, entered = self.self_s[base], self.calls[base] > 0
            elif kind == "calls":
                value, entered = self.calls[base], self.calls[base] > 0
            else:
                value = self.counts[name]
                entered = self.calls[_COUNTED_AT.get(name, base)] > 0
            values[name] = {"value": float(value), "unit": unit}
            if not entered:
                absent.append(name)
        return values, absent


def _percentile(samples: list[float], pct: int) -> float:
    """pct in 1..99; 0 without samples."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
