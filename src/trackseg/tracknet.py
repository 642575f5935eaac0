"""Message-passing GNN with auto-registration and the three output heads.

One forward pass runs T iterations; in each, the state of every vertex
predicts an alignment offset (h), edge features are computed from the
offset-corrected coordinate differences and the sender state (f),
aggregated per receiving vertex by a componentwise max, and folded back
into the state with a residual connection (g).  The final states feed a
track/noise classifier, an encoded-bounding-ellipse regressor and, per
cluster, a track-parameter head whose inputs combine conformal-fit
coefficients with the componentwise max of member states.

`ModelConfig.blocks` is the one table of the network's blocks: every
MLP shape, the parameter count, the layout of the flat parameter vector,
the order of the initial draw and each block a forward pass runs come
from it.  A loaded checkpoint becomes a model without any draw.

The network is a chain of array ops, each returning its value and
its backward.  Each iteration is one op: `autodiff.message_passing`
runs h, the gather, f, the max over each vertex's messages and g with
its residual, and keeps one backward for all of them.  The two
per-vertex heads share one backward, the track-parameter head with its
max over cluster members is one op, and so are the three losses with
their weighted sum (`total_loss`); every block runs through
`mlp_forward`.  A train step puts the backwards on a `Tape`, T + 2 of
them; inference keeps none.

The network reads a graph only through the `GraphInputs` that
`graph_inputs` alone builds: the initial vertex states (z, layer), the
message index arrays, the coordinate differences and the messages'
layout by receiving vertex for the max.  Training reads
each graph through a `TrainingView`, which `train` builds once per graph
before its epoch loop and drops when it returns: the inputs, the truth
clusters' member arrays and parabola coefficients, the classification
labels and encoded target boxes, and the truth (p_T, eps_T) rows in
track order.  None of these depends on the weights, so a train
step computes only the forward pass, the losses, the backward sweep and
the update.  Inference builds the inputs on each call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .angles import signed_dphi
from .ellipses import decode_box, encode_box
from .errors import ConfigError, ConsistencyError, DomainError, NumericError
from .graphs import Graph
from .jsonio import (from_base64, number, parsing, read_json, to_base64,
                     write_json)
from .kinematics import canonical_fits
from .neural import autodiff as ad
from .neural.autodiff import Segments, Tape
from .neural.nn import (AdamState, MlpSpec, adam_step, bce_loss, huber_loss,
                        mlp_forward, mse_tracking_loss)

STATE_DIM = 2
COORD_DIM = 2
EDGE_FEATURE_DIM = 4
TRACKING_FEATURE_DIM = 5  # 3 parabola coefficients + 2 state-max components
CHECKPOINT_FORMAT = "tracknet-v4"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelConfig:
    """T message-passing iterations and the MLP width fix the network:
    `blocks` derives every layer shape from them and the state,
    coordinate and edge-feature sizes."""
    iterations: int = 4
    hidden: int = 64
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"need >= 1 iteration, got {self.iterations}")
        if self.hidden < 1:
            raise ConfigError(f"need hidden width >= 1, got {self.hidden}")
        if len(self.loss_weights) != 3 or min(self.loss_weights) < 0:
            raise ConfigError(f"loss_weights must be three weights >= 0, "
                              f"got {self.loss_weights}")

    @cached_property
    def blocks(self) -> dict[str, MlpSpec]:
        """The network's one block table: each block's MLP by its
        parameter-name prefix, in parameter order.  Iteration t owns the
        blocks "h<t>.", "f<t>." and "g<t>."; the classifier "cls.", the
        box regressor "loc." and the track-parameter head "trk." follow."""
        w = self.hidden
        iteration = {
            "h": MlpSpec((STATE_DIM, w, COORD_DIM)),
            "f": MlpSpec((COORD_DIM + STATE_DIM, w, w, EDGE_FEATURE_DIM)),
            "g": MlpSpec((EDGE_FEATURE_DIM + STATE_DIM, w, STATE_DIM)),
        }
        return {**{f"{block}{t}.": spec
                   for t in range(1, self.iterations + 1)
                   for block, spec in iteration.items()},
                "cls.": MlpSpec((STATE_DIM, w, w, w, 1), sigmoid_out=True),
                "loc.": MlpSpec((STATE_DIM, w, w, w, 5)),
                "trk.": MlpSpec((TRACKING_FEATURE_DIM, w, 2))}

    @property
    def n_params(self) -> int:
        """Length of the flat parameter vector, known without building it
        or this config's block table: the sizes of a one-iteration
        table's blocks, the iteration's three `iterations` times."""
        sizes = [sum((fan_in + 1) * fan_out
                     for _, _, fan_in, fan_out in spec.layers())
                 for spec in replace(self, iterations=1).blocks.values()]
        return self.iterations * sum(sizes[:3]) + sum(sizes[3:])


class Model:
    """The parameters of every block of `config.blocks`.

    Parameter names are the block prefix and the layer's weight or bias
    name, e.g. "f2.W0" or "cls.b3".  All parameters live in one float64
    vector, `flat`, and their gradients in `grad`, laid out alike: every
    `params[name]` is a reshaped view into `flat`, in table order, and
    `layers[prefix]` holds the block's (W, b, dW, db) tuple per layer, as
    `mlp_forward` reads them, with dW and db the matching views into
    `grad`.  A model built from the decoded vector `flat` holds a copy
    of it; otherwise each weight is drawn, U(+-1/sqrt(fan_in)), from a
    stream seeded by `seed`, and every bias is zero.
    """

    def __init__(self, config: ModelConfig, seed: int = 0,
                 flat: np.ndarray | None = None):
        self.config = config
        try:
            self.flat = np.zeros(config.n_params) if flat is None else \
                np.array(flat, dtype=float)
            self.grad = np.zeros_like(self.flat)
        except MemoryError as err:
            raise ConfigError(f"a model of {config.n_params} parameters "
                              f"does not fit in memory") from err
        self.params: dict[str, np.ndarray] = {}
        self.layers: dict[str, list[tuple]] = {}
        rng = np.random.default_rng(seed) if flat is None else None
        offset = 0
        for prefix, spec in config.blocks.items():
            self.layers[prefix] = []
            for w, b, fan_in, fan_out in spec.layers(prefix):
                slots = []
                for name, shape in ((w, (fan_in, fan_out)), (b, (fan_out,))):
                    span = slice(offset, offset + math.prod(shape))
                    self.params[name] = self.flat[span].reshape(shape)
                    slots.append(self.grad[span].reshape(shape))
                    offset = span.stop
                if rng is not None:
                    bound = 1.0 / np.sqrt(fan_in)
                    self.params[w][...] = rng.uniform(-bound, bound,
                                                      (fan_in, fan_out))
                self.layers[prefix].append((self.params[w], self.params[b],
                                            *slots))


@dataclass
class VertexOutputs:
    """Per-vertex head outputs."""
    class_prob: np.ndarray
    encoded_box: np.ndarray
    final_state: np.ndarray


@dataclass(frozen=True)
class GraphInputs:
    """What the network reads of a graph: each vertex's initial state,
    and each undirected edge as a message in both directions, from
    vertex `src` to vertex `dst`, with the (delta eta, delta phi)
    coordinate difference of `src` from `dst`.  `receivers` groups the
    messages by `dst` for the max each vertex takes over them: the
    stable permutation of the messages by `dst`, the position in it
    where each receiving vertex's messages start, and the ids of the
    vertices that receive any."""
    state: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    coord_diff: np.ndarray
    receivers: Segments


def graph_inputs(graph: Graph) -> GraphInputs:
    """The network inputs of a graph: the state of a vertex is its
    (z, layer), and delta phi is the wrapped shortest arc."""
    state = np.stack([graph.hits.z, graph.hits.layer.astype(float)], axis=1)
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    src, dst = np.concatenate([j, i]), np.concatenate([i, j])
    deta = graph.eta[src] - graph.eta[dst]
    dphi = np.asarray(signed_dphi(graph.phi[src], graph.phi[dst]),
                      dtype=float).reshape(-1)
    return GraphInputs(state, src, dst, np.stack([deta, dphi], axis=1),
                       Segments.of(dst, len(state)))


def gnn_forward(model: Model, inputs: GraphInputs,
                tape: Tape | None = None) -> VertexOutputs:
    """Run the T message-passing iterations and the per-vertex heads.
    Given a tape, appends each iteration's backward, then the heads'
    backward, which maps (g_prob, g_box, g_state) to the final states'
    gradient; without one, each op's backward is dropped as it returns.
    Isolated vertices receive a zero aggregate."""
    s = inputs.state
    for t in range(1, model.config.iterations + 1):
        s = _kept(tape, ad.message_passing(
            s, inputs.src, inputs.dst, inputs.coord_diff, inputs.receivers,
            _op(model, f"h{t}."), _op(model, f"f{t}."), _op(model, f"g{t}.")))
    prob, cls_backward = _op(model, "cls.")(s)
    box, loc_backward = _op(model, "loc.")(s)
    if tape is not None:
        def heads_backward(grads):
            g_prob, g_box, g_state = grads
            return g_state + loc_backward(g_box) + cls_backward(g_prob)

        tape.append(heads_backward)
    return VertexOutputs(prob, box, s)


def _kept(tape: Tape | None, op_output):
    """The value of an op's (value, backward) pair, its backward appended
    to the tape if there is one and dropped here otherwise."""
    value, backward = op_output
    if tape is not None:
        tape.append(backward)
    return value


def _op(model: Model, prefix: str):
    """The block `prefix` of the model's table as an array op."""
    spec = model.config.blocks[prefix]
    return lambda x: mlp_forward(spec, model, x, prefix)


@dataclass(frozen=True)
class ClusterFeatures:
    """A set of vertex clusters as the track-parameter head reads them:
    the member vertex ids cluster after cluster, their grouping by
    cluster, and one row of conformal parabola coefficients per
    cluster."""
    members: np.ndarray
    segments: Segments
    coeffs: np.ndarray


def cluster_features(members, sizes, graph: Graph) -> ClusterFeatures:
    """The head's weight-independent inputs for clusters of a graph's
    vertices, their member ids cluster after cluster and each cluster's
    size, the coefficients from one canonical_fits call over the
    clusters' hits.  A cluster's coefficients are zero where its fit
    gives NaN: fewer than 3 hits or a degenerate fit."""
    members = np.asarray(members, dtype=int)
    hits_xy = np.stack([graph.hits.x, graph.hits.y], axis=1)
    coeffs, _ = canonical_fits(hits_xy[members], sizes)
    return ClusterFeatures(
        members, Segments.of(np.repeat(np.arange(len(sizes)), sizes),
                             len(sizes)),
        np.nan_to_num(coeffs, nan=0.0))


def predict_cluster_params(model: Model, final_state: np.ndarray,
                           clusters: ClusterFeatures):
    """Track-parameter head over a set of vertex clusters, one array op.

    Features per cluster: its parabola coefficients and the componentwise
    max of its member final states.  Returns the (n_clusters, 2) rows of
    (p_T, eps_T) and their backward to the final states' gradient.
    """
    n_coeffs = clusters.coeffs.shape[1]
    state_max, max_backward = ad.segment_max(final_state[clusters.members],
                                             clusters.segments)
    out, head_backward = _op(model, "trk.")(
        np.concatenate([clusters.coeffs, state_max], axis=1))

    def backward(g):
        grad = np.zeros_like(final_state)
        np.add.at(grad, clusters.members,
                  max_backward(head_backward(g)[:, n_coeffs:]))
        return grad

    return out, backward


def cluster_params_from_states(model: Model, final_state: np.ndarray,
                               clusters, graph: Graph) -> np.ndarray:
    """Gradient-free entry to the head for an inference pass's states;
    `clusters` holds each cluster's vertex ids, as a TrackCandidate's
    member_vertex_ids does."""
    sizes = list(map(len, clusters))
    members = np.fromiter(chain.from_iterable(clusters), dtype=int,
                          count=sum(sizes))
    return predict_cluster_params(
        model, final_state, cluster_features(members, sizes, graph))[0]


def build_targets(graph: Graph):
    """Per-vertex classification labels, which also mask the localization
    loss, and encoded target boxes (zero rows for noise vertices)."""
    is_track = graph.vertex_class
    target_enc = np.zeros((graph.n_vertices, 5))
    target_enc[is_track] = encode_box(
        graph.targets[graph.track_row[is_track]], graph.eta[is_track],
        graph.phi[is_track])
    return is_track.astype(float), target_enc


def total_loss(outputs: VertexOutputs, targets, cluster_preds,
               cluster_truth, weights, tracking_scales=(1.0, 1e-3)):
    """Weighted sum of the classification, localization and tracking
    losses as one array op; returns the total, the per-component float
    breakdown and the backward from the total's gradient to those of
    (class_prob, encoded_box, cluster_preds)."""
    y, target_enc = targets
    alpha, beta, gamma = weights
    l_c, back_c = bce_loss(y, outputs.class_prob)
    l_loc, back_loc = huber_loss(outputs.encoded_box, target_enc, y)
    l_t, back_t = mse_tracking_loss(cluster_preds, cluster_truth,
                                    tracking_scales)
    total = alpha * l_c + beta * l_loc + gamma * l_t
    components = {"l_c": float(l_c), "l_loc": float(l_loc),
                  "l_t": float(l_t), "l_total": float(total)}
    return total, components, lambda g: (
        back_c(g * alpha), back_loc(g * beta), back_t(g * gamma))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 1e-6
    weight_decay: float = 1e-5

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass(frozen=True)
class TrainingView:
    """What a train step reads of one graph besides the weights: the
    graph, its network inputs, the truth clusters and their (p_T, eps_T)
    rows in track order, and what build_targets returns as `targets`.
    Every array is read-only."""
    graph: Graph
    inputs: GraphInputs
    clusters: ClusterFeatures
    targets: tuple[np.ndarray, np.ndarray]
    truths: np.ndarray


def training_view(graph: Graph) -> TrainingView:
    """Build the training view of a graph."""
    view = TrainingView(
        graph, graph_inputs(graph),
        cluster_features(*graph.track_hits(), graph), build_targets(graph),
        np.stack([graph.tracks.pt, graph.tracks.eps_t], axis=1))
    for array in (*vars(view.inputs).values(),
                  *vars(view.clusters).values(), *view.targets,
                  view.truths):
        if isinstance(array, np.ndarray):  # a Segments layout is frozen
            array.flags.writeable = False
    return view


def train_step(model: Model, view: TrainingView, state: AdamState):
    """One forward/backward/update cycle on a single graph's view.

    The tracking loss runs over truth clusters, so the parameter head
    learns independently of segmentation quality.
    """
    model.grad.fill(0.0)
    tape = Tape()
    outputs = gnn_forward(model, view.inputs, tape)
    cluster_preds, head_backward = predict_cluster_params(
        model, outputs.final_state, view.clusters)
    _, components, loss_backward = total_loss(
        outputs, view.targets, cluster_preds, view.truths,
        model.config.loss_weights)
    for name, value in components.items():
        if not math.isfinite(value):
            raise NumericError("non-finite loss",
                               graph_id=view.graph.event_id, component=name)

    def backward(g):
        g_prob, g_box, g_preds = loss_backward(g)
        return g_prob, g_box, head_backward(g_preds)

    tape.append(backward)
    tape.backward(np.ones(()))
    adam_step(state, model.flat, model.grad)
    return components


def train(model: Model, dataset: list[Graph], cfg: TrainConfig,
          seed: int = 0):
    """Train over the dataset, one optimizer step per graph.

    Shuffling is a fixed stream seeded by `seed`, so reruns
    from the same initial model produce bit-identical histories.  Each
    graph's training view is built once, before the first epoch, and
    lives only as long as this call.  Returns the per-epoch history,
    which is also logged epoch by epoch; the model is updated in place.
    """
    if not dataset:
        raise ConfigError("training needs a non-empty dataset")
    views = [training_view(graph) for graph in dataset]
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(dataset))
        sums = {"l_c": 0.0, "l_loc": 0.0, "l_t": 0.0, "l_total": 0.0}
        for gi in order:
            try:
                components = train_step(model, views[gi], state)
            except NumericError as err:
                raise NumericError(err.detail, epoch=epoch,
                                   graph_id=err.graph_id,
                                   component=err.component) from err
            for key in sums:
                sums[key] += components[key]
        record = {key: value / len(dataset) for key, value in sums.items()}
        record["epoch"] = epoch
        history.append(record)
        log.info("epoch %d/%d: l_c=%.6g l_loc=%.6g l_t=%.6g l_total=%.6g",
                 epoch, cfg.epochs, record["l_c"], record["l_loc"],
                 record["l_t"], record["l_total"])
    return history


@dataclass
class InferResult:
    class_prob: np.ndarray
    final_state: np.ndarray
    kept: np.ndarray  # the vertices at or above the threshold, ascending
    rows: np.ndarray  # their decoded ellipse parameter rows, (n, 5)


def infer(model: Model, graph: Graph,
          threshold: float = 0.5) -> InferResult:
    """Forward pass plus a decoded ellipse for every vertex whose track
    probability reaches the threshold, all decoded in one decode_box
    call.  A non-finite class probability or encoded box, or a box that
    decodes to no valid ellipse, raises NumericError naming the graph and
    the output."""
    outputs = gnn_forward(model, graph_inputs(graph))
    prob = outputs.class_prob[:, 0]
    boxes = outputs.encoded_box
    final_state = outputs.final_state
    for name, values in (("class_prob", prob), ("encoded_box", boxes)):
        if not np.all(np.isfinite(values)):
            raise NumericError("non-finite inference output",
                               graph_id=graph.event_id, component=name)
    kept = np.flatnonzero(prob >= threshold)
    try:
        rows = decode_box(boxes[kept], graph.eta[kept], graph.phi[kept])
    except DomainError as err:
        raise NumericError(f"undecodable inference output at vertex "
                           f"{kept[err.row]}", graph_id=graph.event_id,
                           component="encoded_box") from err
    return InferResult(prob, final_state, kept, rows)


def save_checkpoint(model: Model, path) -> None:
    """Write the tracknet-v4 checkpoint document: the model config and
    the flat parameter vector as base64 of its little-endian float64
    bytes."""
    write_json(path, {"format": CHECKPOINT_FORMAT,
                      "config": asdict(model.config),
                      "params": to_base64(model.flat, "<f8")})


def load_checkpoint(path) -> Model:
    """Read a checkpoint into a Model built on its decoded parameter
    vector, with no draw.  A checkpoint of another tracknet version, an
    invalid config, a parameter string jsonio.from_base64 rejects, or a
    parameter vector whose length does not match the config, raises
    ConsistencyError naming the file before any model of that config is
    built."""
    doc = read_json(path)  # its errors name the file already
    try:
        with parsing(doc, CHECKPOINT_FORMAT,
                     f"retrain to write it as {CHECKPOINT_FORMAT}"):
            c = doc["config"]
            try:
                config = ModelConfig(
                    number(c["iterations"], int), number(c["hidden"], int),
                    tuple(number(w) for w in c["loss_weights"]))
            except ConfigError as err:
                raise ConsistencyError(f"checkpoint config: {err}") from err
            params = from_base64(doc["params"], "<f8", "checkpoint params")
            if params.shape != (config.n_params,):
                raise ConsistencyError(f"checkpoint has {params.size} "
                                       f"parameters, config needs "
                                       f"{config.n_params}")
    except ConsistencyError as err:
        raise ConsistencyError(f"{path}: {err}") from err
    return Model(config, flat=params)
