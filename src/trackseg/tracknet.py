"""Message-passing GNN with auto-registration and the three output heads.

One forward pass runs T iterations; in each, the state of every vertex
predicts an alignment offset (h), edge features are computed from the
offset-corrected coordinate differences and the sender state (f),
aggregated per receiving vertex by a componentwise max, and folded back
into the state with a residual connection (g).  The final states feed a
track/noise classifier, an encoded-bounding-ellipse regressor and, per
cluster, a track-parameter head whose inputs combine conformal-fit
coefficients with the componentwise max of member states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .angles import signed_dphi
from .ellipses import EncodedBox, decode_box, encode_box
from .errors import (ConfigError, ConsistencyError, FitError, NumericError,
                     StateError)
from .graphs import Graph
from .jsonio import parsing, read_json, write_json
from .kinematics import canonical_parabola_coeffs
from .neural import autodiff as ad
from .neural.autodiff import Tape, Var
from .neural.nn import (AdamState, MlpSpec, adam_step, bce_loss, gradients,
                        huber_loss, init_mlp_params, mlp_forward,
                        mse_tracking_loss)

STATE_DIM = 2
COORD_DIM = 2
EDGE_FEATURE_DIM = 4
TRACKING_FEATURE_DIM = 5  # 3 parabola coefficients + 2 state-max components
CHECKPOINT_FORMAT = "tracknet-v2"


@dataclass(frozen=True)
class ModelConfig:
    """T message-passing iterations and the MLP width fix the network:
    every layer shape follows from them and the state, coordinate and
    edge-feature sizes."""
    iterations: int = 4
    hidden: int = 64
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"need >= 1 iteration, got {self.iterations}")
        if self.hidden < 1:
            raise ConfigError(f"need hidden width >= 1, got {self.hidden}")
        if any(w < 0 for w in self.loss_weights):
            raise ConfigError(f"loss_weights must be >= 0, got "
                              f"{self.loss_weights}")

    @property
    def specs(self) -> dict[str, MlpSpec]:
        """MLP shapes per block: h, f, g and the three heads."""
        w = self.hidden
        return {
            "h": MlpSpec((STATE_DIM, w, COORD_DIM)),
            "f": MlpSpec((COORD_DIM + STATE_DIM, w, w, EDGE_FEATURE_DIM)),
            "g": MlpSpec((EDGE_FEATURE_DIM + STATE_DIM, w, STATE_DIM)),
            "classifier": MlpSpec((STATE_DIM, w, w, w, 1),
                                  output_activation="sigmoid"),
            "localization": MlpSpec((STATE_DIM, w, w, w, 5)),
            "tracking": MlpSpec((TRACKING_FEATURE_DIM, w, 2)),
        }

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "hidden": self.hidden,
                "loss_weights": list(self.loss_weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(int(d["iterations"]), int(d["hidden"]),
                   tuple(d["loss_weights"]))


class Model:
    """Per-iteration MLP parameter sets plus the three heads.

    Parameter names follow "<block><iteration>.<W|b><layer>", e.g.
    "f2.W0"; heads use "cls.", "loc." and "trk.".  Each iteration owns a
    distinct parameter set.  All parameters live in one float64 vector,
    `flat`; every `params[name]` is a reshaped view into it, in name
    order.  A given params dict is copied into a new vector; without one
    the parameters are drawn from a stream seeded by `seed`.
    """

    def __init__(self, config: ModelConfig, params=None, seed: int = 0):
        self.config = config
        params = self._init_params(seed) if params is None else params
        self.flat = np.concatenate(
            [np.zeros(0), *(np.ravel(p) for p in params.values())])
        self.params: dict[str, np.ndarray] = {}
        offset = 0
        for name, p in params.items():
            size = np.size(p)
            self.params[name] = self.flat[offset:offset + size] \
                .reshape(np.shape(p))
            offset += size

    def _init_params(self, seed: int) -> dict[str, np.ndarray]:
        specs = self.config.specs
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for t in range(1, self.config.iterations + 1):
            for block in "hfg":
                params.update(init_mlp_params(specs[block], rng,
                                              f"{block}{t}."))
        for block, prefix in (("classifier", "cls."),
                              ("localization", "loc."),
                              ("tracking", "trk.")):
            params.update(init_mlp_params(specs[block], rng, prefix))
        return params


@dataclass
class VertexOutputs:
    """Per-vertex head outputs plus the tape that produced them."""
    class_prob: Var
    encoded_box: Var
    final_state: Var
    tape: Tape
    leaves: dict[str, Var]

    def class_prob_array(self) -> np.ndarray:
        return self.class_prob.data[:, 0].copy()


def _directed_edges(graph: Graph):
    """Each undirected edge contributes a message in both directions."""
    if graph.n_edges == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    i = graph.edges[:, 0]
    j = graph.edges[:, 1]
    src = np.concatenate([j, i])
    dst = np.concatenate([i, j])
    return src, dst


def gnn_forward(model: Model, graph: Graph, tape: Tape | None = None,
                auto_registration: bool = True) -> VertexOutputs:
    """Run the T message-passing iterations and the per-vertex heads.

    Coordinate differences use the wrapped shortest arc in phi; isolated
    vertices receive a zero aggregate.  With auto_registration disabled
    the offset term is dropped entirely (the plain message-passing form).
    """
    if not model.params:
        raise StateError("model has no parameters")
    specs = model.config.specs
    tape = tape if tape is not None else Tape()
    leaves = {name: tape.leaf(p) for name, p in model.params.items()}

    n = graph.n_vertices
    src, dst = _directed_edges(graph)
    deta = graph.eta[src] - graph.eta[dst]
    dphi = np.asarray(signed_dphi(graph.phi[src], graph.phi[dst]),
                      dtype=float).reshape(-1)
    coord_diff = np.stack([deta, dphi], axis=1) if len(src) else \
        np.zeros((0, COORD_DIM))

    s = tape.const(graph.state)
    for t in range(1, model.config.iterations + 1):
        if auto_registration:
            dx = mlp_forward(specs["h"], leaves, s, f"h{t}.")
            shifted = ad.add(tape.const(coord_diff), ad.gather_rows(dx, dst))
        else:
            shifted = tape.const(coord_diff)
        edge_in = ad.concat_cols([shifted, ad.gather_rows(s, src)])
        msg = mlp_forward(specs["f"], leaves, edge_in, f"f{t}.")
        agg = ad.segment_max(msg, dst, n)
        update = mlp_forward(specs["g"], leaves, ad.concat_cols([agg, s]),
                             f"g{t}.")
        s = ad.add(update, s)

    prob = mlp_forward(specs["classifier"], leaves, s, "cls.")
    box = mlp_forward(specs["localization"], leaves, s, "loc.")
    return VertexOutputs(prob, box, s, tape, leaves)


def predict_cluster_params(model: Model, final_state: Var,
                           leaves: dict[str, Var], clusters,
                           hits_xy) -> Var:
    """Track-parameter head over a set of vertex clusters.

    Features per cluster: the conformal parabola coefficients of its hits
    (zero when the cluster has fewer than 3 hits or the fit degenerates)
    and the componentwise max of its member final states.  `hits_xy` is
    indexed by vertex id.  Returns a (n_clusters, 2) Var of (p_T, eps_T).
    """
    clusters = [np.asarray(vids, dtype=int) for vids in clusters]
    hits_xy = np.asarray(hits_xy, dtype=float)
    coeffs = np.zeros((len(clusters), 3))
    for k, vids in enumerate(clusters):
        if len(vids) >= 3:
            try:
                c = canonical_parabola_coeffs(hits_xy[vids])
                coeffs[k] = (c.c0, c.c1, c.c2)
            except FitError:
                pass
    members = np.concatenate([np.zeros(0, dtype=int), *clusters])
    segment = np.repeat(np.arange(len(clusters)),
                        [len(vids) for vids in clusters])
    state_max = ad.segment_max(ad.gather_rows(final_state, members), segment,
                               len(clusters))
    feats = ad.concat_cols([final_state.tape.const(coeffs), state_max])
    return mlp_forward(model.config.specs["tracking"], leaves, feats,
                       "trk.")


def cluster_params_from_states(model: Model, final_state: np.ndarray,
                               clusters, hits_xy) -> np.ndarray:
    """Gradient-free entry to the head for an inference pass's states."""
    with Tape() as tape:
        leaves = {name: tape.leaf(p) for name, p in model.params.items()
                  if name.startswith("trk.")}
        return predict_cluster_params(model, tape.const(final_state),
                                      leaves, clusters, hits_xy).data


def build_targets(graph: Graph):
    """Per-vertex classification labels, track mask and encoded target
    boxes (zero rows for noise vertices)."""
    n = graph.n_vertices
    y = graph.vertex_class.astype(float)
    target_enc = np.zeros((n, 5))
    for i in range(n):
        if not graph.vertex_class[i]:
            continue
        ell = graph.vertex_target_ellipse[i] if graph.vertex_target_ellipse \
            else None
        if ell is None:
            raise ConsistencyError(
                f"track vertex {i} has no target ellipse; run "
                f"assign_vertex_targets first")
        target_enc[i] = encode_box(ell, (graph.eta[i], graph.phi[i])) \
            .as_array()
    return y, y.copy(), target_enc


def total_loss(outputs: VertexOutputs, targets, cluster_preds,
               cluster_truth, weights=(1.0, 1.0, 1.0),
               huber_delta: float = 1.0, tracking_scales=(1.0, 1e-3)):
    """Weighted sum of the classification, localization and tracking
    losses; returns (total Var, per-component float breakdown)."""
    y, mask, target_enc = targets
    alpha, beta, gamma = weights
    l_c = bce_loss(y, outputs.class_prob)
    l_loc = huber_loss(outputs.encoded_box, target_enc, mask, huber_delta)
    l_t = mse_tracking_loss(cluster_preds, cluster_truth, tracking_scales)
    total = ad.add(ad.add(ad.scale(l_c, alpha), ad.scale(l_loc, beta)),
                   ad.scale(l_t, gamma))
    components = {"l_c": float(l_c.data), "l_loc": float(l_loc.data),
                  "l_t": float(l_t.data), "l_total": float(total.data)}
    return total, components


def _truth_clusters(graph: Graph):
    """Vertex groups by truth particle, ascending particle id."""
    clusters = []
    for pid in sorted(graph.truth_params):
        vids = np.flatnonzero(graph.vertex_particle_id == pid)
        if len(vids):
            clusters.append((pid, vids))
    return clusters


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 1e-6
    weight_decay: float = 1e-5

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


def train_step(model: Model, graph: Graph, state: AdamState):
    """One forward/backward/update cycle on a single graph.

    The tracking loss runs over truth clusters, so the parameter head
    learns independently of segmentation quality.
    """
    outputs = gnn_forward(model, graph)
    clusters = _truth_clusters(graph)
    cluster_preds = predict_cluster_params(
        model, outputs.final_state, outputs.leaves,
        [vids for _, vids in clusters], graph.vertex_xy)
    truths = [graph.truth_params[pid] for pid, _ in clusters]
    targets = build_targets(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        total, components = total_loss(
            outputs, targets, cluster_preds, truths,
            model.config.loss_weights)
    for name, value in components.items():
        if not math.isfinite(value):
            raise NumericError("non-finite loss", graph_id=graph.event_id,
                               component=name)
    grads = gradients(total, outputs.leaves)
    adam_step(state, model.flat, grads)
    return components


def train(model: Model, dataset: list[Graph], cfg: TrainConfig,
          seed: int = 0):
    """Train over the dataset, one optimizer step per graph.

    Shuffling is a fixed stream seeded by `seed`, so reruns
    from the same initial model produce bit-identical histories.  Returns
    (per-epoch history, final AdamState); the model is updated in place.
    """
    if not dataset:
        raise ConfigError("training needs a non-empty dataset")
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(dataset))
        sums = {"l_c": 0.0, "l_loc": 0.0, "l_t": 0.0, "l_total": 0.0}
        for gi in order:
            try:
                components = train_step(model, dataset[gi], state)
            except NumericError as err:
                raise NumericError(err.detail, epoch=epoch,
                                   graph_id=err.graph_id,
                                   component=err.component) from err
            for key in sums:
                sums[key] += components[key]
        record = {key: value / len(dataset) for key, value in sums.items()}
        record["epoch"] = epoch
        history.append(record)
    return history, state


@dataclass
class InferResult:
    class_prob: np.ndarray
    encoded_box: np.ndarray
    final_state: np.ndarray
    ellipses: list  # Ellipse5 or None per vertex, thresholded


def infer(model: Model, graph: Graph,
          threshold: float = 0.5) -> InferResult:
    """Forward pass plus a decoded ellipse for every vertex whose track
    probability reaches the threshold."""
    with Tape() as tape:
        outputs = gnn_forward(model, graph, tape)
        prob = outputs.class_prob_array()
        boxes = outputs.encoded_box.data.copy()
        final_state = outputs.final_state.data.copy()
    ellipses = []
    for i in range(graph.n_vertices):
        if prob[i] >= threshold:
            enc = EncodedBox(*boxes[i])
            ellipses.append(decode_box(enc, (graph.eta[i], graph.phi[i])))
        else:
            ellipses.append(None)
    return InferResult(prob, boxes, final_state, ellipses)


def save_checkpoint(model: Model, state: AdamState, epoch: int,
                    path) -> None:
    """Write the tracknet-v2 checkpoint document: the model config, the
    flat parameter vector and the flat Adam moments."""
    def flat(a):
        return None if a is None else a.tolist()

    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "epoch": epoch,
        "params": model.flat.tolist(),
        "adam": {
            "lr": state.lr, "beta1": state.beta1, "beta2": state.beta2,
            "eps_hat": state.eps_hat, "weight_decay": state.weight_decay,
            "step": state.step, "m": flat(state.m), "v": flat(state.v),
        },
    }
    write_json(path, doc)


def load_checkpoint(path):
    """Read a checkpoint; rejects a parameter vector whose length does not
    match the embedded config."""
    doc = read_json(path)
    with parsing(doc, CHECKPOINT_FORMAT):
        model = Model(ModelConfig.from_dict(doc["config"]))
        params = np.asarray(doc["params"], dtype=float)
        if params.shape != model.flat.shape:
            raise ConfigError(f"checkpoint has {params.size} parameters, "
                              f"config needs {model.flat.size}")
        model.flat[:] = params
        a = doc["adam"]
        state = AdamState(
            lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
            eps_hat=a["eps_hat"], weight_decay=a["weight_decay"],
            step=int(a["step"]),
            m=None if a["m"] is None else np.asarray(a["m"], dtype=float),
            v=None if a["v"] is None else np.asarray(a["v"], dtype=float))
        return model, state, int(doc["epoch"])
