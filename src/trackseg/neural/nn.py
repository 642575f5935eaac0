"""Dense layers, the pipeline losses and Adam.

Each loss is an array op like `autodiff.mlp`: it checks its inputs,
takes the prediction as an array and returns its scalar value and a
closed-form backward from the value's gradient to the prediction's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError
from . import autodiff as ad

# probabilities clamp to [BCE_CLAMP, 1 - BCE_CLAMP] inside the BCE log
BCE_CLAMP = 1e-12
# the localization loss is quadratic within HUBER_DELTA, linear beyond
HUBER_DELTA = 1.0
# Adam's moment decay rates and the denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected ReLU stack: layer_widths includes input and
    output; the output layer is linear, or a sigmoid with sigmoid_out."""
    layer_widths: tuple[int, ...]
    sigmoid_out: bool = False

    def __post_init__(self):
        if len(self.layer_widths) < 2 or any(w <= 0 for w in self.layer_widths):
            raise ConfigError(f"bad layer widths {self.layer_widths}")

    def layers(self, prefix: str = "") -> list[tuple[str, str, int, int]]:
        """Per layer, in order: the names of its weight and bias,
        "<prefix>W<i>" and "<prefix>b<i>", and its fan-in and fan-out."""
        w = self.layer_widths
        return [(f"{prefix}W{i}", f"{prefix}b{i}", fan_in, fan_out)
                for i, (fan_in, fan_out) in enumerate(zip(w, w[1:]))]


def mlp_forward(spec: MlpSpec, model, x: np.ndarray, prefix: str = ""):
    """The block `prefix`, of shape `spec`, over the rows of x as an
    array op (see `autodiff.mlp`), which checks the layer shapes: it
    reads the block's (W, b, dW, db) layer tuples from
    `model.layers[prefix]`, and its backward adds the weight gradients
    into the dW and db slots."""
    return ad.mlp(x, model.layers[prefix], spec.sigmoid_out)


def _column(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != 1:
        raise ShapeError(f"{name} must be a flat sequence, got shape "
                         f"{arr.shape}")
    return arr


def bce_loss(y_true, p: np.ndarray):
    """Mean binary cross entropy of the (n, 1) probabilities `p`, clamped
    to [BCE_CLAMP, 1 - BCE_CLAMP]; the gradient passes only where p lies
    strictly inside."""
    y = _column(y_true, "y_true")
    if p.shape != y.shape:
        raise ShapeError(f"labels shape {y.shape} vs predictions shape "
                         f"{p.shape}")
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    inside = (p > lo) & (p < hi)
    ph = np.clip(p, lo, hi)
    q = ph * -1.0 + 1.0
    s = -1.0 / len(y)

    def backward(g):
        c = g * s
        return ((c * (1.0 - y)) / q * -1.0 + (c * y) / ph) * inside

    return np.sum(np.log(ph) * y + np.log(q) * (1.0 - y)) * s, backward


def huber_loss(pred: np.ndarray, target, mask):
    """Masked Huber loss over encoded-box residuals d = pred - target.

    Each component costs d^2/2 inside |d| <= HUBER_DELTA and grows
    linearly beyond (derivative clamp(d, -HUBER_DELTA, HUBER_DELTA)).
    Sums the per-component value over the 5 residuals of each masked
    vertex and divides by the total number of vertices.
    """
    target = np.asarray(target, dtype=float)
    mask_col = _column(mask, "mask")
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} vs target shape "
                         f"{target.shape}")
    if len(mask_col) != pred.shape[0]:
        raise ShapeError(f"mask length {len(mask_col)} vs "
                         f"{pred.shape[0]} vertices")
    delta = HUBER_DELTA
    d = pred + -target
    absd = np.abs(d)
    h = np.where(absd <= delta, 0.5 * d * d, delta * (absd - 0.5 * delta))
    s = 1.0 / pred.shape[0]

    def backward(g):
        return ((g * s) * mask_col) * np.clip(d, -delta, delta)

    return np.sum(h * mask_col) * s, backward


def mse_tracking_loss(pred: np.ndarray, truth, scales=(1.0, 1e-3)):
    """Sum of squared scaled residuals (pred - truth) / scales over the
    per-cluster (p_T, eps_T) pairs, divided by the cluster count; an
    empty cluster set costs 0."""
    c_pt, c_eps = scales
    if c_pt <= 0 or c_eps <= 0:
        raise ConfigError("tracking loss scales must be positive")
    truth = np.asarray(truth, dtype=float).reshape(-1, 2)
    if len(truth) == 0:
        return 0.0, lambda g: np.zeros_like(pred)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred shape {pred.shape} vs truth shape "
                         f"{truth.shape}")
    inv_scales = np.array([1.0 / c_pt, 1.0 / c_eps])
    sc = (pred + -truth) * inv_scales
    s = 1.0 / pred.shape[0]

    def backward(g):
        return (((g * s) * 2.0) * sc) * inv_scales

    return np.sum(sc * sc) * s, backward


@dataclass
class AdamState:
    """Optimizer state; the moment accumulators are flat arrays laid out
    like the parameter vector, None before the first step.  `scratch`
    holds two more such vectors for the update's intermediates, so a step
    allocates no temporaries."""
    lr: float
    weight_decay: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                          repr=False)


def adam_step(state: AdamState, flat: np.ndarray, grad: np.ndarray):
    """One Adam update of the flat parameter vector with bias correction
    and decoupled weight decay (params shrink by lr*wd before the moment
    update).  Mutates flat and state in place; deterministic."""
    if grad.shape != flat.shape:
        raise ShapeError(f"gradient shape {grad.shape} vs parameter shape "
                         f"{flat.shape}")
    if state.m is None:
        state.m = np.zeros_like(flat)
        state.v = np.zeros_like(flat)
    if state.scratch is None:
        state.scratch = (np.empty_like(flat), np.empty_like(flat))
    state.step += 1
    t = state.step
    if state.weight_decay:
        flat *= 1.0 - state.lr * state.weight_decay
    m, v = state.m, state.v
    a, b = state.scratch
    # in place, the float operations of
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
    #   flat -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
    a *= grad
    v += a
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)
    a *= state.lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    flat -= a
