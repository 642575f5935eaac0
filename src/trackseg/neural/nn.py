"""Dense layers, the pipeline losses and Adam.

Loss functions accept either Vars (for training) or plain arrays (for
direct evaluation); the array path runs the same formula on a throwaway
tape and returns a float.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError
from . import autodiff as ad
from .autodiff import Tape, Var

BCE_CLAMP = 1e-12


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected stack: layer_widths includes input and output."""
    layer_widths: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.layer_widths) < 2 or any(w <= 0 for w in self.layer_widths):
            raise ConfigError(f"bad layer widths {self.layer_widths}")
        if self.hidden_activation != "relu":
            raise ConfigError(f"unsupported hidden activation "
                              f"{self.hidden_activation!r}")
        if self.output_activation not in ("identity", "sigmoid"):
            raise ConfigError(f"unsupported output activation "
                              f"{self.output_activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


def init_mlp_params(spec: MlpSpec, rng: np.random.Generator,
                    prefix: str = "") -> dict[str, np.ndarray]:
    """Centered-uniform weights scaled by 1/sqrt(fan_in), zero biases."""
    params: dict[str, np.ndarray] = {}
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{prefix}W{i}"] = rng.uniform(-bound, bound, (fan_in, fan_out))
        params[f"{prefix}b{i}"] = np.zeros(fan_out)
    return params


def mlp_forward(spec: MlpSpec, params: dict[str, Var], x: Var,
                prefix: str = "") -> Var:
    """Affine-then-activation per layer; rows preserved."""
    if x.data.shape[1] != spec.layer_widths[0]:
        raise ShapeError(f"input has {x.data.shape[1]} columns, spec expects "
                         f"{spec.layer_widths[0]}")
    for i in range(spec.n_layers):
        x = ad.add(ad.matmul(x, params[f"{prefix}W{i}"]),
                   params[f"{prefix}b{i}"])
        last = i == spec.n_layers - 1
        if not last:
            x = ad.relu(x)
        elif spec.output_activation == "sigmoid":
            x = ad.sigmoid(x)
    return x


def _column(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != 1:
        raise ShapeError(f"{name} must be a flat sequence, got shape "
                         f"{arr.shape}")
    return arr


def _loss_value(build, *var_args):
    """Run `build` on the args' tape when any is a Var, else on a scratch
    tape, returning a float."""
    for a in var_args:
        if isinstance(a, Var):
            return build(a.tape)
    with Tape() as tape:
        return float(build(tape).data)


def bce_loss(y_true, p, clamp: float = BCE_CLAMP):
    """Mean binary cross entropy with the probabilities clamped to
    [clamp, 1 - clamp]."""
    y = _column(y_true, "y_true")

    def build(tape: Tape) -> Var:
        pv = p if isinstance(p, Var) else tape.const(_column(p, "p"))
        if pv.data.shape != y.shape:
            raise ShapeError(f"labels shape {y.shape} vs predictions shape "
                             f"{pv.data.shape}")
        ph = ad.clip(pv, clamp, 1.0 - clamp)
        pos = ad.mul_const(ad.log(ph), y)
        neg = ad.mul_const(ad.log(ad.add_const(ad.scale(ph, -1.0), 1.0)),
                           1.0 - y)
        return ad.scale(ad.sum_all(ad.add(pos, neg)), -1.0 / len(y))

    return _loss_value(build, p)


def huber_loss(pred, target, mask, delta: float = 1.0):
    """Masked Huber loss over encoded-box residuals.

    Sums the per-component Huber value over the 5 residuals of each
    masked vertex and divides by the total number of vertices.
    """
    if delta <= 0:
        raise ConfigError(f"huber delta must be positive, got {delta}")
    target = np.asarray(target, dtype=float)
    mask_col = _column(mask, "mask")

    def build(tape: Tape) -> Var:
        pv = pred if isinstance(pred, Var) else tape.const(
            np.asarray(pred, dtype=float))
        if pv.data.shape != target.shape:
            raise ShapeError(f"pred shape {pv.data.shape} vs target shape "
                             f"{target.shape}")
        if len(mask_col) != pv.data.shape[0]:
            raise ShapeError(f"mask length {len(mask_col)} vs "
                             f"{pv.data.shape[0]} vertices")
        h = ad.huber_elem(ad.add_const(pv, -target), delta)
        return ad.scale(ad.sum_all(ad.mul_const(h, mask_col)),
                        1.0 / pv.data.shape[0])

    return _loss_value(build, pred)


def mse_tracking_loss(pred, truth, scales=(1.0, 1e-3)):
    """Scaled mean squared error over per-cluster (p_T, eps_T) pairs.

    An empty cluster set is defined as 0 and flagged with a
    RuntimeWarning.
    """
    c_pt, c_eps = scales
    if c_pt <= 0 or c_eps <= 0:
        raise ConfigError("tracking loss scales must be positive")
    truth = np.asarray(truth, dtype=float).reshape(-1, 2)
    n = len(truth)

    def build(tape: Tape) -> Var:
        if n == 0:
            warnings.warn("tracking loss over an empty cluster set",
                          RuntimeWarning, stacklevel=3)
            return tape.const(0.0)
        pv = pred if isinstance(pred, Var) else tape.const(
            np.asarray(pred, dtype=float).reshape(-1, 2))
        if pv.data.shape != truth.shape:
            raise ShapeError(f"pred shape {pv.data.shape} vs truth shape "
                             f"{truth.shape}")
        scaled = ad.mul_const(ad.add_const(pv, -truth),
                              np.array([1.0 / c_pt, 1.0 / c_eps]))
        return ad.scale(ad.sum_all(ad.square(scaled)), 1.0 / n)

    return _loss_value(build, pred)


@dataclass
class AdamState:
    """Optimizer state; moment accumulators are keyed like the params."""
    lr: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    weight_decay: float = 1e-5
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]):
    """One Adam update with bias correction and decoupled weight decay
    (params shrink by lr*wd before the moment update).  Mutates params
    and state in place; deterministic."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} vs parameter shape "
                             f"{p.shape} for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        if state.weight_decay:
            p *= 1.0 - state.lr * state.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps_hat)
    return params, state


def gradients(loss: Var, leaves: dict[str, Var]) -> dict[str, np.ndarray]:
    """Run the reverse sweep and collect one gradient per named leaf."""
    loss.tape.backward(loss)
    return {name: leaf.grad.copy() for name, leaf in leaves.items()}
