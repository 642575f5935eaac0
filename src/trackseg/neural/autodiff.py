"""Minimal reverse-mode differentiation over numpy float64 arrays.

A Tape records every Var in creation order, which is already a valid
topological order, so the backward pass is a single reverse sweep.  All
operations are deterministic; ties in max operations route the gradient
to the lowest contributing index.  A whole dense stack (`mlp`) is one
node with one backward; the losses live in `nn` and record their own
nodes through `Tape.node`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, StateError


class Var:
    """One node of the recorded computation: value, gradient slot and the
    closure that scatters its upstream gradient to its parents."""

    __slots__ = ("data", "grad", "_backward", "tape")

    def __init__(self, data: np.ndarray, tape: "Tape", backward=None):
        self.data = data
        self.grad = np.zeros_like(data)
        self._backward = backward
        self.tape = tape


class Tape:
    """Operation recorder; one tape per forward/backward cycle."""

    def __init__(self):
        self._nodes: list[Var] = []
        self._done = False

    def node(self, data, backward=None) -> Var:
        """Record a Var whose `backward` scatters its gradient to its
        parents; None marks a value that routes no gradient."""
        v = Var(np.asarray(data, dtype=np.float64), self, backward)
        self._nodes.append(v)
        return v

    def const(self, data) -> Var:
        """Wrap a value that needs no gradient routing."""
        return self.node(data)

    def backward(self, loss: Var) -> None:
        """Reverse sweep from a scalar loss; may run once per tape."""
        if self._done:
            raise StateError("tape already used; build a new tape")
        if loss.tape is not self:
            raise StateError("loss does not belong to this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape "
                             f"{loss.data.shape}")
        self._done = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            if node._backward is not None:
                node._backward(node.grad)
        # Vars point back at the tape: break the cycle so refcounting frees
        self._nodes.clear()

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        """Ends a forward-only tape, breaking the cycle as backward does."""
        self._done = True
        self._nodes.clear()


def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise StateError("operands recorded on different tapes")
    return tape


def add(a: Var, b: Var) -> Var:
    """Elementwise sum of two same-shape Vars."""
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs equal shapes, got {a.data.shape} and "
                         f"{b.data.shape}")

    def backward(g):
        a.grad += g
        b.grad += g

    return tape.node(a.data + b.data, backward)


def mlp(x: Var, layers: list[tuple], sigmoid_out: bool) -> Var:
    """Dense stack over the rows of x: affine then ReLU per hidden layer,
    affine last, then a sigmoid if `sigmoid_out`.  `layers` holds one
    (W, b, dW, db) array tuple per layer; backward adds the weight
    gradients into dW and db.  Records one node."""
    inputs, pre = [], []  # each layer's input; each hidden pre-activation
    h = x.data
    for k, (w, b, _, _) in enumerate(layers):
        if w.shape[0] != h.shape[1] or b.shape != w.shape[1:]:
            raise ShapeError(f"layer {k}: {h.shape[1]} input columns, W "
                             f"{w.shape}, b {b.shape}")
        inputs.append(h)
        h = h @ w + b
        if k < len(layers) - 1:
            pre.append(h)
            # np.maximum (not where) so NaN inputs propagate
            h = np.maximum(h, 0.0)
    if sigmoid_out:
        e = np.exp(-np.abs(h))
        h = np.where(h >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = h

    def backward(g):
        if sigmoid_out:
            g = g * out * (1.0 - out)
        for k in reversed(range(len(layers))):
            w, _, dw, db = layers[k]
            if k < len(pre):
                g = g * (pre[k] > 0.0)
            dw += inputs[k].T @ g
            db += g.sum(axis=0)
            g = g @ w.T
        x.grad += g

    return x.tape.node(out, backward)


def scale(a: Var, s: float) -> Var:
    def backward(g):
        a.grad += g * s

    return a.tape.node(a.data * s, backward)


def concat_cols(parts: list[Var]) -> Var:
    tape = _same_tape(*parts)
    widths = [p.data.shape[1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        start = 0
        for p, w in zip(parts, widths):
            p.grad += g[:, start:start + w]
            start += w

    return tape.node(out_data, backward)


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    idx = np.asarray(idx, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather index out of range for {a.data.shape[0]} rows")

    def backward(g):
        np.add.at(a.grad, idx, g)

    return a.tape.node(a.data[idx], backward)


def segment_max(a: Var, segment_ids: np.ndarray, num_segments: int) -> Var:
    """Componentwise maximum of rows grouped by segment id.

    Empty segments yield zero rows.  The gradient routes each upstream
    element to exactly one argmax row (the lowest row index on ties).
    """
    seg = np.asarray(segment_ids, dtype=int)
    if a.data.ndim != 2:
        raise ShapeError(f"segment_max needs rows, got shape {a.data.shape}")
    m, k = a.data.shape
    if seg.shape != (m,):
        raise ShapeError(f"segment ids shape {seg.shape} does not match "
                         f"{m} rows")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError(f"segment id out of range [0, {num_segments})")

    out = np.full((num_segments, k), -np.inf)
    np.maximum.at(out, seg, a.data)

    # winner per (segment, column): lowest row index attaining the max
    winners = a.data == out[seg]
    row_ids = np.broadcast_to(np.arange(m)[:, None], (m, k))
    sel = np.full((num_segments, k), m, dtype=int)
    np.minimum.at(sel, seg, np.where(winners, row_ids, m))
    out[np.bincount(seg, minlength=num_segments) == 0] = 0.0

    def backward(g):
        s_idx, c_idx = np.nonzero(sel < m)
        if s_idx.size:
            np.add.at(a.grad, (sel[s_idx, c_idx], c_idx), g[s_idx, c_idx])

    return a.tape.node(out, backward)

