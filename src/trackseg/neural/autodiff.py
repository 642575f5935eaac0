"""Minimal reverse-mode differentiation over numpy float64 arrays.

A Tape records every Var in creation order, which is already a valid
topological order, so the backward pass is a single reverse sweep.  All
operations are deterministic; ties in max operations route the gradient
to the lowest contributing index.  The tape tracks the distance of every
forward pass to the nearest ReLU/max/clip kink (`kink_margin`) so
finite-difference checks can exclude non-smooth points.
"""

from __future__ import annotations

import math

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

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)


class Tape:
    """Operation recorder; one tape per forward/backward cycle."""

    def __init__(self, nan_check: bool = False):
        self._nodes: list[Var] = []
        self._done = False
        self.nan_check = nan_check
        self.kink_margin = math.inf

    def _node(self, data, backward=None) -> Var:
        data = np.asarray(data, dtype=np.float64)
        if self.nan_check and not np.all(np.isfinite(data)):
            raise FloatingPointError("non-finite value produced on tape")
        v = Var(data, self, backward)
        self._nodes.append(v)
        return v

    def const(self, data) -> Var:
        """Wrap a value that needs no gradient routing."""
        return self._node(data)

    # parameters are consts whose .grad is read after backward
    leaf = const

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

    def _note_margin(self, margin: float) -> None:
        if margin < self.kink_margin:
            self.kink_margin = margin


def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise StateError("operands recorded on different tapes")
    return tape


def matmul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return tape._node(out_data, backward)


def add(a: Var, b: Var) -> Var:
    """Elementwise sum; b may be a bias row broadcast over a's rows."""
    tape = _same_tape(a, b)
    out_data = a.data + b.data
    if out_data.shape != a.data.shape:
        raise ShapeError(f"add cannot broadcast {b.data.shape} into "
                         f"{a.data.shape}")

    def backward(g):
        a.grad += g
        if b.data.shape == g.shape:
            b.grad += g
        else:
            b.grad += g.sum(axis=0).reshape(b.data.shape)

    return tape._node(out_data, backward)


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} vs "
                         f"{b.data.shape}")

    def backward(g):
        a.grad += g
        b.grad -= g

    return tape._node(a.data - b.data, backward)


def mul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} vs "
                         f"{b.data.shape}")

    def backward(g):
        a.grad += g * b.data
        b.grad += g * a.data

    return tape._node(a.data * b.data, backward)


def scale(a: Var, s: float) -> Var:
    def backward(g):
        a.grad += g * s

    return a.tape._node(a.data * s, backward)


def add_const(a: Var, c) -> Var:
    c = np.asarray(c, dtype=np.float64)

    def backward(g):
        a.grad += g

    return a.tape._node(a.data + c, backward)


def mul_const(a: Var, c) -> Var:
    """Elementwise product with a constant broadcastable into a's shape."""
    c = np.asarray(c, dtype=np.float64)
    out_data = a.data * c
    if out_data.shape != a.data.shape:
        raise ShapeError(f"mul_const cannot broadcast {c.shape} into "
                         f"{a.data.shape}")

    def backward(g):
        a.grad += g * c

    return a.tape._node(out_data, backward)


def relu(a: Var) -> Var:
    mask = a.data > 0.0
    if a.data.size:
        a.tape._note_margin(float(np.min(np.abs(a.data))))

    def backward(g):
        a.grad += g * mask

    # np.maximum (not where) so NaN inputs propagate instead of zeroing
    return a.tape._node(np.maximum(a.data, 0.0), backward)


def sigmoid(a: Var) -> Var:
    x = a.data
    s = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        a.grad += g * s * (1.0 - s)

    return a.tape._node(s, backward)


def log(a: Var) -> Var:
    def backward(g):
        a.grad += g / a.data

    return a.tape._node(np.log(a.data), backward)


def clip(a: Var, lo: float, hi: float) -> Var:
    """Clamp values; gradient passes only through the unclamped region."""
    inside = (a.data > lo) & (a.data < hi)
    if a.data.size:
        a.tape._note_margin(float(np.min(np.minimum(np.abs(a.data - lo),
                                                    np.abs(a.data - hi)))))

    def backward(g):
        a.grad += g * inside

    return a.tape._node(np.clip(a.data, lo, hi), backward)


def square(a: Var) -> Var:
    def backward(g):
        a.grad += g * 2.0 * a.data

    return a.tape._node(a.data * a.data, backward)


def huber_elem(a: Var, delta: float) -> Var:
    """Elementwise Huber value: x^2/2 inside |x| <= delta, linear outside.

    The derivative is clamp(x, -delta, delta), continuous at the knot.
    """
    x = a.data
    absx = np.abs(x)
    if x.size:
        a.tape._note_margin(float(np.min(np.abs(absx - delta))))
    out = np.where(absx <= delta, 0.5 * x * x,
                   delta * (absx - 0.5 * delta))

    def backward(g):
        a.grad += g * np.clip(x, -delta, delta)

    return a.tape._node(out, backward)


def concat_cols(parts: list[Var]) -> Var:
    tape = _same_tape(*parts)
    widths = [p.data.shape[1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        start = 0
        for p, w in zip(parts, widths):
            p.grad += g[:, start:start + w]
            start += w

    return tape._node(out_data, backward)


def concat_rows(parts: list[Var]) -> Var:
    tape = _same_tape(*parts)
    heights = [p.data.shape[0] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=0)

    def backward(g):
        start = 0
        for p, h in zip(parts, heights):
            p.grad += g[start:start + h]
            start += h

    return tape._node(out_data, backward)


def slice_cols(a: Var, start: int, stop: int) -> Var:
    def backward(g):
        a.grad[:, start:stop] += g

    return a.tape._node(a.data[:, start:stop].copy(), backward)


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    idx = np.asarray(idx, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather index out of range for {a.data.shape[0]} rows")

    def backward(g):
        np.add.at(a.grad, idx, g)

    return a.tape._node(a.data[idx], backward)


def segment_max(a: Var, segment_ids: np.ndarray, num_segments: int) -> Var:
    """Componentwise maximum of rows grouped by segment id.

    Empty segments yield zero rows.  The gradient routes each upstream
    element to exactly one argmax row (the lowest row index on ties).
    """
    seg = np.asarray(segment_ids, dtype=int)
    m, k = a.data.shape if a.data.ndim == 2 else (len(a.data), 1)
    if seg.shape != (m,):
        raise ShapeError(f"segment ids shape {seg.shape} does not match "
                         f"{m} rows")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError(f"segment id out of range [0, {num_segments})")

    out = np.full((num_segments, k), -np.inf)
    np.maximum.at(out, seg, a.data)
    empty = np.isinf(out)

    # winner per (segment, column): lowest row index attaining the max
    winners = a.data == out[seg]
    row_ids = np.broadcast_to(np.arange(m)[:, None], (m, k))
    sel = np.full((num_segments, k), m, dtype=int)
    np.minimum.at(sel, seg, np.where(winners, row_ids, m))

    if m:
        win_counts = np.zeros((num_segments, k))
        np.add.at(win_counts, seg, winners.astype(float))
        if np.any(win_counts > 1.0):
            a.tape._note_margin(0.0)
        masked = np.where(winners, -np.inf, a.data)
        second = np.full((num_segments, k), -np.inf)
        np.maximum.at(second, seg, masked)
        valid = np.isfinite(second) & ~empty
        if np.any(valid):
            a.tape._note_margin(float((out[valid] - second[valid]).min()))

    out = np.where(empty, 0.0, out)

    def backward(g):
        s_idx, c_idx = np.nonzero(sel < m)
        if s_idx.size:
            np.add.at(a.grad, (sel[s_idx, c_idx], c_idx), g[s_idx, c_idx])

    return a.tape._node(out, backward)


def sum_all(a: Var) -> Var:
    def backward(g):
        a.grad += g  # scalar broadcast

    return a.tape._node(np.sum(a.data), backward)


def mean_all(a: Var) -> Var:
    n = a.data.size

    def backward(g):
        a.grad += g / n

    return a.tape._node(np.mean(a.data), backward)
