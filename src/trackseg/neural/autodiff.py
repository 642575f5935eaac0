"""Minimal reverse-mode differentiation over numpy float64 arrays.

Every op runs on arrays: it returns its value and a backward that maps
the value's gradient to its input's gradient, adding any weight
gradients into their slots as it goes.  A dense stack (`mlp`) is one
op, and so is a whole message-passing iteration (`message_passing`);
the losses in `nn` are array ops too.  A network is a chain of such
ops, so a `Tape` needs no graph: it is the list of their backwards in
forward order, and its sweep runs them last to first.  A caller that
keeps no backward (inference) frees each op's intermediates as soon as
the op returns.  All operations are deterministic; ties in max
operations route the gradient to the lowest contributing row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError


class Tape(list):
    """The backwards of a chain of ops, in forward order."""

    def backward(self, grad) -> None:
        """Reverse sweep: run the backwards last to first, each on the
        gradient the one after it returned, starting from `grad`, the
        gradient of the chain's output; then drop them."""
        for step in reversed(self):
            grad = step(grad)
        self.clear()


def mlp(x: np.ndarray, layers: list[tuple], sigmoid_out: bool):
    """Dense stack over the rows of x: affine then ReLU per hidden layer,
    affine last, then a sigmoid if `sigmoid_out`.  `layers` holds one
    (W, b, dW, db) array tuple per layer.  Returns the output and its
    backward, which adds the weight gradients into dW and db and returns
    the gradient of x."""
    inputs = []  # each layer's input
    h = x
    for k, (w, b, _, _) in enumerate(layers):
        if w.shape[0] != h.shape[1] or b.shape != w.shape[1:]:
            raise ShapeError(f"layer {k}: {h.shape[1]} input columns, W "
                             f"{w.shape}, b {b.shape}")
        inputs.append(h)
        h = h @ w
        h += b
        if k < len(layers) - 1:
            # np.maximum (not where) so NaN inputs propagate
            np.maximum(h, 0.0, out=h)
    if sigmoid_out:
        e = np.exp(-np.abs(h))
        h = np.where(h >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = h

    def backward(g):
        if sigmoid_out:
            g = g * out * (1.0 - out)
        for k in reversed(range(len(layers))):
            w, _, dw, db = layers[k]
            if k < len(layers) - 1:
                # a ReLU output is > 0 exactly where its input was
                g = g * (inputs[k + 1] > 0.0)
            dw += inputs[k].T @ g
            db += g.sum(axis=0)
            g = g @ w.T
        return g

    return out, backward


@dataclass(frozen=True)
class Segments:
    """`rows` rows grouped into `n` segments, laid out for reduceat:
    `order` lists the rows segment after segment, each segment's rows in
    their own order (the identity when the rows are grouped already),
    `starts` gives the position in that order where each non-empty
    segment begins, `sizes` its row count, and `ids` names those
    segments, ascending.  Its arrays are read-only."""
    n: int
    rows: int
    starts: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, segment_ids, n: int) -> "Segments":
        """The layout of rows whose segments are `segment_ids`, each in
        [0, n); the order is a stable sort by segment."""
        seg = np.asarray(segment_ids, dtype=int)
        if seg.ndim != 1:
            raise ShapeError(f"segment ids must be flat, got shape "
                             f"{seg.shape}")
        if seg.size and (seg.min() < 0 or seg.max() >= n):
            raise IndexError(f"segment id out of range [0, {n})")
        order = np.argsort(seg, kind="stable")
        seg = seg[order]
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        layout = cls(n, len(seg), starts, np.diff(starts, append=len(seg)),
                     seg[starts], order)
        for array in (starts, layout.sizes, layout.ids, order):
            array.flags.writeable = False
        return layout


def segment_max(a: np.ndarray, segments: Segments):
    """Componentwise maximum of the rows of a in each segment, reduced
    over the rows gathered in the layout's order; an empty segment
    yields a zero row.  Returns the (n, k) maxima and their backward,
    which routes each upstream element through the order to exactly one
    row: the lowest row attaining the maximum (none where it is NaN)."""
    if a.ndim != 2:
        raise ShapeError(f"segment_max needs rows, got shape {a.shape}")
    if len(a) != segments.rows:
        raise ShapeError(f"{len(a)} rows for a layout of {segments.rows}")
    out = np.zeros((segments.n, a.shape[1]))
    if not len(segments.ids):  # no rows
        return out, lambda g: np.zeros_like(a)
    rows = a[segments.order]
    top = np.maximum.reduceat(rows, segments.starts, axis=0)
    out[segments.ids] = top

    def backward(g):
        m = len(rows)
        wins = rows == np.repeat(top, segments.sizes, axis=0)
        # per (segment, column): the lowest sorted position that wins,
        # which a stable order maps to the lowest row
        first = np.minimum.reduceat(
            np.where(wins, np.arange(m)[:, None], m), segments.starts,
            axis=0)
        s_idx, c_idx = np.nonzero(first < m)
        r_idx = segments.order[first[s_idx, c_idx]]
        grad = np.zeros_like(a)
        # one winner per (segment, column): the targets are unique
        grad[r_idx, c_idx] = g[segments.ids[s_idx], c_idx]
        return grad

    return out, backward


def message_passing(x: np.ndarray, src: np.ndarray, dst: np.ndarray,
                    coord_diff: np.ndarray, receivers: Segments, h, f, g):
    """One message-passing iteration over the vertex states x: h(x) is
    an offset per vertex; the message along edge e is
    f([coord_diff[e] + h(x)[dst[e]], x[src[e]]]); each vertex takes the
    componentwise max of the messages it receives (`receivers` groups
    the messages by `dst`) and returns x + g([max, x]).  h, f and g are
    array ops like `mlp`.  Returns the new states and their backward,
    which visits the parts in reverse and sums x's gradient in the order
    residual, g, the gather from `src`, h."""
    dx, h_backward = h(x)
    msg, f_backward = f(np.concatenate([coord_diff + dx[dst], x[src]],
                                       axis=1))
    agg, max_backward = segment_max(msg, receivers)
    update, g_backward = g(np.concatenate([agg, x], axis=1))
    k = agg.shape[1]
    c = coord_diff.shape[1]

    def backward(grad):
        g_in = g_backward(grad)
        gx = grad + g_in[:, k:]
        g_edge = f_backward(max_backward(g_in[:, :k]))
        np.add.at(gx, src, g_edge[:, c:])
        g_dx = np.zeros_like(dx)
        np.add.at(g_dx, dst, g_edge[:, :c])
        gx += h_backward(g_dx)
        return gx

    return update + x, backward
