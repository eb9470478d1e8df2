"""Lorenz curves and Gini coefficients of per-layer importance.

The Lorenz curve of a priority sequence plots cumulative priority
against prefix size ratio. Because positions are sorted descending, the
curve dominates the diagonal; the (doubled) area between them is the
Gini coefficient, a scalar measure of how concentrated a layer's
importance distribution is. ``layer_stats`` is the one producer of
curves and Gini coefficients: it computes them for every layer of a
sequence in one block pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .importance import PrioritySequence

_FINAL_TOL = 1e-9


@dataclass(frozen=True)
class LorenzCurve:
    """Points ``(x, y)`` with x the prefix ratio and y cumulative priority.

    The origin (0, 0) is implied and not stored.
    """

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class LayerStats:
    layer: int
    gini: float
    curve: LorenzCurve


# Layers whose Gini areas layer_stats computes in one pass are chosen so
# that a pass's temporaries hold about this many values.
_BLOCK_VALUES = 2**18


def _grid(n: int) -> np.ndarray:
    """The read-only x grid (j+1)/n, j = 0..n-1, that every curve of length n shares."""
    x = np.arange(1, n + 1) / n
    x.flags.writeable = False
    return x


def _row(cumulative: np.ndarray, layer: int) -> np.ndarray:
    """Read-only view of one layer's cumulative priorities."""
    y = cumulative[layer]
    y.flags.writeable = False
    return y


def _check_curves(x: np.ndarray, block: np.ndarray) -> None:
    """Raise ValueError unless every row y of ``block`` makes a Lorenz curve over ``x``.

    The message names the first failing check of the first failing row,
    with the checks in the order listed, so a block fails as its rows
    would one at a time.
    """
    faults = [
        ("y must be nondecreasing", np.any(block[:, 1:] < block[:, :-1], axis=1)),
        ("curve must end at (1, 1)", np.abs(block[:, -1] - 1.0) > _FINAL_TOL),
        ("curve dips below the equality line", np.any(block < x - _FINAL_TOL, axis=1)),
    ]
    bad = np.logical_or.reduce([rows for _, rows in faults])
    if bad.any():
        row = int(np.argmax(bad))
        message = next(message for message, rows in faults if rows[row])
        if message.startswith("curve must end"):
            message += f", got ({x[-1]}, {block[row, -1]})"
        raise ValueError(message)


def _ginis(x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Gini coefficient of every row y of ``block`` as a curve over ``x``.

    Each row sums the elementwise ``dx * (y_j + y_{j-1}) / 2`` from the
    implied origin, so a row's value does not depend on the block's other
    rows or its size.
    """
    block = block.astype(float, copy=False)
    dx = np.diff(np.concatenate(([0.0], x)))
    terms = np.empty_like(block)
    terms[:, 0] = block[:, 0] + 0.0
    np.add(block[:, 1:], block[:, :-1], out=terms[:, 1:])
    terms *= dx
    terms /= 2.0
    return np.clip(2.0 * (terms.sum(axis=1) - 0.5), 0.0, 1.0)


def layer_stats(seq: PrioritySequence) -> list[LayerStats]:
    """Lorenz curve and Gini coefficient of every layer, in layer order.

    Layer l's curve has the points ((j+1)/N, cumulative[l][j]) for
    j = 0..N-1. All curves share one read-only x grid, and each y is a
    read-only view of the sequence's cumulative row, so the curves copy
    nothing. A layer's Gini is twice the trapezoidal area between its
    curve and the equality line, integrated from the implied origin
    through every point and clamped to [0, 1]: uniform importance gives
    0, a single atom among N tokens (N-1)/N.

    Curve invariants and Gini areas are computed a block of layers at a
    time. A row's Gini does not depend on its block, so it has the same
    bits for any block size, and the first layer whose curve decreases,
    does not end at (1, 1) or dips below the equality line raises a
    ValueError naming that fault. So does a ``cumulative`` whose shape is
    not the meta's ``(L, N)``.
    """
    L, n = seq.meta.layers, seq.meta.seq_len
    if seq.cumulative.shape != (L, n):
        raise ValueError(f"cumulative has shape {seq.cumulative.shape}, expected {(L, n)}")
    x = _grid(n)
    step = max(1, _BLOCK_VALUES // n)
    stats = []
    for start in range(0, L, step):
        block = seq.cumulative[start:start + step]
        _check_curves(x, block)
        for layer, g in enumerate(_ginis(x, block).tolist(), start):
            curve = LorenzCurve(x, _row(seq.cumulative, layer))
            stats.append(LayerStats(layer=layer, gini=g, curve=curve))
    return stats
