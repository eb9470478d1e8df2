"""Per-token KV importance and descending-priority orderings.

Importance of a position is the total attention mass it receives,
averaged over heads. Normalizing per layer gives each token's share of
the layer's contextual information; sorting those shares descending
yields the priority sequence whose running sums ("cumulative priority")
drive budget allocation.

All operations here are pure functions on immutable inputs; layers can
be processed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLayerError
from .trace import AttentionTrace, TraceMeta


@dataclass(frozen=True)
class ImportanceProfile:
    """Raw and normalized importance per layer and position.

    ``raw[l][n]`` is accumulated attention mass; ``normalized[l]`` sums
    to 1 for every layer.
    """

    meta: TraceMeta
    raw: np.ndarray
    normalized: np.ndarray


@dataclass(frozen=True)
class PrioritySequence:
    """Cumulative priorities, plus a lazy diagnostic ordering.

    ``cumulative[l][j]`` is the total importance share captured by the
    top ``j + 1`` positions. ``order[l]``, the positions by decreasing
    normalized importance (ties to the lower position), is computed only
    on first access; planning never reads it.
    """

    meta: TraceMeta
    normalized: np.ndarray
    cumulative: np.ndarray

    @cached_property
    def order(self) -> np.ndarray:
        return np.argsort(-self.normalized, axis=1, kind="stable")


def compute_importance(trace: AttentionTrace) -> ImportanceProfile:
    """Derive the importance profile of a trace.

    Full form: column sums of each attention matrix, averaged over
    heads. Shortcut form: raw values are taken from the trace directly.
    """
    if trace.attention is not None:
        raw = trace.attention.sum(axis=2).mean(axis=1)
    else:
        raw = trace.importance.copy()
    totals = raw.sum(axis=1)
    if not np.all(np.isfinite(totals)):
        layer = int(np.argwhere(~np.isfinite(totals))[0][0])
        raise DegenerateLayerError(
            f"layer {layer} has non-finite importance total {totals[layer]}")
    if np.any(totals <= 0.0):
        layer = int(np.argwhere(totals <= 0.0)[0][0])
        raise DegenerateLayerError(f"layer {layer} has all-zero importance")
    normalized = raw / totals[:, None]
    return ImportanceProfile(meta=trace.meta, raw=raw, normalized=normalized)


def priority_sequence(profile: ImportanceProfile) -> PrioritySequence:
    """Sort each layer's normalized importance descending and accumulate.

    A value sort suffices: tied shares are equal, so the running sums do
    not depend on which tied position comes first.
    """
    cumulative = np.cumsum(np.sort(profile.normalized, axis=1)[:, ::-1], axis=1)
    return PrioritySequence(profile.meta, profile.normalized, cumulative)
