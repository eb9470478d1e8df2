"""Per-token KV importance and descending-priority orderings.

Importance of a position is the total attention mass it receives,
averaged over heads. Normalizing per layer gives each token's share of
the layer's contextual information; sorting those shares descending
yields the priority sequence whose running sums ("cumulative priority")
drive budget allocation.

All operations here are pure functions on immutable inputs; layers can
be processed independently. Their outputs are read-only: a profile may
share memory with its trace, and downstream stages share memory with
the profile and the priority sequence instead of copying them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLayerError
from .trace import AttentionTrace, TraceMeta


@dataclass(frozen=True)
class ImportanceProfile:
    """Raw importance per layer and position, and its per-layer totals.

    ``raw[l][n]`` is accumulated attention mass and ``totals[l]`` its
    positive, finite sum over the layer. Both arrays are read-only, and
    for a shortcut trace ``raw`` is a view of the trace's ``importance``.

    ``normalized[l] = raw[l] / totals[l]``, each token's share of the
    layer (summing to 1), and ``order[l]``, the positions by decreasing
    share (ties to the lower position), which prefill compression keeps a
    prefix of, are read-only and computed on first access. Planning reads
    neither.
    """

    meta: TraceMeta
    raw: np.ndarray
    totals: np.ndarray

    @cached_property
    def normalized(self) -> np.ndarray:
        normalized = self.raw / self.totals[:, None]
        normalized.flags.writeable = False
        return normalized

    @cached_property
    def order(self) -> np.ndarray:
        order = np.argsort(_negated_shares(self), axis=1, kind="stable")
        order.flags.writeable = False
        return order


@dataclass(frozen=True)
class PrioritySequence:
    """Cumulative priorities.

    ``cumulative[l][j]`` is the total importance share captured by the
    top ``j + 1`` positions of ``ImportanceProfile.order[l]``. It is
    read-only.
    """

    meta: TraceMeta
    cumulative: np.ndarray


def compute_importance(trace: AttentionTrace) -> ImportanceProfile:
    """Derive the importance profile of a trace.

    Full form: column sums of each attention matrix, averaged over
    heads. Shortcut form: raw values are a read-only view of the trace's
    importance, not a copy.
    """
    if trace.attention is not None:
        raw = trace.attention.sum(axis=2).mean(axis=1)
    else:
        raw = trace.importance.view()
    totals = raw.sum(axis=1)
    if not np.all(np.isfinite(totals)):
        layer = int(np.argwhere(~np.isfinite(totals))[0][0])
        raise DegenerateLayerError(
            f"layer {layer} has non-finite importance total {totals[layer]}")
    if np.any(totals <= 0.0):
        layer = int(np.argwhere(totals <= 0.0)[0][0])
        raise DegenerateLayerError(f"layer {layer} has all-zero importance")
    raw.flags.writeable = totals.flags.writeable = False
    return ImportanceProfile(meta=trace.meta, raw=raw, totals=totals)


def _negated_shares(profile: ImportanceProfile) -> np.ndarray:
    """A new writable array holding ``-profile.normalized``, bit for bit.

    Division rounds the same way for either sign, so ``raw / -total`` is
    exactly ``-(raw / total)``; the quotient is formed once, without
    building ``normalized``.
    """
    return np.divide(profile.raw, -profile.totals[:, None])


def priority_sequence(profile: ImportanceProfile) -> PrioritySequence:
    """Sort each layer's normalized importance descending and accumulate.

    A value sort suffices: tied shares are equal, so the running sums do
    not depend on which tied position comes first. The negated shares are
    divided straight from ``raw`` into the one L*N buffer the result
    occupies, sorted ascending and accumulated in place, then negated
    back; negation is exact, so the result has the bits of accumulating
    the descending sort of ``normalized``, which is never built.
    """
    cumulative = _negated_shares(profile)
    cumulative.sort(axis=1)
    np.cumsum(cumulative, axis=1, out=cumulative)
    np.negative(cumulative, out=cumulative)
    cumulative.flags.writeable = False
    return PrioritySequence(profile.meta, cumulative)
