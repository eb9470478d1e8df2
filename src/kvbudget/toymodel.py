"""A seeded attention-only stack that emits genuine attention traces.

Random fixed weights, no training, no MLP blocks or layer norm: every
quantity the rest of the package consumes derives from attention and its
outputs, so the stack is deliberately minimal. Heavy-tailed embedding
norms and a geometric ladder of per-layer attention gains give layers
the heterogeneous importance distributions, from dispersed to sharply
concentrated, that the allocator exists to exploit. Do not mistake its
perplexity for model quality.

Weights are reproducible from (architecture, seed); forward passes on
distinct sequences may run concurrently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import MismatchError, UsageError
from .trace import AttentionTrace, TraceMeta, _check_size, _is_int

if TYPE_CHECKING:
    from .cachesim import CacheState

# Spread of token embedding norms (lognormal sigma).
_EMBED_TAIL = 1.0
# Per-layer attention logit gain ladder, geometric between these bounds.
_GAIN_LOW = 4.0
_GAIN_HIGH = 64.0
# Output projections are scaled down by this factor to keep the residual
# stream, and with it per-layer feature scales, roughly flat.
_OUTPUT_DAMP = 2.0


class ToyModel:
    """Multi-layer causal multi-head attention with fixed Gaussian weights."""

    def __init__(self, layers: int = 8, heads: int = 4, dim: int = 64,
                 vocab: int = 256, seed: int = 0):
        for name, size in (("layers", layers), ("heads", heads), ("dim", dim), ("vocab", vocab)):
            if not _is_int(size) or size < 1:
                raise UsageError(f"{name} must be at least 1, got {size}")
        if dim % heads != 0:
            raise UsageError(f"dim {dim} must be divisible by heads {heads}")
        if not _is_int(seed) or seed < 0:
            raise UsageError(f"seed must be nonnegative, got {seed}")
        _check_size("toy embedding", (vocab, dim))
        _check_size("toy layer weights", (layers, dim, dim))
        self.layers = layers
        self.heads = heads
        self.dim = dim
        self.head_dim = dim // heads
        self.vocab = vocab
        self.seed = seed
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        # Purely iid 1/sqrt(dim) weights would leave attention logits
        # O(1/dim), i.e. near-uniform rows and identical importance
        # distributions in every layer. Two knobs restore the structure
        # trained models exhibit: heavy-tailed token embedding norms make
        # some keys globally attractive (sink-like columns that attention
        # rows agree on), and a fixed geometric ladder of per-layer logit
        # gains spreads the layers from dispersed (shallow) to
        # concentrated (deep). The output projection is damped so feature
        # scales stay comparable across depth.
        token_scale = np.exp(_EMBED_TAIL * rng.standard_normal(vocab))[:, None]
        self.embedding = rng.standard_normal((vocab, dim)) * scale * token_scale
        self.w_query = rng.standard_normal((layers, dim, dim)) * scale
        self.w_key = rng.standard_normal((layers, dim, dim)) * scale
        self.w_value = rng.standard_normal((layers, dim, dim)) * scale
        self.w_output = rng.standard_normal((layers, dim, dim)) * (scale / _OUTPUT_DAMP)
        self.unembedding = rng.standard_normal((dim, vocab)) * scale
        self.logit_gains = np.geomspace(_GAIN_LOW, _GAIN_HIGH, layers)

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        # (N, dim) -> (H, N, head_dim)
        return x.reshape(-1, self.heads, self.head_dim).transpose(1, 0, 2)

    def _check_ids(self, token_ids) -> np.ndarray:
        """Token ids as int64, refusing any that are not integers in the vocabulary."""
        ids = np.asarray(token_ids)
        if ids.ndim != 1 or len(ids) == 0:
            raise UsageError("token ids must form a non-empty 1-D sequence")
        if ids.dtype.kind not in "iu":
            raise UsageError(f"token ids must be integers, got dtype {ids.dtype}")
        if np.any(ids < 0) or np.any(ids >= self.vocab):
            bad = ids[(ids < 0) | (ids >= self.vocab)][0]
            raise UsageError(f"token id {bad} outside vocabulary of size {self.vocab}")
        return ids.astype(np.int64)


def _forward(model: ToyModel, ids: np.ndarray):
    """Full causal forward pass; returns attention, keys, values, features."""
    L, H, hd = model.layers, model.heads, model.head_dim
    N = len(ids)
    x = model.embedding[ids]
    mask = np.tri(N, N, k=0, dtype=bool)
    attention = np.zeros((L, H, N, N))
    keys = np.zeros((L, H, N, hd))
    values = np.zeros((L, H, N, hd))
    features = np.zeros((L, N, model.dim))
    for l in range(L):
        q = model._split_heads(x @ model.w_query[l])
        k = model._split_heads(x @ model.w_key[l])
        v = model._split_heads(x @ model.w_value[l])
        logits = model.logit_gains[l] * (q @ k.transpose(0, 2, 1)) / np.sqrt(hd)
        logits = np.where(mask, logits, -np.inf)
        logits -= logits.max(axis=-1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=-1, keepdims=True)
        attention[l] = weights
        keys[l] = k
        values[l] = v
        out = (weights @ v).transpose(1, 0, 2).reshape(N, model.dim)
        x = x + out @ model.w_output[l]
        features[l] = x
    return attention, keys, values, features


def forward_trace(model: ToyModel, token_ids) -> AttentionTrace:
    """Run the stack over a prompt and record a validated trace.

    Captures full attention matrices, per-head key/value vectors and the
    post-attention residual stream of every layer.
    """
    ids = model._check_ids(token_ids)
    _check_size("attention", (model.layers, model.heads, len(ids), len(ids)))
    attention, keys, values, features = _forward(model, ids)
    meta = TraceMeta(
        layers=model.layers, heads=model.heads, seq_len=len(ids),
        label="toy", seed=model.seed,
    )
    trace = AttentionTrace(
        meta=meta, attention=attention, keys=keys, values=values, features=features,
    )
    trace.validate()
    return trace


def decode(
    model: ToyModel,
    trace: AttentionTrace,
    steps: int,
    state: CacheState,
    forced_tokens=None,
):
    """Greedy decoding that continues a prompt's forward trace.

    ``trace`` is the prompt's ``forward_trace``; its last-layer features
    at the final position give the first token, and ``state`` is a cache
    prefilled from it (full or compressed). Each step attends only to the
    live cache entries plus the new token itself, feeding the resulting
    rows and key/value vectors back into the cache state so eviction and
    merging happen mid-decode. When ``forced_tokens`` is given, the input
    stream is overridden with those ids (teacher forcing) while features
    are still computed under the supplied cache.

    Returns ``(tokens, features)``: the ids at positions N..N+steps-1 and
    an array of shape (steps, layers, dim) with each step's post-attention
    features at every layer.
    """
    if not _is_int(steps) or steps < 1:
        raise UsageError("decode needs at least one step")
    _check_size("decode features", (steps, model.layers, model.dim))
    if trace.features is None:
        raise MismatchError("decode continues from a forward trace with features")
    if state.current_len != trace.meta.seq_len:
        raise MismatchError(
            f"cache holds {state.current_len} positions but prompt has {trace.meta.seq_len}"
        )
    if forced_tokens is not None:
        if len(forced_tokens) < steps:
            raise UsageError("forced_tokens must cover every decode step")
        model._check_ids(forced_tokens)
    L, H, hd = model.layers, model.heads, model.head_dim
    shape = (trace.meta.layers, trace.meta.heads, trace.features.shape[2])
    if shape != (L, H, model.dim):
        raise MismatchError(f"trace has (layers, heads, width) {shape}, "
                            f"the model {(L, H, model.dim)}")
    if state.layers != L:
        raise MismatchError(f"cache has {state.layers} layers, the model has {L}")
    for l in range(L):
        kv_shape = state.live_kv(l)[0].shape[::2]
        if kv_shape != (H, hd):
            raise MismatchError(f"layer {l} caches key/value vectors of shape (H, d) = "
                                f"{kv_shape}, the model makes {(H, hd)}")

    # The first generated token comes from the prompt's final logits,
    # which compression (applied after prefill) does not affect.
    if forced_tokens is None:
        next_id = int(np.argmax(trace.features[-1, -1] @ model.unembedding))
    else:
        next_id = int(forced_tokens[0])

    tokens = np.zeros(steps, dtype=np.int64)
    features = np.zeros((steps, L, model.dim))
    for t in range(steps):
        x = model.embedding[next_id]
        n = state._n.tolist()
        block = np.zeros((H, max(n) + 1, L))
        kv = np.empty((L, 2, H, hd))
        for l in range(L):
            q = (x @ model.w_query[l]).reshape(H, hd)
            kv[l, 0] = (x @ model.w_key[l]).reshape(H, hd)
            kv[l, 1] = (x @ model.w_value[l]).reshape(H, hd)
            keys, values = state._kv_slot(l, kv[l])[:, :, :n[l] + 1]
            logits = model.logit_gains[l] * np.einsum("hd,hnd->hn", q, keys) / np.sqrt(hd)
            logits -= logits.max(axis=-1, keepdims=True)
            row = np.exp(logits)
            row /= row.sum(axis=-1, keepdims=True)
            block[:, :n[l] + 1, l] = row
            out = np.einsum("hn,hnd->hd", row, values).reshape(model.dim)
            x = x + out @ model.w_output[l]
            features[t, l] = x
        state._step(block.transpose(1, 0, 2), kv, heads_contiguous=False)
        tokens[t] = next_id
        if t + 1 < steps:
            next_id = (int(np.argmax(x @ model.unembedding)) if forced_tokens is None
                       else int(forced_tokens[t + 1]))
    return tokens, features
