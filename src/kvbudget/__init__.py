"""Layer-adaptive KV cache retention budgets.

Computes per-token importance from attention traces, ranks tokens into
priority sequences, quantifies per-layer concentration with Lorenz
curves and Gini coefficients, binary-searches a global information
retention threshold to split a compression budget across layers, and
simulates decode-time cache maintenance (eviction, fixed-distance
protection, merging) against baseline policies.
"""

from .allocator import (
    BudgetSpec,
    PrefixConfiguration,
    SearchResult,
    baseline_config,
    binary_search,
    estimate_offline,
    finalize_config,
    load_config,
    plan_online,
    ratio_at_threshold,
    save_config,
)
from .cachesim import (
    CacheEntry,
    CacheState,
    DisturbanceReport,
    disturbance,
    full_cache_state,
    merge,
    prefill_compress,
    replay_decode,
    replay_steps,
    retained_info,
)
from .errors import (
    BudgetError,
    DegenerateLayerError,
    KVBudgetError,
    MismatchError,
    ParseError,
    TraceTooLargeError,
    UsageError,
    ValidationError,
)
from .importance import (
    ImportanceProfile,
    PrioritySequence,
    compute_importance,
    priority_sequence,
)
from .lorenz import LayerStats, LorenzCurve, gini, layer_stats, lorenz_curve
from .toymodel import ToyModel, decode, forward_trace
from .trace import (
    MAX_JSON_BYTES,
    MAX_TRACE_ELEMENTS,
    AttentionTrace,
    TraceMeta,
    load_trace,
    save_trace,
    synth_trace,
    trace_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_JSON_BYTES",
    "MAX_TRACE_ELEMENTS",
    "AttentionTrace",
    "BudgetError",
    "BudgetSpec",
    "CacheEntry",
    "CacheState",
    "DegenerateLayerError",
    "DisturbanceReport",
    "ImportanceProfile",
    "KVBudgetError",
    "LayerStats",
    "LorenzCurve",
    "MismatchError",
    "ParseError",
    "PrefixConfiguration",
    "PrioritySequence",
    "SearchResult",
    "ToyModel",
    "TraceMeta",
    "TraceTooLargeError",
    "UsageError",
    "ValidationError",
    "baseline_config",
    "binary_search",
    "compute_importance",
    "decode",
    "disturbance",
    "estimate_offline",
    "finalize_config",
    "forward_trace",
    "full_cache_state",
    "gini",
    "layer_stats",
    "load_config",
    "load_trace",
    "lorenz_curve",
    "merge",
    "plan_online",
    "prefill_compress",
    "priority_sequence",
    "ratio_at_threshold",
    "replay_decode",
    "replay_steps",
    "retained_info",
    "save_config",
    "save_trace",
    "synth_trace",
    "trace_prefix",
]
