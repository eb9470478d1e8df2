import numpy as np
import pytest

from kvbudget import (
    BudgetSpec,
    MismatchError,
    ToyModel,
    baseline_config,
    compute_importance,
    decode,
    forward_trace,
    full_cache_state,
    layer_stats,
    plan_online,
    prefill_compress,
    priority_sequence,
    synth_trace,
    UsageError,
)


@pytest.fixture(scope="module")
def model():
    return ToyModel(layers=4, heads=2, dim=32, vocab=128, seed=1)


def prompt_for(model, n=40):
    return np.random.default_rng(model.seed).integers(0, model.vocab, n)


class TestForwardTrace:
    def test_trace_validates(self, model):
        trace = forward_trace(model, prompt_for(model))
        trace.validate()
        assert trace.attention.shape == (4, 2, 40, 40)
        assert trace.keys.shape == (4, 2, 40, 16)
        assert trace.features.shape == (4, 40, 32)

    def test_single_token_attention(self, model):
        trace = forward_trace(model, [3])
        assert np.all(trace.attention == 1.0)

    def test_bit_identical_repeat(self):
        a = forward_trace(ToyModel(seed=9), np.arange(12))
        b = forward_trace(ToyModel(seed=9), np.arange(12))
        assert np.array_equal(a.attention, b.attention)
        assert np.array_equal(a.features, b.features)

    def test_vocab_bounds(self, model):
        with pytest.raises(ValueError, match="vocabulary"):
            forward_trace(model, [0, 500])
        with pytest.raises(ValueError, match="non-empty"):
            forward_trace(model, [])

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ToyModel(dim=30, heads=4)

    @pytest.mark.parametrize("size", ["layers", "heads", "dim", "vocab"])
    def test_zero_size_is_usage_error(self, size):
        with pytest.raises(UsageError, match=f"{size} must be at least 1"):
            ToyModel(**{size: 0})

    def test_layers_span_dispersed_to_concentrated(self):
        model = ToyModel(seed=3)
        trace = forward_trace(model, prompt_for(model, 64))
        ginis = [s.gini for s in layer_stats(priority_sequence(compute_importance(trace)))]
        assert max(ginis) - min(ginis) > 0.1


class TestDecode:
    def test_full_budget_cache_matches_plain_decode(self, model):
        prompt = prompt_for(model)
        trace = forward_trace(model, prompt)
        full_tokens, full_feats = decode(model, trace, 8, full_cache_state(trace))
        config = baseline_config("uniform", BudgetSpec(r=1.0), trace.meta)
        state = prefill_compress(trace, config)
        tokens, feats = decode(model, trace, 8, state)
        assert np.array_equal(full_tokens, tokens)
        assert np.array_equal(full_feats, feats)

    def test_greedy_decoding_deterministic(self, model):
        trace = forward_trace(model, prompt_for(model))
        a = decode(model, trace, 10, full_cache_state(trace))
        b = decode(model, trace, 10, full_cache_state(trace))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_heavy_compression_diverges(self):
        model = ToyModel(seed=1)
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 64)
        trace = forward_trace(model, prompt)
        seq = priority_sequence(compute_importance(trace))
        full_tokens, _ = decode(model, trace, 16, full_cache_state(trace))
        state = prefill_compress(trace, plan_online(seq, BudgetSpec(r=0.1)),
                                 protect_distance=2)
        compressed_tokens, _ = decode(model, trace, 16, state)
        diverged = np.nonzero(full_tokens != compressed_tokens)[0]
        assert len(diverged) > 0
        assert diverged[0] >= 1  # the first token comes from the uncompressed prefill

    def test_feature_shapes_stable_across_budgets(self, model):
        prompt = prompt_for(model)
        trace = forward_trace(model, prompt)
        seq = priority_sequence(compute_importance(trace))
        for r in (0.3, 0.7, 1.0):
            state = prefill_compress(trace, plan_online(seq, BudgetSpec(r=r)),
                                     protect_distance=2)
            _, feats = decode(model, trace, 5, state)
            assert feats.shape == (5, model.layers, model.dim)

    def test_attention_rows_renormalized_over_live_cache(self, model):
        # decode_step validates row sums; a compressed decode completing
        # means every row over the live set summed to 1.
        prompt = prompt_for(model)
        trace = forward_trace(model, prompt)
        seq = priority_sequence(compute_importance(trace))
        state = prefill_compress(trace, plan_online(seq, BudgetSpec(r=0.4)),
                                 protect_distance=2)
        decode(model, trace, 6, state)
        assert len(state.step_log) == 6

    def test_forced_tokens_override_inputs(self, model):
        prompt = prompt_for(model)
        trace = forward_trace(model, prompt)
        forced = np.array([5, 6, 7, 8])
        state = full_cache_state(trace)
        tokens, _ = decode(model, trace, 4, state, forced_tokens=forced)
        assert np.array_equal(tokens, forced)

    def test_prompt_cache_mismatch(self, model):
        trace = forward_trace(model, prompt_for(model, 20))
        state = full_cache_state(trace)
        with pytest.raises(MismatchError, match="positions"):
            decode(model, forward_trace(model, prompt_for(model, 24)), 2, state)

    def test_requires_trace_features(self, model):
        trace = synth_trace(4, 2, 20, [1.0] * 4, seed=0, with_kv=True)
        with pytest.raises(MismatchError, match="features"):
            decode(model, trace, 2, full_cache_state(trace))

    def test_requires_steps(self, model):
        trace = forward_trace(model, prompt_for(model))
        with pytest.raises(ValueError, match="at least one"):
            decode(model, trace, 0, full_cache_state(trace))
