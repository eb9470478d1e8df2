"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion asserts at its stated tolerance.
"""

import numpy as np
import pytest

from kvbudget import (
    BudgetSpec,
    CacheEntry,
    SearchResult,
    ToyModel,
    baseline_config,
    binary_search,
    compute_importance,
    decode,
    disturbance,
    finalize_config,
    forward_trace,
    full_cache_state,
    gini,
    lorenz_curve,
    merge,
    plan_online,
    prefill_compress,
    priority_sequence,
    replay_steps,
    retained_info,
    synth_trace,
    trace_prefix,
)

from conftest import seq_from_importance


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def random_trace(rng, l_range, n_range, heads=1):
    L = int(rng.integers(*l_range))
    N = int(rng.integers(*n_range))
    conc = np.exp(rng.uniform(np.log(0.05), np.log(5.0), L))
    return synth_trace(L, heads, N, conc, seed=int(rng.integers(2**31)))


BUDGET_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_01_budget_exactness():
    """Sum of finalized token counts equals round(r*L*N) for every budget."""
    rng = np.random.default_rng(1001)
    checked = 0
    failures = 0
    for _ in range(200):
        trace = random_trace(rng, (2, 13), (8, 257))
        seq = priority_sequence(compute_importance(trace))
        L, N = seq.cumulative.shape
        for r in BUDGET_GRID:
            config = plan_online(seq, BudgetSpec(r=r, min_tokens_per_layer=0))
            checked += 1
            if config.token_counts.sum() != round(r * L * N):
                failures += 1
    report(1, failures == 0, f"{checked} configurations, {failures} off budget")


def test_02_brute_force_optimality():
    """Binary-search counts match an exhaustive threshold scan on small instances."""

    def oracle_ratio(cumulative, p):
        for j, value in enumerate(cumulative):
            if value >= p:
                return (j + 1) / len(cumulative)
        return 1.0

    rng = np.random.default_rng(20240809)
    done = mismatches = 0
    while done < 500:
        L = int(rng.integers(1, 4))
        N = int(rng.integers(2, 9))
        r = float(rng.choice(BUDGET_GRID))
        if round(r * L * N) < L:
            continue
        raw = rng.uniform(0.05, 1.0, size=(L, N))
        seq = seq_from_importance(raw)
        budget = BudgetSpec(r=r, delta_tol=0.0)
        config = plan_online(seq, budget)
        best = None
        for c in sorted(set(seq.cumulative.ravel().tolist())):
            delta = sum(oracle_ratio(seq.cumulative[l], c) for l in range(L)) - r * L
            key = (abs(delta), 0 if delta < 0 else 1)
            if best is None or key < best[0]:
                best = (key, c)
        reference = finalize_config(
            seq, SearchResult(p=best[1], steps=0, delta_final=0.0, converged=True), budget
        )
        if config.token_counts.tolist() != reference.token_counts.tolist():
            mismatches += 1
        done += 1
    report(2, mismatches == 0, f"500 instances, {mismatches} mismatches (need 100% match)")


def test_03_max_min_dominance():
    """Min-layer retained priority under prefixkv >= uniform's minus one token."""
    rng = np.random.default_rng(31337)
    done = fails = 0
    while done < 1000:
        L = int(rng.integers(2, 9))
        N = int(rng.integers(8, 65))
        r = float(rng.choice(BUDGET_GRID))
        if round(r * L * N) < L:
            continue
        trace = random_trace(rng, (L, L + 1), (N, N + 1))
        profile = compute_importance(trace)
        seq = priority_sequence(profile)
        budget = BudgetSpec(r=r, delta_tol=0.0)

        def min_retained(config):
            values = []
            for l in range(L):
                count = int(config.token_counts[l])
                values.append(seq.cumulative[l][count - 1] if count else 0.0)
            return min(values)

        slack = profile.normalized.max()
        pkv = min_retained(plan_online(seq, budget))
        uni = min_retained(baseline_config("uniform", budget, trace.meta))
        if pkv < uni - slack:
            fails += 1
        done += 1
    report(3, fails == 0, f"1000 instances, {fails} dominance violations")


def test_04_binary_search_behavior():
    """Average steps fall as delta_tol grows; every search ends within 20 steps."""
    tols = (0.0125, 0.025, 0.05, 0.075, 0.1)
    totals = np.zeros(len(tols))
    worst = 0
    for i in range(20):
        model = ToyModel(seed=300 + i)
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 96)
        seq = priority_sequence(compute_importance(forward_trace(model, prompt)))
        for j, tol in enumerate(tols):
            result = binary_search(seq, BudgetSpec(r=0.5, delta_tol=tol))
            totals[j] += result.steps
            worst = max(worst, result.steps)
    averages = totals / 20
    monotone = bool(np.all(np.diff(averages) <= 1e-12))
    report(
        4,
        monotone and worst <= 20,
        f"avg steps {np.round(averages, 2).tolist()} (monotone={monotone}), max {worst} <= 20",
    )


def test_05_offline_robustness():
    """10-sample offline ratios track per-sample online ratios within 0.03."""
    from kvbudget import estimate_offline

    L, N = 6, 128
    conc = list(np.geomspace(0.05, 5.0, L))
    seqs = [
        priority_sequence(compute_importance(synth_trace(L, 1, N, conc, seed=5000 + i)))
        for i in range(10)
    ]
    worst_mad = worst_std = 0.0
    for r in BUDGET_GRID:
        budget = BudgetSpec(r=r)
        online = np.array([plan_online(seq, budget).ratios for seq in seqs])
        offline = estimate_offline(seqs, budget).ratios
        worst_mad = max(worst_mad, float(np.abs(online - offline).mean(axis=0).max()))
        worst_std = max(worst_std, float(online.std(axis=0).max()))
    report(
        5,
        worst_mad <= 0.03 and worst_std <= 0.03,
        f"worst per-layer mad {worst_mad:.4f} <= 0.03, worst std {worst_std:.4f} <= 0.03",
    )


def test_06_gini_edge_cases():
    """Uniform gives 0, a single atom gives (N-1)/N, everything stays in range."""
    checks = []
    for n in (2, 4, 16, 100):
        uniform = gini(lorenz_curve(seq_from_importance([[1.0] * n]), 0))
        checks.append(abs(uniform) <= 1e-9)
        atom = gini(lorenz_curve(seq_from_importance([[1.0] + [0.0] * (n - 1)]), 0))
        checks.append(abs(atom - (n - 1) / n) <= 1e-9)
    rng = np.random.default_rng(66)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        raw = rng.uniform(0, 1, size=(1, n)) + 1e-12
        value = gini(lorenz_curve(seq_from_importance(raw), 0))
        checks.append(0.0 <= value <= (n - 1) / n + 1e-9)
    report(6, all(checks), f"{len(checks)} edge and range checks")


def test_07_simulation_safety():
    """Capacity, protected window and merge bookkeeping hold over 50 mixed runs."""
    rng = np.random.default_rng(7007)
    violations = 0
    policies = ("prefixkv", "uniform", "pyramid", "local")
    merges = ("none", "position", "feature")
    for run in range(50):
        L = int(rng.integers(2, 7))
        n0, steps = 64, 16
        conc = np.exp(rng.uniform(np.log(0.05), np.log(5.0), L))
        trace = synth_trace(L, 2, n0 + steps, conc, seed=int(rng.integers(2**31)),
                            with_kv=True)
        prefix = trace_prefix(trace, n0)
        seq = priority_sequence(compute_importance(prefix))
        r = float(rng.choice([0.2, 0.4, 0.6, 0.8]))
        policy = policies[run % 4]
        merge_mode = merges[run % 3]
        protect = int(rng.choice([2, 4, 8]))
        budget = BudgetSpec(r=r)
        if policy == "prefixkv":
            config = plan_online(seq, budget)
        else:
            config = baseline_config(policy, budget, prefix.meta,
                                     sink_count=2 if policy == "local" else None)
        state = prefill_compress(prefix, config, protect_distance=protect,
                                 merge_policy=merge_mode)
        replay_steps(trace, state, steps)
        floor = config.budget.min_tokens_per_layer
        for rec in state.step_log:
            t = n0 + rec["step"]
            newest = t - 1
            for l, size in enumerate(rec["layer_sizes"]):
                if size > max(floor, int(config.ratios[l] * t) + 1):
                    violations += 1
            for ev in rec["evicted"]:
                if newest - ev["pos"] < protect:
                    violations += 1
        for l in range(L):
            live = state.live_positions(l)
            absorbed = [p for e in state.layer_caches[l] for p in e.merged_from]
            if len(absorbed) != len(set(absorbed)) or set(absorbed) & set(live):
                violations += 1
            if len(live) + len(absorbed) + len(state.hard_evicted[l]) != state.current_len:
                violations += 1
    report(7, violations == 0, f"50 simulations, {violations} invariant violations")


def test_08_merge_oracle():
    """Streaming merges match a flat-average oracle over original vectors."""
    rng = np.random.default_rng(808)
    calls = mismatches = 0
    while calls < 500:
        heads, dim = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        n_entries = int(rng.integers(2, 7))
        positions = rng.permutation(64)[: n_entries + 1]
        entries = []
        originals = {}
        for pos in positions:
            vec = rng.standard_normal((heads, dim))
            entries.append(CacheEntry(position=int(pos), importance_acc=0.0,
                                      key=vec.copy(), value=vec.copy()))
            originals[int(pos)] = [vec]
        policy = "feature" if calls % 2 == 0 else "position"
        for _ in range(int(rng.integers(1, min(4, n_entries)))):
            evictee = entries.pop(int(rng.integers(len(entries))))
            # Independent oracle: explicit argmax and flat mean of originals.
            scores = []
            for e in entries:
                if policy == "position":
                    scores.append(-abs(evictee.position - e.position))
                else:
                    a = evictee.key.ravel()
                    b = e.key.ravel()
                    scores.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            expect = min(
                range(len(entries)),
                key=lambda i: (-scores[i], entries[i].position),
            )
            pool = originals[evictee.position] + originals[entries[expect].position]
            expected_key = np.mean(pool, axis=0)

            winner = merge(policy, evictee, entries)
            calls += 1
            if winner is not entries[expect] or not np.allclose(
                winner.key, expected_key, atol=1e-12, rtol=0
            ):
                mismatches += 1
            originals[winner.position] = pool
    report(8, mismatches == 0, f"{calls} merge calls, {mismatches} oracle mismatches")


def test_09_disturbance_ordering():
    """prefixkv's feature MAE beats uniform's in >= 16/20 seeded runs and on average."""
    wins = 0
    pkv_means = []
    uni_means = []
    for i in range(20):
        model = ToyModel(seed=77 + i)
        prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 96)
        trace = forward_trace(model, prompt)
        seq = priority_sequence(compute_importance(trace))
        budget = BudgetSpec(r=0.5)
        reference = decode(model, trace, 8, full_cache_state(trace))
        pkv = disturbance(model, trace, reference,
                          prefill_compress(trace, plan_online(seq, budget))).mae.mean()
        uni = disturbance(model, trace, reference, prefill_compress(
            trace, baseline_config("uniform", budget, trace.meta))).mae.mean()
        pkv_means.append(pkv)
        uni_means.append(uni)
        wins += pkv <= uni
    aggregate = np.mean(pkv_means) <= np.mean(uni_means)
    report(
        9,
        wins >= 16 and aggregate,
        f"{wins}/20 wins (need >= 16), aggregate {np.mean(pkv_means):.4f} "
        f"<= {np.mean(uni_means):.4f} is {bool(aggregate)}",
    )


def test_10_trivial_budget_identity():
    """r = 1 changes nothing: no evictions, full retention, zero disturbance."""
    ok = True
    trace = synth_trace(3, 2, 48, [0.1, 1.0, 3.0], seed=42, with_kv=True)
    prefix = trace_prefix(trace, 40)
    config = plan_online(
        priority_sequence(compute_importance(prefix)), BudgetSpec(r=1.0)
    )
    state = prefill_compress(prefix, config)
    replay_steps(trace, state, 8)
    ok &= all(not rec["evicted"] for rec in state.step_log)
    ok &= all(
        abs(v - 1.0) < 1e-12
        for rec in state.step_log
        for v in rec["retained_info"]
    )
    ok &= bool(np.allclose(retained_info(state, state.report_profile)[:3], 1.0,
                           atol=1e-12, rtol=0))

    model = ToyModel(layers=4, heads=2, dim=32, seed=13)
    prompt = np.random.default_rng(model.seed).integers(0, model.vocab, 32)
    toy_trace = forward_trace(model, prompt)
    full_tokens, full_feats = decode(model, toy_trace, 8, full_cache_state(toy_trace))
    full_config = baseline_config("uniform", BudgetSpec(r=1.0), toy_trace.meta)
    compressed = prefill_compress(toy_trace, full_config)
    tokens, feats = decode(model, toy_trace, 8, compressed)
    ok &= bool(np.array_equal(full_tokens, tokens))
    ok &= bool(np.array_equal(full_feats, feats))

    mae = disturbance(model, toy_trace, (full_tokens, full_feats),
                      prefill_compress(toy_trace, full_config)).mae
    ok &= bool(np.all(mae == 0.0))
    report(10, ok, "no evictions, retained 1.0, identical decode, MAE exactly 0")
