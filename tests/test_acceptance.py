"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see them
live). Release-scale numbers are not reproducible here by design; these
criteria pin the exact invariants plus the directional trends instead.
"""

import time

import numpy as np
import pytest

from specdesk import (
    Corpus,
    CostModel,
    DecodeStats,
    Distribution,
    DistillJob,
    Draft,
    EvalConfig,
    ExperimentGrid,
    SamplerConfig,
    SpecConfig,
    build_vocab,
    cost_speedup,
    decode_speculative,
    emit_report,
    encode,
    finetune,
    generate,
    mean_accepted,
    merge_stats,
    pretrain,
    residual_dist,
    run_grid,
    scaling_curve,
    self_distill,
    truncate_corpus,
    verify_stochastic,
    with_task_prompts,
)
from specdesk.bench import _eval_seed
from specdesk.core import ACCEPT_STREAM, make_rng

import synth


def report(criterion, description, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: exact stochastic losslessness by enumeration


def test_criterion_1_stochastic_losslessness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = Distribution(rng.dirichlet(np.ones(n)))
        q = Distribution(rng.dirichlet(np.ones(n)))
        # one verify step: accept mass p(x) * min(1, q(x)/p(x)) = min(p, q),
        # otherwise fall through to the residual distribution
        accept_mass = np.minimum(p.probs, q.probs)
        reject_prob = 1.0 - accept_mass.sum()
        law = accept_mass.copy()
        if reject_prob > 1e-15:
            law += reject_prob * residual_dist(q, p).probs
        worst = max(worst, float(np.max(np.abs(law - q.probs))))
    elapsed = time.perf_counter() - started
    report(1, "enumerated one-step emission law equals the target distribution",
           worst <= 1e-12 and elapsed < 10.0,
           f"1000 pairs, max |err| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: greedy losslessness on random model/prompt triples


def test_criterion_2_greedy_losslessness():
    started = time.perf_counter()
    text = synth.babble(50_000, seed=7)
    vocab = build_vocab(text)
    rng = np.random.default_rng(11)
    mismatches = 0
    for trial in range(100):
        t_lo = int(rng.integers(0, 45_000))
        d_lo = int(rng.integers(0, 45_000))
        target = pretrain(Corpus((("", text[t_lo:t_lo + int(rng.integers(2000, 5000))]),)),
                          order=int(rng.integers(2, 5)), k=float(rng.uniform(0.1, 1.0)),
                          vocab=vocab)
        drafter = pretrain(Corpus((("", text[d_lo:d_lo + int(rng.integers(1000, 3000))]),)),
                           order=int(rng.integers(2, 5)), k=float(rng.uniform(0.1, 1.0)),
                           vocab=vocab)
        p_lo = int(rng.integers(0, 49_000))
        prompt = encode(text[p_lo:p_lo + int(rng.integers(1, 7))], vocab)
        cfg = SpecConfig(draft_len=int(rng.integers(1, 7)), temperature=0.0,
                         max_new_tokens=40, seed=trial)
        spec_out, _ = decode_speculative(target, drafter, prompt, cfg)
        auto_out = generate(target, prompt, SamplerConfig(0.0, trial), 40)
        if spec_out != auto_out:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(2, "speculative greedy output is token-identical to target-only greedy",
           mismatches == 0 and elapsed < 30.0,
           f"100 triples, {mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: per-position acceptance probability matches sum of min masses


def _fixed_pairs():
    pairs = [(np.array([0.5, 0.5]), np.array([0.9, 0.1]))]
    rng = np.random.default_rng(313)
    while len(pairs) < 20:
        n = int(rng.integers(2, 9))
        pairs.append((rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))))
    return pairs


def test_criterion_3_acceptance_probability_closed_form():
    started = time.perf_counter()
    n_trials = 100_000
    worst_pair = None
    worst_gap = 0.0
    for idx, (p_arr, q_arr) in enumerate(_fixed_pairs()):
        p = Distribution(p_arr)
        q = Distribution(q_arr)
        expected = float(np.minimum(p_arr, q_arr).sum())
        token_rng = np.random.default_rng(1000 + idx)
        tokens = token_rng.choice(len(p_arr), size=n_trials, p=p_arr)
        verify_rng = make_rng(2000 + idx, ACCEPT_STREAM)
        accepted = 0
        q_dists = [q, q]
        for tok in tokens:
            out = verify_stochastic(Draft((int(tok),), (p,)), q_dists, verify_rng)
            accepted += out.accepted_count
        gap = abs(accepted / n_trials - expected)
        if gap > worst_gap:
            worst_gap, worst_pair = gap, idx
    elapsed = time.perf_counter() - started
    report(3, "empirical acceptance rate matches sum of min(p, q) within 0.005",
           worst_gap <= 0.005,
           f"20 pairs x 1e5 trials, worst gap {worst_gap:.4f} (pair {worst_pair}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: self-alignment ceiling is exact


def test_criterion_4_self_alignment_ceiling():
    target = pretrain(Corpus((("", "abcdefghij" * 120),)), order=4, k=0.1)
    prompt = encode("abcd", target.vocab)
    cfg = SpecConfig(draft_len=5, temperature=0.0, max_new_tokens=600, seed=0)
    _, stats = decode_speculative(target, target, prompt, cfg)
    acc = mean_accepted(stats)
    spd = cost_speedup(stats, CostModel(0.0))
    ok = (acc == 5.0 and spd == 6.0 and stats.cycles == 100
          and stats.truncated_tokens == 0 and stats.emitted_tokens == 600)
    report(4, "drafter = target at T=0, K=5 gives mean_accepted 5.0 and speedup 6.0 exactly",
           ok, f"mean_accepted={acc}, cost_speedup={spd}, cycles={stats.cycles}")


# ---------------------------------------------------------------------------
# criteria 5 and 7 share one distillation setup


@pytest.fixture(scope="module")
def distill_setup():
    prompts = synth.make_bitext(("de", "en"), 4000, seed=31)
    task_train = with_task_prompts(prompts)
    general = synth.general_corpus(600, seed=32)
    eval_corpus = with_task_prompts(synth.make_bitext(("de", "en"), 100, seed=33))
    vocab = build_vocab(t for c in (task_train, general, eval_corpus)
                        for pair in c for t in pair)
    target = pretrain(task_train, order=4, k=0.1, vocab=vocab)
    drafter_base = pretrain(general, order=2, k=0.5, vocab=vocab)
    distilled = self_distill(DistillJob(target, prompts, max_len=48, seed=34),
                             skip_empty=True)
    return target, drafter_base, task_train, distilled, eval_corpus


def test_criterion_5_scaling_trend(distill_setup):
    started = time.perf_counter()
    target, drafter_base, _, distilled, eval_corpus = distill_setup
    assert distilled.token_count() >= 1_000_000, "setup must supply >= 1e6 distilled tokens"
    cfg = EvalConfig(draft_len=5, temperature=0.0, max_new_tokens=40,
                     seeds=(0, 1, 2), cost=CostModel(0.1), max_prompts=100)
    curve = scaling_curve(target, drafter_base, distilled,
                          [1_000, 10_000, 100_000, 1_000_000], eval_corpus, cfg)
    rho = curve.spearman_mean_accepted
    elapsed = time.perf_counter() - started
    values = [round(p.mean_accepted, 3) for p in curve.points]
    report(5, "mean accepted tokens rise with log finetune-token budget (spearman > 0)",
           rho > 0.0 and elapsed < 300.0,
           f"budgets 1e3..1e6 -> {values}, spearman = {rho:.3f}, {elapsed:.0f}s")


def test_criterion_7_distillation_alignment(distill_setup):
    target, drafter_base, task_train, distilled, eval_corpus = distill_setup
    budget = min(distilled.token_count(), task_train.token_count())
    tuned_distilled = finetune(drafter_base, truncate_corpus(distilled, budget), 1.0)
    tuned_reference = finetune(drafter_base, truncate_corpus(task_train, budget), 1.0)
    cfg = EvalConfig(draft_len=5, temperature=0.0, max_new_tokens=40, seeds=(0,),
                     max_prompts=100)
    acc_d = _eval_seed(target, tuned_distilled, eval_corpus, cfg, 0)[0]
    acc_r = _eval_seed(target, tuned_reference, eval_corpus, cfg, 0)[0]
    report(7, "self-distilled finetuning >= reference-completion finetuning (ties allowed)",
           acc_d >= acc_r,
           f"distilled {acc_d:.3f} vs reference {acc_r:.3f} on {budget} tokens each")


# ---------------------------------------------------------------------------
# criterion 6: input-domain consistency matrix


def test_criterion_6_domain_matrix():
    de = with_task_prompts(synth.make_bitext(("de", "en"), 300, seed=41))
    ru = with_task_prompts(synth.make_bitext(("ru", "en"), 300, seed=42))
    general = synth.general_corpus(400, seed=45)
    vocab = build_vocab(t for c in (de, ru, general) for pair in c for t in pair)
    target = pretrain(Corpus(de.records + ru.records), order=4, k=0.1, vocab=vocab)
    base = pretrain(general, order=2, k=0.5, vocab=vocab)
    drafters = {"de": finetune(base, de, 1.0), "ru": finetune(base, ru, 1.0)}
    corpora = {
        "de": with_task_prompts(synth.make_bitext(("de", "en"), 200, seed=43)),
        "ru": with_task_prompts(synth.make_bitext(("ru", "en"), 200, seed=44)),
    }
    grid = ExperimentGrid(drafters, corpora, temperatures=(0.0,), seeds=(0,), draft_len=5)
    result = run_grid(target, grid, max_new_tokens=32, cost=CostModel(0.1))
    acc = {(r.drafter, r.corpus): r.mean_accepted for r in result.rows}
    ok = (acc[("de", "de")] > acc[("ru", "de")] and acc[("ru", "ru")] > acc[("de", "ru")])
    report(6, "in-domain drafter beats out-of-domain drafter on each input language",
           ok,
           f"de-input: {acc[('de', 'de')]:.3f} vs {acc[('ru', 'de')]:.3f}; "
           f"ru-input: {acc[('ru', 'ru')]:.3f} vs {acc[('de', 'ru')]:.3f}")


# ---------------------------------------------------------------------------
# criterion 8: metric and bookkeeping oracles, all exact


def test_criterion_8_bookkeeping_oracles(tmp_path):
    checks = []

    # cost-model hand examples
    hand = DecodeStats(cycles=25, accepted_per_cycle=[3] * 25, emitted_tokens=100,
                       target_calls=25, drafter_calls=125)
    checks.append(cost_speedup(hand, CostModel(0.0)) == 4.0)
    checks.append(cost_speedup(hand, CostModel(0.2)) == 2.0)

    # stats reconciliation across a spread of runs
    text = synth.babble(4000, seed=51)
    vocab = build_vocab(text)
    target = pretrain(Corpus((("", text[:3000]),)), order=3, k=0.3, vocab=vocab)
    drafter = pretrain(Corpus((("", text[1000:2500]),)), order=2, k=0.5, vocab=vocab)
    runs = []
    for seed in range(8):
        t = [0.0, 0.7, 1.0][seed % 3]
        cfg = SpecConfig(draft_len=1 + seed % 5, temperature=t,
                         max_new_tokens=5 + 7 * seed, seed=seed)
        _, stats = decode_speculative(target, drafter, encode(text[:4], vocab), cfg)
        checks.append(stats.emitted_tokens + stats.truncated_tokens
                      == sum(stats.accepted_per_cycle) + stats.cycles)
        checks.append(stats.target_calls == stats.cycles)
        runs.append(stats)
    merged = merge_stats(runs)
    checks.append(merged.cycles == sum(s.cycles for s in runs))
    checks.append(merged.emitted_tokens == sum(s.emitted_tokens for s in runs))

    # grid aggregation recount
    eval_c = with_task_prompts(synth.make_bitext(("de", "en"), 6, seed=52))
    de = with_task_prompts(synth.make_bitext(("de", "en"), 40, seed=53))
    g_vocab = build_vocab(t for c in (de, eval_c) for pair in c for t in pair)
    g_target = pretrain(de, order=3, k=0.2, vocab=g_vocab)
    g_drafter = pretrain(de, order=2, k=0.5, vocab=g_vocab)
    grid = ExperimentGrid({"d": g_drafter}, {"c": eval_c}, temperatures=(0.0, 1.0),
                          seeds=(0, 1, 2), draft_len=4)
    result = run_grid(g_target, grid, max_new_tokens=12, max_prompts=4)
    for row in result.rows:
        cells = [c for c in result.cells
                 if (c.drafter, c.corpus, c.temperature)
                 == (row.drafter, row.corpus, row.temperature)]
        accs = np.array([c.mean_accepted for c in cells])
        if np.all(accs == accs[0]):
            checks.append(row.mean_accepted == accs[0] and row.std_accepted == 0.0)
        else:
            checks.append(row.mean_accepted == float(accs.mean())
                          and row.std_accepted == float(accs.std()))
        checks.append(row.seed_count == len(cells))

    # byte-identical reruns under fixed seeds
    r2 = run_grid(g_target, grid, max_new_tokens=12, max_prompts=4)
    checks.append(result.rows == r2.rows and result.cells == r2.cells)
    p1, _ = emit_report(result.to_table(), tmp_path / "a", "grid")
    p2, _ = emit_report(r2.to_table(), tmp_path / "b", "grid")
    checks.append(p1.read_bytes() == p2.read_bytes())

    report(8, "stats reconciliation, cost hand cases, grid recount, byte-stable reruns",
           all(checks), f"{len(checks)} exact checks")
