import math

import numpy as np
import pytest

from specdesk import (
    BOS_ID,
    EOS_ID,
    Corpus,
    Distribution,
    Draft,
    NGramModel,
    SamplerConfig,
    SpecConfig,
    VerificationOutcome,
    VocabularyMismatchError,
    argmax,
    apply_temperature,
    build_vocab,
    decode_speculative,
    draft,
    encode,
    generate,
    pretrain,
    residual_dist,
    score_parallel,
    verify_greedy,
    verify_stochastic,
)
from specdesk.core import ACCEPT_STREAM, DRAFT_STREAM, make_rng


class FixedUniforms:
    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def dist(*probs):
    return Distribution(np.array(probs, dtype=np.float64))


def chain_model(text, order=2, k=1e-9, vocab=None):
    """Near-deterministic model whose greedy chain reproduces `text` patterns."""
    return pretrain(Corpus((("", text),)), order=order, k=k, vocab=vocab)


class TestDraftType:
    def test_zero_probability_token_rejected(self):
        with pytest.raises(ValueError):
            Draft((1,), (dist(1.0, 0.0),))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Draft((0, 1), (dist(0.5, 0.5),))

    def test_empty_draft_rejected(self):
        with pytest.raises(ValueError):
            Draft((), ())


class TestVerificationOutcomeType:
    def test_exactly_one_of_correction_bonus(self):
        with pytest.raises(ValueError):
            VerificationOutcome(1, correction=None, bonus=None)
        with pytest.raises(ValueError):
            VerificationOutcome(1, correction=2, bonus=3)

    def test_emitted_is_accepted_plus_one(self):
        d = Draft((0, 1), (dist(0.6, 0.4), dist(0.6, 0.4)))
        out = VerificationOutcome(1, correction=1)
        assert out.emitted(d) == [0, 1]
        out = VerificationOutcome(2, bonus=0)
        assert out.emitted(d) == [0, 1, 0]


class TestDraftOp:
    def test_constant_drafter_drafts_constant(self):
        vocab = build_vocab("ab")
        a = vocab.lookup("a")
        drafter = NGramModel(1, 1e-12, vocab, {(): {a: 1.0}})
        d = draft(drafter, [], 3, 0.0, make_rng(0, DRAFT_STREAM))
        assert d.tokens == (a, a, a)
        for one in d.dists:
            assert one.p(a) == 1.0

    def test_eos_truncates_draft(self):
        vocab = build_vocab("ab")
        drafter = NGramModel(1, 1e-12, vocab, {(): {EOS_ID: 1.0}})
        d = draft(drafter, [], 5, 0.0, make_rng(0, DRAFT_STREAM))
        assert d.tokens == (EOS_ID,)

    def test_greedy_draft_equals_argmax_chain(self):
        m = chain_model("abcabcabc", order=2)
        prompt = encode("a", m.vocab)
        d = draft(m, prompt, 2, 0.0, make_rng(0, DRAFT_STREAM))
        expected = generate(m, prompt, SamplerConfig(0.0, 0), 2)
        assert list(d.tokens) == expected

    def test_draft_extends_its_own_context(self):
        m = chain_model("abcd", order=2)
        prompt = encode("a", m.vocab)
        d = draft(m, prompt, 3, 0.0, make_rng(0, DRAFT_STREAM))
        assert decode_tokens_str(m, d.tokens) == "bcd"

    def test_records_post_temperature_dists(self):
        m = chain_model("ab", order=2, k=0.5)
        d = draft(m, [], 1, 0.5, make_rng(4, DRAFT_STREAM))
        expected = apply_temperature(m.next_dist([]), 0.5)
        assert np.array_equal(d.dists[0].probs, expected.probs)


def decode_tokens_str(model, ids):
    from specdesk import decode_tokens

    return decode_tokens(ids, model.vocab)


class TestScoreParallel:
    def test_returns_len_plus_one(self):
        m = chain_model("ab")
        d = draft(m, [], 1, 0.0, make_rng(0, DRAFT_STREAM))
        assert len(score_parallel(m, [], d, 0.0)) == 2

    def test_matches_sequential_scoring_exactly(self):
        m = chain_model("abcabc", order=3, k=0.4)
        drafter = chain_model("abcabc", order=2, k=0.4, vocab=m.vocab)
        prompt = encode("ab", m.vocab)
        d = draft(drafter, prompt, 4, 0.7, make_rng(1, DRAFT_STREAM))
        got = score_parallel(m, prompt, d, 0.7)
        ctx = list(prompt)
        for i, q in enumerate(got):
            assert np.array_equal(q.probs, apply_temperature(m.next_dist(ctx), 0.7).probs)
            if i < len(d):
                ctx.append(d.tokens[i])

    def test_same_model_gives_equal_dists(self):
        m = chain_model("abab", order=2, k=0.3)
        prompt = encode("a", m.vocab)
        d = draft(m, prompt, 3, 1.0, make_rng(2, DRAFT_STREAM))
        qs = score_parallel(m, prompt, d, 1.0)
        for p_i, q_i in zip(d.dists, qs):
            assert np.array_equal(p_i.probs, q_i.probs)


class TestResidual:
    def test_hand_case_two_tokens(self):
        out = residual_dist(dist(0.9, 0.1), dist(0.5, 0.5))
        assert np.array_equal(out.probs, np.array([1.0, 0.0]))

    def test_hand_case_three_tokens(self):
        out = residual_dist(dist(0.2, 0.3, 0.5), dist(0.5, 0.3, 0.2))
        assert np.array_equal(out.probs, np.array([0.0, 0.0, 1.0]))

    def test_equal_distributions_unreachable(self):
        with pytest.raises(ValueError):
            residual_dist(dist(0.5, 0.5), dist(0.5, 0.5))

    def test_renormalizes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = Distribution(rng.dirichlet(np.ones(5)))
            p = Distribution(rng.dirichlet(np.ones(5)))
            r = residual_dist(q, p)
            assert abs(r.probs.sum() - 1.0) < 1e-12
            assert np.all(r.probs[q.probs <= p.probs] == 0.0)


class TestVerifyStochastic:
    def test_identical_models_accept_everything(self):
        p = dist(0.3, 0.7)
        d = Draft((1, 1, 0), (p, p, p))
        for seed in range(10):
            out = verify_stochastic(d, [p, p, p, p], make_rng(seed, ACCEPT_STREAM))
            assert out.accepted_count == 3
            assert out.bonus is not None

    def test_hand_rejection_case(self):
        # drafted token has p=0.5 but q=0.1; r=0.5 >= 0.2 rejects;
        # residual (0.4, 0)/0.4 = (1, 0) forces correction to id 0
        p = dist(0.5, 0.5)
        q = dist(0.9, 0.1)
        d = Draft((1,), (p,))
        out = verify_stochastic(d, [q, q], FixedUniforms([0.5, 0.123]))
        assert out.accepted_count == 0
        assert out.correction == 0

    def test_acceptance_uses_strict_inequality_band(self):
        p = dist(0.5, 0.5)
        q = dist(0.9, 0.1)
        d = Draft((0,), (p,))
        # q/p for token 0 is 1.8, capped at 1: every r < 1 accepts
        out = verify_stochastic(d, [q, q], FixedUniforms([0.999999, 0.5]))
        assert out.accepted_count == 1

    def test_scans_positions_in_order(self):
        p = dist(0.5, 0.5)
        q = dist(0.9, 0.1)
        d = Draft((0, 1), (p, p))
        # position 1 accepts (ratio capped at 1), position 2 rejects at r=0.9
        out = verify_stochastic(d, [q, q, q], FixedUniforms([0.5, 0.9, 0.0]))
        assert out.accepted_count == 1
        assert out.correction == 0

    def test_bonus_sampled_from_last_dist(self):
        p = dist(1.0, 0.0)
        d = Draft((0,), (p,))
        bonus_dist = dist(0.0, 1.0)
        out = verify_stochastic(d, [p, bonus_dist], FixedUniforms([0.1, 0.6]))
        assert out.accepted_count == 1
        assert out.bonus == 1

    def test_length_mismatch_rejected(self):
        p = dist(0.5, 0.5)
        d = Draft((0,), (p,))
        with pytest.raises(ValueError):
            verify_stochastic(d, [p], make_rng(0, ACCEPT_STREAM))

    def test_acceptance_rate_matches_min_mass(self):
        # quick Monte Carlo sanity; the tight version lives in acceptance tests
        p = dist(0.5, 0.5)
        q = dist(0.9, 0.1)
        rng = make_rng(17, ACCEPT_STREAM)
        draw = make_rng(18, DRAFT_STREAM)
        n = 20_000
        accepted = 0
        for _ in range(n):
            tok = 0 if draw.random() < 0.5 else 1
            out = verify_stochastic(Draft((tok,), (p,)), [q, q], rng)
            accepted += out.accepted_count
        assert accepted / n == pytest.approx(0.6, abs=0.02)


class TestVerifyGreedy:
    def test_full_acceptance_with_matching_argmax(self):
        one_hot_a = dist(0.0, 1.0, 0.0)
        d = Draft((1, 1), (one_hot_a, one_hot_a))
        out = verify_greedy(d, [one_hot_a, one_hot_a, dist(0.0, 0.0, 1.0)])
        assert out.accepted_count == 2
        assert out.bonus == 2

    def test_mismatch_emits_target_argmax(self):
        # draft [a, b] against target argmaxes [a, c, .]
        a, b, c = 0, 1, 2
        d = Draft((a, b), (dist(1.0, 0.0, 0.0), dist(0.0, 1.0, 0.0)))
        targets = [dist(1.0, 0.0, 0.0), dist(0.0, 0.0, 1.0), dist(1.0, 0.0, 0.0)]
        out = verify_greedy(d, targets)
        assert out.accepted_count == 1
        assert out.correction == c

    def test_deterministic(self):
        d = Draft((0,), (dist(1.0, 0.0),))
        targets = [dist(0.0, 1.0), dist(1.0, 0.0)]
        assert verify_greedy(d, targets) == verify_greedy(d, targets)


def enumerate_one_step_law(p: Distribution, q: Distribution) -> np.ndarray:
    """Independent oracle: exact one-step emission law of draft-then-verify.

    P(emit x) = min(p(x), q(x)) + (1 - sum_y min(p(y), q(y))) * residual(x).
    """
    accept_mass = np.minimum(p.probs, q.probs)
    reject_prob = 1.0 - accept_mass.sum()
    if reject_prob <= 1e-15:
        return accept_mass
    return accept_mass + reject_prob * residual_dist(q, p).probs


class TestLosslessness:
    def test_one_step_law_equals_target_small(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = Distribution(rng.dirichlet(np.ones(n)))
            q = Distribution(rng.dirichlet(np.ones(n)))
            law = enumerate_one_step_law(p, q)
            assert np.max(np.abs(law - q.probs)) <= 1e-12

    def test_greedy_losslessness_small(self):
        target = chain_model("the cat sat on the mat. the cat ran.", order=3, k=0.2)
        drafter = pretrain(Corpus((("", "the mat ran on a cat"),)), order=2, k=0.5,
                           vocab=target.vocab)
        prompt = encode("the ", target.vocab)
        cfg = SpecConfig(draft_len=4, temperature=0.0, max_new_tokens=30, seed=3)
        spec_out, _ = decode_speculative(target, drafter, prompt, cfg)
        auto_out = generate(target, prompt, SamplerConfig(0.0, 99), 30)
        assert spec_out == auto_out


class TestDecodeSpeculative:
    def test_self_drafting_matches_generate_and_cycle_count(self):
        target = chain_model("abcabcabcabc", order=2, k=1e-9)
        prompt = encode("a", target.vocab)
        cfg = SpecConfig(draft_len=4, temperature=0.0, max_new_tokens=20, seed=0)
        out, stats = decode_speculative(target, target, prompt, cfg)
        assert out == generate(target, prompt, SamplerConfig(0.0, 0), 20)
        assert stats.cycles == math.ceil(len(out) / 5)
        assert stats.accepted_per_cycle == [4] * stats.cycles
        assert sum(stats.accepted_per_cycle) / stats.cycles == 4.0

    def test_uniform_drafter_still_yields_target_chain(self):
        vocab = build_vocab("abc")
        target = chain_model("abcabcabc", order=2, k=1e-9, vocab=vocab)
        drafter = NGramModel(1, 1.0, vocab, {})
        prompt = encode("a", vocab)
        cfg = SpecConfig(draft_len=1, temperature=0.0, max_new_tokens=12, seed=5)
        out, _ = decode_speculative(target, drafter, prompt, cfg)
        assert out == generate(target, prompt, SamplerConfig(0.0, 5), 12)

    def test_vocabulary_mismatch_rejected(self):
        t = chain_model("ab")
        d = chain_model("abc")
        with pytest.raises(VocabularyMismatchError):
            decode_speculative(t, d, [], SpecConfig())

    def test_deterministic_per_seed(self):
        target = chain_model("abacabadabe", order=3, k=0.3)
        drafter = chain_model("ababab", order=2, k=0.3, vocab=target.vocab)
        prompt = encode("ab", target.vocab)
        cfg = SpecConfig(draft_len=3, temperature=1.0, max_new_tokens=25, seed=11)
        out1, s1 = decode_speculative(target, drafter, prompt, cfg)
        out2, s2 = decode_speculative(target, drafter, prompt, cfg)
        assert out1 == out2
        assert s1.accepted_per_cycle == s2.accepted_per_cycle

    def test_accepted_eos_stops_and_discards_rest(self):
        target = chain_model("abc", order=2, k=1e-10)
        prompt = encode("a", target.vocab)
        cfg = SpecConfig(draft_len=5, temperature=0.0, max_new_tokens=20, seed=0)
        out, stats = decode_speculative(target, target, prompt, cfg)
        assert decode_tokens_str(target, out) == "bc"
        # draft was [b, c, <eos>], all accepted; the bonus token is dropped
        assert stats.cycles == 1
        assert stats.accepted_per_cycle == [3]
        assert stats.emitted_tokens == 3  # b, c, <eos>
        assert stats.truncated_tokens == 1

    def test_max_new_tokens_truncates_final_cycle(self):
        target = chain_model("abababab", order=2, k=1e-10)
        prompt = encode("a", target.vocab)
        cfg = SpecConfig(draft_len=4, temperature=0.0, max_new_tokens=3, seed=0)
        out, stats = decode_speculative(target, target, prompt, cfg)
        assert len(out) == 3
        assert stats.cycles == 1
        assert stats.emitted_tokens == 3
        assert stats.truncated_tokens == 2

    def test_stats_reconciliation_random_runs(self):
        rng = np.random.default_rng(42)
        target = chain_model("the rain in spain stays mainly in the plain", order=3, k=0.3)
        drafter = chain_model("rain on the plain in spain", order=2, k=0.6, vocab=target.vocab)
        for trial in range(20):
            t = float(rng.choice([0.0, 0.5, 1.0]))
            cfg = SpecConfig(draft_len=int(rng.integers(1, 6)), temperature=t,
                             max_new_tokens=int(rng.integers(1, 40)), seed=trial)
            out, stats = decode_speculative(target, drafter, encode("the ", target.vocab), cfg)
            assert stats.emitted_tokens + stats.truncated_tokens == \
                sum(stats.accepted_per_cycle) + stats.cycles
            assert stats.target_calls == stats.cycles
            assert len(out) <= cfg.max_new_tokens
            assert all(0 <= a <= cfg.draft_len for a in stats.accepted_per_cycle)
            assert stats.drafter_calls <= stats.cycles * cfg.draft_len

    def test_emitted_per_cycle_in_bounds(self):
        target = chain_model("xyzzyx", order=2, k=0.4)
        drafter = chain_model("zzz", order=2, k=0.4, vocab=target.vocab)
        cfg = SpecConfig(draft_len=3, temperature=1.0, max_new_tokens=30, seed=2)
        _, stats = decode_speculative(target, drafter, encode("x", target.vocab), cfg)
        for acc in stats.accepted_per_cycle:
            assert 1 <= acc + 1 <= cfg.draft_len + 1


class TestSpecConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpecConfig(draft_len=0)
        with pytest.raises(ValueError):
            SpecConfig(temperature=-0.5)
        with pytest.raises(ValueError):
            SpecConfig(max_new_tokens=0)

    def test_non_finite_temperature_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SpecConfig(temperature=t)
