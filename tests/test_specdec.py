import copy
import math
import pickle
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    finetune,
    generate,
    load_model,
    pretrain,
    residual_dist,
    save_model,
    score_parallel,
    verify_greedy,
    verify_stochastic,
    with_task_prompts,
)
from specdesk import core, lm, specdec
from specdesk.core import (ACCEPT_STREAM, DRAFT_STREAM, GENERATE_STREAM, UNK_ID, decode_tokens,
                           make_rng, sample)

import synth


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
        # One token follows the accepted prefix: a correction or a bonus.
        with pytest.raises(TypeError):
            VerificationOutcome(1)
        with pytest.raises(TypeError):
            VerificationOutcome(1, 2, 3)
        assert VerificationOutcome(1, 2) == (1, 2)

    def test_emitted_is_accepted_plus_one(self):
        d = Draft((0, 1), (dist(0.6, 0.4), dist(0.6, 0.4)))
        n, token = VerificationOutcome(1, 1)  # a correction
        assert d.tokens[:n] + (token,) == (0, 1)
        n, token = VerificationOutcome(2, 0)  # a bonus
        assert d.tokens[:n] + (token,) == (0, 1, 0)


class TestDraftOp:
    def test_constant_drafter_drafts_constant(self):
        vocab = build_vocab("ab")
        a = vocab.lookup("a")
        drafter = NGramModel(1, 1e-12, vocab, {(): {a: 1.0}})
        d = draft(drafter, [], 3, 0.0, make_rng(0, DRAFT_STREAM))
        assert d.tokens == (a, a, a)
        for one in d.dists:
            assert one.p(a) == 1.0

    def test_drafted_tokens_pass_draft_validation(self):
        m = chain_model("abcabd", order=2, k=0.3)
        for seed in range(50):
            d = draft(m, [], 5, 0.7, make_rng(seed, DRAFT_STREAM))
            assert Draft(d.tokens, d.dists).tokens == d.tokens

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

    def test_greedy_draft_reads_no_generator(self):
        m = chain_model("abcabd", order=2, k=0.3)
        prompt = encode("a", m.vocab)
        expected = generate(m, prompt, SamplerConfig(0.0, 0), 4)
        assert list(draft(m, prompt, 4, 0.0, None).tokens) == expected
        rng, twin = make_rng(5, DRAFT_STREAM), make_rng(5, DRAFT_STREAM)
        assert list(draft(m, prompt, 4, 0.0, rng).tokens) == expected
        assert rng.random() == twin.random()

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


def reference_draft(drafter, context, draft_len, temperature, rng):
    """Drafting one position at a time, with no table: next_dist of the
    context so far, apply_temperature, then argmax at T=0 or sample."""
    n1 = drafter.order - 1
    ctx = list(context[-n1:]) if n1 else []
    start = len(ctx)
    dists = []
    for _ in range(draft_len):
        row = apply_temperature(drafter.next_dist(ctx), temperature)
        dists.append(row)
        token = argmax(row) if temperature == 0.0 else sample(row, rng)
        ctx.append(token)
        if token == EOS_ID:
            break
    return Draft(tuple(ctx[start:]), tuple(dists))


class CountingUniforms:
    """The draft stream of a seed, counting the uniforms drawn from it."""

    def __init__(self, seed):
        self._rng = make_rng(seed, DRAFT_STREAM)
        self.drawn = 0

    def random(self):
        self.drawn += 1
        return self._rng.random()


DRAFT_ALPHABET = "abc"
draft_record = st.tuples(st.text(DRAFT_ALPHABET, max_size=5),
                         st.text(DRAFT_ALPHABET, min_size=1, max_size=6))
# Contexts hold any id of the vocabulary, <bos>, <eos> and <unk> included.
draft_context = st.lists(st.integers(0, len(DRAFT_ALPHABET) + 2), max_size=8)


def assert_drafts_like_reference(drafter, context, draft_len, temperature, seed,
                                 same_objects=True):
    rng, ref_rng = CountingUniforms(seed), CountingUniforms(seed)
    got = draft(drafter, context, draft_len, temperature, rng)
    want = reference_draft(drafter, context, draft_len, temperature, ref_rng)
    assert got.tokens == want.tokens
    assert len(got.dists) == len(want.dists)
    for mine, theirs in zip(got.dists, want.dists):
        if same_objects:
            assert mine is theirs
        else:
            assert np.array_equal(mine.probs, theirs.probs)
    assert rng.drawn == ref_rng.drawn == (0 if temperature == 0.0 else len(got.tokens))
    return got


class TestDraftTable:
    """draft reads each position from a per-drafter, per-temperature table;
    it must draft what the one-position-at-a-time loop drafts: the same tokens,
    the same distribution objects and the same uniforms."""

    @settings(max_examples=150)
    @given(order=st.integers(1, 6),
           k=st.sampled_from([0.3, 1e-6]),
           temperature=st.sampled_from([0.0, 0.25, 0.7, 1.0, 3.0]),
           records=st.lists(draft_record, min_size=1, max_size=6),
           calls=st.lists(st.tuples(draft_context, st.integers(1, 8), st.integers(0, 2 ** 32)),
                          min_size=1, max_size=6))
    def test_equals_reference_cold_and_warm(self, order, k, temperature, records, calls):
        drafter = pretrain(Corpus(tuple(records)), order, k=k, vocab=build_vocab(DRAFT_ALPHABET))
        # Each call runs twice: the first may build rows, the second reads them.
        for context, draft_len, seed in calls + calls:
            assert_drafts_like_reference(drafter, context, draft_len, temperature, seed)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_every_order_temperature_and_length(self, order):
        drafter = pretrain(Corpus((("ab", "ca"), ("", "b"), ("c", "abcab"))), order, k=1e-3,
                           vocab=build_vocab(DRAFT_ALPHABET))
        eos_mid_draft = 0
        drafted_from = set()
        for temperature in (0.0, 0.25, 0.7, 1.0, 3.0):
            for context in ([], [3], [3, 4, 5, 3], [0, 1, 2, 3, 4, 5, 3, 4], np.array([4, 3])):
                for draft_len in range(1, 9):
                    for seed in range(3):
                        got = assert_drafts_like_reference(drafter, context, draft_len,
                                                           temperature, seed)
                        eos_mid_draft += EOS_ID in got.tokens and len(got) < draft_len
                        drafted_from.update(drafter._pad_context([*context, *got.tokens[:j]])
                                            for j in range(len(got)))
        assert eos_mid_draft > 0
        assert set(drafter._draft_rows) == {0.0, 0.25, 0.7, 1.0, 3.0}
        # Rows are keyed by the code of a padded context drafted from: its
        # order - 1 ids, <bos> padding included, as a base-|V| number.
        size = drafter.vocab.size
        codes = {sum(int(i) * size ** p for p, i in enumerate(reversed(ctx)))
                 for ctx in drafted_from}
        assert set().union(*drafter._draft_rows.values()) <= codes

    def test_a_context_with_no_code_drafts_like_the_reference_and_keeps_no_row(self):
        m = chain_model("abcabd", order=3, k=0.3)
        size = m.vocab.size
        for temperature in (0.0, 0.7):
            for context in ([size], [3, -1], [4, 2.5], [5, 10 ** 30], np.array([4, 3])):
                for seed in range(3):
                    assert_drafts_like_reference(m, context, 4, temperature, seed)
        assert set(m._draft_rows) == {0.0, 0.7} and not any(m._draft_rows.values())

    def test_draw_past_the_end_of_the_cdf_takes_the_last_positive_id(self):
        # Ten ids of mass 0.1 sum, in order, to 1 - 2**-53: the largest
        # uniform lies past the last cdf entry.
        vocab = build_vocab(DRAFT_ALPHABET + "defghij")
        drafter = NGramModel(1, 1.0, vocab)
        largest = 1.0 - 2.0 ** -53
        assert largest >= drafter.next_dist([]).probs.cumsum()[-1]
        got = draft(drafter, [], 3, 0.7, FixedUniforms([largest] * 3))
        want = reference_draft(drafter, [], 3, 0.7, FixedUniforms([largest] * 3))
        assert got.tokens == want.tokens == (vocab.size - 1,) * 3
        assert all(mine is theirs for mine, theirs in zip(got.dists, want.dists))

    def test_invalid_temperature_makes_no_table(self):
        m = chain_model("abcabd", order=2, k=0.3)
        for temperature in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                draft(m, [], 3, temperature, make_rng(0, DRAFT_STREAM))
        assert m._draft_rows == {}

    def test_table_goes_with_its_drafter(self):
        m = chain_model("abcabd", order=3, k=0.3)
        for temperature in (0.0, 0.7):
            draft(m, encode("ab", m.vocab), 4, temperature, make_rng(0, DRAFT_STREAM))
        assert set(m._draft_rows) == {0.0, 0.7} and all(m._draft_rows.values())
        tuned = finetune(m, Corpus((("a", "bd"),)))
        for fresh in (copy.copy(m), pickle.loads(pickle.dumps(m)), tuned):
            assert fresh._draft_rows == {}
        assert all(m._draft_rows.values())
        # A copy builds its own rows, from its own next_dist.
        twin = copy.copy(m)
        for temperature in (0.0, 0.7):
            assert_drafts_like_reference(twin, encode("ab", m.vocab), 4, temperature, 0)
        assert twin._draft_rows[0.7] is not m._draft_rows[0.7]

    @pytest.mark.parametrize("limit", [0, 1, 3])
    def test_bounded_tables_draft_like_the_reference(self, limit, monkeypatch):
        monkeypatch.setattr(lm, "_DIST_CACHE_LIMIT", limit)
        m = chain_model("abcabdacbbca", order=3, k=0.3)
        for temperature in (0.0, 0.7):
            for context in ([], [3], [4, 5], [5, 3, 4]):
                for seed in range(4):
                    # Past the bound next_dist builds a new object per call.
                    assert_drafts_like_reference(m, context, 6, temperature, seed,
                                                 same_objects=False)
            assert len(m._draft_rows[temperature]) == limit


class TestDraftCodeShape:
    """Each drafter works out its context code's shape once: |V|, order - 1
    and the place value of the oldest id. draft reads it; it must draft what
    the reference drafts, whether a row is in the table, is not yet, or may
    not be kept."""

    @pytest.mark.parametrize("order,top", [(1, lambda size: 0), (2, lambda size: 1),
                                           (4, lambda size: size ** 2)],
                             ids=["order1", "order2", "order4"])
    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    def test_draft_equals_the_reference_on_hits_misses_and_uncoded_contexts(
            self, order, top, temperature):
        vocab = build_vocab(DRAFT_ALPHABET)
        drafter = pretrain(Corpus((("ab", "cab"), ("c", "abca"), ("", "bb"))), order, k=0.2,
                           vocab=vocab)
        size = vocab.size
        assert drafter._code_shape == (size, order - 1, top(size))
        # The last order - 1 ids give the code, so an id of no code further
        # back does not matter.
        contexts = ([], [3], [4, 5], [0, 1, 2, 3, 4, 5, 3], [np.int64(4)], np.array([3, 4, 5]),
                    [3, size], [size + 7, 4, 5])
        uncoded = 0
        for context in contexts:
            for draft_len in (1, 3, 6):
                for seed in range(3):
                    # The first call may miss and keep its rows; the second
                    # reads them, unless the context has no code.
                    got = assert_drafts_like_reference(drafter, context, draft_len,
                                                       temperature, seed)
                    built = []
                    drafter.next_dist = lambda ctx: built.append(ctx) or \
                        NGramModel.next_dist(drafter, ctx)
                    draft(drafter, context, draft_len, temperature, CountingUniforms(seed))
                    del drafter.next_dist
                    tail = list(context[-(order - 1):]) if order > 1 else []
                    gets_a_code = all(type(i) is int and 0 <= i < size for i in tail)
                    assert len(built) == (0 if gets_a_code else len(got))
                    uncoded += not gets_a_code
                    assert_drafts_like_reference(drafter, context, draft_len, temperature,
                                                 seed)
        assert drafter._draft_rows[temperature]
        assert uncoded > 0 or order == 1

    def test_the_shape_is_the_models_own(self, tmp_path):
        m = chain_model("abcabd", order=3, k=0.3)
        save_model(m, tmp_path / "m.model")
        size = m.vocab.size
        for twin in (copy.copy(m), pickle.loads(pickle.dumps(m)),
                     finetune(m, Corpus((("a", "bd"),))), load_model(tmp_path / "m.model")):
            assert twin._code_shape == m._code_shape == (size, 2, size)


def reference_verify_greedy(d, rows):
    """Greedy verification over eager rows: accept while each draft token is
    its row's argmax."""
    for j, token in enumerate(d.tokens):
        if token != argmax(rows[j]):
            return j, argmax(rows[j])
    return len(d), argmax(rows[len(d)])


def reference_verify_stochastic(d, rows, rng):
    """Rejection-sampling verification over eager rows, one uniform per
    examined position, then one for the correction or bonus token."""
    for j, token in enumerate(d.tokens):
        p, q = d.dists[j], rows[j]
        if rng.random() < q.p(token) / p.p(token):
            continue
        try:
            residual = residual_dist(q, p)
        except ValueError:
            residual = q
        return j, sample(residual, rng)
    return len(d), sample(rows[len(d)], rng)


class TestVerifierRows:
    """The verifiers score score_parallel's own rows from the target, and read
    any other rows by index; either way they decide as the reference does on
    the eager rows, drawing the same uniforms."""

    def cases(self):
        vocab = build_vocab(DRAFT_ALPHABET)
        records = (("ab", "cabcab"), ("c", "abcacb"), ("", "bbca"), ("ba", "cc"))
        for order in (1, 2, 3, 5):
            target = pretrain(Corpus(records), order, k=0.05, vocab=vocab)
            drafter = pretrain(Corpus(records[:2]), 2, k=0.3, vocab=vocab)
            for context in ([], [4], [3, 4, 5, 3, 4], np.array([5, 4, 3]), [3, vocab.size]):
                for seed in range(4):
                    yield target, drafter, context, seed

    def eager(self, target, context, d, temperature):
        return [apply_temperature(target.next_dist([*context, *d.tokens[:j]]), temperature)
                for j in range(len(d) + 1)]

    def test_rows_of_an_equal_but_distinct_token_tuple_are_scored_not_indexed(
            self, monkeypatch):
        cases = list(self.cases())
        monkeypatch.setattr(specdec._TargetRows, "__getitem__", None)
        monkeypatch.setattr(specdec._TargetRows, "__len__", None)
        for target, drafter, context, seed in cases:
            for temperature in (0.0, 0.7, 1.0):
                d = draft(drafter, context, 5, temperature, make_rng(seed, DRAFT_STREAM))
                twin = Draft(tuple(list(d.tokens)), d.dists)
                assert twin.tokens == d.tokens and twin.tokens is not d.tokens
                rows = score_parallel(target, context, twin, temperature)
                want = self.eager(target, context, d, temperature)
                if temperature == 0.0:
                    assert verify_greedy(d, rows) == reference_verify_greedy(d, want)
                rng, ref_rng = CountingUniforms(seed), CountingUniforms(seed)
                assert verify_stochastic(d, rows, rng) == \
                    reference_verify_stochastic(d, want, ref_rng)
                assert rng.drawn == ref_rng.drawn

    def test_caller_rows_are_read_by_index(self):
        for target, drafter, context, seed in self.cases():
            for temperature in (0.0, 0.7):
                d = draft(drafter, context, 5, temperature, make_rng(seed, DRAFT_STREAM))
                want = self.eager(target, context, d, temperature)
                other = Draft((*d.tokens[:-1], 3 if d.tokens[-1] != 3 else 4),
                              (*d.dists[:-1], Distribution(np.full(len(want[0]),
                                                                   1 / len(want[0])))))
                # A list, a tuple, and score_parallel's rows for other tokens,
                # read by index as any sequence is.
                for rows in (want, tuple(want), score_parallel(target, context, other, 1.0)):
                    expect = [rows[j] for j in range(len(d) + 1)]
                    assert verify_greedy(d, rows) == reference_verify_greedy(d, expect)
                    rng, ref_rng = CountingUniforms(seed), CountingUniforms(seed)
                    assert verify_stochastic(d, rows, rng) == \
                        reference_verify_stochastic(d, expect, ref_rng)
                    assert rng.drawn == ref_rng.drawn
                with pytest.raises(ValueError, match="len\\(draft\\) \\+ 1"):
                    verify_greedy(d, want[:-1])


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


class TestScoreOnDemand:
    def test_rows_read_in_any_order_equal_eager_scoring(self):
        m = chain_model("abcabdabc", order=3, k=0.4)
        drafter = chain_model("abcabc", order=2, k=0.4, vocab=m.vocab)
        prompt = encode("ab", m.vocab)
        for seed in range(5):
            d = draft(drafter, prompt, 4, 0.7, make_rng(seed, DRAFT_STREAM))
            rows = score_parallel(m, prompt, d, 0.7)
            eager = [apply_temperature(m.next_dist(prompt + list(d.tokens[:j])), 0.7)
                     for j in range(len(d) + 1)]
            assert len(rows) == len(d) + 1
            assert rows[len(d)] is eager[-1]
            assert rows[2] is eager[2] and rows[len(d) - 2] is eager[-3]
            assert [rows[1], rows[2]] == eager[1:3]
            assert list(rows) == eager
            for j in (-1, len(d) + 1):
                with pytest.raises(IndexError):
                    rows[j]

    def test_rows_ignore_later_changes_to_the_context(self):
        m = chain_model("abcabd", order=3, k=0.4)
        prompt = encode("ab", m.vocab)
        d = draft(m, prompt, 2, 1.0, make_rng(0, DRAFT_STREAM))
        rows = score_parallel(m, prompt, d, 1.0)
        want = m.next_dist(prompt + list(d.tokens))
        prompt.extend(encode("dd", m.vocab))
        assert rows[len(d)] is want
        # An array's slice is a view, so the rows keep a copy of its tail.
        context = np.array(encode("ab", m.vocab))
        rows = score_parallel(m, context, d, 1.0)
        want = [m.next_dist(list(context) + list(d.tokens[:j])) for j in range(len(d) + 1)]
        context[:] = encode("dd", m.vocab)
        assert list(rows) == want

    def test_row_contexts_stay_short_for_long_drafts(self):
        # Each row reads at most the context tail plus order - 1 draft
        # tokens, so scoring K rows costs O(K), not O(K^2).
        m = chain_model("abc" * 20, order=3)
        prompt = encode("abcab", m.vocab)
        d = draft(m, prompt, 40, 0.0, make_rng(0, DRAFT_STREAM))
        assert len(d) == 40
        lengths = []
        scored = m.next_dist
        m.next_dist = lambda ctx: lengths.append(len(ctx)) or scored(ctx)
        rows = list(score_parallel(m, prompt, d, 0.0))
        del m.next_dist
        ctx = list(prompt)
        for i, row in enumerate(rows):
            assert row is apply_temperature(m.next_dist(ctx), 0.0)
            ctx.extend(d.tokens[i:i + 1])
        assert len(lengths) == 41 and max(lengths) <= 2 * (m.order - 1)

    def test_rows_of_a_prompt_shorter_than_the_order_equal_eager_scoring(self):
        # The tail is shorter than order - 1 here, and rows past order - 1
        # read only draft tokens; by index and inside the verifiers alike.
        m = chain_model("abcabdacbadcbbda", order=4, k=0.2)
        for prompt in ([], encode("a", m.vocab), encode("ca", m.vocab)):
            for seed in range(4):
                d = draft(m, prompt, 7, 1.0, make_rng(seed, DRAFT_STREAM))
                eager = [m.next_dist(prompt + list(d.tokens[:j])) for j in range(len(d) + 1)]
                rows = score_parallel(m, prompt, d, 1.0)
                for j in range(len(d) + 1):
                    assert np.array_equal(rows[j].probs, eager[j].probs)
                scored = []
                m.next_dist = lambda ctx: scored.append(NGramModel.next_dist(m, ctx)) or scored[-1]
                rows = score_parallel(m, prompt, d, 1.0)
                del m.next_dist
                accept_all = FixedUniforms([0.0] * len(d) + [0.5])
                assert verify_stochastic(d, rows, accept_all).accepted_count == len(d)
                assert [q.probs.tolist() for q in scored] == [q.probs.tolist() for q in eager]

    def test_verifiers_score_rows_without_indexing_them(self, saved_pair, monkeypatch):
        target_path, drafter_path, prompts = saved_pair
        target, drafter = load_model(target_path), load_model(drafter_path)
        cfgs = [SpecConfig(draft_len=5, temperature=t, max_new_tokens=40, seed=1)
                for t in (0.0, 0.7)]
        want = [decode_speculative(target, drafter, prompts[0], cfg) for cfg in cfgs]
        monkeypatch.setattr(specdec._TargetRows, "__getitem__", None)
        monkeypatch.setattr(specdec._TargetRows, "__len__", None)
        for cfg, (want_out, want_stats) in zip(cfgs, want):
            got_out, got_stats = decode_speculative(target, drafter, prompts[0], cfg)
            assert got_out == want_out and got_stats.to_dict() == want_stats.to_dict()

    def test_target_scores_only_the_rows_verification_reads(self, saved_pair):
        target_path, drafter_path, prompts = saved_pair
        for temperature in (0.0, 0.7, 1.0):
            for seed in (0, 1):
                target, drafter = load_model(target_path), load_model(drafter_path)
                calls = []
                scored = target.next_dist
                target.next_dist = lambda ctx: calls.append(1) or scored(ctx)
                cfg = SpecConfig(draft_len=5, temperature=temperature,
                                 max_new_tokens=40, seed=seed)
                _, stats = decode_speculative(target, drafter, prompts[0], cfg)
                assert len(calls) == sum(a + 1 for a in stats.accepted_per_cycle)
                assert stats.target_calls == stats.cycles
                assert len(calls) < stats.cycles * (cfg.draft_len + 1)


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

    def test_equals_clipped_difference_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = Distribution(rng.dirichlet(np.ones(58)))
            p = Distribution(rng.dirichlet(np.ones(58)))
            diff = np.clip(q.probs - p.probs, 0, None)
            r = residual_dist(q, p)
            assert np.array_equal(r.probs, diff / diff.sum())
            assert not r.probs.flags.writeable

    def test_memoised_per_pair(self):
        rng = np.random.default_rng(5)
        q1, q2, p1, p2 = (Distribution(rng.dirichlet(np.ones(12))) for _ in range(4))
        r11 = residual_dist(q1, p1)
        assert residual_dist(q1, p1) is r11
        diff = np.clip(q1.probs - p1.probs, 0, None)
        assert np.array_equal(r11.probs, diff / diff.sum())
        others = [residual_dist(q1, p2), residual_dist(q2, p1), residual_dist(p1, q1)]
        for r in others:
            assert not np.array_equal(r.probs, r11.probs)
        assert [residual_dist(q1, p2), residual_dist(q2, p1)] == others[:2]
        assert residual_dist(q1, p1) is r11

    def test_memo_lives_on_the_drafter_distribution(self):
        q, p = dist(0.9, 0.1), dist(0.5, 0.5)
        r = residual_dist(q, p)
        assert q._residual is None
        assert p._residual == {q: r}

    def test_vanished_residual_is_not_stored(self):
        q, p = dist(0.5, 0.5), dist(0.5, 0.5)
        for _ in range(2):
            with pytest.raises(ValueError):
                residual_dist(q, p)
        assert q._residual is None and p._residual is None

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
            assert out.accepted_count == len(d) and out.token in (0, 1)  # a bonus

    def test_hand_rejection_case(self):
        # drafted token has p=0.5 but q=0.1; r=0.5 >= 0.2 rejects;
        # residual (0.4, 0)/0.4 = (1, 0) forces correction to id 0
        p = dist(0.5, 0.5)
        q = dist(0.9, 0.1)
        d = Draft((1,), (p,))
        out = verify_stochastic(d, [q, q], FixedUniforms([0.5, 0.123]))
        assert out == (0, 0)

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
        assert out == (1, 0)

    def test_bonus_sampled_from_last_dist(self):
        p = dist(1.0, 0.0)
        d = Draft((0,), (p,))
        bonus_dist = dist(0.0, 1.0)
        out = verify_stochastic(d, [p, bonus_dist], FixedUniforms([0.1, 0.6]))
        assert out == (len(d), 1)

    def test_vanished_residual_takes_the_correction_from_q(self):
        target, drafter = synth.rounding_pair()
        unseen = encode("c", target.vocab)
        q, p = target.next_dist(unseen), drafter.next_dist(unseen)
        assert q.p(4) / p.p(4) == 1 - 2**-53
        with pytest.raises(ValueError, match="vanished"):
            residual_dist(q, p)
        out = verify_stochastic(Draft((4,), (p,)), [q, q], FixedUniforms([1 - 2**-53, 0.5]))
        assert out == (0, sample(q, FixedUniforms([0.5])))

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
        assert out == (len(d), 2)

    def test_mismatch_emits_target_argmax(self):
        # draft [a, b] against target argmaxes [a, c, .]
        a, b, c = 0, 1, 2
        d = Draft((a, b), (dist(1.0, 0.0, 0.0), dist(0.0, 1.0, 0.0)))
        targets = [dist(1.0, 0.0, 0.0), dist(0.0, 0.0, 1.0), dist(1.0, 0.0, 0.0)]
        out = verify_greedy(d, targets)
        assert out == (1, c)

    def test_deterministic(self):
        d = Draft((0,), (dist(1.0, 0.0),))
        targets = [dist(0.0, 1.0), dist(1.0, 0.0)]
        assert verify_greedy(d, targets) == verify_greedy(d, targets)
        assert verify_greedy(d, targets) is verify_greedy(d, targets)


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

    def test_greedy_builds_no_generator(self, monkeypatch):
        target = chain_model("abacabadabe", order=3, k=0.3)
        drafter = chain_model("ababab", order=2, k=0.3, vocab=target.vocab)
        streams = []
        real = specdec.make_rng
        monkeypatch.setattr(specdec, "make_rng",
                            lambda seed, stream, *path: streams.append(stream)
                            or real(seed, stream, *path))
        prompt = encode("ab", target.vocab)
        decode_speculative(target, drafter, prompt, SpecConfig(3, 0.0, 20, seed=4))
        assert streams == []
        streams.clear()
        decode_speculative(target, drafter, prompt, SpecConfig(3, 0.7, 20, seed=4))
        assert streams == [DRAFT_STREAM, ACCEPT_STREAM]

    def test_largest_uniform_on_rounding_pair_decodes(self, monkeypatch):
        # Every uniform is 1 - 2**-53, so the first drafted token, at a
        # context neither model has seen, is rejected with a vanished residual.
        monkeypatch.setattr(specdec, "_Uniforms", synth.LargestUniform)
        target, drafter = synth.rounding_pair()
        cfg = SpecConfig(draft_len=1, temperature=1.0, max_new_tokens=3)
        out, stats = decode_speculative(target, drafter, encode("c", target.vocab), cfg)
        assert stats.accepted_per_cycle[0] == 0
        assert len(out) == 3

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

    def test_draft_len_is_bounded(self):
        assert SpecConfig(draft_len=specdec.MAX_DRAFT_LEN).draft_len == specdec.MAX_DRAFT_LEN
        with pytest.raises(ValueError, match=f"between 1 and {specdec.MAX_DRAFT_LEN}, got"):
            SpecConfig(draft_len=specdec.MAX_DRAFT_LEN + 1)

    def test_non_finite_temperature_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SpecConfig(temperature=t)


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    """A synthetic target and drafter, each saved to a model file."""
    de = with_task_prompts(synth.make_bitext(("de", "en"), 40, seed=1))
    general = synth.general_corpus(30, seed=3)
    vocab = build_vocab(t for c in (de, general) for pair in c for t in pair)
    target = pretrain(de, order=4, k=0.1, vocab=vocab)
    drafter = finetune(pretrain(general, order=2, k=0.5, vocab=vocab), de)
    root = tmp_path_factory.mktemp("memo")
    save_model(target, root / "target.model")
    save_model(drafter, root / "drafter.model")
    prompts = [encode(p, vocab) for p, _ in
               with_task_prompts(synth.make_bitext(("de", "en"), 3, seed=9)).records]
    return root / "target.model", root / "drafter.model", prompts


class TestMemoisedDecoding:
    def test_warm_models_decode_as_freshly_loaded_ones(self, saved_pair):
        target_path, drafter_path, prompts = saved_pair
        warm_target, warm_drafter = load_model(target_path), load_model(drafter_path)
        for seed in (0, 1, 2):
            for temperature in (0.0, 0.3, 0.7, 1.0):
                for k in (1, 3, 5):
                    cfg = SpecConfig(draft_len=k, temperature=temperature,
                                     max_new_tokens=24, seed=seed)
                    for prompt in prompts:
                        fresh = decode_speculative(load_model(target_path),
                                                   load_model(drafter_path), prompt, cfg)
                        warm = decode_speculative(warm_target, warm_drafter, prompt, cfg)
                        assert warm[0] == fresh[0]
                        assert warm[1].to_dict() == fresh[1].to_dict()
                    sampler = SamplerConfig(temperature, seed)
                    assert (generate(warm_target, prompts[0], sampler, 24)
                            == generate(load_model(target_path), prompts[0], sampler, 24))


def reference_decode(target, drafter, prompt, cfg):
    """The plain eager decode loop, kept as an oracle: it drafts, scores all
    K+1 target rows up front, draws each uniform from its own make_rng
    generator with one random() call and computes every residual afresh.
    Returns the continuation and what DecodeStats.to_dict() must equal."""
    t = cfg.temperature
    draft_rng = make_rng(cfg.seed, DRAFT_STREAM)
    accept_rng = make_rng(cfg.seed, ACCEPT_STREAM)
    stats = {"cycles": 0, "accepted_per_cycle": [], "emitted_tokens": 0,
             "truncated_tokens": 0, "target_calls": 0, "drafter_calls": 0,
             "draft_len": cfg.draft_len, "temperature": t,
             "max_new_tokens": cfg.max_new_tokens, "seed": cfg.seed}
    context, out = list(prompt), []
    finished = False
    while not finished and len(out) < cfg.max_new_tokens:
        tokens, ps = [], []
        for _ in range(cfg.draft_len):
            p = apply_temperature(drafter.next_dist(context + tokens), t)
            tokens.append(sample(p, draft_rng))
            ps.append(p)
            if tokens[-1] == EOS_ID:
                break
        qs = [apply_temperature(target.next_dist(context + tokens[:j]), t)
              for j in range(len(tokens) + 1)]
        accepted, extra = len(tokens), None
        for j, token in enumerate(tokens):
            if t == 0.0:
                top = int(np.argmax(qs[j].probs))
                if token != top:
                    accepted, extra = j, top
                    break
            elif accept_rng.random() >= min(1.0, qs[j].p(token) / ps[j].p(token)):
                diff = np.clip(qs[j].probs - ps[j].probs, 0, None)
                accepted, extra = j, sample(Distribution(diff / diff.sum()), accept_rng)
                break
        if extra is None:
            extra = int(np.argmax(qs[-1].probs)) if t == 0.0 else sample(qs[-1], accept_rng)
        stats["cycles"] += 1
        stats["target_calls"] += 1
        stats["drafter_calls"] += len(tokens)
        stats["accepted_per_cycle"].append(accepted)
        cycle_tokens = tokens[:accepted] + [extra]
        for idx, token in enumerate(cycle_tokens):
            if token == EOS_ID:
                stats["emitted_tokens"] += 1
                stats["truncated_tokens"] += len(cycle_tokens) - idx - 1
                finished = True
                break
            if len(out) >= cfg.max_new_tokens:
                stats["truncated_tokens"] += len(cycle_tokens) - idx
                finished = True
                break
            out.append(token)
            context.append(token)
            stats["emitted_tokens"] += 1
    return out, stats


def reference_generate(model, prompt, cfg, max_len):
    """The plain generate loop with one make_rng random() call per token."""
    rng = make_rng(cfg.seed, GENERATE_STREAM)
    context, out = list(prompt), []
    while len(out) < max_len:
        token = sample(apply_temperature(model.next_dist(context), cfg.temperature), rng)
        if token == EOS_ID:
            break
        out.append(token)
        context.append(token)
    return out


class TestGreedyVerificationReadsArgmaxes:
    """At T=0 verification compares each drafted token with the argmax of the
    untempered target row, so it tempers no target row."""

    def test_t0_decode_tempers_no_target_row(self, saved_pair, monkeypatch):
        target_path, drafter_path, prompts = saved_pair
        target, drafter = load_model(target_path), load_model(drafter_path)
        verifying, tempered_while_verifying = [], []

        def verify(*args, verify_greedy=specdec.verify_greedy):
            verifying.append(True)
            try:
                return verify_greedy(*args)
            finally:
                verifying.pop()

        def temper(d, temperature, apply=specdec.apply_temperature):
            if verifying:
                tempered_while_verifying.append(temperature)
            return apply(d, temperature)

        monkeypatch.setattr(specdec, "verify_greedy", verify)
        monkeypatch.setattr(specdec, "apply_temperature", temper)
        for prompt in prompts:
            out, stats = decode_speculative(target, drafter, prompt,
                                            SpecConfig(draft_len=5, max_new_tokens=48))
            assert out == generate(load_model(target_path), prompt, SamplerConfig(0.0), 48)
        assert stats.cycles > 0 and tempered_while_verifying == []
        rows = [*target._dist_cache.values(), target._uniform]
        assert len(rows) > 10
        assert [row for row in rows if row._tempered is not None] == []


class TestTemperatureMemoBound:
    def test_decoding_at_300_temperatures_keeps_the_bound(self, saved_pair):
        target_path, drafter_path, prompts = saved_pair
        target, drafter = load_model(target_path), load_model(drafter_path)
        temperatures = [0.5 + i / 1000 for i in range(300)]
        for i, temperature in enumerate(temperatures):
            cfg = SpecConfig(draft_len=5, temperature=temperature, max_new_tokens=16, seed=i)
            got = decode_speculative(target, drafter, prompts[i % len(prompts)], cfg)
            if i % 50 == 49:  # decoding past evictions decodes like fresh models
                fresh = decode_speculative(load_model(target_path), load_model(drafter_path),
                                           prompts[i % len(prompts)], cfg)
                assert got == fresh
        assert 1 <= len(drafter._draft_rows) <= core._TEMPERATURES_KEPT
        assert set(drafter._draft_rows) <= set(temperatures)
        rows = [*target._dist_cache.values(), *drafter._dist_cache.values(),
                target._uniform, drafter._uniform]
        kept = [len(row._tempered) for row in rows if row._tempered is not None]
        assert kept and max(kept) <= core._TEMPERATURES_KEPT

    def test_a_schedule_within_the_bound_evicts_nothing(self, saved_pair):
        target_path, drafter_path, prompts = saved_pair
        target, drafter = load_model(target_path), load_model(drafter_path)
        temperatures = (0.0, 0.3, 0.7, 1.0)  # distill's default schedule
        for temperature in temperatures:
            decode_speculative(target, drafter, prompts[0],
                               SpecConfig(temperature=temperature, max_new_tokens=24))
        tables = dict(drafter._draft_rows)
        assert set(tables) == set(temperatures)
        for temperature in temperatures:
            decode_speculative(target, drafter, prompts[0],
                               SpecConfig(temperature=temperature, max_new_tokens=24))
        assert all(drafter._draft_rows[t] is tables[t] for t in temperatures)


class TestReferenceDecoder:
    """decode_speculative and generate equal the eager reference loops
    token for token and stat for stat, on warm and on freshly loaded models.
    The lengths make both decode streams and the generate stream draw more
    than one block of buffered uniforms."""

    def test_decode_speculative_matches_reference(self, saved_pair):
        target_path, drafter_path, prompts = saved_pair
        warm_target, warm_drafter = load_model(target_path), load_model(drafter_path)
        for seed in (0, 1, 2):
            for temperature in (0.0, 0.3, 0.7, 1.0):
                for k in (1, 3, 5):
                    cfg = SpecConfig(draft_len=k, temperature=temperature,
                                     max_new_tokens=60, seed=seed)
                    for prompt in prompts:
                        want_out, want_stats = reference_decode(
                            load_model(target_path), load_model(drafter_path), prompt, cfg)
                        for target, drafter in ((warm_target, warm_drafter),
                                                (load_model(target_path),
                                                 load_model(drafter_path))):
                            got_out, got_stats = decode_speculative(target, drafter, prompt, cfg)
                            assert got_out == want_out
                            assert got_stats.to_dict() == want_stats

    @staticmethod
    def _check(target, drafter, prompt, cfg):
        want_out, want_stats = reference_decode(target, drafter, prompt, cfg)
        got_out, got_stats = decode_speculative(target, drafter, prompt, cfg)
        assert got_out == want_out
        assert got_stats.to_dict() == want_stats
        return got_out, got_stats

    def test_edge_cases_match_reference(self, saved_pair):
        """Order-1 models, where the drafting tail is empty; prompts empty and
        shorter than order - 1; budgets of one token and below K."""
        target_path, drafter_path, prompts = saved_pair
        target, drafter = load_model(target_path), load_model(drafter_path)
        de = with_task_prompts(synth.make_bitext(("de", "en"), 40, seed=1))
        uni_target = pretrain(de, order=1, k=0.1, vocab=target.vocab)
        uni_drafter = pretrain(synth.general_corpus(30, seed=3), order=1, k=0.5,
                               vocab=target.vocab)
        for t, d in ((target, drafter), (target, uni_drafter), (uni_target, drafter),
                     (uni_target, uni_drafter)):
            for prompt in ([], prompts[0][:1], prompts[0][:2], prompts[0]):
                for temperature in (0.0, 0.7):
                    for k, max_new in ((1, 1), (5, 1), (5, 3), (8, 5), (3, 40)):
                        for seed in (0, 1):
                            self._check(t, d, prompt, SpecConfig(k, temperature, max_new, seed))

    def test_eos_on_the_last_budget_slot_is_emitted(self):
        """An <eos> right after the last token the budget allows still counts
        as emitted, whether it is an accepted draft token, a correction or a
        bonus token."""
        vocab = build_vocab("abcd")
        target = chain_model("abc", vocab=vocab)
        cases = (
            (target, 5, [4], 1),                              # accepted; bonus dropped
            (chain_model("abcd", vocab=vocab), 5, [3], 0),    # correction
            (target, 3, [3], 0),                              # bonus
        )
        for drafter, k, accepted, truncated in cases:
            for temperature in (0.0, 0.7):
                cfg = SpecConfig(draft_len=k, temperature=temperature, max_new_tokens=3)
                out, stats = self._check(target, drafter, [], cfg)
                assert decode_tokens(out, vocab) == "abc"
                assert stats.accepted_per_cycle == accepted
                assert (stats.emitted_tokens, stats.truncated_tokens) == (4, truncated)

    def test_generate_matches_reference(self, saved_pair):
        target_path, _, prompts = saved_pair
        warm = load_model(target_path)
        for seed in (0, 1, 2):
            for temperature in (0.0, 0.3, 0.7, 1.0):
                sampler = SamplerConfig(temperature, seed)
                for prompt in prompts:
                    want = reference_generate(load_model(target_path), prompt, sampler, 150)
                    assert generate(warm, prompt, sampler, 150) == want
                    assert generate(load_model(target_path), prompt, sampler, 150) == want


class SymbolicUniform:
    """A uniform known only to lie in [lo, hi). The decoders read a uniform
    only by comparing it, u < c, so a comparison whose c falls inside the
    interval splits it, and the path source picks the side."""

    __slots__ = ("paths", "lo", "hi")

    def __init__(self, paths):
        self.paths, self.lo, self.hi = paths, 0.0, 1.0

    def __lt__(self, c):
        if self.hi <= c:
            return True
        if self.lo >= c:
            return False
        below = self.paths.decide()
        if below:
            self.hi = c
        else:
            self.lo = c
        return below


class SymbolicPaths:
    """Stands in for the decoders' uniform sources and walks every path of a
    decode depth first, replaying it from the start once per path. A path's
    probability is the product of its uniforms' interval widths."""

    MAX_DRAWS = 200  # a decode that never ends fails instead of hanging

    def __init__(self):
        self.prefix, self.decisions, self.uniforms = [], [], []

    def __call__(self, rng):
        return self

    def random(self):
        assert len(self.uniforms) < self.MAX_DRAWS, "the decode drew too many uniforms"
        u = SymbolicUniform(self)
        self.uniforms.append(u)
        return u

    def decide(self):
        i = len(self.decisions)
        self.decisions.append(self.prefix[i] if i < len(self.prefix) else True)
        return self.decisions[-1]

    def law(self, run):
        """{run(): probability} over every path, and the number of paths."""
        law, pending, paths = defaultdict(float), [[]], 0
        while pending:
            self.prefix, self.decisions, self.uniforms = pending.pop(), [], []
            law[run()] += math.prod(u.hi - u.lo for u in self.uniforms)
            paths += 1
            pending.extend(self.decisions[:i] + [not self.decisions[i]]
                           for i in range(len(self.prefix), len(self.decisions)))
        return law, paths


def target_only_law(target, prompt, temperature, max_new):
    """Exact law of the continuation target-only sampling emits."""
    law = defaultdict(float)

    def walk(out, prob):
        if len(out) == max_new:
            law[tuple(out)] += prob
            return
        q = apply_temperature(target.next_dist(list(prompt) + out), temperature)
        for token, q_tok in enumerate(q.probs.tolist()):
            if q_tok == 0.0:
                continue
            if token == EOS_ID:
                law[tuple(out)] += prob * q_tok
            else:
                walk(out + [token], prob * q_tok)

    walk([], 1.0)
    return law


class TestExactLaw:
    """Every path of decode_speculative and of generate, walked with symbolic
    uniforms, gives each continuation exactly its target-only probability.
    Each speculative path also keeps the cycles' emitted stream: its output
    and stats are that stream cut at the first <eos> or the budget."""

    @staticmethod
    def _pairs():
        vocab = build_vocab("ab")
        target, drafter = synth.rounding_pair()
        return (
            (target, drafter, encode("a", vocab)),
            (chain_model("abba", order=2, k=0.2, vocab=vocab),
             chain_model("ab", order=1, k=1.0, vocab=vocab), []),
        )

    @staticmethod
    def _decode(target, drafter, prompt, cfg, cycles):
        cycles.clear()
        out, stats = decode_speculative(target, drafter, prompt, cfg)
        stream = [t for d, (n, token) in cycles for t in d.tokens[:n] + (token,)]
        cut = min(stream.index(EOS_ID) if EOS_ID in stream else len(stream),
                  cfg.max_new_tokens)
        emitted = cut + (cut < len(stream) and stream[cut] == EOS_ID)
        assert out == stream[:cut]
        assert stats.accepted_per_cycle == [o.accepted_count for _, o in cycles]
        assert stats.drafter_calls == sum(len(d) for d, _ in cycles)
        assert (stats.emitted_tokens, stats.truncated_tokens) == (emitted, len(stream) - emitted)
        return tuple(out)

    def test_decode_and_generate_follow_the_target_law(self, monkeypatch):
        paths = SymbolicPaths()
        cycles = []
        for module in (specdec, lm):
            monkeypatch.setattr(module, "_Uniforms", paths)
            monkeypatch.setattr(module, "make_rng", lambda *args: None)
        for name in ("verify_greedy", "verify_stochastic"):
            def recording(d, *args, verify=getattr(specdec, name)):
                outcome = verify(d, *args)
                cycles.append((d, outcome))
                return outcome
            monkeypatch.setattr(specdec, name, recording)
        for target, drafter, prompt in self._pairs():
            for temperature in (0.0, 0.3, 0.7, 1.0):
                for max_new in (2, 3):
                    want = target_only_law(target, prompt, temperature, max_new)
                    sampler = SamplerConfig(temperature)
                    got, count = paths.law(
                        lambda: tuple(generate(target, prompt, sampler, max_new)))
                    laws = [(got, count)]
                    for k in (1, 2):
                        cfg = SpecConfig(k, temperature, max_new)
                        laws.append(paths.law(
                            lambda: self._decode(target, drafter, prompt, cfg, cycles)))
                    for got, count in laws:
                        assert count == 1 if temperature == 0.0 else count > 1
                        for out in set(got) | set(want):
                            assert abs(got[out] - want[out]) <= 1e-12, out


class TestReservedIdEmission:
    """Add-k smoothing gives <bos> and <unk> mass, so at T > 0 both can be
    emitted; they count as emitted tokens and render as ''."""

    def test_bos_and_unk_are_emitted_counted_and_render_empty(self):
        target = chain_model("abba", order=2, k=2.0)
        drafter = chain_model("ab", order=1, k=2.0, vocab=target.vocab)
        seen = set()
        for seed in range(20):
            cfg = SpecConfig(draft_len=3, temperature=1.0, max_new_tokens=30, seed=seed)
            out, stats = decode_speculative(target, drafter, [], cfg)
            # every kept token counts, <bos> and <unk> too, plus a final <eos>
            assert stats.emitted_tokens - len(out) in (0, 1)
            for ids in (out, generate(target, [], SamplerConfig(1.0, seed), 30)):
                reserved = [t for t in ids if t in (BOS_ID, UNK_ID)]
                seen.update(reserved)
                text = decode_tokens(ids, target.vocab)
                assert len(text) == len(ids) - len(reserved)
                assert text == "".join(target.vocab.tokens[t] for t in ids if t > UNK_ID)
        assert seen == {BOS_ID, UNK_ID}


class TestTracedNames:
    """specbench's tracer times a cycle by replacing these specdec globals and
    NGramModel.next_dist with wrappers; a cycle that bypassed one would
    leave its span empty, and the per-position acceptance reads len() of
    each draft and accepted_count of each verifier's result. The spans of
    draft, score and verify cover a cycle's model work only if every model
    call sits inside draft or a verifier."""

    def test_each_traced_name_is_called_through_its_global(self, saved_pair, monkeypatch):
        target_path, drafter_path, prompts = saved_pair
        target, drafter = load_model(target_path), load_model(drafter_path)
        calls = {}
        stack = []
        enclosing = []  # (name, names of the wrappers it was called inside)

        def counting(name, fn, check=None):
            def wrapper(*args, **kwargs):
                enclosing.append((name, tuple(stack)))
                stack.append(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                calls[name] = calls.get(name, 0) + 1
                if check is not None:
                    check(result)
                return result
            return wrapper

        def drafted(d):
            assert len(d) >= 1

        def verified(outcome):
            assert outcome.accepted_count >= 0

        checks = {"draft": drafted, "verify_greedy": verified, "verify_stochastic": verified}
        for name in ("draft", "score_parallel", "verify_greedy", "verify_stochastic",
                     "residual_dist", "apply_temperature", "sample"):
            monkeypatch.setattr(specdec, name,
                                counting(name, getattr(specdec, name), checks.get(name)))
        monkeypatch.setattr(NGramModel, "next_dist", counting("next_dist", NGramModel.next_dist))
        common = {"draft", "score_parallel", "apply_temperature", "next_dist"}
        model_work = {"next_dist", "apply_temperature", "sample", "residual_dist"}
        for temperature, verifier, extra in ((0.0, "verify_greedy", set()),
                                             (0.7, "verify_stochastic",
                                              {"sample", "residual_dist"})):
            calls.clear()
            enclosing.clear()
            cfg = SpecConfig(draft_len=5, temperature=temperature, max_new_tokens=60, seed=1)
            _, stats = decode_speculative(target, drafter, prompts[0], cfg)
            assert set(calls) == common | {verifier} | extra
            for name in ("draft", "score_parallel", verifier):
                assert calls[name] == stats.cycles
            outside = [(name, names) for name, names in enclosing
                       if name in model_work and not {"draft", verifier} & set(names)]
            assert outside == []
