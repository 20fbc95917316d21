import contextlib
import functools
import io
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdesk import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    Corpus,
    CorpusFormatError,
    ModelFormatError,
    ModelVersionError,
    NGramModel,
    SamplerConfig,
    SpecConfig,
    argmax,
    build_vocab,
    decode_speculative,
    decode_tokens,
    encode,
    finetune,
    generate,
    load_corpus,
    load_model,
    load_vocab,
    pretrain,
    save_corpus,
    save_model,
    save_vocab,
    truncate_corpus,
)
from specdesk import cli, lm
from specdesk.core import (RESERVED_TOKENS, Vocabulary, encode_array, parse_vocab_lines,
                           vocab_lines)

AAB = Corpus((("", "aab"),))


def aab_model(k=1.0):
    return pretrain(AAB, order=2, k=k)


def assert_same_dists(model, other):
    """next_dist gives bit-identical probabilities on every context either
    model has counts for."""
    for ctx in model.counts.keys() | other.counts.keys():
        assert model.next_dist(ctx).probs.tobytes() == other.next_dist(ctx).probs.tobytes()


class TestPretrainCounting:
    def test_bigram_hand_counts(self):
        # stream <bos> a a b <eos>: transitions <bos>->a, a->a, a->b, b-><eos>
        m = aab_model()
        a, b = m.vocab.lookup("a"), m.vocab.lookup("b")
        assert m.counts == {
            (BOS_ID,): {a: 1.0},
            (a,): {a: 1.0, b: 1.0},
            (b,): {EOS_ID: 1.0},
        }

    def test_prompt_and_completion_form_one_stream(self):
        m = pretrain(Corpus((("a", "ab"),)), order=2, k=1.0)
        a, b = m.vocab.lookup("a"), m.vocab.lookup("b")
        assert m.counts[(a,)] == {a: 1.0, b: 1.0}

    def test_unigram_counts(self):
        m = pretrain(AAB, order=1, k=1.0)
        a, b = m.vocab.lookup("a"), m.vocab.lookup("b")
        assert m.counts == {(): {a: 2.0, b: 1.0, EOS_ID: 1.0}}

    def test_doubled_corpus_doubles_counts(self):
        single = aab_model()
        double = pretrain(Corpus(AAB.records * 2), order=2, k=1.0)
        for ctx, per_tok in single.counts.items():
            assert double.counts[ctx] == {t: 2 * c for t, c in per_tok.items()}
        # add-k estimate follows the formula on the doubled counts
        a = single.vocab.lookup("a")
        assert double.next_dist([a]).p(a) == pytest.approx((2 + 1) / (4 + 5), abs=1e-15)

    def test_empty_completion_rejected(self):
        with pytest.raises(ValueError):
            pretrain(Corpus((("prompt", ""),)), order=2)

    def test_first_empty_completion_is_named(self):
        corpus = Corpus((("a", "b"),) * 3 + (("p", ""), ("a", "b"), ("q", "")))
        with pytest.raises(ValueError, match=r"^training record 3 has an empty completion$"):
            pretrain(corpus, order=2)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            pretrain(AAB, order=0)

    def test_order_above_the_maximum_rejected(self):
        huge = 4611686018427387904
        with pytest.raises(ValueError, match=f"between 1 and {lm.MAX_ORDER}, got {huge}$"):
            pretrain(AAB, order=huge)
        with pytest.raises(ValueError):
            NGramModel(lm.MAX_ORDER + 1, 1.0, build_vocab("ab"))
        assert NGramModel(lm.MAX_ORDER, 1.0, build_vocab("ab")).order == lm.MAX_ORDER

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            pretrain(AAB, order=2, k=0.0)

    def test_non_finite_k_rejected(self):
        for k in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NGramModel(2, k, build_vocab("ab"))

    def test_k_past_the_largest_float_over_the_vocabulary_rejected(self):
        # next_dist divides by at least k * |V|, so that product must be finite.
        vocab = build_vocab("ab")
        assert NGramModel(2, sys.float_info.max / vocab.size, vocab).next_dist([0]).p(3) == 0.2
        for k in (1e308, sys.float_info.max):
            message = f"smoothing k = {k!r} times the vocabulary size 5 passes the largest float"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                NGramModel(2, k, vocab)
        with pytest.raises(ValueError, match=r"^smoothing k = 1e\+308 "):
            pretrain(AAB, order=2, k=1e308)

    @pytest.mark.parametrize("counts", [
        {(0,): {99: 1.0, -1: 2.0}}, {(0,): {-1: 2.0}}, {(5,): {0: 1.0}},
        {(0, 0): {1: 1.0}}, {(): {1: 1.0}},
        {(0,): {1: -5.0}}, {(0,): {1: math.nan}}, {(0,): {1: 1.0, 3: math.inf}},
        {(0,): {3: 1e308, 4: 1e308}}])
    def test_count_key_outside_the_vocabulary_or_order_rejected(self, counts):
        with pytest.raises(ValueError):
            NGramModel(2, 0.5, build_vocab("ab"), counts)

    def test_context_total_past_the_largest_float_rejected(self):
        # next_dist divides by k * |V| plus the context's counts, so that sum
        # must be finite; the largest float itself is a count it may hold.
        vocab, top = build_vocab("ab"), sys.float_info.max
        assert NGramModel(2, 0.5, vocab, {(0,): {3: top, 4: 1.0}}).next_dist([0]).p(3) == 1.0
        for k, counts in ((0.5, {3: top, 4: top}), (1e300, {3: top})):
            with pytest.raises(ValueError, match="sum past the largest float$"):
                NGramModel(2, k, vocab, {(0,): {}, (1,): counts})

    def test_context_total_is_checked_in_the_order_a_reload_reads(self):
        # Within a hair of the largest float, fsum overflows for some orders
        # of the same counts. These pass in the order given but not in the
        # token order a saved copy loads them in.
        x, y, z = map(float.fromhex, ("0x1.06c87176e46b2p+1023", "0x1.f26f1d123729ap+1022",
                                      "0x1.fffffbcb251d9p+969"))
        assert math.fsum([x, y, z]) < math.inf
        with pytest.raises(OverflowError):
            math.fsum([x, z, y])
        with pytest.raises(ValueError, match="sum past the largest float$"):
            NGramModel(2, 0.5, build_vocab("abc"), {(0,): {3: x, 5: y, 4: z}})

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            pretrain(Corpus(()), order=2)

    def test_provenance(self):
        assert aab_model().provenance == "pretrained"


class TestNextDist:
    def test_unseen_context_is_uniform(self):
        m = aab_model(k=1.0)
        d = m.next_dist([UNK_ID])
        assert np.allclose(d.probs, 0.2, atol=1e-15)

    def test_unseen_contexts_share_one_uniform_outside_the_cache(self):
        m = pretrain(AAB, order=3, k=0.3)
        a = m.vocab.lookup("a")
        m.next_dist([a])  # a counted context is cached
        cached = len(m._dist_cache)
        first = m.next_dist([UNK_ID, UNK_ID])
        assert m.next_dist([a, UNK_ID]) is first
        assert len(m._dist_cache) == cached == 1
        size = m.vocab.size
        assert np.array_equal(first.probs, np.full(size, 0.3) / (0.3 * size))
        assert m.next_dist([a]) is m.next_dist([BOS_ID, a])

    def test_hand_counted_probability(self):
        # P(a | a) = (1 + 1) / (2 + 1*5) = 2/7 for |V| = 5
        m = aab_model(k=1.0)
        a = m.vocab.lookup("a")
        assert m.next_dist([a]).p(a) == pytest.approx(2 / 7, abs=1e-15)

    def test_sums_to_one_tightly(self):
        m = aab_model(k=1.0)
        a = m.vocab.lookup("a")
        assert abs(m.next_dist([a]).probs.sum() - 1.0) <= 1e-12

    def test_bos_padding_of_short_contexts(self):
        m = pretrain(AAB, order=3, k=0.5)
        a = m.vocab.lookup("a")
        assert np.array_equal(m.next_dist([a]).probs, m.next_dist([BOS_ID, a]).probs)
        assert np.array_equal(m.next_dist([]).probs, m.next_dist([BOS_ID, BOS_ID]).probs)

    def test_only_last_context_ids_matter(self):
        m = aab_model()
        a, b = m.vocab.lookup("a"), m.vocab.lookup("b")
        assert np.array_equal(m.next_dist([b, b, a]).probs, m.next_dist([a]).probs)

    def test_key_equals_the_padded_context_for_every_length(self):
        corpus = Corpus((("", "abcab acb cba"),))
        for order in (1, 2, 3, 4):
            m = pretrain(corpus, order=order, k=0.3)
            ids = encode("abcab acbx", m.vocab)
            for n in range(len(ids) + 1):
                ctx = ids[:n]
                key = m._pad_context(ctx)
                got = m.next_dist(ctx)
                assert got is m._dist_cache.get(key, m._uniform)
                assert got is m.next_dist(list(key))
                assert got is m.next_dist(tuple(ctx))

    def test_bos_gets_smoothing_mass(self):
        m = aab_model(k=1.0)
        assert m.next_dist([m.vocab.lookup("a")]).p(BOS_ID) == pytest.approx(1 / 7)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=6))
    def test_always_a_valid_distribution(self, context):
        m = aab_model(k=0.3)
        d = m.next_dist(context)
        assert len(d) == m.vocab.size
        assert abs(d.probs.sum() - 1.0) <= 1e-9
        assert np.all(d.probs > 0)


class TestFinetune:
    def test_empty_corpus_is_identity(self):
        m = aab_model()
        tuned = finetune(m, Corpus(()), weight=1.0)
        assert tuned.counts == m.counts
        assert_same_dists(tuned, m)

    def test_finetune_equals_concatenated_pretrain(self):
        corpus = Corpus((("", "aab"), ("a", "bb")))
        base = pretrain(corpus, order=2, k=1.0)
        tuned = finetune(base, corpus, weight=1.0)
        doubled = pretrain(Corpus(corpus.records * 2), order=2, k=1.0, vocab=base.vocab)
        assert tuned.counts == doubled.counts

    def test_disjoint_finetunes_commute(self):
        vocab = build_vocab("abcd")
        base = pretrain(AAB, order=2, k=1.0, vocab=vocab)
        c1 = Corpus((("", "cc"),))
        c2 = Corpus((("", "dd"),))
        one = finetune(finetune(base, c1, 2.0), c2, 0.5)
        two = finetune(finetune(base, c2, 0.5), c1, 2.0)
        assert one.counts == two.counts

    def test_weight_scales_counts_exactly(self):
        m = aab_model()
        tuned = finetune(m, AAB, weight=0.5)
        a = m.vocab.lookup("a")
        assert tuned.counts[(a,)][a] == 1.5

    def test_nonpositive_weight_rejected(self):
        m = aab_model()
        for w in (0.0, -1.0):
            with pytest.raises(ValueError):
                finetune(m, AAB, weight=w)

    def test_non_finite_weight_rejected(self):
        m = aab_model()
        for w in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                finetune(m, AAB, weight=w)

    def test_original_model_untouched(self):
        m = aab_model()
        before = {ctx: dict(d) for ctx, d in m.counts.items()}
        finetune(m, AAB, weight=3.0)
        assert m.counts == before

    def test_unknown_characters_fold_to_unk(self):
        m = aab_model()
        tuned = finetune(m, Corpus((("", "zz"),)), weight=1.0)
        assert tuned.counts[(UNK_ID,)][UNK_ID] == 1.0

    def test_empty_completion_rejected(self):
        with pytest.raises(ValueError):
            finetune(aab_model(), Corpus((("p", ""),)))

    def test_rejected_corpus_leaves_the_model_untouched(self):
        m = aab_model()
        before = {ctx: dict(d) for ctx, d in m.counts.items()}
        with pytest.raises(ValueError, match=r"^training record 1 has an empty completion$"):
            finetune(m, Corpus((("", "ab"), ("a", ""), ("b", ""))), weight=0.5)
        assert m.counts == before
        assert_same_dists(m, aab_model())

    def test_provenance_chain(self):
        tuned = finetune(aab_model(), Corpus((("", "ab"),), langs=("de", "en")))
        assert tuned.provenance == "pretrained;finetuned:de-en"

    def test_weight_that_takes_a_total_past_the_largest_float_rejected(self):
        m = aab_model()
        before = {ctx: dict(d) for ctx, d in m.counts.items()}
        with pytest.raises(ValueError, match=r"^context \(3,\)'s counts plus k per vocabulary "
                                             r"id sum past the largest float$"):
            finetune(m, Corpus((("", "a" * 400),)), weight=1e306)
        assert m.counts == before
        assert finetune(m, Corpus((("", "a" * 100),)), weight=1e306).next_dist([3]).p(3) > 0.99


def reference_add_stream(counts, order, ids, weight):
    """The token-by-token counting loop pretrain and finetune once ran: one
    `+= weight` step per (context, token) window of the <bos>-padded,
    <eos>-terminated stream."""
    n1 = order - 1
    padded = [BOS_ID] * n1 + list(ids) + [EOS_ID]
    for i in range(n1, len(padded)):
        per_tok = counts.setdefault(tuple(padded[i - n1:i]), {})
        per_tok[padded[i]] = per_tok.get(padded[i], 0.0) + weight


def reference_train(model, corpus, weight, provenance):
    counts = {ctx: dict(per_tok) for ctx, per_tok in model.counts.items()}
    for prompt, completion in corpus.records:
        reference_add_stream(counts, model.order, encode(prompt + completion, model.vocab),
                             weight)
    return NGramModel(model.order, model.k, model.vocab, counts, provenance)


def model_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_model(model, path)
        return path.read_bytes()


def assert_same_model(bulk, reference):
    """Equal counts, in equal context and token order, bit-identical
    distributions, and equal saved bytes."""
    assert list(bulk.counts) == list(reference.counts)
    for ctx, per_tok in bulk.counts.items():
        assert list(per_tok.items()) == list(reference.counts[ctx].items())
        assert all(type(count) is float for count in per_tok.values())
    assert_same_dists(bulk, reference)
    assert model_bytes(bulk) == model_bytes(reference)


def assert_trains_like_reference(corpus, order, vocab, tunes):
    """pretrain on corpus, then each (corpus, weight) finetune of tunes in
    turn, give the token-by-token reference's models."""
    bulk = pretrain(corpus, order, k=0.5, vocab=vocab)
    reference = reference_train(NGramModel(order, 0.5, vocab), corpus, 1.0, bulk.provenance)
    assert_same_model(bulk, reference)
    for tune, weight in tunes:
        bulk = finetune(bulk, tune, weight)
        reference = reference_train(reference, tune, weight, bulk.provenance)
        assert_same_model(bulk, reference)


# Characters outside the vocabulary, a non-BMP character, lone surrogates and
# the characters of literal <bos> text.
BULK_CHARS = ["a", "b", "c", "ж", "<", "o", "s", ">", chr(0x1F600), chr(0xD83D), chr(0xDE00),
              chr(0xDFFF), "z"]
bulk_text = st.lists(st.sampled_from(BULK_CHARS + ["<bos>", "<eos>"]), max_size=10).map("".join)
bulk_record = st.tuples(bulk_text, bulk_text.filter(bool))

# A vocabulary of 5,005 ids takes 13 bits an id, so the ids of a window of
# order 5 or more do not fit one 64-bit code.
WIDE_CHARS = ["a", "b", "z", "\u4e00", "\u4e01", chr(0x4E00 + 4_999), "<bos>"]
wide_text = st.lists(st.sampled_from(WIDE_CHARS), max_size=10).map("".join)
wide_record = st.tuples(wide_text, wide_text.filter(bool))
WIDE_VOCAB = build_vocab(["ab" + "".join(map(chr, range(0x4E00, 0x4E00 + 5_000)))])


class TestCodePointTable:
    """encode_array builds a vocabulary's code-point table on its first call
    and reuses it; loading and decoding never build one."""

    def test_training_builds_the_table_once_per_vocabulary(self):
        vocab = build_vocab("abж")
        tables = []

        def recording(text, vocab):
            ids = encode_array(text, vocab)
            tables.append(vocab._code_ids)
            return ids

        corpus = Corpus((("ab", "жa"), ("b", "a")) * 4)
        with mock.patch.object(lm, "encode_array", recording), \
                mock.patch.object(lm, "_CHUNK_CHARS", 5):
            finetune(pretrain(corpus, 2, vocab=vocab), corpus, 0.5)
        assert len(tables) == 8
        assert all(table is tables[0] for table in tables)
        assert tables[0].tolist() == [2] * 0x61 + [3, 4] + [2] * (0x436 - 0x63) + [5, 2]

    def test_load_and_decode_build_no_table(self, tmp_path):
        corpus = Corpus((("Hallo ", "hello"), ("ja ", "yes")))
        target, drafter = pretrain(corpus, 3), pretrain(corpus, 2)
        save_model(target, tmp_path / "t.model")
        save_model(drafter, tmp_path / "d.model")
        target, drafter = load_model(tmp_path / "t.model"), load_model(tmp_path / "d.model")
        for temperature in (0.0, 0.7):
            decode_speculative(target, drafter, encode("Hallo ", target.vocab),
                               SpecConfig(draft_len=3, temperature=temperature,
                                          max_new_tokens=8, seed=1))
        assert target.vocab._code_ids is None and drafter.vocab._code_ids is None


class TestBulkCounting:
    """pretrain and finetune count a group of records at a time; the result
    must be the token-by-token reference's, bit for bit."""

    @settings(max_examples=100)
    @given(order=st.integers(1, 6),
           known=st.sampled_from(["abc<bos>", "ab" + chr(0x1F600), ""]),
           records=st.lists(bulk_record, min_size=1, max_size=8),
           tunes=st.lists(st.tuples(st.lists(bulk_record, max_size=6),
                                    st.sampled_from([1.0, 0.5, 0.3, 2.7, 1e-9])),
                          max_size=3),
           repeat=st.sampled_from([1, 40]),
           chunk=st.sampled_from([lm._CHUNK_CHARS, 1, 5]))
    def test_equals_token_by_token_reference(self, order, known, records, tunes, repeat,
                                             chunk):
        vocab = build_vocab(known)
        corpus = Corpus(tuple(records) * repeat)
        for prompt, completion in corpus.records:
            text = prompt + completion
            assert encode_array(text, vocab).tolist() == encode(text, vocab)
        with mock.patch.object(lm, "_CHUNK_CHARS", chunk):
            assert_trains_like_reference(corpus, order, vocab, [
                (Corpus(tuple(tune_records) * repeat), w)
                for tune_records, weight in tunes for w in (weight, 0.7)])

    @settings(max_examples=40)
    @given(order=st.integers(1, lm.MAX_ORDER),
           wide=st.booleans(),
           records=st.lists(wide_record, min_size=1, max_size=6),
           tunes=st.lists(st.tuples(st.lists(wide_record, max_size=4),
                                    st.sampled_from([1.0, 0.3, 2.7])),
                          max_size=2),
           repeat=st.sampled_from([1, 9]),
           chunk=st.sampled_from([lm._CHUNK_CHARS, 1, 7]))
    def test_codes_past_64_bits_equal_the_reference(self, order, wide, records, tunes,
                                                    repeat, chunk):
        # Windows whose ids and position do not fit a 64-bit code are
        # counted by the dense rank of their leading ids.
        vocab = WIDE_VOCAB if wide else build_vocab("abz")
        with mock.patch.object(lm, "_CHUNK_CHARS", chunk), \
                mock.patch.object(lm, "_dense_rank", wraps=lm._dense_rank) as rank:
            assert_trains_like_reference(Corpus(tuple(records) * repeat), order, vocab, [
                (Corpus(tuple(tune_records) * repeat), weight)
                for tune_records, weight in tunes])
        assert rank.called or order * (vocab.size - 1).bit_length() <= 64

    def test_dense_rank_sorts_like_the_codes_in_as_few_bits_as_it_can(self):
        rank, bits = lm._dense_rank(np.array([7, 2 ** 63, 7, 0, 2 ** 64 - 1, 5], np.uint64))
        assert rank.dtype == np.uint64
        assert rank.tolist() == [2, 3, 2, 0, 4, 1]
        assert bits == 3
        assert lm._dense_rank(np.array([9, 9], np.uint64))[1] == 0

    @pytest.mark.parametrize("order, wide, chunk", [
        (lm.MAX_ORDER, False, 500), (lm.MAX_ORDER, True, 500), (5, True, 500),
        # 4 * 13 id bits fit; with the 14 bits of 10,000 window positions
        # they do not.
        (4, True, lm._CHUNK_CHARS)])
    def test_ranked_codes_over_several_groups(self, order, wide, chunk):
        chars = WIDE_CHARS[:-1] if wide else ["a", "b", "z"]
        texts = ["".join(chars[(i * i + j) % len(chars)] for j in range(i % 13 + 3))
                 for i in range(40)]
        corpus = Corpus(tuple((texts[i % 40], texts[(i * 7) % 40]) for i in range(700)))
        assert corpus.token_count() > 10_000
        with mock.patch.object(lm, "_CHUNK_CHARS", chunk), \
                mock.patch.object(lm, "_dense_rank", wraps=lm._dense_rank) as rank:
            assert_trains_like_reference(corpus, order, WIDE_VOCAB if wide else build_vocab("abz"),
                                         [(corpus, 0.3)])
        assert rank.called

    def test_records_longer_than_and_across_chunk_boundaries(self):
        # One record several chunks long, then records of 301 characters,
        # which cross the chunk size at varying offsets.
        chunk = lm._CHUNK_CHARS
        long = ("ab" * chunk + "c", "abc" * chunk)
        records = (long,) + tuple((("ab" * 50)[:i % 50], "c" * (301 - i % 50))
                                  for i in range(60)) + (long,)
        corpus = Corpus(records)
        vocab = build_vocab("abc")
        for order in (1, 3, 6):
            assert_trains_like_reference(corpus, order, vocab, [(corpus, 0.3)])

    def test_weight_one_on_a_fractional_count_steps_one_at_a_time(self):
        # 35 steps of += 1.0 from 5e-09 give 35.000000005000004, not
        # 5e-09 + 35, so a pair's tally is added at once only to whole counts.
        vocab = build_vocab("a")
        a = vocab.lookup("a")
        base = NGramModel(2, 0.5, vocab, {(BOS_ID,): {a: 5e-09}})
        corpus = Corpus((("", "a"),) * 35)
        tuned = finetune(base, corpus, 1.0)
        assert tuned.counts[(BOS_ID,)] == {a: 35.000000005000004}
        assert_same_model(tuned, reference_train(base, corpus, 1.0, tuned.provenance))

    def test_int_counts_continue_as_floats(self):
        vocab = build_vocab("a")
        base = NGramModel(2, 0.5, vocab, {(BOS_ID,): {vocab.lookup("a"): 3}})
        corpus = Corpus((("", "a"),) * 2)
        for weight in (1.0, 0.3):
            tuned = finetune(base, corpus, weight)
            assert_same_model(tuned, reference_train(base, corpus, weight, tuned.provenance))

    def test_totals_equal_the_reloaded_models(self, tmp_path):
        # Sums of non-integer counts depend on the order they are added in;
        # the total is defined as their exact sum, which does not.
        corpus = Corpus((("", "acb cacbccbc"),))
        model = pretrain(corpus, order=2, k=0.5)
        for weight in (0.3, 0.7, 1.1, 2.3):
            model = finetune(model, corpus, weight)
        path = tmp_path / "m.model"
        save_model(model, path)
        assert_same_dists(load_model(path), model)


class TestGenerate:
    def test_eos_dominant_model_stops_immediately(self):
        vocab = build_vocab("ab")
        model = NGramModel(1, 1e-9, vocab, {(): {EOS_ID: 1.0}})
        assert generate(model, [], SamplerConfig(0.0, 0), 10) == []

    def test_greedy_is_seed_invariant(self):
        m = pretrain(Corpus((("", "abcabcabc"),)), order=2, k=0.1)
        prompt = encode("a", m.vocab)
        outs = {tuple(generate(m, prompt, SamplerConfig(0.0, s), 12)) for s in range(5)}
        assert len(outs) == 1

    def test_greedy_equals_argmax_chain(self):
        m = pretrain(Corpus((("", "abcabcabc"), ("", "bca"))), order=3, k=0.2)
        prompt = encode("ab", m.vocab)
        got = generate(m, prompt, SamplerConfig(0.0, 7), 15)
        ctx = list(prompt)
        expected = []
        for _ in range(15):
            tok = argmax(m.next_dist(ctx))
            if tok == EOS_ID:
                break
            expected.append(tok)
            ctx.append(tok)
        assert got == expected

    def test_max_len_bounds_continuation(self):
        m = pretrain(Corpus((("", "abababab"),)), order=2, k=0.1)
        assert len(generate(m, encode("a", m.vocab), SamplerConfig(0.0, 0), 5)) == 5

    def test_max_len_below_one_rejected(self):
        with pytest.raises(ValueError):
            generate(aab_model(), [], SamplerConfig(0.0, 0), 0)

    def test_sampled_generation_reproducible(self):
        m = pretrain(Corpus((("", "abcabc"),)), order=2, k=0.5)
        a = generate(m, [], SamplerConfig(1.0, 33), 20)
        b = generate(m, [], SamplerConfig(1.0, 33), 20)
        assert a == b


class TestModelPersistence:
    def test_round_trip_identity(self, tmp_path):
        m = finetune(pretrain(Corpus((("ab", "ba"), ("", "aab")), langs=("de", "en")),
                              order=3, k=0.25), Corpus((("", "bb"),)), weight=0.5)
        path = tmp_path / "m.model"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded == m
        rng = np.random.default_rng(5)
        for _ in range(100):
            ctx = [int(x) for x in rng.integers(0, m.vocab.size, size=rng.integers(0, 4))]
            assert np.array_equal(loaded.next_dist(ctx).probs, m.next_dist(ctx).probs)

    @settings(max_examples=60)
    @given(st.lists(st.text(alphabet="ab\n\\<", max_size=2), max_size=4))
    def test_every_vocabulary_that_constructs_round_trips(self, tokens):
        # So save_vocab and save_model never write a file that load_vocab and
        # load_model reject.
        if not all(len(t) == 1 for t in tokens) or len(set(tokens)) < len(tokens):
            with pytest.raises(ValueError):
                Vocabulary(RESERVED_TOKENS + tuple(tokens))
            return
        vocab = Vocabulary(RESERVED_TOKENS + tuple(tokens))
        model = pretrain(Corpus((("a", "b\n"),)), order=2, k=0.5, vocab=vocab)
        with tempfile.TemporaryDirectory() as tmp:
            save_vocab(vocab, Path(tmp) / "v.vocab")
            save_model(model, Path(tmp) / "m.model")
            assert load_vocab(Path(tmp) / "v.vocab") == vocab
            assert load_model(Path(tmp) / "m.model") == model

    def test_serialization_is_bit_identical(self, tmp_path):
        corpus = Corpus((("", "abab"), ("b", "aa")))
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(pretrain(corpus, order=2, k=0.5), p1)
        save_model(pretrain(corpus, order=2, k=0.5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_count_lines_sorted_by_id_tuple(self, tmp_path):
        m = finetune(pretrain(Corpus((("ab", "ba"), ("", "aab"))), order=3, k=0.25),
                     Corpus((("", "bba"),)), weight=0.5)
        path = tmp_path / "m.model"
        save_model(m, path)
        entries = sorted(ctx + (tok, count) for ctx, per_tok in m.counts.items()
                         for tok, count in per_tok.items())
        expected = [" ".join(str(i) for i in e[:-1]) + f" {e[-1]!r}" for e in entries]
        lines = path.read_text(encoding="utf-8").split("\n")
        start = lines.index(f"counts={len(entries)}") + 1
        assert lines[start:-1] == expected

    def test_equal_counts_load_as_one_float(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(pretrain(Corpus((("", "abcabd"),)), order=2, k=0.5), path)
        ones = [c for per_tok in load_model(path).counts.values()
                for c in per_tok.values() if c == 1.0]
        assert len(ones) > 1
        assert all(c is ones[0] for c in ones)

    def test_truncated_file_is_malformed(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(aab_model(), path)
        content = path.read_text(encoding="utf-8")
        path.write_text(content[: len(content) // 2].rsplit("\n", 1)[0], encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_is_distinct_error(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(aab_model(), path)
        content = path.read_text(encoding="utf-8").replace("version=1", "version=2", 1)
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_garbage_is_malformed(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_out_of_range_id_is_malformed(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(aab_model(), path)
        content = path.read_text(encoding="utf-8").replace("\n0 3 1.0", "\n0 99 1.0")
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("bad_id", ["45", "-1", "9" * 30])
    def test_out_of_range_id_on_a_late_line_names_the_line(self, tmp_path, bad_id):
        # More count lines than one group, so the bad id is in a later group,
        # and the loader has to find its line.
        vocab = build_vocab("".join(map(chr, range(0x400, 0x42A))))
        ids = range(len(RESERVED_TOKENS), vocab.size)
        path = tmp_path / "m.model"
        save_model(NGramModel(2, 0.5, vocab, {(i,): dict.fromkeys(ids, 1.0) for i in ids}),
                   path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        assert vocab.size == 45 and len(ids) ** 2 > lm._GROUP_LINES
        lines[-1] = f"{vocab.size - 1} {bad_id} 1.0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path}: line {len(lines)}: token id out of range"
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == message
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["decode", "--target", str(path), "--drafter", str(path),
                             "--prompt", "x"])
        assert (code, stderr.getvalue()) == (4, f"error: format: {message}\n")

    def test_vocabulary_token_of_two_characters_is_malformed(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(aab_model(), path)
        content = path.read_text(encoding="utf-8").replace("\n<unk>\na\n", "\n<unk>\nab\n", 1)
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not one character"):
            load_model(path)

    def test_unencodable_model_leaves_the_path_as_it_was(self, tmp_path):
        # A lone surrogate has no UTF-8 encoding; the save must fail before
        # the file is opened, so nothing is created or truncated.
        model = pretrain(Corpus((("", "a" + chr(0xD800)),)), order=2)
        fresh, existing = tmp_path / "fresh.model", tmp_path / "existing.model"
        existing.write_bytes(b"earlier contents\n")
        for path in (fresh, existing):
            with pytest.raises(ValueError):
                save_model(model, path)
        assert not fresh.exists()
        assert existing.read_bytes() == b"earlier contents\n"


    def _saved_with_counts(self, tmp_path, mutate):
        """aab_model as written by save_model, its count lines passed through
        mutate and the counts= header updated to match."""
        path = tmp_path / "m.model"
        save_model(aab_model(), path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        start = next(i for i, line in enumerate(lines) if line.startswith("counts=")) + 1
        body = mutate(lines[start:])
        lines[start - 1:] = [f"counts={len(body)}"] + body
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_non_finite_k_is_malformed(self, tmp_path):
        for raw in ("nan", "inf"):
            path = tmp_path / "m.model"
            save_model(aab_model(), path)
            content = path.read_text(encoding="utf-8").replace("\nk=1.0\n", f"\nk={raw}\n", 1)
            path.write_text(content, encoding="utf-8")
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_non_finite_count_is_malformed(self, tmp_path):
        for raw in ("nan", "inf"):
            path = self._saved_with_counts(
                tmp_path, lambda body: body[:1] + [body[1].rsplit(" ", 1)[0] + " " + raw] + body[2:])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_duplicate_count_line_is_malformed(self, tmp_path):
        path = self._saved_with_counts(
            tmp_path, lambda body: body[:2] + [body[1].rsplit(" ", 1)[0] + " 7.0"] + body[2:])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unsorted_count_lines_are_malformed(self, tmp_path):
        path = self._saved_with_counts(tmp_path, lambda body: [body[1], body[0]] + body[2:])
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("body, line, reason", [
        (["0 3 1.0", "3 9 nan"], 2, "token id out of range"),
        (["0 3 1.0", "3 x nan"], 2, "unparsable count entry"),
        (["3 3 1.0", "0 3 nan"], 2, "count must be finite and >= 0"),
        (["3 3 1.0", "0 9 1.0"], 2, "token id out of range"),
        (["3 3 1.0", "0 3 1.0", "4 1 x"], 2, "count lines must be strictly increasing"),
        (["0 3 1.0", "3 3", "3 4 x"], 2, "expected 3 fields"),
        (["0 3 1.0", "3 3 1.0", "3 4 1.0", "4 1 -1.0"], 4, "count must be finite and >= 0"),
    ])
    def test_first_bad_line_fails_its_first_check(self, tmp_path, body, line, reason):
        # In most of these files a later line fails an earlier check than the
        # first bad line does, so a group check alone would name the wrong
        # line or reason.
        path = self._saved_with_counts(tmp_path, lambda _: body)
        expected = (ModelFormatError, f"{path}: line {11 + line}: {reason}")
        assert outcome(reference_load, path) == expected
        for group in (1, 2, 3, lm._GROUP_LINES):
            with mock.patch.object(lm, "_GROUP_LINES", group):
                assert outcome(load_model, path) == expected, group

    @pytest.mark.parametrize("group", [1, 2, 3, lm._GROUP_LINES])
    def test_context_total_past_the_largest_float_names_its_line(self, tmp_path, capsys,
                                                                 group):
        # Each count is finite, but the third line takes context 0's total
        # past the largest float; context 3's one huge count is allowed.
        path = self._saved_with_counts(
            tmp_path, lambda _: ["0 0 1e+308", "0 3 1.0", "0 4 1e+308", "3 3 1e+308"])
        message = (f"{path}: line 14: its context's counts plus k per vocabulary id sum past "
                   f"the largest float")
        with mock.patch.object(lm, "_GROUP_LINES", group):
            assert outcome(load_model, path) == (ModelFormatError, message)
            assert cli.main(["decode", "--target", str(path), "--drafter", str(path),
                             "--prompt", "a"]) == 4
        assert capsys.readouterr().err == f"error: format: {message}\n"

    def test_order_above_the_maximum_is_malformed(self, tmp_path):
        path = self._saved_with_counts(tmp_path, lambda body: [])
        content = path.read_text(encoding="utf-8").replace(
            "\norder=2\n", "\norder=4611686018427387904\n", 1)
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ModelFormatError, match="order must be between 1 and"):
            load_model(path)

    @pytest.mark.parametrize("order", [0, lm.MAX_ORDER + 1])
    def test_order_out_of_bounds_is_4_before_any_count_line(self, tmp_path, capsys, order):
        # The one count line has the fields this order asks for, so only the
        # order check can reject the file.
        path = self._saved_with_counts(tmp_path, lambda body: [" ".join(["0"] * order + ["0.5"])])
        content = path.read_text(encoding="utf-8").replace("\norder=2\n", f"\norder={order}\n", 1)
        path.write_text(content, encoding="utf-8")
        assert cli.main(["decode", "--target", str(path), "--drafter", str(path),
                         "--prompt", "a"]) == 4
        assert capsys.readouterr().err == (
            f"error: format: {path}: order must be between 1 and {lm.MAX_ORDER}, got {order}\n")

    def test_future_version_reported_before_other_header_errors(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("version=2\nsomething else entirely\n", encoding="utf-8")
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_int_counts_save_as_the_floats_they_load_as(self, tmp_path):
        vocab = build_vocab("ab")
        a, b = vocab.lookup("a"), vocab.lookup("b")
        model = NGramModel(2, 0.5, vocab, {(BOS_ID,): {a: 2, b: 1}, (a,): {EOS_ID: 3}})
        path, again = tmp_path / "m.model", tmp_path / "again.model"
        save_model(model, path)
        assert f"{BOS_ID} {a} 2.0\n" in path.read_text(encoding="utf-8")
        loaded = load_model(path)
        assert loaded == model
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_numpy_counts_save_as_loadable_floats(self, tmp_path):
        vocab = build_vocab("ab")
        a, b = vocab.lookup("a"), vocab.lookup("b")
        model = NGramModel(2, 0.5, vocab, {(BOS_ID,): {a: np.float64(2.0), b: np.float64(0.3)},
                                           (a,): {EOS_ID: np.float32(0.5)}})
        path, again = tmp_path / "m.model", tmp_path / "again.model"
        save_model(model, path)
        assert f"{BOS_ID} {a} 2.0\n{BOS_ID} {b} 0.3\n" in path.read_text(encoding="utf-8")
        loaded = load_model(path)
        assert loaded == model
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_signed_zero_counts_keep_their_sign(self, tmp_path):
        # 0.0 and -0.0 are equal, so one memo entry by value would write both
        # the same way.
        vocab = build_vocab("abc")
        a, b, c = vocab.lookup("a"), vocab.lookup("b"), vocab.lookup("c")
        model = NGramModel(2, 0.5, vocab, {(BOS_ID,): {a: 0.0, b: -0.0, c: 0.0},
                                           (a,): {b: -0.0, c: 1.0}})
        path = tmp_path / "m.model"
        save_model(model, path)
        assert path.read_bytes() == reference_model_bytes(model)
        loaded = load_model(path)
        assert [math.copysign(1.0, count) for per_tok in loaded.counts.values()
                for count in per_tok.values()] == [1.0, -1.0, 1.0, -1.0, 1.0]


def reference_parse_model(lines):
    """The loader load_model once ran: the header and vocabulary checks,
    then each count line split, parsed, checked and added on its own, then
    the finite-sum rule, which names the first line whose count takes its
    context's total past the largest float."""
    version = lm._header_value(lines, 0, "version", int)
    if version != lm.MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"format version {version} unsupported (expected {lm.MODEL_FORMAT_VERSION})")
    order, k, provenance, vocab_size = (
        lm._header_value(lines, ln, key, parse)
        for ln, (key, parse) in enumerate(lm._MODEL_HEADER, start=1))
    vocab_end = 5 + vocab_size
    if not 5 <= vocab_end <= len(lines):
        raise ModelFormatError("truncated vocabulary block")
    vocab = parse_vocab_lines(lines[5:vocab_end])
    n_counts = lm._header_value(lines, vocab_end, "counts", int)
    counts_start = vocab_end + 1
    if counts_start + n_counts != len(lines):
        raise ModelFormatError(
            f"counts={n_counts} but {len(lines) - counts_start} count lines follow")
    counts = {}
    shared = {}
    added = []  # (line index, context, count), in file order
    previous = ()
    for ln in range(counts_start, len(lines)):
        parts = lines[ln].split(" ")
        if len(parts) != order + 1:
            raise ModelFormatError(f"line {ln + 1}: expected {order + 1} fields")
        try:
            key = tuple(map(int, parts[:-1]))
            count = float(parts[-1])
        except ValueError:
            raise ModelFormatError(f"line {ln + 1}: unparsable count entry") from None
        if not all(0 <= i < vocab_size for i in key):
            raise ModelFormatError(f"line {ln + 1}: token id out of range")
        if not 0.0 <= count < math.inf:
            raise ModelFormatError(f"line {ln + 1}: count must be finite and >= 0")
        if key <= previous:
            raise ModelFormatError(f"line {ln + 1}: count lines must be strictly increasing")
        previous = key
        counts.setdefault(key[:-1], {})[key[-1]] = shared.setdefault(parts[-1], count)
        added.append((ln, key[:-1], count))
    read = {}
    for ln, ctx, count in added:
        read.setdefault(ctx, []).append(count)
        try:
            total = k * vocab_size + math.fsum(read[ctx])
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise ModelFormatError(f"line {ln + 1}: its context's counts plus k per vocabulary "
                                   f"id sum past the largest float")
    return NGramModel(order, k, vocab, counts, provenance)


def reference_load(path):
    """load_model with the line-by-line loader in place of the grouped one."""
    with mock.patch.object(lm, "_parse_model", reference_parse_model):
        return load_model(path)


def reference_model_bytes(model):
    """The bytes of the line-by-line formatter save_model once ran, with each
    count written as repr(float(count))."""
    lines = [f"version={lm.MODEL_FORMAT_VERSION}", f"order={model.order}", f"k={model.k!r}",
             f"provenance={model.provenance}", f"vocab={model.vocab.size}"]
    lines.extend(vocab_lines(model.vocab))
    count_lines = []
    for ctx in sorted(model.counts):
        prefix = "".join(f"{i} " for i in ctx)
        per_tok = model.counts[ctx]
        count_lines.extend(f"{prefix}{tok} {float(per_tok[tok])!r}" for tok in sorted(per_tok))
    lines.append(f"counts={len(count_lines)}")
    lines.extend(count_lines)
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_same_loaded(loaded, reference):
    """Equal models, as assert_same_model compares them, with the same
    pattern of shared float objects."""
    assert loaded == reference
    assert_same_model(loaded, reference)
    assert sharing(loaded) == sharing(reference)


def sharing(model):
    """For each count in file order, the position of the first count that is
    the same object."""
    first = {}
    return [first.setdefault(id(count), i) for i, count in
            enumerate(c for per_tok in model.counts.values() for c in per_tok.values())]


# Newline, carriage-return and backslash tokens are escaped in the vocabulary block.
ESCAPED_CHARS = ["a", "b", "\n", "\r", "\\", "ж", chr(0x1F600), " ", "1"]
escaped_text = st.lists(st.sampled_from(ESCAPED_CHARS), max_size=12).map("".join)
escaped_record = st.tuples(escaped_text, escaped_text.filter(bool))


class TestGroupedModelFiles:
    """save_model and load_model work on groups of count lines; files and
    models must be the line-by-line references', bit for bit."""

    @settings(max_examples=60)
    @given(order=st.integers(1, 6),
           records=st.lists(escaped_record, min_size=1, max_size=8),
           tunes=st.lists(st.tuples(st.lists(escaped_record, min_size=1, max_size=4),
                                    st.sampled_from([1.0, 0.5, 0.3, 2.7, 1e-9])),
                          max_size=2),
           repeat=st.sampled_from([1, 7]),
           group=st.sampled_from([1, 3, lm._GROUP_LINES]))
    def test_equals_line_by_line_references(self, order, records, tunes, repeat, group):
        model = pretrain(Corpus(tuple(records) * repeat), order, k=0.25)
        models = [model]
        for tune_records, weight in tunes:
            models.append(finetune(models[-1], Corpus(tuple(tune_records) * repeat), weight))
        with mock.patch.object(lm, "_GROUP_LINES", group), \
                tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.model"
            for m in models:
                save_model(m, path)
                assert path.read_bytes() == reference_model_bytes(m)
                loaded, reference = load_model(path), reference_load(path)
                assert loaded == m
                assert_same_loaded(loaded, reference)

    def test_a_context_split_across_groups_is_one_dict(self, tmp_path):
        vocab = build_vocab("abcdef")
        ids = [vocab.lookup(ch) for ch in "abcdef"]
        model = NGramModel(2, 0.5, vocab, {(BOS_ID,): {i: 1.0 for i in ids},
                                           (ids[0],): {i: 2.0 for i in ids}})
        path = tmp_path / "m.model"
        save_model(model, path)
        for group in (1, 2, 4, 5, 7):
            with mock.patch.object(lm, "_GROUP_LINES", group):
                assert_same_loaded(load_model(path), reference_load(path))


# Spellings a fuzzed field takes: some parse as ints or floats that save_model
# never writes, some do not parse, some are out of range or not finite.
FUZZ_SPELLINGS = ["x", "+3", "03", "1_0", "٣", "nan", "-0.0", "1e400", "inf", "99",
                  "-1", "1" * 20, "1e308", "1.7976931348623157e308"]
FUZZ_EDITS = ["field", "count", "drop", "duplicate", "swap", "add", "remove"]


@functools.lru_cache(maxsize=None)
def fuzz_base_lines():
    """A saved order-3 model with whole and fractional counts, as lines."""
    corpus = Corpus((("abc", "cab ba"), ("", "abcabd e"), ("c", "dd ee f 0123")))
    model = finetune(pretrain(corpus, order=3, k=0.5), Corpus((("a", "bcd f"),)), 0.3)
    return tuple(reference_model_bytes(model).decode("utf-8").split("\n")[:-1])


def fuzzed_text(edits, off, crlf):
    """The base model file with each (edit, line, field, spelling) applied
    to its count lines, counts= off from the line count by off, and CRLF
    line endings if crlf."""
    lines = list(fuzz_base_lines())
    start = next(i for i, line in enumerate(lines) if line.startswith("counts=")) + 1
    body = lines[start:]
    for edit, line, field, spelling in edits:
        if not body:
            break
        i = line % len(body)
        parts = body[i].split(" ")
        if edit in ("field", "count"):
            parts[field % len(parts) if edit == "field" else -1] = spelling
        elif edit == "add":
            parts.insert(field % (len(parts) + 1), "1")
        elif edit == "remove":
            del parts[field % len(parts)]
        elif edit == "drop":
            del body[i]
            continue
        elif edit == "duplicate":
            body.insert(i, body[i])
            continue
        else:  # swap
            j = (i + 1) % len(body)
            body[i], body[j] = body[j], body[i]
            continue
        body[i] = " ".join(parts)
    text = "\n".join(lines[:start - 1] + [f"counts={len(body) + off}"] + body) + "\n"
    return text.replace("\n", "\r\n") if crlf else text


def outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


class TestModelLoaderFuzz:
    """Mutated model files load as the line-by-line reference loads them, or
    fail with its exception class and message; the CLI exits 0 or 4."""

    @settings(max_examples=200)
    @given(edits=st.lists(st.tuples(st.sampled_from(FUZZ_EDITS), st.integers(0, 10 ** 6),
                                    st.integers(0, 10), st.sampled_from(FUZZ_SPELLINGS)),
                          min_size=1, max_size=3),
           off=st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1]),
           crlf=st.sampled_from([False, False, False, True]),
           group=st.sampled_from([1, 3, lm._GROUP_LINES]))
    def test_mutated_files_match_the_reference(self, edits, off, crlf, group):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(lm, "_GROUP_LINES", group):
            path, corpus, out = Path(tmp) / "m.model", Path(tmp) / "c.tsv", Path(tmp) / "o.model"
            path.write_bytes(fuzzed_text(tuple(edits), off, crlf).encode("utf-8"))
            expected, got = outcome(reference_load, path), outcome(load_model, path)
            if isinstance(expected, NGramModel):
                assert isinstance(got, NGramModel)
                assert_same_loaded(got, expected)
            else:
                assert got == expected
                assert expected[0] in (ModelFormatError, ModelVersionError)
            save_corpus(Corpus((("ab", "c d"),)), corpus)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["train", "finetune", "--model", str(path),
                                 "--corpus", str(corpus), "--out", str(out)])
            assert code == (0 if isinstance(expected, NGramModel) else 4), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()

    @pytest.mark.parametrize("spellings", [("1e308", "1e308"), ("1e308", "1.7976931348623157e308"),
                                           ("1.7976931348623157e308", "1"), ("1e308", "0.5")])
    def test_counts_near_the_largest_float_in_one_context_match_the_reference(self, spellings,
                                                                             tmp_path):
        # Two count lines of one context rarely both draw a large spelling,
        # so the finite-sum rule gets cases of its own.
        lines = fuzz_base_lines()
        body = lines[next(i for i, line in enumerate(lines) if line.startswith("counts=")) + 1:]
        i = next(i for i in range(len(body) - 1)
                 if body[i].rsplit(" ", 2)[0] == body[i + 1].rsplit(" ", 2)[0])
        path = tmp_path / "m.model"
        edits = tuple(("count", i + j, 0, spelling) for j, spelling in enumerate(spellings))
        path.write_bytes(fuzzed_text(edits, 0, False).encode("utf-8"))
        expected, got = outcome(reference_load, path), outcome(load_model, path)
        if isinstance(expected, NGramModel):
            assert_same_loaded(got, expected)
        else:
            assert got == expected
            assert expected[1].endswith(f"line {len(lines) - len(body) + i + 2}: its context's "
                                        f"counts plus k per vocabulary id sum past the largest "
                                        f"float")


# Characters that end a line, a field, a header, a key or a language tag, a
# byte order mark, a lone surrogate and ordinary text.
corpus_text = st.text(alphabet="ab #=,\t\n\r\ufeff\ud800é", max_size=5)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = Corpus((("hallo", "hello"), ("", "welt")), langs=("de", "en"),
                        meta={"temps": "0.0,1.0"})
        path = tmp_path / "c.tsv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.records == corpus.records
        assert loaded.langs == ("de", "en")
        assert loaded.meta == {"temps": "0.0,1.0"}

    def test_empty_corpus_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        save_corpus(Corpus(()), path)
        assert path.read_bytes() == b""
        assert load_corpus(path) == Corpus(())

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("no tab here\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_bad_langs_header_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("#langs=de\na\tb\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_tab_in_field_not_writable(self, tmp_path):
        with pytest.raises(ValueError):
            save_corpus(Corpus((("a\tb", "c"),)), tmp_path / "c.tsv")

    def test_empty_fields_allowed(self, tmp_path):
        path = tmp_path / "c.tsv"
        save_corpus(Corpus((("", "x"), ("y", ""))), path)
        assert load_corpus(path).records == (("", "x"), ("y", ""))

    @pytest.mark.parametrize("corpus", [
        Corpus((("#x=1", "y"),)),
        Corpus((("#note", "y"), ("#later", "z"))),
        Corpus((("#x", "y"),), langs=("de", "en")),
        Corpus((("a", "b"),), meta={"k=v": "1"}),
        Corpus((), meta={"langs": "de,en"}),
        Corpus((("a", "b"),), langs=("d,e", "en")),
        Corpus((("a", "b"),), langs=("", "en")),
        Corpus((("a", "b"),), langs=("de", "e\nn")),
    ])
    def test_a_corpus_that_would_not_read_back_equal_is_refused(self, tmp_path, corpus):
        path = tmp_path / "c.tsv"
        with pytest.raises(ValueError):
            save_corpus(corpus, path)
        assert not path.exists()

    def test_a_later_prompt_may_start_with_a_hash(self, tmp_path):
        corpus = Corpus((("a", "b"), ("#x=1", "y")), meta={"k": "v=1"})
        path = tmp_path / "c.tsv"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @settings(max_examples=300)
    @given(records=st.lists(st.tuples(corpus_text, corpus_text), max_size=4),
           langs=st.none() | st.tuples(corpus_text, corpus_text),
           meta=st.dictionaries(st.just("langs") | corpus_text, corpus_text, max_size=3))
    def test_round_trips_exactly_or_is_refused(self, records, langs, meta):
        corpus = Corpus(tuple(records), langs, meta)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.tsv"
            path.write_bytes(b"kept")
            try:
                save_corpus(corpus, path)
            except ValueError:
                assert path.read_bytes() == b"kept"
            else:
                assert load_corpus(path) == corpus


# A saved corpus file with a language pair, a meta line and three records.
CORPUS_FUZZ_BASE = b"#langs=de,en\n#temps=0.0,1.0\nHallo\thello\n\ta b\nja\tyes\n"
# Bytes a fuzzed corpus file gains: those that end a line, a field, a header,
# a key or a language tag, an invalid UTF-8 byte, an encoded lone surrogate, a
# byte order mark, a header prefix and nothing.
CORPUS_FUZZ_BYTES = [b"#", b"=", b",", b"\t", b"\n", b"\r", b"\xff", b"\xed\xa0\x80",
                     "\ufeff".encode("utf-8"), b"\t\n", b"#langs=", b""]


class TestCorpusLoaderFuzz:
    """Mutated corpus files train, or fail with exit 4 or 6; never with an
    internal error or a traceback."""

    @settings(max_examples=200)
    @given(edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                                    st.sampled_from(CORPUS_FUZZ_BYTES)),
                          min_size=1, max_size=4),
           flags=st.sampled_from([[], ["--skip-empty"], ["--task-prompts"]]))
    def test_mutated_files_exit_0_4_or_6(self, edits, flags):
        data = bytearray(CORPUS_FUZZ_BASE)
        for at, cut, insert in edits:
            at %= len(data) + 1
            data[at:at + cut] = insert
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "c.tsv", Path(tmp) / "o.model"
            corpus.write_bytes(bytes(data))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["train", "pretrain", "--corpus", str(corpus),
                                 "--out", str(out), *flags])
            assert code in (0, 4, 6), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()


class TestCorpusUtilities:
    def test_token_count(self):
        assert Corpus((("ab", "cde"), ("", "f"))).token_count() == 6

    def test_truncate_exact_budget_cuts_completion(self):
        corpus = Corpus((("ab", "cde"), ("fg", "hij")))
        out = truncate_corpus(corpus, 8)
        assert out.records == (("ab", "cde"), ("fg", "h"))
        assert out.token_count() == 8

    def test_truncate_drops_record_when_cut_lands_in_prompt(self):
        corpus = Corpus((("ab", "cde"), ("fghi", "jk")))
        out = truncate_corpus(corpus, 7)
        assert out.records == (("ab", "cde"),)

    def test_truncate_budget_larger_than_corpus(self):
        corpus = Corpus((("a", "b"),))
        assert truncate_corpus(corpus, 100).records == corpus.records

    def test_truncate_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            truncate_corpus(Corpus((("a", "b"),)), 0)

    def test_without_empty_completions(self):
        corpus = Corpus((("a", ""), ("b", "c")))
        assert corpus.without_empty_completions().records == (("b", "c"),)
