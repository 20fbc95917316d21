import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specdesk import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    Distribution,
    FormatError,
    SamplerConfig,
    Vocabulary,
    apply_temperature,
    argmax,
    build_vocab,
    decode_tokens,
    derive_seed,
    encode,
    load_vocab,
    make_rng,
    sample,
    save_vocab,
)
from specdesk import core
from specdesk.core import (_TEMPERATURES_KEPT, _UNIFORM_BLOCK, ACCEPT_STREAM, DRAFT_STREAM,
                           GENERATE_STREAM, RESERVED_TOKENS, _one_hot, _Uniforms, encode_array,
                           read_lines, read_sections, write_lines)

import synth


class FixedUniforms:
    """Stand-in rng feeding a scripted sequence of uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestVocabulary:
    def test_build_first_appearance_order(self):
        v = build_vocab("ab")
        assert v.tokens == RESERVED_TOKENS + ("a", "b")
        assert v.size == 5

    def test_build_order_follows_appearance(self):
        v = build_vocab("ba")
        assert v.tokens == RESERVED_TOKENS + ("b", "a")

    def test_build_one_id_per_scalar_value(self):
        # 3 reserved + 'a' + U+00E5 + U+65E5, each a single scalar value
        text = "aå日"
        v = build_vocab(text)
        assert v.size == 6
        assert [v.lookup(ch) for ch in text] == [3, 4, 5]

    def test_empty_corpus_gives_reserved_only(self):
        v = build_vocab("")
        assert v.tokens == RESERVED_TOKENS

    def test_build_accepts_chunk_stream(self):
        assert build_vocab(iter(["ab", "bc"])).tokens == RESERVED_TOKENS + ("a", "b", "c")

    def test_lookup_token_at_identity(self):
        v = build_vocab("xyz")
        for i in range(v.size):
            assert v.lookup(v.tokens[i]) == i

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(RESERVED_TOKENS + ("a", "a"))

    def test_token_that_is_not_one_character_rejected(self):
        # Checked before duplicates, as when a vocabulary file is read.
        for tokens in (("ab", "c"), ("a", ""), ("a", "a", "bc"), ("<bos>x",)):
            with pytest.raises(ValueError, match="is not one character"):
                Vocabulary(RESERVED_TOKENS + tokens)

    def test_missing_reserved_header_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b", "c"))

    def test_reserved_text_does_not_collide(self):
        # literal "<bos>" in a corpus contributes its characters, not a token
        v = build_vocab("<bos>")
        assert v.size == 3 + len(set("<bos>"))

    def test_file_round_trip(self, tmp_path):
        v = build_vocab("abå日 ")
        path = tmp_path / "v.vocab"
        save_vocab(v, path)
        assert load_vocab(path) == v

    def test_file_round_trip_structural_chars(self, tmp_path):
        v = build_vocab("a\nb\r\\")
        path = tmp_path / "v.vocab"
        save_vocab(v, path)
        loaded = load_vocab(path)
        assert loaded == v
        assert "\n" in loaded.tokens and "\r" in loaded.tokens and "\\" in loaded.tokens

    def test_file_line_number_minus_one_is_id(self, tmp_path):
        v = build_vocab("abc")
        path = tmp_path / "v.vocab"
        save_vocab(v, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[:3] == list(RESERVED_TOKENS)
        assert lines[3] == "a" and lines[4] == "b" and lines[5] == "c"

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.vocab"
        path.write_text("<bos>\n<unk>\n<eos>\na\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocab(path)

    def test_load_rejects_tokens_that_are_not_one_character(self, tmp_path):
        # "\\n\\n" unescapes to two newlines
        path = tmp_path / "bad.vocab"
        for bad in ("ab", "", "\\n\\n"):
            path.write_text(f"<bos>\n<eos>\n<unk>\na\n{bad}\n", encoding="utf-8")
            with pytest.raises(FormatError, match="not one character"):
                load_vocab(path)


class TestEncodeDecode:
    def test_encode_empty(self):
        assert encode("", build_vocab("ab")) == []

    def test_encode_direct_lookup(self):
        assert encode("ab", build_vocab("ab")) == [3, 4]

    def test_encode_unknown_maps_to_unk(self):
        assert encode("ac", build_vocab("ab")) == [3, UNK_ID]

    def test_decode_inverse(self):
        v = build_vocab("ab")
        assert decode_tokens([3, 4], v) == "ab"

    def test_decode_empty(self):
        assert decode_tokens([], build_vocab("ab")) == ""

    def test_decode_elides_reserved(self):
        v = build_vocab("ab")
        assert decode_tokens([BOS_ID, 3, EOS_ID], v) == "a"

    def test_decode_out_of_range_is_corruption(self):
        with pytest.raises(ValueError):
            decode_tokens([99], build_vocab("ab"))

    @given(st.text(alphabet="abcxyz éж", max_size=60))
    def test_round_trip_reserved_free_text(self, text):
        v = build_vocab("abcxyz éж")
        assert decode_tokens(encode(text, v), v) == text

    # Lone surrogates, non-BMP characters up to the last code point,
    # reserved-token text and characters outside the vocabulary. A vocabulary
    # that holds U+10FFFF has a table of every code point; the others clip it.
    BULK_ALPHABET = ["a", "b", "<", "o", "s", ">", "ж", chr(0x1F600), chr(0xD83D),
                     chr(0xDE00), chr(0xDFFF), "z", "\n", chr(0x10FFFF)]

    @given(st.text(alphabet=st.sampled_from(BULK_ALPHABET), max_size=60),
           st.sampled_from(["", "ab<", "ab" + chr(0x1F600) + chr(0xD83D),
                            "bos>ж\n" + chr(0x10FFFF)]))
    def test_encode_array_equals_encode(self, text, known):
        v = build_vocab(known)
        ids = encode_array(text, v)
        assert ids.dtype == np.uint32
        assert ids.tolist() == encode(text, v)


def reference_encode(text, vocab):
    """encode's definition: each character's id, or <unk> outside the vocabulary."""
    return [vocab.id_or_unk(ch) for ch in text]


def reference_decode(ids, vocab):
    """decode_tokens' definition: each id's token, reserved ids as ''; the first
    id outside [0, |V|) raises, naming it."""
    out = []
    for token_id in ids:
        if not 0 <= token_id < vocab.size:
            raise ValueError(f"corrupted sequence: token id {token_id} out of range")
        out.append("" if token_id <= UNK_ID else vocab.tokens[token_id])
    return "".join(out)


# Characters in and out of the vocabularies below: reserved-token text,
# surrogates, a non-BMP character and a newline.
CODEC_CHARS = ["a", "b", "<", "u", "n", "k", ">", "ж", chr(0x1F600), chr(0xD83D), "\n", "z", "é"]


class TestEncodeDecodeDefinitions:
    """encode maps through the vocabulary's index in bulk and decode_tokens
    reads |V| once; each must equal its per-character definition."""

    @given(st.text(alphabet=st.sampled_from(CODEC_CHARS), max_size=80),
           st.sampled_from(["", "ab", "<unk>", "aж" + chr(0x1F600), "zé\n"]))
    def test_encode_equals_its_definition(self, text, known):
        vocab = build_vocab(known)
        got = encode(text, vocab)
        assert got == reference_encode(text, vocab)
        assert all(type(i) is int for i in got)

    @given(st.sampled_from(["", "ab", "aж" + chr(0x1F600), "zé\n<"]), st.data())
    def test_decode_equals_its_definition(self, known, data):
        vocab = build_vocab(known)
        # Reserved ids, every token id, and ids just outside either end.
        ids = data.draw(st.lists(st.integers(-2, vocab.size + 1), max_size=40))
        try:
            want = reference_decode(ids, vocab)
        except ValueError as exc:
            bad = next(i for i in ids if not 0 <= i < vocab.size)
            with pytest.raises(ValueError, match=f"token id {bad} out of range") as got:
                decode_tokens(iter(ids), vocab)
            assert str(got.value) == str(exc)
        else:
            assert decode_tokens(iter(ids), vocab) == decode_tokens(ids, vocab) == want

    @pytest.mark.parametrize("bad", [-1, 6, 10 ** 20, np.int64(-3), np.uint32(99)])
    def test_an_id_out_of_range_is_named(self, bad):
        vocab = build_vocab("abc")
        with pytest.raises(ValueError, match=f"token id {bad} out of range"):
            decode_tokens([3, BOS_ID, bad, 4], vocab)

    def test_numpy_ids_decode_as_ints(self):
        vocab = build_vocab("abc")
        ids = [BOS_ID, 3, UNK_ID, 5, EOS_ID]
        assert decode_tokens(np.array(ids), vocab) == decode_tokens(ids, vocab) == "ac"


def reference_build_vocab(corpus):
    """build_vocab's definition: the reserved tokens, then each character of
    the text the first time it appears."""
    seen = {}
    for chunk in (corpus,) if isinstance(corpus, str) else corpus:
        for ch in chunk:
            if ch not in seen:
                seen[ch] = None
    return Vocabulary(RESERVED_TOKENS + tuple(seen))


# Latin, Cyrillic, han, supplementary-plane characters up to the last code
# point, lone surrogates next to each other and a newline.
VOCAB_CHARS = ["a", "b", "z", "é", "ж", "я", "日", "本", chr(0x20000), chr(0x1F600),
               chr(0xD83D), chr(0xDE00), chr(0xDFFF), chr(0x10FFFF), "\n"]
VOCAB_TEXT = st.text(alphabet=st.sampled_from(VOCAB_CHARS), max_size=40)
# A string or a list of chunks, empty ones among them.
VOCAB_CORPORA = st.one_of(VOCAB_TEXT, st.lists(VOCAB_TEXT, max_size=8))


def _cold_size_chunks():
    """About 357,000 characters of German, Russian and English records, the
    size of the benchmark's cold-desk corpus, as prompt and completion chunks."""
    records = (synth.make_bitext(("de", "en"), 2600, seed=1).records
               + synth.make_bitext(("ru", "en"), 2600, seed=2).records
               + synth.general_corpus(1600, seed=3).records)
    return [text for record in records for text in record]


class TestBuildVocabDefinition:
    """build_vocab reads code points a group at a time in bulk; its tokens
    must equal the per-character definition however the text is split."""

    # An iterator over a string yields one-character chunks.
    @given(VOCAB_CORPORA, st.booleans())
    def test_equals_its_definition(self, corpus, as_iterator):
        got = build_vocab(iter(corpus) if as_iterator else corpus)
        assert got.tokens == reference_build_vocab(corpus).tokens

    @given(VOCAB_CORPORA, st.sampled_from([1, 2, 3, 7]))
    def test_small_groups_equal_its_definition(self, corpus, chunk_chars):
        text = "".join(corpus)
        with mock.patch.object(core, "_CHUNK_CHARS", chunk_chars):
            groups = list(core._text_groups(corpus))
            got = build_vocab(iter(corpus))
        assert "".join(groups) == text
        assert all(len(g) == chunk_chars for g in groups[:-1])
        assert 0 < len(groups[-1]) <= chunk_chars if groups else text == ""
        assert got.tokens == reference_build_vocab(corpus).tokens

    def test_first_appearances_in_later_groups_and_a_chunk_over_several(self):
        chunks = ["ab", "", "ba" * 5 + "жa日", chr(0x10FFFF) + "b", "", "я" + chr(0xD800)]
        with mock.patch.object(core, "_CHUNK_CHARS", 3):
            assert [len(g) for g in core._text_groups(chunks)] == [3] * 6 + [1]
            got = build_vocab(iter(chunks))
        assert got.tokens == RESERVED_TOKENS + ("a", "b", "ж", "日", chr(0x10FFFF), "я",
                                                chr(0xD800))

    def test_peak_memory_stays_that_of_one_group(self):
        chunks = _cold_size_chunks()
        assert 340_000 < sum(map(len, chunks)) < 380_000
        one_group, size = [], 0
        for chunk in chunks:
            if size + len(chunk) > core._CHUNK_CHARS:
                break
            one_group.append(chunk)
            size += len(chunk)
        text = "".join(chunks)
        one_str = (text * (1_000_000 // len(text) + 1))[:1_000_000]
        want = reference_build_vocab(chunks).tokens

        def peak(corpus):
            tracemalloc.start()
            try:
                tokens = build_vocab(corpus).tokens
                return tracemalloc.get_traced_memory()[1], tokens
            finally:
                tracemalloc.stop()

        group_peak, _ = peak(iter(one_group))
        for corpus in (iter(chunks), iter(chunks * 10), one_str):
            got_peak, tokens = peak(corpus)
            assert tokens == want
            assert got_peak <= 1.2 * group_peak, (got_peak, group_peak)


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.0, 0.0]))

    def test_rejects_nan_and_inf(self):
        for probs in ([np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]):
            with pytest.raises(ValueError):
                Distribution(np.array(probs))

    def test_probs_read_only(self):
        d = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_tolerates_float_noise(self):
        Distribution(np.array([1 / 3, 1 / 3, 1 / 3]))


class TestApplyTemperature:
    def test_identity_at_one(self):
        d = Distribution(np.array([0.8, 0.2]))
        out = apply_temperature(d, 1.0)
        assert np.array_equal(out.probs, d.probs)

    def test_zero_gives_argmax_one_hot(self):
        out = apply_temperature(Distribution(np.array([0.8, 0.2])), 0.0)
        assert np.array_equal(out.probs, np.array([1.0, 0.0]))

    def test_zero_breaks_ties_toward_lowest_id(self):
        out = apply_temperature(Distribution(np.array([0.25, 0.25, 0.5, 0.0])), 0.0)
        assert argmax(out) == 2
        out = apply_temperature(Distribution(np.array([0.5, 0.5])), 0.0)
        assert np.array_equal(out.probs, np.array([1.0, 0.0]))

    def test_power_renormalize_hand_case(self):
        # 1/T = 2: (0.8, 0.2) -> (0.64, 0.04) / 0.68
        out = apply_temperature(Distribution(np.array([0.8, 0.2])), 0.5)
        expected = np.array([0.64 / 0.68, 0.04 / 0.68])
        assert np.max(np.abs(out.probs - expected)) < 1e-12

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            apply_temperature(Distribution(np.array([1.0])), -0.1)

    def test_non_finite_temperature_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                apply_temperature(Distribution(np.array([0.8, 0.2])), t)

    def test_extreme_temperature_stays_finite(self):
        d = Distribution(np.array([0.9, 0.1 - 1e-12, 1e-12]))
        out = apply_temperature(d, 0.01)
        assert abs(out.probs.sum() - 1.0) < 1e-9

    def test_tiny_temperature_gives_the_limit_without_warnings(self):
        # At 1e-320 every log-probability over T overflows to -inf, so the
        # result is the T -> 0+ limit: argmax ties share the mass equally.
        ties = Distribution(np.array([0.4, 0.1, 0.4, 0.1]))
        single = Distribution(np.array([0.9, 0.1 - 1e-12, 1e-12]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(apply_temperature(ties, 1e-320).probs, [0.5, 0.0, 0.5, 0.0])
            assert np.array_equal(apply_temperature(single, 1e-320).probs, [1.0, 0.0, 0.0])
            # At 1e-308 only the 1e-12 entry overflows; the value is unchanged.
            assert np.array_equal(apply_temperature(single, 1e-308).probs, [1.0, 0.0, 0.0])

    def test_preserves_argmax_for_positive_t(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            if np.sum(p == p.max()) != 1:
                continue
            d = Distribution(p)
            for t in (0.3, 0.7, 1.0, 2.5):
                assert argmax(apply_temperature(d, t)) == argmax(d)

    def test_zero_matches_argmax_for_random_distributions(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            d = Distribution(rng.dirichlet(np.ones(n)))
            hot = apply_temperature(d, 0.0)
            assert hot.p(argmax(d)) == 1.0


def reference_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """The temperature transform computed from scratch, with no memo."""
    if temperature == 0.0:
        out = np.zeros_like(probs)
        out[int(np.argmax(probs))] = 1.0
        return out
    with np.errstate(divide="ignore"):
        scaled = np.log(probs) / temperature
    scaled -= scaled.max()
    w = np.exp(scaled)
    return w / w.sum()


class TestTemperatureMemo:
    def test_repeat_call_returns_same_object_equal_to_fresh_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 60))))
            probs[rng.integers(len(probs))] = 0.0
            probs /= probs.sum()
            d = Distribution(probs)
            for t in (0.0, 0.3, 0.7, 2.5):
                first = apply_temperature(d, t)
                assert apply_temperature(d, t) is first
                assert np.array_equal(first.probs, reference_temperature(probs, t))
                uncached = apply_temperature(Distribution(probs), t)
                assert np.array_equal(first.probs, uncached.probs)
            assert apply_temperature(d, 1.0) is d

    def test_one_hots_are_shared_per_size_and_argmax(self):
        a = apply_temperature(Distribution(np.array([0.2, 0.7, 0.1])), 0.0)
        b = apply_temperature(Distribution(np.array([0.3, 0.4, 0.3])), 0.0)
        assert a is b
        assert argmax(a) == 1 and a.p(1) == 1.0

    def test_one_hot_is_built_knowing_its_argmax(self):
        for size, index in ((1, 0), (3, 2), (70, 41)):
            fresh = _one_hot.__wrapped__(size, index)  # no argmax call has seen it
            assert fresh._argmax == index
            assert argmax(fresh) == index == int(np.argmax(fresh.probs))

    def test_memo_keeps_at_most_the_bound_of_temperatures(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        d = Distribution(probs)
        for i in range(300):
            t = 0.5 + i / 1000
            out = apply_temperature(d, t)
            assert np.array_equal(out.probs, reference_temperature(probs, t))
            assert 1 <= len(d._tempered) <= _TEMPERATURES_KEPT
            assert apply_temperature(d, t) is out
        # An evicted temperature is transformed again, to the same values.
        again = apply_temperature(d, 0.5)
        assert np.array_equal(again.probs, reference_temperature(probs, 0.5))

    def test_two_threads_filling_one_memo_at_once_never_raise(self):
        d = Distribution(np.array([0.5, 0.3, 0.2]))
        errors = []

        def fill(offset):
            try:
                for i in range(3000):
                    apply_temperature(d, 0.5 + (2 * i + offset) / 10_000)
            except Exception as exc:  # collected, so the test thread sees it
                errors.append(exc)

        threads = [threading.Thread(target=fill, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Each thread may store one temperature past the other's check.
        assert len(d._tempered) <= _TEMPERATURES_KEPT + 1

    def test_rejected_temperature_is_not_memoised(self):
        d = Distribution(np.array([0.8, 0.2]))
        apply_temperature(d, 0.5)
        for t in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                apply_temperature(d, t)


class TestArgmax:
    def test_picks_maximum(self):
        assert argmax(Distribution(np.array([0.1, 0.9]))) == 1

    def test_tie_breaks_toward_lowest_id(self):
        assert argmax(Distribution(np.array([0.5, 0.5]))) == 0
        assert argmax(Distribution(np.array([0.2, 0.4, 0.4]))) == 1


class TestSample:
    def test_one_hot_is_deterministic(self):
        d = Distribution(np.array([0.0, 0.0, 0.0, 1.0]))
        for seed in range(5):
            assert sample(d, make_rng(seed, DRAFT_STREAM)) == 3

    def test_inverse_cdf_boundaries(self):
        d = Distribution(np.array([0.5, 0.5]))
        assert sample(d, FixedUniforms([0.25])) == 0
        assert sample(d, FixedUniforms([0.75])) == 1
        assert sample(d, FixedUniforms([0.0])) == 0

    def test_equals_searchsorted_on_a_fresh_cumsum(self):
        def reference(probs, u):
            idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
            return idx if idx < len(probs) else int(np.flatnonzero(probs > 0)[-1])

        rng = np.random.default_rng(17)
        vectors = [rng.dirichlet(np.ones(n)) for n in (2, 5, 58) for _ in range(20)]
        vectors.append(np.array([0.5, 0.25, 0.25, 0.0]))
        # Ten tenths accumulate to 0.9999999999999999, so a uniform at or
        # above cdf[-1] runs past the end and must land on the last positive id.
        tenths = np.append(np.full(10, 0.1), 0.0)
        assert np.cumsum(tenths)[-1] < 1.0
        vectors.append(tenths)
        for probs in vectors:
            d = Distribution(probs)
            cdf = np.cumsum(probs)
            us = [float(u) for u in rng.random(40)] + [0.0, float(cdf[-1]),
                  float(np.nextafter(1.0, 0.0))] + [float(c) for c in cdf[:-1]]
            for u in us:
                assert sample(d, FixedUniforms([u])) == reference(probs, u)
        d = Distribution(tenths)
        assert sample(d, FixedUniforms([float(np.cumsum(tenths)[-1])])) == 9

    def test_never_returns_zero_probability_id(self):
        d = Distribution(np.array([0.5, 0.0, 0.5]))
        rng = make_rng(3, DRAFT_STREAM)
        assert all(sample(d, rng) != 1 for _ in range(1000))

    def test_empirical_frequency_within_binomial_band(self):
        # 3-sigma band around 0.9 at N=1e5 is within [0.897, 0.903]
        d = Distribution(np.array([0.9, 0.1]))
        rng = make_rng(12345, ACCEPT_STREAM)
        n = 100_000
        hits = sum(sample(d, rng) == 0 for _ in range(n))
        assert 0.897 <= hits / n <= 0.903

    def test_total_variation_distance_small(self):
        probs = np.array([0.3, 0.05, 0.2, 0.05, 0.1, 0.15, 0.05, 0.1])
        d = Distribution(probs)
        rng = make_rng(99, DRAFT_STREAM)
        n = 100_000
        counts = np.zeros(len(probs))
        for _ in range(n):
            counts[sample(d, rng)] += 1
        tv = 0.5 * np.abs(counts / n - probs).sum()
        assert tv <= 0.01


class TestRngContract:
    def test_same_stream_reproduces(self):
        a = make_rng(42, DRAFT_STREAM)
        b = make_rng(42, DRAFT_STREAM)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_distinct(self):
        a = make_rng(42, DRAFT_STREAM)
        b = make_rng(42, ACCEPT_STREAM)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_derive_seed_stable_and_path_sensitive(self):
        assert derive_seed(1, 3, 0, 0) == derive_seed(1, 3, 0, 0)
        assert derive_seed(1, 3, 0, 0) != derive_seed(1, 3, 0, 1)
        assert derive_seed(1, 3) != derive_seed(2, 3)

    def test_negative_seed_accepted(self):
        make_rng(-5, DRAFT_STREAM).random()
        assert derive_seed(-5, 0) == derive_seed(-5, 0)


class TestBlockUniforms:
    def test_equal_single_draws_across_refills(self):
        n = 3 * _UNIFORM_BLOCK + 5
        for seed in (0, 1, 7, -3, 2**63):
            for stream in (DRAFT_STREAM, ACCEPT_STREAM, GENERATE_STREAM):
                single = make_rng(seed, stream)
                buffered = _Uniforms(make_rng(seed, stream))
                for _ in range(n):
                    u = buffered.random()
                    assert type(u) is float
                    assert u == single.random()

    def test_drives_sample_as_the_generator_does(self):
        d = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
        single = make_rng(5, DRAFT_STREAM)
        buffered = _Uniforms(make_rng(5, DRAFT_STREAM))
        n = 2 * _UNIFORM_BLOCK + 1
        assert [sample(d, buffered) for _ in range(n)] == [sample(d, single) for _ in range(n)]


class TestSamplerConfig:
    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            SamplerConfig(temperature=-1.0)

    def test_rejects_non_finite_temperature(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SamplerConfig(temperature=t)

    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.temperature == 1.0 and cfg.seed == 0


class TestLineFiles:
    def test_round_trip_keeps_carriage_returns(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, ["a", "b\r", "", "c"])
        assert path.read_bytes() == b"a\nb\r\n\nc\n"
        assert read_lines(path) == ["a", "b\r", "", "c"]

    def test_no_lines_is_an_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, [])
        assert path.read_bytes() == b""
        assert read_lines(path) == []

    def test_missing_final_newline(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\nb")
        assert read_lines(path) == ["a", "b"]


class TestReadSections:
    def test_sections_and_keys_keep_file_order(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\ntop = 1\n\n[b]\nz = 2\ny = x = 3\n[a]\nq=\n",
                        encoding="utf-8")
        sections = read_sections(path)
        assert list(sections) == [None, "b", "a"]
        assert list(sections["b"].items()) == [("z", "2"), ("y", "x = 3")]
        assert sections[None] == {"top": "1"} and sections["a"] == {"q": ""}

    def test_repeated_key_in_one_section_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[a]\nk = 1\n[b]\nk = 1\n[a]\nk = 2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_sections(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[a]\njust words\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_sections(path)
