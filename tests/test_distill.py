import pytest

from specdesk import (
    Corpus,
    DistillJob,
    EOS_ID,
    NGramModel,
    SamplerConfig,
    build_vocab,
    decode_tokens,
    encode,
    generate,
    make_prompt,
    pretrain,
    save_corpus,
    self_distill,
    with_task_prompts,
)

import synth


class TestMakePrompt:
    def test_french_to_english(self):
        assert make_prompt(("fr", "en"), "Bonjour") == "Translate French to English: Bonjour"

    def test_empty_source(self):
        assert make_prompt(("de", "en"), "") == "Translate German to English: "

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            make_prompt(("xx", "en"), "hi")
        with pytest.raises(ValueError):
            make_prompt(("de", "yy"), "hi")

    def test_all_documented_tags_resolve(self):
        for src in ("de", "fr", "ru", "ja", "zh"):
            assert make_prompt((src, "en"), "x").endswith("to English: x")

    def test_wrapper_template(self):
        got = make_prompt(("de", "en"), "hallo", wrapper="USER: {prompt} ASSISTANT:")
        assert got == "USER: Translate German to English: hallo ASSISTANT:"

    def test_with_task_prompts(self):
        corpus = Corpus((("hallo", "hello"),), langs=("de", "en"))
        out = with_task_prompts(corpus)
        assert out.records == (("Translate German to English: hallo", "hello"),)

    def test_with_task_prompts_needs_langs(self):
        with pytest.raises(ValueError):
            with_task_prompts(Corpus((("a", "b"),)))


def _target():
    corpus = with_task_prompts(synth.make_bitext(("de", "en"), 40, seed=1))
    return pretrain(corpus, order=3, k=0.2)


def _prompts(n=10, seed=2):
    return synth.make_bitext(("de", "en"), n, seed=seed)


class TestSelfDistill:
    def test_record_count_full_schedule(self):
        corpus = self_distill(DistillJob(_target(), _prompts(10), max_len=12))
        assert len(corpus) == 40  # 10 prompts x {0.0, 0.3, 0.7, 1.0} x 1 sample

    def test_duplicate_temperatures_collapse(self):
        job = DistillJob(_target(), _prompts(6), temperatures=(0.0, 0.0), max_len=8)
        assert len(self_distill(job)) == 6

    def test_t_zero_keeps_single_sample(self):
        job = DistillJob(_target(), _prompts(5), temperatures=(0.0, 1.0),
                         samples_per_temperature=3, max_len=8)
        assert len(self_distill(job)) == 5 * (1 + 3)

    def test_greedy_records_match_generate(self):
        target = _target()
        prompts = _prompts(6)
        corpus = self_distill(DistillJob(target, prompts, temperatures=(0.0,), max_len=16))
        for (src, _), (prompt_text, completion) in zip(prompts.records, corpus.records):
            expected_prompt = make_prompt(("de", "en"), src)
            assert prompt_text == expected_prompt
            ids = generate(target, encode(expected_prompt, target.vocab),
                           SamplerConfig(0.0, 0), 16)
            assert completion == decode_tokens(ids, target.vocab)

    def test_order_is_prompt_major(self):
        corpus = self_distill(DistillJob(_target(), _prompts(3),
                                         temperatures=(0.0, 1.0), max_len=8))
        prompts_in_order = [p for p, _ in corpus.records]
        assert prompts_in_order[0] == prompts_in_order[1]
        assert prompts_in_order[2] == prompts_in_order[3]
        assert prompts_in_order[0] != prompts_in_order[2]

    def test_deterministic_byte_identical_files(self, tmp_path):
        job = DistillJob(_target(), _prompts(8), max_len=10, seed=5)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_corpus(self_distill(job), p1)
        save_corpus(self_distill(job), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_meta_headers(self):
        corpus = self_distill(DistillJob(_target(), _prompts(2), max_len=8))
        assert corpus.meta["distilled-from"] == "pretrained"
        assert corpus.meta["temps"] == "0.0,0.3,0.7,1.0"
        assert corpus.langs == ("de", "en")

    def test_skip_empty_drops_immediate_eos(self):
        vocab = build_vocab("ab")
        eos_model = NGramModel(1, 1e-9, vocab, {(): {EOS_ID: 1.0}})
        prompts = Corpus((("a", ""),), langs=("de", "en"))
        job = DistillJob(eos_model, prompts, temperatures=(0.0,), max_len=8)
        assert len(self_distill(job)) == 1  # empty completion kept by default
        assert len(self_distill(job, skip_empty=True)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DistillJob(_target(), _prompts(1), temperatures=())
        with pytest.raises(ValueError):
            DistillJob(_target(), _prompts(1), temperatures=(-1.0,))
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                DistillJob(_target(), _prompts(1), temperatures=(0.0, t))
        with pytest.raises(ValueError):
            DistillJob(_target(), _prompts(1), samples_per_temperature=0)
        with pytest.raises(ValueError):
            self_distill(DistillJob(_target(), Corpus((("a", "b"),))))  # no langs
