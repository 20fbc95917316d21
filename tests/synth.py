"""Deterministic synthetic corpora for tests.

Small language-flavored word banks with index-aligned "translations": each
source word maps to a fixed English word, so a bitext task is learnable by
character n-grams. German and Russian sources map into disjoint halves of the
English bank, which gives each language pair its own target-side vocabulary
(the desk-scale analogue of per-task domain vocabulary).
"""

import numpy as np

from specdesk import Corpus, build_vocab, pretrain

DE_WORDS = [
    "straße", "größe", "müde", "schön", "über", "grün", "weiß", "zwölf",
    "händler", "könig", "tür", "schlüssel", "bär", "vögel", "äpfel", "öl",
    "füße", "süß", "kühl", "spät", "haus", "baum", "wasser", "berg", "stadt",
    "kind", "blume", "licht", "nacht", "morgen", "wald", "fisch", "brot",
    "milch", "stein", "wolke", "regen", "schnee", "sonne", "mond",
]

RU_WORDS = [
    "дом", "вода", "гора", "город", "ребёнок", "цветок", "свет", "ночь",
    "утро", "лес", "рыба", "хлеб", "молоко", "камень", "облако", "дождь",
    "снег", "солнце", "луна", "звезда", "мир", "друг", "книга", "стол",
    "окно", "дорога", "река", "поле", "зима", "лето", "весна", "осень",
    "голос", "рука", "сердце", "слово", "время", "день", "год", "земля",
]

EN_WORDS = [
    # translations of DE_WORDS
    "street", "size", "tired", "beautiful", "over", "green", "white", "twelve",
    "merchant", "king", "door", "key", "bear", "birds", "apples", "oil",
    "feet", "sweet", "cool", "late", "house", "tree", "water", "mountain",
    "city", "child", "flower", "light", "night", "morning", "forest", "fish",
    "bread", "milk", "stone", "cloud", "rain", "snow", "sun", "moon",
    # translations of RU_WORDS
    "dwelling", "aqua", "hill", "town", "infant", "blossom", "glow", "evening",
    "dawn", "grove", "trout", "loaf", "cream", "pebble", "vapor", "shower",
    "frost", "star", "luna", "comet", "world", "friend", "book", "table",
    "window", "road", "river", "field", "winter", "summer", "spring", "autumn",
    "voice", "hand", "heart", "word", "time", "day", "year", "earth",
]

_OFFSETS = {"de": 0, "ru": 40}
_SOURCE_BANKS = {"de": DE_WORDS, "ru": RU_WORDS}


def make_bitext(pair, n_records, seed, min_words=3, max_words=7) -> Corpus:
    """Bitext corpus for ('de', 'en') or ('ru', 'en') with word-mapped targets."""
    src_bank = _SOURCE_BANKS[pair[0]]
    offset = _OFFSETS[pair[0]]
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_records):
        m = int(rng.integers(min_words, max_words + 1))
        idx = rng.integers(0, len(src_bank), size=m)
        src = " ".join(src_bank[i] for i in idx)
        tgt = " ".join(EN_WORDS[offset + i] for i in idx)
        records.append((src, tgt))
    return Corpus(tuple(records), langs=(pair[0], pair[1]))


def general_corpus(n_records, seed, min_words=4, max_words=10) -> Corpus:
    """Mixed-language monolingual text (empty prompts), a stand-in for broad
    pretraining data."""
    pool = DE_WORDS + EN_WORDS + RU_WORDS
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_records):
        m = int(rng.integers(min_words, max_words + 1))
        idx = rng.integers(0, len(pool), size=m)
        records.append(("", " ".join(pool[i] for i in idx)))
    return Corpus(tuple(records))


def babble(n_chars, seed) -> str:
    """Deterministic word-salad text of exactly n_chars characters."""
    pool = DE_WORDS + EN_WORDS + RU_WORDS
    rng = np.random.default_rng(seed)
    parts = []
    total = 0
    while total < n_chars:
        word = pool[int(rng.integers(0, len(pool)))]
        if rng.random() < 0.08:
            word += "."
        parts.append(word)
        total += len(word) + 1
    return " ".join(parts)[:n_chars]


def rounding_pair():
    """A target and a drafter over build_vocab("ab") whose add-k uniform rows
    round differently: 0.3/1.5 gives 0.19999999999999998 and 0.5/2.5 gives
    0.2. At a context neither model has seen, such as "c" (<unk>),
    q(x)/p(x) is 1 - 2**-53 for every x, the largest Philox uniform."""
    vocab, corpus = build_vocab("ab"), Corpus((("", "ab"),))
    return pretrain(corpus, 3, 0.3, vocab), pretrain(corpus, 2, 0.5, vocab)


class LargestUniform:
    """Stands in for specdec._Uniforms: every draw is 1 - 2**-53."""

    def __init__(self, rng):
        pass

    def random(self):
        return 1 - 2**-53
