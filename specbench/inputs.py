"""Seeded benchmark inputs: de/ru -> en word-bank bitext and general text.

Each source word maps to a fixed English word, so the translation task is
learnable by character n-grams; German and Russian map into disjoint halves of
the English bank. Every corpus is drawn from its own numpy stream of the run
seed, so the same seed gives the same inputs and adding a corpus leaves the
others unchanged.
"""

from __future__ import annotations

import numpy as np

from specdesk.lm import Corpus

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

LANGS = ("de", "ru")
_SOURCE_BANKS = {"de": DE_WORDS, "ru": RU_WORDS}
_OFFSETS = {"de": 0, "ru": len(DE_WORDS)}


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one named input of the run seed."""
    return np.random.default_rng([seed, *path])


def bitext(lang: str, n_records: int, rng: np.random.Generator,
           min_words: int = 3, max_words: int = 7) -> Corpus:
    """(lang, en) bitext whose targets translate the source word by word."""
    bank = _SOURCE_BANKS[lang]
    offset = _OFFSETS[lang]
    records = []
    for _ in range(n_records):
        idx = rng.integers(0, len(bank), size=int(rng.integers(min_words, max_words + 1)))
        records.append((" ".join(bank[i] for i in idx),
                        " ".join(EN_WORDS[offset + i] for i in idx)))
    return Corpus(tuple(records), langs=(lang, "en"))


def general(n_records: int, rng: np.random.Generator,
            min_words: int = 4, max_words: int = 10) -> Corpus:
    """Mixed-language monolingual text with empty prompts, the drafter base's
    pretraining data."""
    pool = DE_WORDS + EN_WORDS + RU_WORDS
    records = []
    for _ in range(n_records):
        idx = rng.integers(0, len(pool), size=int(rng.integers(min_words, max_words + 1)))
        records.append(("", " ".join(pool[i] for i in idx)))
    return Corpus(tuple(records))
