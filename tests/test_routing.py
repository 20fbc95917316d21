import re

import pytest
from hypothesis import given, settings, strategies as st

from specdesk import (
    DrafterRegistry,
    FormatError,
    detect_source_language,
    load_registry,
    select_drafter,
)
from specdesk.routing import LATIN_LANGUAGES


def registry(tags=("de-en", "fr-en", "ru-en"), default=None, hints=None):
    return DrafterRegistry({t: f"/tmp/{t}.model" for t in tags}, default, hints or {})


# The detector as it was before the script and language tables: per-character
# range tests and hand-written de/fr/en rules. The table-driven one must
# decide every input as this one does.
_REF_DE_MARKERS = set("äöüßÄÖÜ")
_REF_FR_MARKERS = set("éèçàÉÈÇÀ")
_REF_DE_WORDS = frozenset("der die das und ist nicht ein eine ich mit von auf für wird".split())
_REF_FR_WORDS = frozenset("le la les des une est et dans que pour je vous bonjour avec".split())
_REF_EN_WORDS = frozenset("the a an and is are of to in it this that with for".split())


def _ref_is_latin(ch):
    o = ord(ch)
    return (0x41 <= o <= 0x5A or 0x61 <= o <= 0x7A
            or 0xC0 <= o <= 0x24F and o not in (0xD7, 0xF7))


def _ref_is_cyrillic(ch):
    return 0x0400 <= ord(ch) <= 0x052F


def _ref_is_kana(ch):
    o = ord(ch)
    return 0x3040 <= o <= 0x30FF or 0x31F0 <= o <= 0x31FF


def _ref_is_han(ch):
    o = ord(ch)
    return 0x4E00 <= o <= 0x9FFF or 0x3400 <= o <= 0x4DBF


def reference_detect(text, marker_hints=None):
    hints = marker_hints or {}
    latin = cyrillic = kana = han = 0
    for ch in text:
        if _ref_is_latin(ch):
            latin += 1
        elif _ref_is_cyrillic(ch):
            cyrillic += 1
        elif _ref_is_kana(ch):
            kana += 1
        elif _ref_is_han(ch):
            han += 1
    cjk = kana + han
    if latin == cyrillic == cjk == 0:
        return None
    top = max(latin, cyrillic, cjk)
    if cjk == top:
        return "ja" if kana > 0 else "zh"
    if cyrillic == top:
        return "ru"
    de_markers = _REF_DE_MARKERS | set(hints.get("de", ""))
    fr_markers = _REF_FR_MARKERS | set(hints.get("fr", ""))
    de_score = sum(1 for ch in text if ch in de_markers)
    fr_score = sum(1 for ch in text if ch in fr_markers)
    if de_score or fr_score:
        return "de" if de_score >= fr_score else "fr"
    words = {w.strip(".,;:!?\"'()") for w in text.lower().split()}
    votes = {"de": len(words & _REF_DE_WORDS), "fr": len(words & _REF_FR_WORDS),
             "en": len(words & _REF_EN_WORDS)}
    best = max(votes.values())
    if best > 0:
        for lang in ("de", "fr", "en"):
            if votes[lang] == best:
                return lang
    return "en"


# The ends of each script range the reference tests, and the two code points
# inside a Latin range that it excludes.
RANGE_ENDS = (0x41, 0x5A, 0x61, 0x7A, 0xC0, 0xD7, 0xF7, 0x24F, 0x400, 0x52F, 0x3040, 0x30FF,
              0x31F0, 0x31FF, 0x3400, 0x4DBF, 0x4E00, 0x9FFF)

# Pieces of mixed text: each range end and its neighbours, markers, letters of
# every counted script, function words and punctuation the word rule strips.
MIX_CHARS = [chr(o + d) for o in RANGE_ENDS for d in (-1, 0, 1)]
MIX_CHARS += ["a", "ß", "ä", "Ü", "é", "Ç", "à", "ô", "ẞ", "ж", "Я", "ぁ", "カ", "日", " ", "  ",
              ".", "!", "\"", "(", "1"]
MIX_WORDS = [f" {w} " for _, words in LATIN_LANGUAGES.values() for w in sorted(words)]
MIX_WORDS += [" Der ", " LE ", " the. ", " (und) ", " Привет ", "мир", "こんにちは", "世界"]
mixes = st.lists(st.sampled_from(MIX_CHARS) | st.sampled_from(MIX_WORDS),
                 max_size=14).map("".join)
hint_sets = st.none() | st.dictionaries(st.sampled_from(["de", "fr"]),
                                        st.text(alphabet="äéôaжẞ日 ", max_size=3))


class TestDetection:
    def test_german_marker_characters(self):
        assert detect_source_language("Größe der Straße") == "de"

    def test_french_marker_characters(self):
        assert detect_source_language("déjà très éloigné") == "fr"

    def test_cyrillic_script(self):
        assert detect_source_language("Привет мир") == "ru"

    def test_kana_means_japanese(self):
        assert detect_source_language("こんにちは世界") == "ja"

    def test_kanji_with_kana_is_japanese(self):
        assert detect_source_language("日本語を勉強します") == "ja"

    def test_han_without_kana_is_chinese(self):
        assert detect_source_language("你好世界") == "zh"

    def test_french_function_words(self):
        assert detect_source_language("Bonjour le monde") == "fr"

    def test_german_function_words(self):
        assert detect_source_language("und das ist ein haus") == "de"

    def test_plain_english_defaults_to_en(self):
        assert detect_source_language("hello world") == "en"
        assert detect_source_language("the quick brown fox") == "en"

    def test_no_rule_fires_on_symbols(self):
        assert detect_source_language("12345 !!!") is None
        assert detect_source_language("") is None

    def test_marker_hints_extend_rules(self):
        assert detect_source_language("côté", {"fr": "ôê"}) == "fr"


class TestReferenceDetector:
    def test_every_code_point_alone(self):
        for o in [*range(0x10000), 0x10000, 0x1F600, 0x10FFFF]:
            assert detect_source_language(chr(o)) == reference_detect(chr(o)), hex(o)

    @settings(max_examples=600)
    @given(mixes, hint_sets)
    def test_mixed_text(self, text, hints):
        assert detect_source_language(text, hints) == reference_detect(text, hints)


# The detector as it was before it counted scripts in one pass: one regex per
# script, each finding every match, and each language's markers joined with
# its hints on every call.
_FOUR_SCRIPTS = {
    "latin": re.compile(r"[A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u024F]"),
    "cyrillic": re.compile(r"[\u0400-\u052F]"),
    "kana": re.compile(r"[\u3040-\u30FF\u31F0-\u31FF]"),
    "han": re.compile(r"[\u3400-\u4DBF\u4E00-\u9FFF]"),
}


def four_regex_detect(text, marker_hints=None):
    hints = marker_hints or {}
    counts = {script: len(chars.findall(text)) for script, chars in _FOUR_SCRIPTS.items()}
    latin, cyrillic, cjk = counts["latin"], counts["cyrillic"], counts["kana"] + counts["han"]
    if latin == cyrillic == cjk == 0:
        return None
    top = max(latin, cyrillic, cjk)
    if cjk == top:
        return "ja" if counts["kana"] > 0 else "zh"
    if cyrillic == top:
        return "ru"
    scores = {lang: sum(map(text.count, markers.union(hints.get(lang, ""))))
              for lang, (markers, _) in LATIN_LANGUAGES.items()}
    best = max(scores, key=scores.get)
    if scores[best]:
        return best
    words = {w.strip(".,;:!?\"'()") for w in text.lower().split()}
    votes = {lang: len(words & function_words)
             for lang, (_, function_words) in LATIN_LANGUAGES.items()}
    best = max(votes, key=votes.get)
    return best if votes[best] else "en"


# Runs of one script's characters, or of none: Latin (markers included),
# Cyrillic, kana, han, other letters and symbols, and the separators words
# split on.
SCRIPT_RUN_CHARS = [
    st.characters(min_codepoint=0x41, max_codepoint=0x24F),
    st.characters(min_codepoint=0x3FF, max_codepoint=0x530),
    st.characters(min_codepoint=0x303F, max_codepoint=0x3200),
    st.characters(min_codepoint=0x33FF, max_codepoint=0x4DC0)
    | st.characters(min_codepoint=0x4DFF, max_codepoint=0xA000),
    st.characters(codec="utf-8"),
    st.sampled_from(" \t\n.,!?()\"'"),
]
script_mixes = st.lists(st.one_of(*(st.text(chars, max_size=6) for chars in SCRIPT_RUN_CHARS))
                        | st.sampled_from(MIX_WORDS), max_size=12).map("".join)


class TestScriptRuns:
    """detect_source_language counts the four scripts in one pass over the
    text; it must decide every text as the four-regex version does."""

    @settings(max_examples=400)
    @given(script_mixes, hint_sets)
    def test_mixed_scripts_equal_the_four_regex_version(self, text, hints):
        assert detect_source_language(text, hints) == four_regex_detect(text, hints)
        assert detect_source_language(text) == four_regex_detect(text)

    def test_long_runs_and_every_script_at_once(self):
        for text in ("a" * 5000 + "ж" * 4999, "ж" * 5000 + "日" * 2500 + "カ" * 2500,
                     "äb" * 300 + "é" * 301, "日本" * 100 + "a" * 200, "x.y" * 1000):
            for hints in (None, {"fr": "b"}, {"de": "y", "fr": "x"}):
                assert detect_source_language(text, hints) == four_regex_detect(text, hints)


class TestMarkerHints:
    def test_en_hint_takes_effect(self):
        assert detect_source_language("le rôle") == "fr"
        assert detect_source_language("le rôle", {"en": "ô"}) == "en"
        reg = registry(("fr-en", "en-de"), hints={"en": "ô"})
        assert select_drafter("le rôle", reg) == "en-de"

    def test_marker_tie_goes_to_the_first_language_in_table_order(self):
        assert list(LATIN_LANGUAGES) == ["de", "fr", "en"]
        assert detect_source_language("äé") == "de"
        assert detect_source_language("éô", {"en": "ô"}) == "fr"

    @pytest.mark.parametrize("lang", ["ru", "fe", "", "DE"])
    def test_hint_for_a_language_outside_the_table_rejected(self, lang):
        with pytest.raises(ValueError, match=f"marker hint language {lang!r}"):
            registry(hints={lang: "ô"})

    @pytest.mark.parametrize("text", ["rôle", "Привет", "", "12345"])
    def test_detector_rejects_a_hint_outside_the_table(self, text):
        assert detect_source_language("rôle", {"fr": "ô"}) == "fr"
        with pytest.raises(ValueError, match="marker hint language 'fe'"):
            detect_source_language(text, {"fe": "ô"})

    def test_registry_file_hint_outside_the_table_rejected(self, tmp_path):
        (tmp_path / "fr.model").write_text("x", encoding="utf-8")
        reg_file = tmp_path / "registry.cfg"
        reg_file.write_text("hint.fe = ô\nfr-en = fr.model\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'fe'"):
            load_registry(reg_file)


class TestSelectDrafter:
    def test_routes_by_source_language(self):
        reg = registry()
        assert select_drafter("Größe der Straße", reg) == "de-en"
        assert select_drafter("Привет мир", reg) == "ru-en"
        assert select_drafter("Bonjour le monde", reg) == "fr-en"

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            select_drafter("hello", DrafterRegistry({}))

    def test_falls_back_to_default(self):
        reg = registry(("de-en", "ru-en"), default="de-en")
        assert select_drafter("hello world", reg) == "de-en"  # en not registered
        assert select_drafter("12345", reg) == "de-en"        # no rule fires

    def test_no_match_without_default_is_error(self):
        with pytest.raises(ValueError):
            select_drafter("hello world", registry(("de-en", "ru-en")))

    def test_default_must_be_an_entry(self):
        with pytest.raises(ValueError):
            DrafterRegistry({"de-en": "x"}, default_tag="fr-en")

    def test_pure_function(self):
        reg = registry()
        assert select_drafter("Привет", reg) == select_drafter("Привет", reg)


class TestRegistryFile:
    def test_load(self, tmp_path):
        (tmp_path / "de.model").write_text("x", encoding="utf-8")
        (tmp_path / "ru.model").write_text("x", encoding="utf-8")
        reg_file = tmp_path / "registry.cfg"
        reg_file.write_text(
            "# routing table\n"
            "default = de-en\n"
            "hint.de = ẞ\n"
            "de-en = de.model\n"
            "ru-en = ru.model\n",
            encoding="utf-8",
        )
        reg = load_registry(reg_file)
        assert set(reg.entries) == {"de-en", "ru-en"}
        assert reg.default_tag == "de-en"
        assert reg.marker_hints == {"de": "ẞ"}
        assert reg.entries["de-en"].endswith("de.model")

    def test_missing_model_path_rejected(self, tmp_path):
        reg_file = tmp_path / "registry.cfg"
        reg_file.write_text("de-en = nowhere.model\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError):
            load_registry(reg_file)

    def test_duplicate_tag_rejected(self, tmp_path):
        (tmp_path / "m.model").write_text("x", encoding="utf-8")
        reg_file = tmp_path / "registry.cfg"
        reg_file.write_text("de-en = m.model\nde-en = m.model\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_registry(reg_file)

    def test_malformed_line_rejected(self, tmp_path):
        reg_file = tmp_path / "registry.cfg"
        reg_file.write_text("just words\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_registry(reg_file)

    def test_repeated_reserved_key_rejected(self, tmp_path):
        (tmp_path / "m.model").write_text("x", encoding="utf-8")
        for repeated in ("default = de-en\ndefault = de-en\n", "hint.de = x\nhint.de = y\n"):
            reg_file = tmp_path / "registry.cfg"
            reg_file.write_text("de-en = m.model\n" + repeated, encoding="utf-8")
            with pytest.raises(FormatError):
                load_registry(reg_file)

    def test_section_header_rejected(self, tmp_path):
        (tmp_path / "m.model").write_text("x", encoding="utf-8")
        reg_file = tmp_path / "registry.cfg"
        reg_file.write_text("[routing]\nde-en = m.model\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_registry(reg_file)
