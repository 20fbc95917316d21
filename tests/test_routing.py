import pytest

from specdesk import (
    DrafterRegistry,
    FormatError,
    detect_source_language,
    load_registry,
    select_drafter,
)


def registry(tags=("de-en", "fr-en", "ru-en"), default=None, hints=None):
    return DrafterRegistry({t: f"/tmp/{t}.model" for t in tags}, default, hints or {})


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
