"""Heuristic source-language routing: pick a drafter for an incoming prompt.

Classification is a majority vote over Unicode scripts, with Latin text
disambiguated by language-specific characters (umlauts and eszett for German,
common accented letters for French) and, failing that, by a small profile of
frequent function words. Pure function of the text and registry; no model is
loaded to make the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import FormatError, read_sections

_DE_MARKERS = set("äöüßÄÖÜ")
_FR_MARKERS = set("éèçàÉÈÇÀ")

_DE_WORDS = frozenset("der die das und ist nicht ein eine ich mit von auf für wird".split())
_FR_WORDS = frozenset("le la les des une est et dans que pour je vous bonjour avec".split())
_EN_WORDS = frozenset("the a an and is are of to in it this that with for".split())


def _is_latin(ch: str) -> bool:
    o = ord(ch)
    return (0x41 <= o <= 0x5A or 0x61 <= o <= 0x7A
            or 0xC0 <= o <= 0x24F and o not in (0xD7, 0xF7))


def _is_cyrillic(ch: str) -> bool:
    return 0x0400 <= ord(ch) <= 0x052F


def _is_kana(ch: str) -> bool:
    o = ord(ch)
    return 0x3040 <= o <= 0x30FF or 0x31F0 <= o <= 0x31FF


def _is_han(ch: str) -> bool:
    o = ord(ch)
    return 0x4E00 <= o <= 0x9FFF or 0x3400 <= o <= 0x4DBF


@dataclass
class DrafterRegistry:
    """Language-pair tags mapped to drafter model paths, plus an optional
    default tag and extra per-language marker characters."""

    entries: dict
    default_tag: Optional[str] = None
    marker_hints: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.default_tag is not None and self.default_tag not in self.entries:
            raise ValueError(f"default tag {self.default_tag!r} is not a registry entry")


def load_registry(path) -> DrafterRegistry:
    """Parse the registry file: 'tag = model-path' lines plus the reserved keys
    'default' (fallback tag) and 'hint.<lang>' (extra marker characters), with
    no [section] headers. Every referenced model path must exist."""
    sections = read_sections(path)
    if any(name is not None for name in sections):
        raise FormatError(f"{path}: a registry has no [section] headers")
    entries: dict[str, str] = {}
    default_tag = None
    hints: dict[str, str] = {}
    base = Path(path).parent
    for key, value in sections.get(None, {}).items():
        if key == "default":
            default_tag = value
        elif key.startswith("hint."):
            hints[key[5:]] = value
        else:
            model_path = Path(value)
            if not model_path.is_absolute():
                model_path = base / model_path
            if not model_path.exists():
                raise FileNotFoundError(f"registry model path does not exist: {model_path}")
            entries[key] = str(model_path)
    return DrafterRegistry(entries, default_tag, hints)


def detect_source_language(text: str, marker_hints: Optional[dict] = None) -> Optional[str]:
    """Best-guess source language tag for the text, or None when no rule fires.

    Script majority decides first (kana or han dominance means Japanese or
    Chinese, with any kana at all favoring Japanese; Cyrillic means Russian).
    Latin-dominant text is split de/fr by marker characters, then by function
    words, defaulting to English.
    """
    hints = marker_hints or {}
    latin = cyrillic = kana = han = 0
    for ch in text:
        if _is_latin(ch):
            latin += 1
        elif _is_cyrillic(ch):
            cyrillic += 1
        elif _is_kana(ch):
            kana += 1
        elif _is_han(ch):
            han += 1
    cjk = kana + han
    if latin == cyrillic == cjk == 0:
        return None
    top = max(latin, cyrillic, cjk)
    if cjk == top:
        return "ja" if kana > 0 else "zh"
    if cyrillic == top:
        return "ru"

    de_markers = _DE_MARKERS | set(hints.get("de", ""))
    fr_markers = _FR_MARKERS | set(hints.get("fr", ""))
    de_score = sum(1 for ch in text if ch in de_markers)
    fr_score = sum(1 for ch in text if ch in fr_markers)
    if de_score or fr_score:
        return "de" if de_score >= fr_score else "fr"
    words = {w.strip(".,;:!?\"'()") for w in text.lower().split()}
    votes = {
        "de": len(words & _DE_WORDS),
        "fr": len(words & _FR_WORDS),
        "en": len(words & _EN_WORDS),
    }
    best = max(votes.values())
    if best > 0:
        for lang in ("de", "fr", "en"):
            if votes[lang] == best:
                return lang
    return "en"


def select_drafter(text: str, registry: DrafterRegistry) -> str:
    """Registry tag whose source language matches the detected language of the
    text; the configured default tag when no rule or entry matches."""
    if not registry.entries:
        raise ValueError("drafter registry is empty")
    lang = detect_source_language(text, registry.marker_hints)
    if lang is not None:
        for tag in registry.entries:
            if tag.split("-", 1)[0] == lang:
                return tag
    if registry.default_tag is not None:
        return registry.default_tag
    raise ValueError(f"no drafter registered for detected language {lang!r} and no default set")
