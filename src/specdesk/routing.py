"""Heuristic source-language routing: pick a drafter for an incoming prompt.

Classification is a majority vote over Unicode scripts, with Latin text
disambiguated by the rules of `LATIN_LANGUAGES`: language-specific marker
characters (umlauts and eszett for German, common accented letters for
French) and, failing that, a small profile of frequent function words. Pure
function of the text and registry; no model is loaded to make the decision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import FormatError, read_sections

# A run of one counted script's characters, in the group of that script:
# Latin, Cyrillic, kana, han. Any other code point counts for no script.
_SCRIPT_RUNS = re.compile(r"([A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u024F]+)"
                          r"|([\u0400-\u052F]+)"
                          r"|([\u3040-\u30FF\u31F0-\u31FF]+)"
                          r"|([\u3400-\u4DBF\u4E00-\u9FFF]+)")

# Latin-script languages in tie order: tag -> (marker characters, function
# words). A registry's marker hints may name these tags only.
LATIN_LANGUAGES = {
    "de": (frozenset("äöüßÄÖÜ"),
           frozenset("der die das und ist nicht ein eine ich mit von auf für wird".split())),
    "fr": (frozenset("éèçàÉÈÇÀ"),
           frozenset("le la les des une est et dans que pour je vous bonjour avec".split())),
    "en": (frozenset(), frozenset("the a an and is are of to in it this that with for".split())),
}


@dataclass
class DrafterRegistry:
    """Language-pair tags mapped to drafter model paths, plus an optional
    default tag and extra marker characters per `LATIN_LANGUAGES` tag."""

    entries: dict
    default_tag: Optional[str] = None
    marker_hints: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.default_tag is not None and self.default_tag not in self.entries:
            raise ValueError(f"default tag {self.default_tag!r} is not a registry entry")
        _check_hints(self.marker_hints)


def _check_hints(marker_hints: dict) -> None:
    for lang in marker_hints:
        if lang not in LATIN_LANGUAGES:
            raise ValueError(f"marker hint language {lang!r} is not one of "
                             f"{', '.join(LATIN_LANGUAGES)}")


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


def _vote(scores: dict) -> Optional[str]:
    """The first language in table order with the top score, or None when
    every score is 0."""
    best = max(scores, key=scores.get)
    return best if scores[best] else None


def detect_source_language(text: str, marker_hints: Optional[dict] = None) -> Optional[str]:
    """Best-guess source language tag for the text, or None when no rule fires.

    Script majority decides first (kana or han dominance means Japanese or
    Chinese, with any kana at all favoring Japanese; Cyrillic means Russian).
    Latin-dominant text goes to the `LATIN_LANGUAGES` tag with the most marker
    characters, then to the one with the most function words, defaulting to
    English. A marker hint for a tag outside `LATIN_LANGUAGES` raises
    ValueError.
    """
    hints = marker_hints or {}
    _check_hints(hints)
    # One pass over the text, one match per run, so no list grows with it.
    counts = [0, 0, 0, 0, 0]  # by group number: none, Latin, Cyrillic, kana, han
    for run in _SCRIPT_RUNS.finditer(text):
        start, end = run.span()
        counts[run.lastindex] += end - start
    _, latin, cyrillic, kana, han = counts
    cjk = kana + han
    if latin == cyrillic == cjk == 0:
        return None
    top = max(latin, cyrillic, cjk)
    if cjk == top:
        return "ja" if kana > 0 else "zh"
    if cyrillic == top:
        return "ru"

    marked = _vote({lang: sum(map(text.count,
                                  markers.union(hints.get(lang, "")) if hints else markers))
                    for lang, (markers, _) in LATIN_LANGUAGES.items()})
    if marked is not None:
        return marked
    words = {w.strip(".,;:!?\"'()") for w in text.lower().split()}
    return _vote({lang: len(words & function_words)
                  for lang, (_, function_words) in LATIN_LANGUAGES.items()}) or "en"


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
