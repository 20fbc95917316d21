"""Self-distillation: build drafter training corpora from the target's own output.

Prompts are wrapped in a translation instruction, then the target generates a
completion for every prompt at each temperature in a schedule. Training a
drafter on these records aligns it with the distribution it will later have
to anticipate.
"""

from __future__ import annotations

import copy
import string
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (DISTILL_STREAM, SamplerConfig, check_temperature, decode_tokens, derive_seed,
                   encode)
from .lm import Corpus, NGramModel, generate

LANGUAGE_NAMES = {
    "de": "German",
    "fr": "French",
    "ru": "Russian",
    "ja": "Japanese",
    "zh": "Chinese",
    "en": "English",
}

DEFAULT_TEMPERATURES = (0.0, 0.3, 0.7, 1.0)


def check_wrapper(wrapper: Optional[str]) -> Optional[str]:
    """The wrapper unchanged if make_prompt can use it: None or '' (no
    wrapper), or a template with a '{prompt}' field that
    str.format(prompt=...) fills. Any other template raises ValueError: it
    would fail on the first record, or drop every source text."""
    if wrapper:
        try:
            wrapper.format(prompt="")
            fields = [name for _, name, _, _ in string.Formatter().parse(wrapper)]
        except (LookupError, ValueError, AttributeError, TypeError) as exc:
            raise ValueError(f"template {wrapper!r} cannot be filled with "
                             f"str.format(prompt=...): {exc!r}") from None
        if "prompt" not in fields:
            raise ValueError(f"template {wrapper!r} has no {{prompt}} field")
    return wrapper


def make_prompt(task: tuple[str, str], source_text: str, wrapper: Optional[str] = None) -> str:
    """Instruction prompt for a translation task, e.g. ("fr", "en") gives
    'Translate French to English: <source_text>'. A wrapper template with a
    '{prompt}' placeholder can add surrounding chat scaffolding; the default
    is no wrapper, and a template check_wrapper rejects raises ValueError."""
    return _prompt_maker(task, wrapper)(source_text)


def _prompt_maker(task: tuple[str, str], wrapper: Optional[str]) -> Callable[[str], str]:
    """make_prompt(task, ., wrapper) for every source text, with the tags
    looked up and the wrapper checked once, in make_prompt's order."""
    src, tgt = task
    try:
        src_name = LANGUAGE_NAMES[src]
        tgt_name = LANGUAGE_NAMES[tgt]
    except KeyError as exc:
        raise ValueError(f"unknown language tag {exc.args[0]!r}") from None
    head = f"Translate {src_name} to {tgt_name}: "
    if check_wrapper(wrapper):
        return lambda source_text: wrapper.format(prompt=head + source_text)
    return head.__add__


def with_task_prompts(corpus: Corpus, wrapper: Optional[str] = None) -> Corpus:
    """Copy of the corpus with every prompt replaced by its instruction form.
    An unknown tag or a bad wrapper raises only if there is a record to wrap."""
    if corpus.langs is None:
        raise ValueError("corpus has no language tags to build prompts from")
    records = corpus.records
    if records:
        prompt_for = _prompt_maker(corpus.langs, wrapper)
        records = tuple((prompt_for(p), c) for p, c in records)
    return Corpus(records, corpus.langs, dict(corpus.meta))


@dataclass(frozen=True)
class DistillJob:
    """One distillation run: a target model, a prompt corpus (source texts),
    a temperature schedule, and sampling parameters."""

    target: NGramModel
    prompts: Corpus
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    samples_per_temperature: int = 1
    max_len: int = 64
    seed: int = 0
    wrapper: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "temperatures", tuple(self.temperatures))
        if not self.temperatures:
            raise ValueError("temperature schedule must be non-empty")
        for t in self.temperatures:
            check_temperature(t)
        if self.samples_per_temperature < 1:
            raise ValueError("samples_per_temperature must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


def _effective_schedule(job: DistillJob) -> list[tuple[float, int]]:
    # Duplicate temperatures collapse to one pass; T=0 is deterministic so it
    # always contributes a single sample.
    seen = []
    for t in job.temperatures:
        if t not in seen:
            seen.append(t)
    return [(t, 1 if t == 0.0 else job.samples_per_temperature) for t in seen]


def self_distill(job: DistillJob, skip_empty: bool = False) -> Corpus:
    """Generate (prompt, completion) records from the target model.

    Record order is prompt-major, then temperature, then sample index, with
    each generation seeded from (job.seed, prompt index, temperature index,
    sample index), so output is deterministic and order-stable. Records keep
    the constructed instruction prompt, since that is what the target was
    conditioned on. skip_empty drops records whose generation ended
    immediately; training functions reject empty completions.
    """
    if job.prompts.langs is None:
        raise ValueError("prompt corpus must carry language tags")
    if len(job.prompts) == 0:
        raise ValueError("prompt corpus is empty")
    vocab = job.target.vocab
    # A copy shares the target's counts but not its next_dist cache (copying
    # goes through NGramModel.__getstate__), so the distributions this sweep
    # memoises are freed on return instead of living as long as the target.
    target = copy.copy(job.target)
    schedule = _effective_schedule(job)
    prompt_for = _prompt_maker(job.prompts.langs, job.wrapper)
    records = []
    for pi, (source_text, _) in enumerate(job.prompts.records):
        prompt_text = prompt_for(source_text)
        prompt_ids = encode(prompt_text, vocab)
        for ti, (temperature, n_samples) in enumerate(schedule):
            for si in range(n_samples):
                seed = derive_seed(job.seed, DISTILL_STREAM, pi, ti, si)
                continuation = generate(target, prompt_ids,
                                        SamplerConfig(temperature, seed), job.max_len)
                completion = decode_tokens(continuation, vocab)
                if skip_empty and completion == "":
                    continue
                records.append((prompt_text, completion))
    meta = {
        "distilled-from": job.target.provenance,
        "temps": ",".join(repr(t) for t, _ in schedule),
    }
    return Corpus(tuple(records), job.prompts.langs, meta)
