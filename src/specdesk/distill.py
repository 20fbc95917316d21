"""Self-distillation: build drafter training corpora from the target's own output.

Prompts are wrapped in a translation instruction, then the target generates a
completion for every prompt at each temperature in a schedule. Training a
drafter on these records aligns it with the distribution it will later have
to anticipate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def make_prompt(task: tuple[str, str], source_text: str, wrapper: Optional[str] = None) -> str:
    """Instruction prompt for a translation task, e.g. ("fr", "en") gives
    'Translate French to English: <source_text>'. A wrapper template with a
    '{prompt}' placeholder can add surrounding chat scaffolding; the default
    is no wrapper."""
    src, tgt = task
    try:
        src_name = LANGUAGE_NAMES[src]
        tgt_name = LANGUAGE_NAMES[tgt]
    except KeyError as exc:
        raise ValueError(f"unknown language tag {exc.args[0]!r}") from None
    prompt = f"Translate {src_name} to {tgt_name}: {source_text}"
    return wrapper.format(prompt=prompt) if wrapper else prompt


def with_task_prompts(corpus: Corpus, wrapper: Optional[str] = None) -> Corpus:
    """Copy of the corpus with every prompt replaced by its instruction form."""
    if corpus.langs is None:
        raise ValueError("corpus has no language tags to build prompts from")
    records = tuple((make_prompt(corpus.langs, p, wrapper), c) for p, c in corpus.records)
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
    schedule = _effective_schedule(job)
    records = []
    for pi, (source_text, _) in enumerate(job.prompts.records):
        prompt_text = make_prompt(job.prompts.langs, source_text, job.wrapper)
        prompt_ids = encode(prompt_text, vocab)
        for ti, (temperature, n_samples) in enumerate(schedule):
            for si in range(n_samples):
                seed = derive_seed(job.seed, DISTILL_STREAM, pi, ti, si)
                continuation = generate(job.target, prompt_ids,
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
