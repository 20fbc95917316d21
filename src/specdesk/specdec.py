"""Draft/verify/accept speculative decoding.

A cheap drafter proposes a block of tokens; the target model scores the block
in one call, each position when verification first reads it; verification
accepts a prefix and emits one extra token, either a correction sampled from
the residual distribution (after a rejection) or a bonus token from the
target's next distribution (after full acceptance). With
rejection-sampling verification the emitted stream is distributed exactly as
target-only sampling; with greedy verification it is token-identical to
target-only greedy decoding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ACCEPT_STREAM,
    DRAFT_STREAM,
    EOS_ID,
    Distribution,
    TokenSequence,
    _Uniforms,
    apply_temperature,
    argmax,
    check_temperature,
    make_rng,
    sample,
)
from .lm import NGramModel


class VocabularyMismatchError(ValueError):
    """Target and drafter models do not share a vocabulary."""


@dataclass(frozen=True)
class SpecConfig:
    """Knobs for one speculative decode session."""

    draft_len: int = 5
    temperature: float = 0.0
    max_new_tokens: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.draft_len < 1:
            raise ValueError("draft_len must be >= 1")
        check_temperature(self.temperature)
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass(frozen=True)
class Draft:
    """A drafted token block plus the (post-temperature) drafter distributions
    each token was sampled from."""

    tokens: tuple[int, ...]
    dists: tuple[Distribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "dists", tuple(self.dists))
        if len(self.tokens) != len(self.dists):
            raise ValueError("draft tokens and distributions must align")
        if len(self.tokens) < 1:
            raise ValueError("draft must contain at least one token")
        for i, (tok, dist) in enumerate(zip(self.tokens, self.dists)):
            if dist.p(tok) <= 0.0:
                raise ValueError(f"draft token {i} has zero probability under its own distribution")

    @classmethod
    def _trusted(cls, tokens: tuple[int, ...], dists: tuple[Distribution, ...]) -> "Draft":
        """A draft whose tokens were sampled from their own distributions, so
        each has positive probability; skips the per-token re-check."""
        d = object.__new__(cls)
        object.__setattr__(d, "tokens", tokens)
        object.__setattr__(d, "dists", dists)
        return d

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of verifying one draft: length of the accepted prefix plus either
    a correction token (after a rejection) or a bonus token (full acceptance)."""

    accepted_count: int
    correction: Optional[int] = None
    bonus: Optional[int] = None

    def __post_init__(self):
        if (self.correction is None) == (self.bonus is None):
            raise ValueError("exactly one of correction/bonus must be present")

    def emitted(self, draft: Draft) -> TokenSequence:
        """Tokens this cycle contributes, in order: accepted prefix then the
        correction or bonus token (always accepted_count + 1 tokens)."""
        extra = self.correction if self.correction is not None else self.bonus
        return list(draft.tokens[: self.accepted_count]) + [extra]


@dataclass(slots=True)
class DecodeStats:
    """Per-run counters behind every reported metric.

    emitted_tokens counts every token produced by verification and kept by the
    decode loop, including a terminating <eos>; truncated_tokens counts cycle
    output dropped past max_new_tokens or after an accepted <eos>, so
    emitted_tokens + truncated_tokens == sum(accepted_per_cycle) + cycles.
    """

    cycles: int = 0
    accepted_per_cycle: list = field(default_factory=list)
    emitted_tokens: int = 0
    truncated_tokens: int = 0
    target_calls: int = 0
    drafter_calls: int = 0
    draft_len: int = 0
    temperature: float = 0.0
    max_new_tokens: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "accepted_per_cycle": list(self.accepted_per_cycle),
            "emitted_tokens": self.emitted_tokens,
            "truncated_tokens": self.truncated_tokens,
            "target_calls": self.target_calls,
            "drafter_calls": self.drafter_calls,
            "draft_len": self.draft_len,
            "temperature": self.temperature,
            "max_new_tokens": self.max_new_tokens,
            "seed": self.seed,
        }


def draft(drafter: NGramModel, context: Sequence[int], draft_len: int,
          temperature: float, rng) -> Draft:
    """Sample up to draft_len tokens autoregressively from the drafter at the
    given temperature, recording each post-temperature distribution. Drafting
    stops early once <eos> is drafted (the <eos> token is kept in the draft)."""
    if draft_len < 1:
        raise ValueError("draft_len must be >= 1")
    ctx = list(context)
    tokens = []
    dists = []
    for _ in range(draft_len):
        dist = apply_temperature(drafter.next_dist(ctx), temperature)
        token = sample(dist, rng)
        tokens.append(token)
        dists.append(dist)
        if token == EOS_ID:
            break
        ctx.append(token)
    return Draft._trusted(tuple(tokens), tuple(dists))


class _TargetRows(Sequence):
    """The len(d) + 1 target rows of score_parallel, each scored when it is
    first read and then kept. Verification stops reading at the first
    rejection, so the rows past it are never scored."""

    __slots__ = ("_target", "_tail", "_tokens", "_temperature", "_rows")

    def __init__(self, target: NGramModel, context: Sequence[int], d: Draft,
                 temperature: float):
        # next_dist reads at most the last order - 1 ids of a context (fewer
        # are padded), so row j's context is this tail plus j draft tokens.
        n1 = target.order - 1
        self._target = target
        self._tail = tuple(context[-n1:]) if n1 else ()
        self._tokens = d.tokens
        self._temperature = temperature
        self._rows: list = [None] * (len(d.tokens) + 1)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self._rows)))]
        row = self._rows[j]
        if row is None:
            j %= len(self._rows)
            row = apply_temperature(self._target.next_dist(self._tail + self._tokens[:j]),
                                    self._temperature)
            self._rows[j] = row
        return row


def score_parallel(target: NGramModel, context: Sequence[int], d: Draft,
                   temperature: float) -> Sequence[Distribution]:
    """Post-temperature target distributions at every draft position plus one
    past the end: conditioned on the context alone, then the context extended
    by 1..len(d) draft tokens. Equal to sequential scoring by construction.
    The rows are scored on first read, so a caller pays only for the rows it
    reads; like batching, that is an execution detail, not a semantic one."""
    return _TargetRows(target, context, d, temperature)


def residual_dist(q: Distribution, p: Distribution) -> Distribution:
    """Normalized positive part of (q - p), the distribution a rejected
    position's replacement token is sampled from. The result is memoised on
    the drafter's ``p``, one entry per ``q``, and a repeat call returns the
    same object. Kept on p, the memo goes when the drafter goes; kept on q,
    a long-lived target would hold every discarded drafter's distributions."""
    memo = p._residual
    if memo is not None:
        out = memo.get(q)
        if out is not None:
            return out
    diff = q.probs - p.probs
    np.maximum(diff, 0.0, out=diff)
    total = diff.sum()
    if total < 1e-12:
        raise ValueError("residual distribution vanished; rejection from equal "
                         "distributions is unreachable")
    diff /= total
    out = Distribution._trusted(diff)
    if memo is None:
        memo = {}
        object.__setattr__(p, "_residual", memo)
    memo[q] = out
    return out


def verify_stochastic(d: Draft, target_dists: Sequence[Distribution], rng) -> VerificationOutcome:
    """Rejection-sampling verification for temperature > 0.

    Scans positions in order, drawing one uniform r per examined position from
    the acceptance stream; token x is accepted iff r < min(1, q(x)/p(x)). On
    the first rejection the correction token is sampled from the residual
    (q - p)+; if every position is accepted the bonus token is sampled from
    the final target distribution. The residual or bonus draw consumes the
    next uniform(s) from the same stream.
    """
    if len(target_dists) != len(d) + 1:
        raise ValueError("need exactly len(draft) + 1 target distributions")
    for j, token in enumerate(d.tokens):
        p_tok = d.dists[j].p(token)
        if p_tok <= 0.0:
            raise ValueError(f"draft token {j} has zero drafter probability")
        q_tok = target_dists[j].p(token)
        r = rng.random()
        if r < min(1.0, q_tok / p_tok):
            continue
        correction = sample(residual_dist(target_dists[j], d.dists[j]), rng)
        return VerificationOutcome(accepted_count=j, correction=correction)
    bonus = sample(target_dists[-1], rng)
    return VerificationOutcome(accepted_count=len(d), bonus=bonus)


def verify_greedy(d: Draft, target_dists: Sequence[Distribution]) -> VerificationOutcome:
    """Greedy verification for temperature 0: accept the longest prefix whose
    tokens equal the target argmax at each position; the correction or bonus
    token is the target argmax at the first mismatch or past the end."""
    if len(target_dists) != len(d) + 1:
        raise ValueError("need exactly len(draft) + 1 target distributions")
    for j, token in enumerate(d.tokens):
        top = argmax(target_dists[j])
        if token != top:
            return VerificationOutcome(accepted_count=j, correction=top)
    return VerificationOutcome(accepted_count=len(d), bonus=argmax(target_dists[-1]))


def decode_speculative(target: NGramModel, drafter: NGramModel,
                       prompt: Sequence[int], cfg: SpecConfig) -> tuple[TokenSequence, DecodeStats]:
    """Full speculative decode loop: draft, score, verify, append, repeat until
    <eos> is emitted or max_new_tokens continuation tokens are produced.

    Tokens a final cycle produces beyond max_new_tokens (or after an accepted
    <eos>) are dropped and tallied as truncated. Drafting consumes the draft
    substream and verification the acceptance substream of cfg.seed, so runs
    are reproducible per seed. The returned continuation excludes <eos>.
    """
    if target.vocab != drafter.vocab:
        raise VocabularyMismatchError("target and drafter must share one vocabulary")
    draft_rng = _Uniforms(make_rng(cfg.seed, DRAFT_STREAM))
    # Greedy verification draws nothing, so T=0 builds no acceptance stream.
    greedy = cfg.temperature == 0.0
    accept_rng = None if greedy else _Uniforms(make_rng(cfg.seed, ACCEPT_STREAM))
    stats = DecodeStats(draft_len=cfg.draft_len, temperature=cfg.temperature,
                        max_new_tokens=cfg.max_new_tokens, seed=cfg.seed)
    context = list(prompt)
    out: TokenSequence = []
    finished = False
    while not finished and len(out) < cfg.max_new_tokens:
        d = draft(drafter, context, cfg.draft_len, cfg.temperature, draft_rng)
        target_dists = score_parallel(target, context, d, cfg.temperature)
        if greedy:
            outcome = verify_greedy(d, target_dists)
        else:
            outcome = verify_stochastic(d, target_dists, accept_rng)
        stats.cycles += 1
        stats.target_calls += 1
        stats.drafter_calls += len(d)
        stats.accepted_per_cycle.append(outcome.accepted_count)
        cycle_tokens = outcome.emitted(d)
        for idx, token in enumerate(cycle_tokens):
            if token == EOS_ID:
                stats.emitted_tokens += 1
                stats.truncated_tokens += len(cycle_tokens) - idx - 1
                finished = True
                break
            if len(out) >= cfg.max_new_tokens:
                stats.truncated_tokens += len(cycle_tokens) - idx
                finished = True
                break
            out.append(token)
            context.append(token)
            stats.emitted_tokens += 1
    return out, stats
