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
from functools import lru_cache
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


# The longest draft a SpecConfig accepts. Drafting is one drafter call per
# position, so an unbounded K could run for hours before the first cycle ends.
MAX_DRAFT_LEN = 1024


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
        if not 1 <= self.draft_len <= MAX_DRAFT_LEN:
            raise ValueError(f"draft_len must be between 1 and {MAX_DRAFT_LEN}, "
                             f"got {self.draft_len}")
        check_temperature(self.temperature)
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass(frozen=True, slots=True)
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
        _set_tokens(d, tokens)
        _set_dists(d, dists)
        return d

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, slots=True)
class VerificationOutcome:
    """Result of verifying one draft: length of the accepted prefix plus either
    a correction token (after a rejection) or a bonus token (full acceptance)."""

    accepted_count: int
    correction: Optional[int] = None
    bonus: Optional[int] = None

    def __post_init__(self):
        if (self.correction is None) == (self.bonus is None):
            raise ValueError("exactly one of correction/bonus must be present")

    @classmethod
    def _trusted(cls, accepted_count: int, correction: Optional[int],
                 bonus: Optional[int]) -> "VerificationOutcome":
        """An outcome built by a verifier, which sets exactly one of
        correction and bonus; skips the re-check."""
        o = object.__new__(cls)
        _set_accepted_count(o, accepted_count)
        _set_correction(o, correction)
        _set_bonus(o, bonus)
        return o

    def emitted(self, draft: Draft) -> TokenSequence:
        """Tokens this cycle contributes, in order: accepted prefix then the
        correction or bonus token (always accepted_count + 1 tokens)."""
        extra = self.correction if self.correction is not None else self.bonus
        return list(draft.tokens[: self.accepted_count]) + [extra]


# The slots' own setters, which the frozen classes' __setattr__ does not
# guard; the trusted constructors fill a new instance through them.
_set_tokens, _set_dists = Draft.tokens.__set__, Draft.dists.__set__
_set_accepted_count, _set_correction, _set_bonus = (
    VerificationOutcome.accepted_count.__set__, VerificationOutcome.correction.__set__,
    VerificationOutcome.bonus.__set__)

# Equal outcomes share one frozen object, kept in a bounded cache like
# core._one_hot's: most cycles repeat a few (accepted count, token) pairs.
_outcome = lru_cache(maxsize=4096)(VerificationOutcome._trusted)


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
    # next_dist reads at most the last order - 1 ids of a context (fewer are
    # padded), so the tail stands in for the whole context.
    n1 = drafter.order - 1
    ctx = list(context[-n1:]) if n1 else []
    start = len(ctx)
    next_dist = drafter.next_dist
    dists = []
    for _ in range(draft_len):
        dist = apply_temperature(next_dist(ctx), temperature)
        dists.append(dist)
        token = sample(dist, rng)
        ctx.append(token)
        if token == EOS_ID:
            break
    return Draft._trusted(tuple(ctx[start:]), tuple(dists))


class _TargetRows(Sequence):
    """The len(d) + 1 target rows of score_parallel, held as what scores
    them: row j is apply_temperature(next_dist(tail + d.tokens[:j]), T).
    The verifiers score the rows they read themselves and stop at the first
    rejection, so the rows past it are never scored; reading a row by index
    scores it the same way."""

    __slots__ = ("next_dist", "order", "tail", "tokens", "temperature")

    def __init__(self, target: NGramModel, context: Sequence[int], d: Draft,
                 temperature: float):
        # next_dist reads at most the last order - 1 ids of a context (fewer
        # are padded), so the tail stands in for the whole context.
        n1 = target.order - 1
        self.next_dist = target.next_dist
        self.order = target.order
        self.tail = tuple(context[-n1:]) if n1 else ()
        self.tokens = d.tokens
        self.temperature = temperature

    def __len__(self) -> int:
        return len(self.tokens) + 1

    def __getitem__(self, j):
        size = len(self.tokens) + 1
        if j.__class__ is slice:
            return [self[i] for i in range(*j.indices(size))]
        if not -size <= j < size:
            raise IndexError("target row index out of range")
        j %= size
        # Once j reaches order - 1, the last order - 1 draft tokens are the
        # whole context, even when the tail is shorter than order - 1.
        n1 = self.order - 1
        ctx = self.tail + self.tokens[:j] if j <= n1 else self.tokens[j - n1:j]
        return apply_temperature(self.next_dist(ctx), self.temperature)


def score_parallel(target: NGramModel, context: Sequence[int], d: Draft,
                   temperature: float) -> Sequence[Distribution]:
    """Post-temperature target distributions at every draft position plus one
    past the end: conditioned on the context alone, then the context extended
    by 1..len(d) draft tokens. Equal to sequential scoring by construction.
    The rows are scored on read, so a caller pays only for the rows it
    reads; like batching, that is an execution detail, not a semantic one."""
    return _TargetRows(target, context, d, temperature)


def _row_scorer(d: Draft, target_dists: Sequence[Distribution]):
    """(score, ctx, T) such that row j of target_dists is
    apply_temperature(score(ctx), T) once ctx is extended by d.tokens[:j].
    score_parallel's rows for d are scored from the target itself; any other
    rows are read by index, at T=1, where apply_temperature is the identity."""
    if target_dists.__class__ is _TargetRows and target_dists.tokens == d.tokens:
        return target_dists.next_dist, list(target_dists.tail), target_dists.temperature
    if len(target_dists) != len(d.tokens) + 1:
        raise ValueError("need exactly len(draft) + 1 target distributions")
    return lambda ctx: target_dists[len(ctx)], [], 1.0


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
    the acceptance stream; token x is accepted iff r < q(x)/p(x), the same
    test as r < min(1, q(x)/p(x)) because r < 1. On the first rejection the
    correction token is sampled from the residual (q - p)+; if every position
    is accepted the bonus token is sampled from the final target
    distribution. The residual or bonus draw consumes the next uniform(s)
    from the same stream. A rejection where (q - p)+ vanishes can only come
    from q and p that differ by rounding (r near 1, q(x)/p(x) a hair below
    1), so the correction is then sampled from q.
    """
    tokens, dists = d.tokens, d.dists
    score, ctx, temperature = _row_scorer(d, target_dists)
    for j, token in enumerate(tokens):
        p = dists[j]
        q = apply_temperature(score(ctx), temperature)
        if rng.random() < q.probs.item(token) / p.probs.item(token):
            ctx.append(token)
            continue
        try:
            residual = residual_dist(q, p)
        except ValueError:  # the residual vanished
            residual = q
        return _outcome(j, sample(residual, rng), None)
    return _outcome(len(tokens), None, sample(apply_temperature(score(ctx), temperature), rng))


def verify_greedy(d: Draft, target_dists: Sequence[Distribution]) -> VerificationOutcome:
    """Greedy verification for temperature 0: accept the longest prefix whose
    tokens equal the target argmax at each position; the correction or bonus
    token is the target argmax at the first mismatch or past the end."""
    tokens = d.tokens
    score, ctx, temperature = _row_scorer(d, target_dists)
    for j, token in enumerate(tokens):
        top = argmax(apply_temperature(score(ctx), temperature))
        if token != top:
            return _outcome(j, top, None)
        ctx.append(token)
    return _outcome(len(tokens), None, argmax(apply_temperature(score(ctx), temperature)))


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
    temperature = cfg.temperature
    greedy = temperature == 0.0
    accept_rng = None if greedy else _Uniforms(make_rng(cfg.seed, ACCEPT_STREAM))
    draft_len = cfg.draft_len
    # The continuation is context[start:]; decoding stops once it reaches limit.
    context = list(prompt)
    start = len(context)
    limit = start + cfg.max_new_tokens
    accepted_per_cycle = []
    drafted = 0
    eos = False
    while True:
        d = draft(drafter, context, draft_len, temperature, draft_rng)
        target_dists = score_parallel(target, context, d, temperature)
        if greedy:
            outcome = verify_greedy(d, target_dists)
        else:
            outcome = verify_stochastic(d, target_dists, accept_rng)
        tokens = d.tokens
        drafted += len(tokens)
        n = outcome.accepted_count
        accepted_per_cycle.append(n)
        extra = outcome.correction
        if extra is None:
            extra = outcome.bonus
        # Keep the cycle up to its first <eos> or the remaining budget; an
        # <eos> right after the last token the budget allows still counts.
        room = limit - len(context)
        if extra == EOS_ID or EOS_ID in tokens:
            cycle = tokens[:n] + (extra,)
            if EOS_ID in cycle and cycle.index(EOS_ID) <= room:
                eos = True
                context += cycle[:cycle.index(EOS_ID)]
                break
            context += cycle[:room]
        elif n < room:
            context += tokens[:n]
            context.append(extra)
        else:
            context += tokens[:room]
        if len(context) >= limit:
            break
    cycles = len(accepted_per_cycle)
    emitted = len(context) - start + eos
    stats = DecodeStats(cycles=cycles, accepted_per_cycle=accepted_per_cycle,
                        emitted_tokens=emitted,
                        truncated_tokens=sum(accepted_per_cycle) + cycles - emitted,
                        target_calls=cycles, drafter_calls=drafted, draft_len=draft_len,
                        temperature=temperature, max_new_tokens=cfg.max_new_tokens,
                        seed=cfg.seed)
    return context[start:], stats
