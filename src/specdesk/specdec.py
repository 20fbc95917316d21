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
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    ACCEPT_STREAM,
    BOS_ID,
    DRAFT_STREAM,
    EOS_ID,
    _TEMPERATURES_KEPT,
    Distribution,
    TokenSequence,
    _inverse_cdf,
    _Uniforms,
    apply_temperature,
    argmax,
    check_temperature,
    make_rng,
    sample,
)
from . import lm
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

    def __len__(self) -> int:
        return len(self.tokens)


class VerificationOutcome(NamedTuple):
    """Result of verifying one draft: the length of the accepted prefix and
    the one target token emitted after it, a correction when accepted_count <
    len(draft) and a bonus token when the whole draft was accepted."""

    accepted_count: int
    token: int


# The slots' own setters, which the frozen class's __setattr__ does not
# guard; draft fills a new Draft through them.
_set_tokens, _set_dists = Draft.tokens.__set__, Draft.dists.__set__

# Equal outcomes share one object, kept in a bounded cache like
# core._one_hot's: most cycles repeat a few (accepted count, token) pairs.
_outcome = lru_cache(maxsize=4096)(VerificationOutcome)


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
        return asdict(self)


def draft(drafter: NGramModel, context: Sequence[int], draft_len: int,
          temperature: float, rng) -> Draft:
    """Sample up to draft_len tokens autoregressively from the drafter at the
    given temperature, recording each post-temperature distribution. Drafting
    stops early once <eos> is drafted (the <eos> token is kept in the draft).
    At T=0 each token is the argmax of its one-hot, the value any draw from
    it would give, so greedy drafting reads nothing from rng (it may be None).

    Each position's distribution is read from the drafter's table for this
    temperature, keyed by the code of the padded context next_dist reads: its
    order - 1 ids as a base-|V| number, where <bos> is 0, so padding adds no
    digit. A missing row is built from next_dist and apply_temperature, and
    the table keeps it while it holds fewer than lm._DIST_CACHE_LIMIT rows. A
    context whose last order - 1 ids are not all Python ints below |V| (one
    outside the vocabulary, or a numpy integer) gets no code, and a call from
    it builds each row it reads and keeps none. A drafter keeps the tables of
    core._TEMPERATURES_KEPT temperatures at most. The code's shape, |V|,
    order - 1 and the place value of the oldest id, belongs to the drafter,
    which works it out once when it is made. Drawing from a row is sample's
    inverse-CDF rule, one uniform per token, so the table changes no token,
    distribution object or draw. Each drafted token has positive probability
    under its own row, so the Draft is made without Draft's re-check."""
    if draft_len < 1:
        raise ValueError("draft_len must be >= 1")
    rows = drafter._draft_rows.get(temperature)
    if rows is None:
        check_temperature(temperature)  # before a table is made for it
        if len(drafter._draft_rows) >= _TEMPERATURES_KEPT:
            drafter._draft_rows = {}
        rows = drafter._draft_rows.setdefault(temperature, {})
    keep = lm._DIST_CACHE_LIMIT
    size, n1, top = drafter._code_shape
    tail = context[-n1:] if n1 else ()
    code = 0
    for token in tail:
        if token.__class__ is not int or not 0 <= token < size:
            rows, keep = {}, 0
            break
        code = code * size + token
    greedy = temperature == 0.0
    tokens, dists = [], []
    for _ in range(draft_len):
        dist = rows.get(code)
        if dist is None:
            dist = apply_temperature(drafter.next_dist([*tail, *tokens]), temperature)
            if len(rows) < keep:
                rows[code] = dist
        token = dist._argmax if greedy else _inverse_cdf(dist, rng.random())
        tokens.append(token)
        dists.append(dist)
        if token == EOS_ID:
            break
        if top:  # (code * size + token) % size ** n1, through smaller numbers
            code = code % top * size + token
    d = object.__new__(Draft)
    _set_tokens(d, tuple(tokens))
    _set_dists(d, tuple(dists))
    return d


class _TargetRows(Sequence):
    """The len(d) + 1 target rows of score_parallel, which fills the slots,
    held as what scores them: row j is apply_temperature(next_dist(window[j:j + n1]), T), where
    window is the context's last n1 = order - 1 ids, padded with <bos> as
    next_dist pads them, followed by d.tokens. The verifiers score the rows
    they read themselves and stop at the first rejection, so the rows past
    it are never scored; reading a row by index scores it the same way."""

    __slots__ = ("next_dist", "n1", "window", "tokens", "temperature")

    def __len__(self) -> int:
        return len(self.tokens) + 1

    def __getitem__(self, j: int) -> Distribution:
        if not 0 <= j <= len(self.tokens):
            raise IndexError("target row index out of range")
        return apply_temperature(self.next_dist(self.window[j:j + self.n1]), self.temperature)


def score_parallel(target: NGramModel, context: Sequence[int], d: Draft,
                   temperature: float) -> Sequence[Distribution]:
    """Post-temperature target distributions at every draft position plus one
    past the end: conditioned on the context alone, then the context extended
    by 1..len(d) draft tokens. Equal to sequential scoring by construction.
    The rows are scored on read, so a caller pays only for the rows it
    reads; like batching, that is an execution detail, not a semantic one."""
    # next_dist reads at most the last order - 1 ids of a context, so the
    # tail stands in for the whole context. It is copied into a tuple, so
    # the rows do not change with the caller's context, a numpy view's
    # included, and padded only when the context is shorter.
    n1 = target.order - 1
    tail = tuple(context[-n1:]) if n1 else ()
    if len(tail) < n1:
        tail = (BOS_ID,) * (n1 - len(tail)) + tail
    rows = object.__new__(_TargetRows)
    rows.next_dist = target.next_dist
    rows.n1 = n1
    rows.window = tail + d.tokens
    rows.tokens = d.tokens
    rows.temperature = temperature
    return rows


def _row_scorer(d: Draft, target_dists: Sequence[Distribution]):
    """(score, window, n1, T) for rows a caller supplies, in the form the
    verifiers read score_parallel's own rows in: row j of target_dists is
    apply_temperature(score(window[j:j + n1]), T). Here window is the row
    indices, n1 is 1 and T=1, where apply_temperature is the identity."""
    if len(target_dists) != len(d.tokens) + 1:
        raise ValueError("need exactly len(draft) + 1 target distributions")
    return lambda ids: target_dists[ids[0]], range(len(target_dists)), 1, 1.0


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
    # score_parallel's rows for these tokens are scored here, from the target.
    if target_dists.__class__ is _TargetRows and (target_dists.tokens is tokens
                                                  or target_dists.tokens == tokens):
        score, window, n1 = target_dists.next_dist, target_dists.window, target_dists.n1
        temperature = target_dists.temperature
    else:
        score, window, n1, temperature = _row_scorer(d, target_dists)
    for j, token in enumerate(tokens):
        p = dists[j]
        q = apply_temperature(score(window[j:j + n1]), temperature)
        if rng.random() < q.probs.item(token) / p.probs.item(token):
            continue
        try:
            residual = residual_dist(q, p)
        except ValueError:  # the residual vanished
            residual = q
        return _outcome(j, sample(residual, rng))
    j = len(tokens)
    return _outcome(j, sample(apply_temperature(score(window[j:j + n1]), temperature), rng))


def verify_greedy(d: Draft, target_dists: Sequence[Distribution]) -> VerificationOutcome:
    """Greedy verification: accept the longest prefix whose tokens equal each row's argmax,
    read from the untempered target row (its T=0 one-hot's argmax) or a caller's row as
    given; the correction or bonus token is that argmax at the first mismatch or past the end."""
    tokens = d.tokens
    if target_dists.__class__ is _TargetRows and (target_dists.tokens is tokens
                                                  or target_dists.tokens == tokens):
        score, window, n1 = target_dists.next_dist, target_dists.window, target_dists.n1
    else:
        score, window, n1, _ = _row_scorer(d, target_dists)
    for j, token in enumerate(tokens):
        row = score(window[j:j + n1])
        top = row._argmax
        if top is None:
            top = argmax(row)
        if token != top:
            return _outcome(j, top)
    j = len(tokens)
    row = score(window[j:j + n1])
    top = row._argmax
    return _outcome(j, argmax(row) if top is None else top)


def decode_speculative(target: NGramModel, drafter: NGramModel,
                       prompt: Sequence[int], cfg: SpecConfig) -> tuple[TokenSequence, DecodeStats]:
    """Full speculative decode loop: draft, score, verify, append, repeat until
    <eos> is emitted or max_new_tokens continuation tokens are produced.

    Tokens a final cycle produces beyond max_new_tokens (or after an accepted
    <eos>) are dropped and tallied as truncated. At T>0 drafting consumes the
    draft substream and verification the acceptance substream of cfg.seed, so
    runs are reproducible per seed; at T=0 neither draws. The returned
    continuation excludes <eos>.
    """
    if target.vocab is not drafter.vocab and target.vocab != drafter.vocab:
        raise VocabularyMismatchError("target and drafter must share one vocabulary")
    # Greedy drafting and verification draw nothing, so T=0 builds no stream.
    temperature = cfg.temperature
    greedy = temperature == 0.0
    draft_rng = None if greedy else _Uniforms(make_rng(cfg.seed, DRAFT_STREAM))
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
            n, extra = verify_greedy(d, target_dists)
        else:
            n, extra = verify_stochastic(d, target_dists, accept_rng)
        accepted_per_cycle.append(n)
        drafted += len(d.tokens)
        # Keep the cycle up to its first <eos> or the remaining budget; an
        # <eos> right after the last token the budget allows still counts.
        cycle = d.tokens[:n] + (extra,)
        room = limit - len(context)
        if EOS_ID in cycle and cycle.index(EOS_ID) <= room:
            context += cycle[:cycle.index(EOS_ID)]
            eos = True
            break
        context += cycle[:room]
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
