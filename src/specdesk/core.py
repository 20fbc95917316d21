"""Shared primitives: character vocabulary, distributions, temperature, sampling.

Everything downstream (models, the speculative decoder, the benchmark
harness) builds on the types in this module. All randomness in the package
flows through `make_rng`, which derives named Philox substreams from a single
64-bit seed, so every run is reproducible from (seed, inputs) alone.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
RESERVED_TOKENS = ("<bos>", "<eos>", "<unk>")

# Named RNG substreams (spawn keys for make_rng / derive_seed). Streams derived
# from the same seed are statistically independent; draws within one stream are
# consumed one at a time, in the order documented by the consuming function.
DRAFT_STREAM = 0      # drafter sampling inside the speculative decode loop (T>0)
ACCEPT_STREAM = 1     # accept/reject draws, then the residual or bonus sample
GENERATE_STREAM = 2   # plain autoregressive generation
DISTILL_STREAM = 3    # per-record seeds for distillation jobs
BENCH_STREAM = 4      # per-prompt seeds inside benchmark runs

# The most temperatures a per-temperature memo keeps: a Distribution's
# _tempered and a model's specdec.draft tables. Storing one more replaces the
# memo with an empty one, which evicts every temperature it held.
_TEMPERATURES_KEPT = 8

# A token sequence is a plain list of vocabulary ids.
TokenSequence = list[int]

_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF


class FormatError(ValueError):
    """A file or stream violates one of the documented on-disk formats."""


def make_rng(seed: int, stream: int, *path: int) -> np.random.Generator:
    """Philox generator for the given substream of ``seed``.

    Stream contract: one generator per (seed, stream, *path) tuple, uniforms
    drawn with ``rng.random()``. Philox is counter-based, so the mapping from
    (seed, substream) to the variate sequence is fixed across platforms.
    """
    key = np.random.SeedSequence(seed & _SEED_MASK, spawn_key=(stream, *path))
    return np.random.Generator(np.random.Philox(key))


# How many uniforms _Uniforms reads from its generator at a time.
_UNIFORM_BLOCK = 64


class _Uniforms:
    """A ``.random()`` source over a generator private to one call, read in
    blocks of _UNIFORM_BLOCK uniforms. Philox gives the same values from
    ``random(n)`` as from n single ``random()`` calls, so each draw equals
    the generator's own next ``random()``; uniforms read but never drawn
    are dropped with the generator, where no caller can see them."""

    __slots__ = ("_rng", "_block")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = iter(())

    def random(self) -> float:
        try:
            return next(self._block)
        except StopIteration:
            self._block = iter(self._rng.random(_UNIFORM_BLOCK).tolist())
            return next(self._block)


def derive_seed(seed: int, stream: int, *path: int) -> int:
    """Stable 64-bit child seed for (seed, stream, *path)."""
    key = np.random.SeedSequence(seed & _SEED_MASK, spawn_key=(stream, *path))
    return int(key.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Vocabulary:
    """Ordered character inventory with reserved ids 0=<bos>, 1=<eos>, 2=<unk>.

    Non-reserved tokens are single Unicode scalar values in first-appearance
    order over the corpus they were built from.
    """

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    # encode_array's code-point table, filled on its first call.
    _code_ids: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) < 3 or tokens[:3] != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved <bos>/<eos>/<unk> tokens")
        for tok in tokens[3:]:
            if len(tok) != 1:
                raise ValueError(f"vocabulary token {tok!r} is not one character")
        index = {}
        for i, tok in enumerate(tokens):
            if tok in index:
                raise ValueError(f"duplicate token {tok!r} in vocabulary")
            index[tok] = i
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None

    def id_or_unk(self, char: str) -> int:
        return self._index.get(char, UNK_ID)


def build_vocab(corpus: Union[str, Iterable[str]]) -> Vocabulary:
    """Vocabulary over every distinct scalar value in the text, appearance order.

    ``corpus`` is a string or an iterable of string chunks; an empty corpus
    yields just the three reserved tokens.
    """
    chunks = (corpus,) if isinstance(corpus, str) else corpus
    seen: dict[str, None] = {}
    for chunk in chunks:
        for ch in chunk:
            if ch not in seen:
                seen[ch] = None
    return Vocabulary(RESERVED_TOKENS + tuple(seen))


def encode(text: str, vocab: Vocabulary) -> TokenSequence:
    """Map each scalar value to its id; characters outside the vocabulary map to <unk>."""
    return list(map(vocab._index.get, text, repeat(UNK_ID)))


def encode_array(text: str, vocab: Vocabulary) -> np.ndarray:
    """``encode(text, vocab)`` as a uint32 array, computed in bulk.

    Each scalar value, lone surrogates included, is one UTF-32 code unit that
    indexes the vocabulary's code-point table: each token's id at its code
    point, <unk> at every other and at one more past the largest, where larger
    code points are clipped. The first call builds the table and keeps it on
    the vocabulary (two threads building it at once store equal tables): 4
    bytes per code point up to the largest token's, 4.4 KB for U+044F and
    4.4 MB for a vocabulary that holds U+10FFFF."""
    table = vocab._code_ids
    if table is None:
        points = [ord(tok) for tok in vocab.tokens[3:]]
        table = np.full(max(points, default=-1) + 2, UNK_ID, dtype="<u4")
        table[points] = np.arange(3, vocab.size, dtype="<u4")
        object.__setattr__(vocab, "_code_ids", table)
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return table.take(codes, mode="clip")


def decode_tokens(ids: Iterable[int], vocab: Vocabulary) -> str:
    """Inverse of encode on reserved-free sequences; reserved ids render as ''."""
    tokens = vocab.tokens
    size = len(tokens)
    out = []
    for token_id in ids:
        if not 0 <= token_id < size:
            raise ValueError(f"corrupted sequence: token id {token_id} out of range")
        if token_id > UNK_ID:
            out.append(tokens[token_id])
    return "".join(out)


@dataclass(frozen=True, eq=False, slots=True)
class Distribution:
    """Probability vector over a vocabulary: non-negative, sums to 1 within 1e-9.

    The private slots memoise values derived from ``probs``, each filled on
    first use: ``_tempered`` maps a temperature to apply_temperature's result,
    ``_cdf`` holds the cumulative sum that sample bisects, ``_argmax`` the
    argmax and ``_residual`` maps a distribution q to
    ``specdec.residual_dist(q, self)``. They are pure functions of immutable
    vectors, so two threads filling one at once store equal values; a full
    ``_tempered`` is replaced, never emptied in place, so neither thread raises.
    """

    probs: np.ndarray
    _tempered: Optional[dict] = field(default=None, init=False, repr=False)
    _cdf: Optional[array] = field(default=None, init=False, repr=False)
    _argmax: Optional[int] = field(default=None, init=False, repr=False)
    _residual: Optional[dict] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("distribution must be a non-empty 1-D vector")
        if np.any(arr < 0):
            raise ValueError("distribution entries must be non-negative")
        total = float(arr.sum())
        if not abs(total - 1.0) <= 1e-9:  # also rejects nan and inf
            raise ValueError(f"distribution sums to {total!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "Distribution":
        """Wrap a float64 vector that is non-negative and normalised by
        construction, without copying or validating it."""
        d = object.__new__(cls)
        probs.setflags(write=False)
        object.__setattr__(d, "probs", probs)
        object.__setattr__(d, "_tempered", None)
        object.__setattr__(d, "_cdf", None)
        object.__setattr__(d, "_argmax", None)
        object.__setattr__(d, "_residual", None)
        return d

    def __len__(self) -> int:
        return self.probs.size

    def p(self, token_id: int) -> float:
        return float(self.probs[token_id])


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling knobs for plain autoregressive generation."""

    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_temperature(self.temperature)


def check_temperature(temperature: float) -> None:
    """Reject temperatures that are negative or not finite."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature!r}")


def apply_temperature(d: Distribution, temperature: float) -> Distribution:
    """Temperature transform: T=0 is an exact argmax one-hot, T=1 the identity,
    otherwise entries are raised to 1/T and renormalized (computed in log space
    so extreme temperatures cannot underflow the whole vector). A temperature
    so small that every entry overflows gives the T -> 0+ limit: the argmax
    ties share the mass equally. The result is memoised on ``d``, one entry
    per temperature for up to _TEMPERATURES_KEPT temperatures, and a repeat
    call returns the same object while its temperature is kept."""
    tempered = d._tempered
    if tempered is not None:
        # Only temperatures that passed check_temperature are ever stored.
        out = tempered.get(temperature)
        if out is not None:
            return out
    check_temperature(temperature)
    if temperature == 1.0:
        return d
    if temperature == 0.0:
        out = _one_hot(len(d), argmax(d))
    else:
        probs = d.probs
        if not np.any(probs > 0):
            raise ValueError("cannot rescale an all-zero distribution")
        # A tiny temperature overflows logp / temperature to -inf; the
        # values are the same with the warning ignored.
        with np.errstate(divide="ignore", over="ignore"):
            scaled = np.log(probs) / temperature
        top = scaled.max()
        if np.isfinite(top):
            scaled -= top
            w = np.exp(scaled)
        else:
            # Every entry overflowed: take the T -> 0+ limit, which shares
            # the mass equally among the argmax ties.
            w = (probs == probs.max()).astype(np.float64)
        out = Distribution(w / w.sum())
    if tempered is None or len(tempered) >= _TEMPERATURES_KEPT:
        tempered = {}
        object.__setattr__(d, "_tempered", tempered)
    tempered[temperature] = out
    return out


@lru_cache(maxsize=4096)
def _one_hot(size: int, index: int) -> Distribution:
    # Shared by every distribution of this size whose argmax is index, so a
    # cache of T=0 transforms holds one vector, argmax set, per token id.
    probs = np.zeros(size)
    probs[index] = 1.0
    d = Distribution._trusted(probs)
    object.__setattr__(d, "_argmax", index)
    return d


def sample(d: Distribution, rng) -> int:
    """Inverse-CDF draw using a single uniform variate from ``rng.random()``.

    Returns id i with probability d[i]; deterministic given the rng state.
    The cumulative sum is computed once per distribution and kept on it.
    """
    return _inverse_cdf(d, rng.random())


def _inverse_cdf(d: Distribution, u: float) -> int:
    """The id whose cumulative-sum bin holds the uniform u: sample's rule,
    which drafting also draws by."""
    cdf = d._cdf
    if cdf is None:
        cdf = array("d", d.probs.cumsum().tobytes())
        object.__setattr__(d, "_cdf", cdf)
    idx = bisect_right(cdf, u)
    if idx >= len(cdf):
        # Cumulative rounding can leave cdf[-1] a hair below 1.0.
        idx = int(np.flatnonzero(d.probs > 0)[-1])
    return idx


def argmax(d: Distribution) -> int:
    """Index of the maximum entry; ties break toward the lowest token id.
    Memoised on ``d``."""
    idx = d._argmax
    if idx is None:
        idx = int(np.argmax(d.probs))
        object.__setattr__(d, "_argmax", idx)
    return idx


def _escape_token(token: str) -> str:
    return token.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


_UNESCAPED = {"\\n": "\n", "\\r": "\r", "\\\\": "\\"}


def _unescape_token(line: str) -> str:
    return re.sub(r"\\[nr\\]", lambda m: _UNESCAPED[m.group()], line)


def _read_text(path, newline) -> str:
    """The text of a UTF-8 file, opened with the given newline mode; bytes that
    are not UTF-8 raise FormatError naming the path."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 file split on '\\n' only (a '\\r' stays in its line),
    without the empty string after a final newline."""
    lines = _read_text(path, "").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line followed by '\\n', UTF-8, the same bytes on every
    platform; no lines give an empty file, which read_lines reads back as [].
    The text is encoded before the file is opened, so text that cannot be
    encoded (a lone surrogate) raises and leaves the path as it was."""
    lines = list(lines)
    Path(path).write_bytes(("\n".join(lines) + "\n" if lines else "").encode("utf-8"))


def vocab_lines(vocab: Vocabulary) -> list[str]:
    """The vocabulary block: the 3 reserved header lines, then one token per
    line, line number - 1 = id. Newline, carriage-return and backslash tokens
    are escaped as \\n, \\r and \\\\ (single-character tokens never collide
    with these two-character escapes)."""
    return list(RESERVED_TOKENS) + [_escape_token(t) for t in vocab.tokens[3:]]


def parse_vocab_lines(lines: list[str]) -> Vocabulary:
    """Inverse of vocab_lines; raises FormatError on a malformed block,
    including a token line that does not unescape to exactly one character."""
    if tuple(lines[:3]) != RESERVED_TOKENS:
        raise FormatError("vocabulary block must start with the reserved header lines")
    tokens = tuple(_unescape_token(line) for line in lines[3:])
    try:
        return Vocabulary(RESERVED_TOKENS + tokens)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write the vocabulary file format: the vocabulary block alone."""
    write_lines(path, vocab_lines(vocab))


def load_vocab(path) -> Vocabulary:
    lines = read_lines(path)
    try:
        return parse_vocab_lines(lines)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_sections(path) -> dict:
    """Parse 'key = value' lines under optional '[section]' headers, skipping
    blanks and '#' comments, into {section: {key: value}} in file order; keys
    before any header go under None. A key repeated in a section is an error.
    Unlike read_lines, '\\r\\n' and a lone '\\r' also end a line here."""
    sections: dict = {}
    current = None
    for ln, raw in enumerate(_read_text(path, None).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}: line {ln}: expected 'key = value'")
        key = key.strip()
        entries = sections.setdefault(current, {})
        if key in entries:
            raise FormatError(f"{path}: line {ln}: duplicate key {key!r}")
        entries[key] = value.strip()
    return sections
