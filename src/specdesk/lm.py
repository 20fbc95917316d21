"""Count-based n-gram language models with add-k smoothing.

One model class plays both roles in speculative decoding: the large target
model and the small drafter differ only in order and training data. Training
is weighted count accumulation, so the pretrain-then-finetune recipe is exact
and a finetuned model is bit-reproducible from its inputs.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    BOS_ID,
    EOS_ID,
    GENERATE_STREAM,
    Distribution,
    FormatError,
    SamplerConfig,
    TokenSequence,
    Vocabulary,
    _Uniforms,
    apply_temperature,
    build_vocab,
    encode_array,
    make_rng,
    parse_vocab_lines,
    read_lines,
    sample,
    vocab_lines,
    write_lines,
)

MODEL_FORMAT_VERSION = 1

# The highest n-gram order a model may have, far above any useful character
# model; training keys each window by its 4 * order bytes.
MAX_ORDER = 64

# next_dist results are memoized per model; contexts repeat heavily during
# generation, and models never change after training.
_DIST_CACHE_LIMIT = 200_000

# Training encodes and tallies records in groups of about this many
# characters, so each group's arrays and key list stay small.
_CHUNK_CHARS = 4096

# Below this, adding a whole number n to a whole-number float count is exact,
# and so equals n steps of += 1.0.
_EXACT_INT = 2 ** 53

# Model files are read in groups of this many count lines, so each group's
# fields and arrays stay small.
_GROUP_LINES = 1024


class ModelFormatError(FormatError):
    """Model file is malformed."""


class ModelVersionError(FormatError):
    """Model file carries an unsupported format version."""


class CorpusFormatError(FormatError):
    """Corpus TSV file is malformed."""


@dataclass(frozen=True)
class Corpus:
    """Bitext records (prompt text, completion text) with a language tag pair."""

    records: tuple[tuple[str, str], ...]
    langs: Optional[tuple[str, str]] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple((p, c) for p, c in self.records))
        if self.langs is not None:
            object.__setattr__(self, "langs", (self.langs[0], self.langs[1]))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.records)

    def token_count(self) -> int:
        """Total scalar values across prompts and completions (characters map
        1:1 to token ids, so this equals the encoded token count)."""
        return sum(len(p) + len(c) for p, c in self.records)

    def without_empty_completions(self) -> "Corpus":
        kept = tuple(r for r in self.records if r[1] != "")
        return Corpus(kept, self.langs, dict(self.meta))


def _corpus_text(corpus: Corpus) -> Iterator[str]:
    for prompt, completion in corpus.records:
        yield prompt
        yield completion


class NGramModel:
    """Add-k smoothed n-gram model over a shared character vocabulary.

    Contexts are the last order-1 ids, left-padded with <bos>. Counts are
    real-valued so weighted finetuning stays exact. Models are immutable once
    published by a training function; concurrent readers are safe.
    """

    def __init__(self, order: int, k: float, vocab: Vocabulary,
                 counts: Optional[dict] = None, provenance: str = "untrained"):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
        if not 0.0 < k < math.inf:
            raise ValueError(f"smoothing k must be finite and > 0, got {k!r}")
        counts = counts if counts is not None else {}
        # Checked here once, so next_dist can index by id unchecked and
        # save_model never writes a file load_model rejects.
        if set(map(len, counts)) - {order - 1}:
            raise ValueError(f"every count context must hold order - 1 = {order - 1} ids")
        outside = set().union(*counts, *counts.values()).difference(range(vocab.size))
        if outside:
            raise ValueError(f"count ids outside the vocabulary [0, {vocab.size}): "
                             f"{sorted(outside, key=repr)}")
        self.order = int(order)
        self.k = float(k)
        self.vocab = vocab
        self.counts: dict[tuple[int, ...], dict[int, float]] = counts
        self.provenance = provenance
        self._dist_cache: dict[tuple[int, ...], Distribution] = {}
        # The add-k uniform every context without counts shares; it is kept
        # out of _dist_cache, so unseen contexts cost no cache entry.
        size = vocab.size
        self._uniform = Distribution(np.full(size, self.k, dtype=np.float64) / (self.k * size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramModel):
            return NotImplemented
        return (self.order == other.order and self.k == other.k
                and self.vocab == other.vocab and self.provenance == other.provenance
                and self.counts == other.counts)

    __hash__ = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_dist_cache"] = {}
        return state

    def _pad_context(self, context) -> tuple[int, ...]:
        n1 = self.order - 1
        if n1 == 0:
            return ()
        tail = tuple(context[-n1:]) if context else ()
        if len(tail) < n1:
            tail = (BOS_ID,) * (n1 - len(tail)) + tail
        return tail

    def next_dist(self, context: TokenSequence) -> Distribution:
        """Add-k next-token distribution given the (padded) context:
        P(x | ctx) = (count(ctx, x) + k) / (total(ctx) + k * |V|)."""
        n1 = self.order - 1
        # A context of at least order - 1 ids needs no padding.
        ctx = tuple(context[-n1:]) if 0 < n1 <= len(context) else self._pad_context(context)
        cached = self._dist_cache.get(ctx)
        if cached is not None:
            return cached
        per_tok = self.counts.get(ctx)
        if not per_tok:
            return self._uniform
        size = self.vocab.size
        weights = np.full(size, self.k, dtype=np.float64)
        for tok, count in per_tok.items():
            weights[tok] += count
        # fsum is exact, so the total does not depend on the order its counts
        # were added in, and a model decodes like its reloaded copy.
        dist = Distribution(weights / (self.k * size + math.fsum(per_tok.values())))
        if len(self._dist_cache) < _DIST_CACHE_LIMIT:
            self._dist_cache[ctx] = dist
        return dist


def _record_groups(corpus: Corpus) -> Iterator[list[str]]:
    """Each record's prompt+completion text, in groups of at least
    _CHUNK_CHARS characters; the last group may hold fewer."""
    group, size = [], 0
    for prompt, completion in corpus.records:
        group.append(prompt + completion)
        size += len(group[-1])
        if size >= _CHUNK_CHARS:
            yield group
            group, size = [], 0
    if group:
        yield group


def _accumulate(model: NGramModel, corpus: Corpus, weight: float) -> None:
    """Add weight for every (context, token) window of each record's
    <bos>-padded, <eos>-terminated stream to model.counts, as if one
    `+= weight` step were taken per window, record by record. The model must
    not have been published yet."""
    for i, (_, completion) in enumerate(corpus.records):
        if completion == "":
            raise ValueError(f"training record {i} has an empty completion")
    order = model.order
    n1 = order - 1
    # A window's key is its raw bytes. The Counter keeps keys in first-seen
    # order, which is the order a window-by-window pass inserts contexts and,
    # within each, tokens.
    window_key = np.dtype((np.void, 4 * order))
    tally: Counter = Counter()
    for texts in _record_groups(corpus):
        ids = encode_array("".join(texts), model.vocab)
        lengths = np.fromiter(map(len, texts), np.int64, len(texts))
        # Record r's segment is n1 <bos>, its ids, then <eos>, so its ids
        # sit n1 + r * order places after their index in ids.
        stream = np.full(len(ids) + order * len(texts), BOS_ID, dtype="<u4")
        stream[np.arange(len(ids)) + np.repeat(np.arange(n1, order * len(texts), order),
                                               lengths)] = ids
        stream[np.cumsum(lengths + order) - 1] = EOS_ID
        # <bos> is no one-character token, so encoded text never holds it and
        # the windows that end on <bos> are exactly those that end on padding.
        windows = sliding_window_view(stream, order)[stream[n1:] != BOS_ID]
        tally.update(windows.view(window_key).ravel().tolist())
    counts = model.counts
    for window, n in zip(map(struct.Struct(f"<{order}I").unpack, tally), tally.values()):
        ctx, tok = window[:-1], window[-1]
        per_tok = counts.get(ctx)
        if per_tok is None:
            per_tok = counts[ctx] = {}
        count = float(per_tok.get(tok, 0.0))  # a model may be given int counts
        if weight == 1.0 and count.is_integer() and count + n <= _EXACT_INT:
            count += n
        else:
            for _ in range(n):
                count += weight
        per_tok[tok] = count


def pretrain(corpus: Corpus, order: int, k: float = 0.5,
             vocab: Optional[Vocabulary] = None, provenance: str = "pretrained") -> NGramModel:
    """Count n-grams over <bos>-padded, <eos>-terminated prompt+completion streams.

    When no vocabulary is supplied, one is built from the corpus itself; pass
    a shared vocabulary when several models must interoperate.
    """
    if len(corpus) == 0:
        raise ValueError("pretrain requires a non-empty corpus")
    if vocab is None:
        vocab = build_vocab(_corpus_text(corpus))
    model = NGramModel(order, k, vocab, {}, provenance)
    _accumulate(model, corpus, 1.0)
    return model


def finetune(model: NGramModel, corpus: Corpus, weight: float = 1.0) -> NGramModel:
    """New model with counts = model.counts + weight * counts(corpus).

    The input model is left untouched. Unknown characters in the corpus encode
    to <unk> under the model's vocabulary.
    """
    if not 0.0 < weight < math.inf:
        raise ValueError(f"finetune weight must be finite and > 0, got {weight!r}")
    copied = {ctx: dict(per_tok) for ctx, per_tok in model.counts.items()}
    tag = f"{corpus.langs[0]}-{corpus.langs[1]}" if corpus.langs else "untagged"
    tuned = NGramModel(model.order, model.k, model.vocab, copied,
                       provenance=f"{model.provenance};finetuned:{tag}")
    _accumulate(tuned, corpus, weight)
    return tuned


def generate(model: NGramModel, prompt: TokenSequence, cfg: SamplerConfig,
             max_len: int) -> TokenSequence:
    """Autoregressive generation: sample from the temperature-adjusted next-token
    distribution until <eos> or max_len emitted tokens. Returns only the
    continuation, without the terminating <eos>."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rng = _Uniforms(make_rng(cfg.seed, GENERATE_STREAM))
    context = list(prompt)
    out: TokenSequence = []
    while len(out) < max_len:
        dist = apply_temperature(model.next_dist(context), cfg.temperature)
        token = sample(dist, rng)
        if token == EOS_ID:
            break
        out.append(token)
        context.append(token)
    return out


def save_model(model: NGramModel, path) -> None:
    """Versioned text format, bit-reproducible for identical models: header,
    vocabulary block, then one count line per (context..., token, count)
    sorted lexicographically by ids."""
    if "\n" in model.provenance or "\r" in model.provenance:
        raise ValueError("provenance must not contain newlines")
    lines = [
        f"version={MODEL_FORMAT_VERSION}",
        f"order={model.order}",
        f"k={model.k!r}",
        f"provenance={model.provenance}",
        f"vocab={model.vocab.size}",
    ]
    lines.extend(vocab_lines(model.vocab))
    # Every context has order - 1 ids, so sorting contexts, then the tokens
    # within each, gives the lexicographic order of (ctx..., tok). A context
    # with one token needs no sort; most of a large model's contexts have one.
    ids, values = _Texts("{} ".format), _Texts(lambda count: repr(float(count)))
    count_lines = [f"{prefix}{ids[tok]}{values[per_tok[tok]]}"
                   for ctx in sorted(model.counts)
                   for prefix, per_tok in (("".join(map(ids.__getitem__, ctx)),
                                            model.counts[ctx]),)
                   for tok in (sorted(per_tok) if len(per_tok) > 1 else per_tok)]
    lines.append(f"counts={len(count_lines)}")
    lines.extend(count_lines)
    write_lines(path, lines)


# The header lines after 'version=', in file order, with each value's parser.
_MODEL_HEADER = (("order", int), ("k", float), ("provenance", str), ("vocab", int))


def _header_value(lines: list[str], ln: int, key: str, parse):
    name, sep, raw = lines[ln].partition("=") if ln < len(lines) else ("", "", "")
    if name != key or not sep:
        raise ModelFormatError(f"expected '{key}=' on line {ln + 1}")
    try:
        return parse(raw)
    except ValueError:
        raise ModelFormatError(f"line {ln + 1}: unparsable {key} {raw!r}") from None


class _Texts(dict):
    """The text of each key, made once by `make` for equal keys. A false key
    (0, 0.0, -0.0) is made on every use: 0.0 and -0.0 are one dict key, but
    their reprs differ."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        text = self._make(key)
        if key:
            self[key] = text
        return text


def _add_count_group(group: list[str], order: int, counts: dict,
                     shared: dict, ids: dict, previous: tuple) -> Optional[tuple]:
    """Check a group of count lines with array comparisons and add them to
    counts; returns the last key, or None, with counts untouched, when any
    line fails a check. Id ranges are left to NGramModel. previous is the
    key before the group's first line. shared and ids map each count and id
    spelling seen so far to its value."""
    if set(map(str.count, group, repeat(" "))) != {order}:
        return None
    width = order + 1
    fields = " ".join(group).split(" ")
    spellings = fields[order::width]
    del fields[order::width]
    try:
        new_ids = {raw: int(raw) for raw in set(fields).difference(ids)}
        new_counts = {raw: float(raw) for raw in set(spellings).difference(shared)}
    except ValueError:
        return None
    if not all(0.0 <= count < math.inf for count in new_counts.values()):
        return None
    ids.update(new_ids)
    try:
        keys = np.fromiter(map(ids.__getitem__, fields), np.int64, len(fields))
    except OverflowError:  # an id past int64, so out of any vocabulary's range
        return None
    keys = keys.reshape(-1, order)
    rows = np.concatenate((np.array(previous, np.int64).reshape(-1, order), keys))
    later, earlier = rows[1:], rows[:-1]
    step = later != earlier
    # Each key must exceed the one before it at their first differing id;
    # equal keys differ nowhere and fail at id 0.
    first = step.argmax(1)
    at = np.arange(len(first))
    if not (later[at, first] > earlier[at, first]).all():
        return None
    shared.update(new_counts)
    n1 = order - 1
    # The lines of one context are adjacent; only the first context of the
    # group can have begun in the group before.
    starts = [0, *(np.flatnonzero(step[len(rows) - len(keys):, :n1].any(1)) + 1).tolist()]
    contexts = list(zip(*keys[starts, :n1].T.tolist())) if n1 else [()]
    sizes = np.diff(starts + [len(keys)]).tolist()
    pairs = zip(keys[:, n1].tolist(), map(shared.__getitem__, spellings))
    if contexts[0] in counts:
        counts[contexts[0]].update(islice(pairs, sizes[0]))
        del contexts[0], sizes[0]
    counts.update(zip(contexts, map(dict, map(islice, repeat(pairs), sizes))))
    return tuple(keys[-1].tolist())


def _count_lines(lines: list[str], start: int, order: int, vocab_size: int) -> dict:
    """The counts of lines[start:], checked one line at a time. A file that
    fails a check is read again this way, so that the error names its first
    bad line."""
    counts: dict[tuple[int, ...], dict[int, float]] = {}
    shared: dict[str, float] = {}
    previous: tuple[int, ...] = ()
    for ln in range(start, len(lines)):
        parts = lines[ln].split(" ")
        if len(parts) != order + 1:
            raise ModelFormatError(f"line {ln + 1}: expected {order + 1} fields")
        try:
            key = tuple(map(int, parts[:-1]))
            count = float(parts[-1])
        except ValueError:
            raise ModelFormatError(f"line {ln + 1}: unparsable count entry") from None
        if not all(0 <= i < vocab_size for i in key):
            raise ModelFormatError(f"line {ln + 1}: token id out of range")
        if not 0.0 <= count < math.inf:
            raise ModelFormatError(f"line {ln + 1}: count must be finite and >= 0")
        # save_model writes strictly increasing (ctx..., tok) keys, so this
        # one comparison rejects both repeated and misordered lines.
        if key <= previous:
            raise ModelFormatError(f"line {ln + 1}: count lines must be strictly increasing")
        previous = key
        counts.setdefault(key[:-1], {})[key[-1]] = shared.setdefault(parts[-1], count)
    return counts


def _parse_model(lines: list[str]) -> NGramModel:
    # The version comes first, so a future format is reported as such even
    # when the rest of its header differs.
    version = _header_value(lines, 0, "version", int)
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"format version {version} unsupported (expected {MODEL_FORMAT_VERSION})")
    order, k, provenance, vocab_size = (
        _header_value(lines, ln, key, parse)
        for ln, (key, parse) in enumerate(_MODEL_HEADER, start=1))
    vocab_end = 5 + vocab_size
    if not 5 <= vocab_end <= len(lines):
        raise ModelFormatError("truncated vocabulary block")
    vocab = parse_vocab_lines(lines[5:vocab_end])
    n_counts = _header_value(lines, vocab_end, "counts", int)
    counts_start = vocab_end + 1
    if counts_start + n_counts != len(lines):
        raise ModelFormatError(
            f"counts={n_counts} but {len(lines) - counts_start} count lines follow")
    counts: dict[tuple[int, ...], dict[int, float]] = {}
    # Most counts are a few small whole numbers, so lines that spell a count
    # alike share one float object.
    shared: dict[str, float] = {}
    ids: dict[str, int] = {}
    previous: Optional[tuple[int, ...]] = ()
    for lo in range(counts_start, len(lines), _GROUP_LINES):
        previous = _add_count_group(lines[lo:lo + _GROUP_LINES], order, counts, shared, ids,
                                    previous)
        if previous is None:
            break
    else:
        try:
            return NGramModel(order, k, vocab, counts, provenance)
        except ValueError:
            pass  # NGramModel checks the id ranges; the line is found below
    # Read the count lines again one at a time, so that the error names the
    # first bad line; an error NGramModel alone finds is raised again.
    counts = _count_lines(lines, counts_start, order, vocab_size)
    return NGramModel(order, k, vocab, counts, provenance)


def load_model(path) -> NGramModel:
    """Read a save_model file. A file that is not UTF-8 raises read_lines'
    FormatError; an unsupported version ModelVersionError; any other defect,
    including an invalid order or k, ModelFormatError."""
    lines = read_lines(path)
    try:
        return _parse_model(lines)
    except ModelVersionError as exc:
        raise ModelVersionError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def load_corpus(path) -> Corpus:
    """Read the corpus TSV: leading '#key=value' header lines, then one record
    per line as 'source<TAB>target'."""
    lines = read_lines(path)
    langs = None
    meta: dict[str, str] = {}
    records = []
    in_header = True
    for ln, line in enumerate(lines, start=1):
        if in_header and line.startswith("#"):
            body = line[1:]
            if "=" not in body:
                raise CorpusFormatError(f"{path}: line {ln}: header must be '#key=value'")
            key, _, value = body.partition("=")
            if key == "langs":
                parts = value.split(",")
                if len(parts) != 2 or not all(parts):
                    raise CorpusFormatError(f"{path}: line {ln}: langs must be 'src,tgt'")
                langs = (parts[0], parts[1])
            else:
                meta[key] = value
            continue
        in_header = False
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(f"{path}: line {ln}: expected exactly one tab")
        records.append((parts[0], parts[1]))
    return Corpus(tuple(records), langs, meta)


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus TSV that load_corpus reads. A corpus it would not
    read back equal raises ValueError before anything is written."""
    def holds(text, chars="\t\n\r"):
        return any(c in text for c in chars)
    lines = []
    if corpus.langs is not None:
        if not all(corpus.langs) or any(holds(tag, ",\t\n\r") for tag in corpus.langs):
            raise ValueError(f"corpus langs {corpus.langs!r}: each tag must be non-empty, "
                             f"without a comma, tab or newline")
        lines.append(f"#langs={corpus.langs[0]},{corpus.langs[1]}")
    for key in sorted(corpus.meta):
        value = corpus.meta[key]
        if key == "langs" or holds(key, "=\t\n\r") or holds(value):
            raise ValueError(f"corpus meta {key!r}: the key must not be 'langs' or hold '=', "
                             f"and neither key nor value a tab or newline")
        lines.append(f"#{key}={value}")
    for i, (prompt, completion) in enumerate(corpus.records):
        if holds(prompt) or holds(completion):
            raise ValueError(f"record {i} contains a tab or newline; not representable in TSV")
        lines.append(f"{prompt}\t{completion}")
    if corpus.records and corpus.records[0][0].startswith("#"):
        raise ValueError("record 0's prompt starts with '#', which would read back as a header")
    write_lines(path, lines)


def truncate_corpus(corpus: Corpus, max_tokens: int) -> Corpus:
    """Prefix of the corpus holding at most max_tokens tokens (prompt plus
    completion characters). The boundary record's completion is cut to land
    exactly on the budget; a cut that would leave it empty drops the record."""
    if max_tokens <= 0:
        raise ValueError("token budget must be > 0")
    kept = []
    used = 0
    for prompt, completion in corpus.records:
        need = len(prompt) + len(completion)
        if used + need <= max_tokens:
            kept.append((prompt, completion))
            used += need
            continue
        room = max_tokens - used - len(prompt)
        if room >= 1 and completion:
            kept.append((prompt, completion[:room]))
        break
    return Corpus(tuple(kept), corpus.langs, dict(corpus.meta))
