"""Count-based n-gram language models with add-k smoothing.

One model class plays both roles in speculative decoding: the large target
model and the small drafter differ only in order and training data. Training
is weighted count accumulation, so the pretrain-then-finetune recipe is exact
and a finetuned model is bit-reproducible from its inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    _CHUNK_CHARS,
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

# The highest n-gram order a model may have, far above any useful character model.
MAX_ORDER = 64

# next_dist results are memoized per model; contexts repeat heavily during
# generation, and models never change after training.
_DIST_CACHE_LIMIT = 200_000

# Below this, adding a whole number n to a whole-number float count is exact,
# and so equals n steps of += 1.0.
_EXACT_INT = 2 ** 53

# Model files are read in groups of this many count lines, so each group's
# fields and arrays stay small.
_GROUP_LINES = 1024


def check_order(order: int) -> None:
    """Reject an n-gram order outside 1 to MAX_ORDER."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")


def check_positive(name: str, value: float) -> None:
    """Reject a smoothing k or count weight, named by name, that is not
    finite and > 0."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_smoothing(k: float, vocab_size: int) -> None:
    """Reject a smoothing k that is not finite and > 0, or whose k * |V|,
    part of every context's total, passes the largest float."""
    check_positive("smoothing k", k)
    if k * vocab_size == math.inf:
        raise ValueError(f"smoothing k = {k!r} times the vocabulary size {vocab_size} "
                         f"passes the largest float")


def _total_is_finite(k_total: float, per_tok: dict) -> bool:
    """Whether k_total = k * |V| plus the fsum of a context's counts, the
    denominator next_dist divides by, is finite. Within a hair of the largest
    float, fsum can overflow for one order of the counts and not for another,
    so a total that large is also checked in the token order load_model reads
    them in."""
    try:
        total = k_total + math.fsum(per_tok.values())
        if total >= 2.0 ** 1023:
            total = k_total + math.fsum(map(per_tok.__getitem__, sorted(per_tok)))
    except OverflowError:  # the counts alone sum past the largest float
        return False
    return total < math.inf


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
        langs = self.langs
        if langs is not None:
            if (isinstance(langs, str) or not isinstance(langs, Sequence) or len(langs) != 2
                    or not all(isinstance(tag, str) for tag in langs)):
                raise ValueError(f"corpus langs must be None or a pair of language tags, "
                                 f"got {langs!r}")
            object.__setattr__(self, "langs", tuple(langs))

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


class NGramModel:
    """Add-k smoothed n-gram model over a shared character vocabulary.

    Contexts are the last order-1 ids, left-padded with <bos>. Counts are
    real-valued so weighted finetuning stays exact. Models are immutable once
    published by a training function; concurrent readers are safe.
    """

    def __init__(self, order: int, k: float, vocab: Vocabulary,
                 counts: Optional[dict] = None, provenance: str = "untrained"):
        check_order(order)
        check_smoothing(k, vocab.size)
        counts = counts if counts is not None else {}
        # Checked here once, so next_dist can index by id unchecked and
        # save_model never writes a file load_model rejects.
        if set(map(len, counts)) - {order - 1}:
            raise ValueError(f"every count context must hold order - 1 = {order - 1} ids")
        outside = set().union(*counts, *counts.values()).difference(range(vocab.size))
        if outside:
            raise ValueError(f"count ids outside the vocabulary [0, {vocab.size}): "
                             f"{sorted(outside, key=repr)}")
        if not all(0.0 <= count < math.inf
                   for per_tok in counts.values() for count in per_tok.values()):
            raise ValueError("every count must be finite and >= 0")
        if not all(map(_total_is_finite, repeat(k * vocab.size), counts.values())):
            raise ValueError("a context's counts plus k per vocabulary id sum past the "
                             "largest float")
        self.order = int(order)
        self.k = float(k)
        self.vocab = vocab
        self.counts: dict[tuple[int, ...], dict[int, float]] = counts
        self.provenance = provenance
        self._dist_cache: dict[tuple[int, ...], Distribution] = {}
        # specdec.draft's rows: temperature -> code of the padded context ->
        # the tempered next_dist. Each temperature's table is bounded like
        # _dist_cache, and at most core._TEMPERATURES_KEPT temperatures are kept.
        self._draft_rows: dict[float, dict[int, Distribution]] = {}
        # The shape of a context's code, which specdec.draft keys its rows by:
        # |V|, order - 1 and the place value of the oldest id, |V| ** (order - 2),
        # or 0 when the context holds no id.
        size, n1 = vocab.size, self.order - 1
        self._code_shape = (size, n1, size ** (n1 - 1) if n1 else 0)
        # The add-k uniform every context without counts shares; it is kept
        # out of _dist_cache, so unseen contexts cost no cache entry.
        self._uniform = Distribution(np.full(size, self.k, dtype=np.float64) / (self.k * size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramModel):
            return NotImplemented
        return (self.order == other.order and self.k == other.k
                and self.vocab == other.vocab and self.provenance == other.provenance
                and self.counts == other.counts)

    __hash__ = None

    def __getstate__(self):
        return {**self.__dict__, "_dist_cache": {}, "_draft_rows": {}}

    def _pad_context(self, context) -> tuple[int, ...]:
        n1 = self.order - 1
        tail = tuple(context[-n1:]) if n1 else ()
        return (BOS_ID,) * (n1 - len(tail)) + tail

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
    _CHUNK_CHARS characters; the last group may hold fewer. A record with an
    empty completion raises ValueError."""
    group, size = [], 0
    for i, (prompt, completion) in enumerate(corpus.records):
        if completion == "":
            raise ValueError(f"training record {i} has an empty completion")
        group.append(prompt + completion)
        size += len(group[-1])
        if size >= _CHUNK_CHARS:
            yield group
            group, size = [], 0
    if group:
        yield group


def _dense_rank(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Each code's rank among the distinct codes, which sorts like the code,
    and the number of bits the ranks take."""
    distinct, rank = np.unique(codes, return_inverse=True)
    return rank.astype(np.uint64), (len(distinct) - 1).bit_length()


def _padded_stream(texts: list[str], vocab: Vocabulary, order: int) -> np.ndarray:
    """Each text's ids led by order - 1 <bos> and followed by <eos>, as one
    uint32 array. The ids are written through a mask of their places, one
    byte per character, and no temporary outlives the call. They are encoded
    before the stream is made, so encode_array's temporaries and the stream
    are never held at once."""
    ids = encode_array("".join(texts), vocab)
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    ends = np.cumsum(lengths + order)
    stream = np.full(ends[-1], BOS_ID, dtype="<u4")
    is_id = np.ones(len(stream), dtype=bool)
    is_id[ends - 1] = False
    for j in range(order - 1):
        is_id[ends - lengths - order + j] = False
    stream[is_id] = ids
    stream[ends - 1] = EOS_ID
    return stream


def _distinct_rows(bits: int, rows: np.ndarray, sizes: Optional[np.ndarray] = None,
                   keep: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, order) array of ids below 2 ** bits, first
    seen first, and how often each occurs or, given sizes, the sum of its
    rows' sizes. keep, if given, masks the rows that count."""
    # Row i's code packs its ids, bits apiece, then i in the low pos_bits, so
    # codes sort like rows, and equal rows by position. A code with no room for
    # the next field is replaced by its dense rank, which sorts alike in fewer bits.
    n, order = rows.shape
    pos_bits = (n - 1).bit_length()
    code, used = np.zeros(n, np.uint64), 0
    for j in range(order + 1):
        width = bits if j < order else pos_bits
        if used + width > 64:
            code, used = _dense_rank(code)
        code <<= width
        code |= rows[:, j] if j < order else np.arange(n, dtype=np.uint64)
        used += width
    if keep is not None:
        code = code[keep]
    # Sorted, equal rows sit together, each run led by its first occurrence.
    code.sort()
    row = code >> pos_bits
    starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    position = np.uint64((1 << pos_bits) - 1)
    if sizes is None:
        sizes = np.diff(starts, append=len(code))
    else:
        sizes = np.add.reduceat(sizes[(code & position).astype(np.intp)], starts)
    first = (code[starts] & position).astype(np.intp)
    seen = np.argsort(first)
    return rows[first[seen]], sizes[seen]


def _distinct_windows(texts: list[str], vocab: Vocabulary, order: int) -> tuple[np.ndarray, ...]:
    """The distinct windows of the texts' padded stream, first seen first, as
    an (m, order) id array, and how often each occurs."""
    stream = _padded_stream(texts, vocab, order)
    # <bos> is no one-character token, so encoded text never holds it and
    # the windows that end on <bos> are exactly those that end on padding.
    return _distinct_rows((vocab.size - 1).bit_length(), sliding_window_view(stream, order),
                          keep=stream[order - 1:] != BOS_ID)


def _corpus_windows(corpus: Corpus, vocab: Vocabulary, order: int) -> tuple[np.ndarray, ...]:
    """_distinct_windows of the corpus, a group of records at a time. Later
    groups are held, then merged into the windows so far by one sort, once
    their rows reach the larger of _CHUNK_CHARS and the merged rows, and at
    the end; the merged windows stay first seen first."""
    groups = (_distinct_windows(texts, vocab, order) for texts in _record_groups(corpus))
    bits = (vocab.size - 1).bit_length()
    held, rows = [next(groups, (np.zeros((0, order), "<u4"), np.zeros(0, np.int64)))], 0
    for group in groups:
        held.append(group)
        rows += len(group[1])
        if rows >= max(_CHUNK_CHARS, len(held[0][1])):
            held, rows = [_distinct_rows(bits, *map(np.concatenate, zip(*held)))], 0
    return _distinct_rows(bits, *map(np.concatenate, zip(*held))) if len(held) > 1 else held[0]


def _accumulate(model: NGramModel, corpus: Corpus, weight: float) -> None:
    """Add weight for every (context, token) window of each record's
    <bos>-padded, <eos>-terminated stream to model.counts, as if one
    `+= weight` step were taken per window, record by record. The model must
    not have been published yet."""
    n1 = model.order - 1
    windows, sizes = _corpus_windows(corpus, model.vocab, model.order)
    # First seen first, the windows insert contexts and, within each, tokens
    # in the order a window-by-window pass would.
    contexts = list(zip(*windows[:, :n1].T.tolist())) if n1 else [()] * len(sizes)
    pairs = zip(contexts, windows[:, n1].tolist())
    counts = model.counts
    # At weight 1 each window is new to an empty model, so its count is its
    # size, and no total comes near the largest float.
    if weight == 1.0 and not counts:
        for (ctx, tok), n in zip(pairs, sizes.astype(np.float64).tolist()):
            counts.setdefault(ctx, {})[tok] = n
        return
    for (ctx, tok), n in zip(pairs, sizes.tolist()):
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
    # A model's own counts may hold a total near the largest float.
    k_total = model.k * model.vocab.size
    for ctx in dict.fromkeys(contexts):
        if not _total_is_finite(k_total, counts[ctx]):
            raise ValueError(f"context {ctx}'s counts plus k per vocabulary id sum past "
                             f"the largest float")


def pretrain(corpus: Corpus, order: int, k: float = 0.5,
             vocab: Optional[Vocabulary] = None, provenance: str = "pretrained") -> NGramModel:
    """Count n-grams over <bos>-padded, <eos>-terminated prompt+completion streams.

    When no vocabulary is supplied, one is built from the corpus itself; pass
    a shared vocabulary when several models must interoperate.
    """
    if len(corpus) == 0:
        raise ValueError("pretrain requires a non-empty corpus")
    if vocab is None:
        vocab = build_vocab(text for record in corpus.records for text in record)
    model = NGramModel(order, k, vocab, {}, provenance)
    _accumulate(model, corpus, 1.0)
    return model


def finetune(model: NGramModel, corpus: Corpus, weight: float = 1.0) -> NGramModel:
    """New model with counts = model.counts + weight * counts(corpus).

    The input model is left untouched. Unknown characters in the corpus encode
    to <unk> under the model's vocabulary.
    """
    check_positive("finetune weight", weight)
    tag = f"{corpus.langs[0]}-{corpus.langs[1]}" if corpus.langs else "untagged"
    tuned = NGramModel(model.order, model.k, model.vocab, {},
                       provenance=f"{model.provenance};finetuned:{tag}")
    tuned.counts.update({ctx: dict(per_tok) for ctx, per_tok in model.counts.items()})
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
    lines = [f"version={MODEL_FORMAT_VERSION}", f"order={model.order}", f"k={model.k!r}",
             f"provenance={model.provenance}", f"vocab={model.vocab.size}",
             *vocab_lines(model.vocab)]
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


def _add_count_group(group: list[str], model: NGramModel, shared: dict, ids: dict,
                     previous: tuple) -> tuple:
    """Check a group of count lines with array comparisons, add them to the
    unpublished model's counts and return the last key. A failed check raises
    ModelFormatError with its reason and leaves the counts untouched; for a
    group of one line the checks run in the order a line is read. previous is
    the key before the group's first line. shared and ids map each count and
    in-range id spelling seen so far to its value."""
    order, counts = model.order, model.counts
    if set(map(str.count, group, repeat(" "))) != {order}:
        raise ModelFormatError(f"expected {order + 1} fields")
    width = order + 1
    fields = " ".join(group).split(" ")
    spellings = fields[order::width]
    del fields[order::width]
    try:
        new_ids = {raw: int(raw) for raw in set(fields).difference(ids)}
        new_counts = {raw: float(raw) for raw in set(spellings).difference(shared)}
    except ValueError:
        raise ModelFormatError("unparsable count entry") from None
    if not all(0 <= i < model.vocab.size for i in new_ids.values()):
        raise ModelFormatError("token id out of range")
    if not all(0.0 <= count < math.inf for count in new_counts.values()):
        raise ModelFormatError("count must be finite and >= 0")
    ids.update(new_ids)
    keys = np.fromiter(map(ids.__getitem__, fields), np.int64, len(fields)).reshape(-1, order)
    rows = np.concatenate((np.array(previous, np.int64).reshape(-1, order), keys))
    later, earlier = rows[1:], rows[:-1]
    step = later != earlier
    # Each key must exceed the one before it at their first differing id;
    # equal keys differ nowhere and fail at id 0.
    first = step.argmax(1)
    at = np.arange(len(first))
    if not (later[at, first] > earlier[at, first]).all():
        raise ModelFormatError("count lines must be strictly increasing")
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
    # Built before any count line is read, so its order and k are checked
    # first; the count lines are checked as they are added.
    model = NGramModel(order, k, parse_vocab_lines(lines[5:vocab_end]), {}, provenance)
    n_counts = _header_value(lines, vocab_end, "counts", int)
    counts_start = vocab_end + 1
    if counts_start + n_counts != len(lines):
        raise ModelFormatError(
            f"counts={n_counts} but {len(lines) - counts_start} count lines follow")
    # Most counts are a few small whole numbers, so lines that spell a count
    # alike share one float object.
    shared: dict[str, float] = {}
    ids: dict[str, int] = {}
    previous: tuple[int, ...] = ()
    for lo in range(counts_start, len(lines), _GROUP_LINES):
        group = lines[lo:lo + _GROUP_LINES]
        try:
            previous = _add_count_group(group, model, shared, ids, previous)
        except ModelFormatError:
            # Check the group again one line at a time, so that the error
            # names its first bad line.
            for ln, line in enumerate(group, start=lo + 1):
                try:
                    previous = _add_count_group([line], model, shared, ids, previous)
                except ModelFormatError as exc:
                    raise ModelFormatError(f"line {ln}: {exc}") from None
    # A context holds at most |V| counts, so unless the largest count is near
    # the largest float over |V|, no context's total can pass it.
    k_total = model.k * model.vocab.size
    if (model.k + max(shared.values(), default=0.0)) * model.vocab.size * 2 == math.inf:
        ln = counts_start
        for per_tok in model.counts.values():
            if not _total_is_finite(k_total, per_tok):
                # Name the line whose count takes the total past it.
                ln += next(j for j in range(1, len(per_tok) + 1)
                           if not _total_is_finite(k_total, dict(islice(per_tok.items(), j))))
                raise ModelFormatError(f"line {ln}: its context's counts plus k per vocabulary "
                                       f"id sum past the largest float")
            ln += len(per_tok)
    return model


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
    langs, meta, records, in_header = None, {}, [], True
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
    kept, used = [], 0
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
