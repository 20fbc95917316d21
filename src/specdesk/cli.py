"""Command-line surface: vocabulary and corpus management, training,
distillation, decoding, benchmarking, and drafter routing.

Every command accepts --config. A config file supplies values for the
command's value flags (section named after the command path, e.g.
[train.pretrain], key named after the flag's dest); explicit flags win. Exit
codes are documented in --help.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from ._version import __version__
from .core import (FormatError, build_vocab, check_temperature, decode_tokens, encode, load_vocab,
                   read_sections, save_vocab)
from .lm import (
    Corpus,
    ModelVersionError,
    check_order,
    check_positive,
    finetune,
    load_corpus,
    load_model,
    pretrain,
    save_corpus,
    save_model,
    truncate_corpus,
)
from .bench import (
    CostModel,
    EvalConfig,
    ExperimentGrid,
    check_budgets,
    emit_report,
    grid_configs,
    run_grid,
    scaling_curve,
)
from .distill import (DEFAULT_TEMPERATURES, DistillJob, check_wrapper, self_distill,
                      with_task_prompts)
from .routing import load_registry, select_drafter
from .specdec import MAX_DRAFT_LEN, SpecConfig, VocabularyMismatchError, decode_speculative

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_VOCAB_MISMATCH = 5
EXIT_INVALID = 6
EXIT_INTERNAL = 70

_EPILOG = """\
exit codes:
  0   success
  2   usage error (unknown flag, missing required option)
  3   missing input file
  4   malformed file (model, corpus, vocabulary, config, registry) or
      unsupported model format version
  5   vocabulary mismatch between models
  6   invalid value (bad temperature, weight, budget, language tag, ...) or
      a path that is not a usable file or directory; an unusable --out or
      --out-dir exits 6 before any input is read
  70  unexpected internal error
"""


class UsageError(Exception):
    pass


def parse_config(path) -> dict:
    """Config file: '[section]' headers over 'key = value' lines, '#'
    comments. Returns {section: {key: value}} preserving file order."""
    sections = read_sections(path)
    if None in sections:
        raise FormatError(f"{path}: key outside any [section]")
    return sections


def _reject_unknown(config_path, section: str, values: dict, known) -> None:
    for key in values:
        if key not in known:
            raise FormatError(f"{config_path}: unknown key {key!r} in [{section}]")


def _apply_config(args) -> None:
    """Set each value flag from its explicit value, else from the command's
    config section (a repeatable flag's key takes a comma-separated value),
    parsed with the flag's parser either way; else from its default. A value
    the parser rejects exits 6 with a message naming the flag and its key, a
    required flag still unset exits 2, and a key that names no value flag
    exits 4."""
    section = parse_config(args.config).get(args.command_path, {}) if args.config else {}
    _reject_unknown(args.config, args.command_path, section, args.value_flags)
    for dest, action in args.value_flags.items():
        raw = getattr(args, dest)  # an explicit flag wins
        if raw is None and dest in section:
            repeated = isinstance(action, argparse._AppendAction)
            raw = section[dest].split(",") if repeated else section[dest]
        if raw is not None:
            parse = _naming(f"{action.option_strings[0]} (config key {dest})", args.parsers[dest])
            setattr(args, dest, [parse(v) for v in raw] if isinstance(raw, list) else parse(raw))
        elif dest in args.required:
            raise UsageError(f"missing required option {action.option_strings[0]}")
        else:
            setattr(args, dest, args.flag_defaults.get(dest))


def _check_outputs(args) -> None:
    """Raise ValueError, naming the path, for an --out that is a directory or
    whose directory does not exist, and for an --out-dir that is a file or
    lies under one; run before any input is read, so such a path exits 6
    without doing work. Paths are read as the writers read them, as a Path."""
    out, out_dir = getattr(args, "out", None), getattr(args, "out_dir", None)
    if out is not None:
        path = Path(out)
        if path.is_dir():
            raise ValueError(f"{out}: Is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"{out}: {path.parent} is not a directory")
    if out_dir is not None:
        path = Path(out_dir)
        if path.exists() and not path.is_dir():
            raise ValueError(f"{out_dir}: File exists")
        if not all(p.is_dir() for p in path.parents if p.exists()):
            raise ValueError(f"{out_dir}: Not a directory")


def _naming(name: str, parse):
    """parse, with a ValueError it raises prefixed by the name of the input."""
    def parse_named(raw):
        try:
            return parse(raw)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return parse_named


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(","))

def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(","))


def _count(raw: str) -> int:
    """An int that counts tokens or samples, so at least 1."""
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _draft_len(raw: str) -> int:
    value = _count(raw)
    if value > MAX_DRAFT_LEN:
        raise ValueError(f"must be at most {MAX_DRAFT_LEN}, got {value}")
    return value


def _checked(parse, check):
    """parse, then the library's own check of the value it returns."""
    def parse_checked(raw):
        value = parse(raw)
        check(value)
        return value
    return parse_checked


_order = _checked(int, check_order)
_smoothing = _checked(float, partial(check_positive, "smoothing k"))
_weight = _checked(float, partial(check_positive, "finetune weight"))
_temperature = _checked(float, check_temperature)


def _temperatures(raw: str) -> tuple[float, ...]:
    return tuple(map(_temperature, raw.split(",")))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _training_corpus(args) -> Corpus:
    """The --corpus records, instruction-wrapped and without empty completions
    when --task-prompts and --skip-empty ask for it. None left is an invalid
    --corpus, as training on nothing would write an untrained or unchanged model."""
    corpus = load_corpus(args.corpus)
    if args.task_prompts:
        corpus = with_task_prompts(corpus)
    if args.skip_empty:
        kept = corpus.without_empty_completions()
        if len(kept) < len(corpus):
            _note(f"note: skipped {len(corpus) - len(kept)} record(s) with empty completions")
        corpus = kept
    if not corpus.records:
        raise ValueError(f"--corpus (config key corpus): {args.corpus} leaves no record to "
                         f"train on")
    return corpus


def cmd_vocab_build(args) -> int:
    chunks = []
    for path in args.corpus:
        corpus = load_corpus(path)
        for prompt, completion in corpus:
            chunks.append(prompt)
            chunks.append(completion)
    vocab = build_vocab(chunks)
    save_vocab(vocab, args.out)
    _note(f"wrote {args.out} ({vocab.size} tokens)")
    return EXIT_OK


def cmd_train_pretrain(args) -> int:
    corpus = _training_corpus(args)
    vocab = load_vocab(args.vocab) if args.vocab else None
    model = pretrain(corpus, order=args.order, k=args.k, vocab=vocab)
    save_model(model, args.out)
    _note(f"wrote {args.out} (order={args.order}, k={args.k}, {len(corpus)} records)")
    return EXIT_OK


def cmd_train_finetune(args) -> int:
    model = load_model(args.model)
    corpus = _training_corpus(args)
    if args.max_tokens is not None:
        kept = truncate_corpus(corpus, args.max_tokens)
        if not kept.records:
            raise ValueError(f"--max-tokens (config key max_tokens): {args.max_tokens} keeps "
                             f"no record of the corpus")
        corpus = kept
    tuned = finetune(model, corpus, args.weight)
    save_model(tuned, args.out)
    _note(f"wrote {args.out} ({len(corpus)} records, weight={args.weight})")
    return EXIT_OK


def cmd_distill(args) -> int:
    target = load_model(args.target)
    prompts = load_corpus(args.prompts)
    job = DistillJob(target=target, prompts=prompts, temperatures=args.temps,
                     samples_per_temperature=args.samples, max_len=args.max_len,
                     seed=args.seed, wrapper=args.wrapper)
    corpus = self_distill(job, skip_empty=args.skip_empty)
    save_corpus(corpus, args.out)
    _note(f"wrote {args.out} ({len(corpus)} records)")
    return EXIT_OK


def cmd_decode(args) -> int:
    spec = SpecConfig(draft_len=args.K, temperature=args.T,
                      max_new_tokens=args.max_new, seed=args.seed)
    prompt = sys.stdin.read().rstrip("\r\n") if args.prompt == "-" else args.prompt
    target = load_model(args.target)
    drafter = load_model(args.drafter)
    tokens, stats = decode_speculative(target, drafter, encode(prompt, target.vocab), spec)
    print(decode_tokens(tokens, target.vocab))
    if args.stats:
        print(json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def _load_named(section: dict, what: str, load) -> dict:
    if not section:
        raise UsageError(f"config must list at least one {what}")
    return {name: load(path) for name, path in section.items()}


# [grid]/[scaling] evaluation keys -> (library argument, parser). Only the keys
# a config sets are passed, so an omitted key takes the library default.
_EVAL_KEYS = {
    "K": ("draft_len", int),
    "temps": ("temperatures", _floats),
    "temperature": ("temperature", float),
    "seeds": ("seeds", _ints),
    "max_new": ("max_new_tokens", int),
    "max_prompts": ("max_prompts", int),
    "cost_c": ("cost", lambda raw: CostModel(float(raw))),
    "weight": ("finetune_weight", float),
    "budgets": ("token_budgets", _ints),
}


def _bench_config(args, section: str, required: tuple[str, ...], keys: tuple[str, ...]):
    """The config, its [section], and library arguments for the evaluation keys
    the section sets. A required key missing exits 2, a key not read exits 4."""
    if not args.config:
        raise UsageError(f"bench {args.subcmd} requires --config")
    config = parse_config(args.config)
    values = config.get(section, {})
    for key in required:
        if key not in values:
            raise UsageError(f"config [{section}] must set {key}")
    _reject_unknown(args.config, section, values, required + keys)
    kwargs = {}
    for key in keys:
        if key in values:
            name, parse = _EVAL_KEYS[key]
            kwargs[name] = _naming(f"[{section}] {key}", parse)(values[key])
    return config, values, kwargs


def cmd_bench_grid(args) -> int:
    config, grid_cfg, kwargs = _bench_config(
        args, "grid", ("target",), ("K", "temps", "seeds", "max_new", "max_prompts", "cost_c"))
    # run_grid checks jobs and the knobs too, but only after every file is read.
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    # An axis the config leaves unset takes ExperimentGrid's default.
    axes = {k: kwargs.pop(k, getattr(ExperimentGrid, k))
            for k in ("draft_len", "temperatures", "seeds")}
    grid_configs(**axes, **kwargs)
    target = load_model(grid_cfg["target"])
    drafters = _load_named(config.get("grid.drafters", {}), "drafter", load_model)
    corpora = _load_named(config.get("grid.corpora", {}), "corpus", load_corpus)
    result = run_grid(target, ExperimentGrid(drafters, corpora, **axes), **kwargs, jobs=args.jobs)
    csv_path, md_path = emit_report(result.to_table(), args.out_dir, basename="grid")
    for err in result.errors:
        _note(f"cell error: {err.drafter}/{err.corpus}/T={err.temperature}/seed={err.seed}: {err.message}")
    _note(f"wrote {csv_path} and {md_path} ({len(result.rows)} rows, {len(result.errors)} errors)")
    return EXIT_OK


def cmd_bench_scaling(args) -> int:
    _, sc, kwargs = _bench_config(
        args, "scaling", ("target", "drafter", "corpus", "eval", "budgets"),
        ("budgets", "K", "temperature", "seeds", "max_new", "max_prompts", "cost_c", "weight"))
    # scaling_curve checks these too, but only after every file is read.
    budgets = check_budgets(kwargs.pop("token_budgets"))
    cfg = EvalConfig(**kwargs)
    target = load_model(sc["target"])
    drafter_base = load_model(sc["drafter"])
    corpus = load_corpus(sc["corpus"])
    eval_corpus = load_corpus(sc["eval"])
    curve = scaling_curve(target, drafter_base, corpus, budgets, eval_corpus, cfg)
    csv_path, md_path = emit_report(curve.to_table(), args.out_dir, basename="scaling")
    _note(f"wrote {csv_path} and {md_path} "
          f"(spearman mean_accepted={curve.spearman_mean_accepted:.4f})")
    return EXIT_OK


def cmd_route(args) -> int:
    print(select_drafter(args.text, load_registry(args.registry)))
    return EXIT_OK


def _takes_config(parser, handler, command_path: str, required: tuple[str, ...] = (),
                  **defaults) -> None:
    """Run handler for parser's command, with its value flags (not --config)
    settable from the [command_path] config section. A default is shown in
    the flag's help. argparse keeps each flag's raw string, so _apply_config
    parses a flag and a key with the same parser."""
    value_flags = {a.dest: a for a in parser._actions
                   if a.option_strings and a.nargs != 0 and a.dest != "config"}
    parsers = {dest: action.type or str for dest, action in value_flags.items()}
    for action in value_flags.values():
        action.type = None
    for dest, value in defaults.items():
        shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
        value_flags[dest].help += f" (default {shown})"
    parser.set_defaults(handler=handler, command_path=command_path, value_flags=value_flags,
                        parsers=parsers, required=required, flag_defaults=defaults)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file supplying flag values")

    parser = argparse.ArgumentParser(
        prog="specdesk",
        description="Speculative decoding at desk scale: train drafters, distill, decode, benchmark.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"specdesk {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    vocab = sub.add_parser("vocab", help="vocabulary management")
    vocab_sub = vocab.add_subparsers(dest="subcmd", required=True)
    vb = vocab_sub.add_parser("build", parents=[common], help="build a vocabulary from corpora")
    vb.add_argument("--corpus", action="append", help="corpus TSV (repeatable)")
    vb.add_argument("--out", help="output vocabulary file")
    _takes_config(vb, cmd_vocab_build, "vocab.build", ("corpus", "out"))

    train = sub.add_parser("train", help="model training")
    train_sub = train.add_subparsers(dest="subcmd", required=True)
    tp = train_sub.add_parser("pretrain", parents=[common], help="train a model from scratch")
    tp.add_argument("--corpus", help="training corpus TSV")
    tp.add_argument("--order", type=_order, help="n-gram order, 1 to 64")
    tp.add_argument("--k", type=_smoothing, help="add-k smoothing constant")
    tp.add_argument("--vocab", help="shared vocabulary file (default: build from corpus)")
    tp.add_argument("--out", help="output model file")
    tp.add_argument("--task-prompts", action="store_true",
                    help="wrap prompts in the translation instruction before training")
    tp.add_argument("--skip-empty", action="store_true",
                    help="drop records with empty completions instead of failing")
    _takes_config(tp, cmd_train_pretrain, "train.pretrain", ("corpus", "out"), order=2, k=0.5)

    tf = train_sub.add_parser("finetune", parents=[common], help="finetune an existing model")
    tf.add_argument("--model", help="input model file")
    tf.add_argument("--corpus", help="finetuning corpus TSV")
    tf.add_argument("--weight", type=_weight, help="count weight")
    tf.add_argument("--max-tokens", type=_count, dest="max_tokens",
                    help="truncate the corpus to this many tokens")
    tf.add_argument("--out", help="output model file")
    tf.add_argument("--task-prompts", action="store_true",
                    help="wrap prompts in the translation instruction before training")
    tf.add_argument("--skip-empty", action="store_true",
                    help="drop records with empty completions instead of failing")
    _takes_config(tf, cmd_train_finetune, "train.finetune", ("model", "corpus", "out"),
                  weight=1.0)

    ds = sub.add_parser("distill", parents=[common],
                        help="generate a drafter training corpus from a target model")
    ds.add_argument("--target", help="target model file")
    ds.add_argument("--prompts", help="prompt corpus TSV (source texts)")
    ds.add_argument("--temps", type=_temperatures, help="temperature schedule")
    ds.add_argument("--samples", type=_count, help="samples per nonzero temperature")
    ds.add_argument("--max-len", type=_count, dest="max_len", help="max completion length")
    ds.add_argument("--wrapper", type=check_wrapper,
                    help="chat template with a {prompt} placeholder")
    ds.add_argument("--seed", type=int, help="base seed for all randomness")
    ds.add_argument("--out", help="output corpus TSV")
    ds.add_argument("--skip-empty", action="store_true", help="drop empty generations")
    _takes_config(ds, cmd_distill, "distill", ("target", "prompts", "out"),
                  temps=DEFAULT_TEMPERATURES, samples=1, max_len=64, seed=0)

    dc = sub.add_parser("decode", parents=[common], help="speculative decode a prompt")
    dc.add_argument("--target", help="target model file")
    dc.add_argument("--drafter", help="drafter model file")
    dc.add_argument("--prompt", help="prompt text, or '-' to read stdin")
    dc.add_argument("--T", type=_temperature, help="temperature")
    dc.add_argument("--K", type=_draft_len, help="draft length")
    dc.add_argument("--max-new", type=_count, dest="max_new", help="max new tokens")
    dc.add_argument("--seed", type=int, help="base seed for all randomness")
    dc.add_argument("--stats", action="store_true",
                    help="print decode statistics as one JSON line after the text")
    _takes_config(dc, cmd_decode, "decode", ("target", "drafter", "prompt"),
                  T=0.0, K=5, max_new=128, seed=0)

    bench = sub.add_parser("bench", help="benchmark experiments")
    bench_sub = bench.add_subparsers(dest="subcmd", required=True)
    bg = bench_sub.add_parser("grid", parents=[common],
                              help="drafter x corpus evaluation grid from a config file")
    bg.add_argument("--out-dir", dest="out_dir", required=True, help="report output directory")
    bg.add_argument("--jobs", type=int, default=1, help="worker processes for grid cells")
    bg.set_defaults(handler=cmd_bench_grid)

    bs = bench_sub.add_parser("scaling", parents=[common],
                              help="finetune-token scaling curve from a config file")
    bs.add_argument("--out-dir", dest="out_dir", required=True, help="report output directory")
    bs.set_defaults(handler=cmd_bench_scaling)

    rt = sub.add_parser("route", parents=[common], help="select a drafter for a prompt")
    rt.add_argument("--registry", help="drafter registry file")
    rt.add_argument("--text", help="input text to classify")
    _takes_config(rt, cmd_route, "route", ("registry", "text"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "command_path" in args:  # bench commands read their own sections
            _apply_config(args)
        _check_outputs(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing-file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ModelVersionError as exc:
        print(f"error: version-mismatch: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except VocabularyMismatchError as exc:
        print(f"error: vocab-mismatch: {exc}", file=sys.stderr)
        return EXIT_VOCAB_MISMATCH
    except ValueError as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        if exc.filename is not None:  # a path that is not a usable file or directory
            print(f"error: invalid: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_INVALID
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
