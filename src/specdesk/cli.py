"""Command-line surface: vocabulary and corpus management, training,
distillation, decoding, benchmarking, and drafter routing.

Every command accepts --seed and --config. A config file supplies defaults for
the command's flags (section named after the command path, e.g.
[train.pretrain]); explicit flags win. Exit codes are documented in --help.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .core import (FormatError, build_vocab, decode_tokens, encode, load_vocab, read_sections,
                   save_vocab)
from .lm import (
    Corpus,
    ModelVersionError,
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
    emit_report,
    run_grid,
    scaling_curve,
)
from .distill import DistillJob, self_distill, with_task_prompts
from .routing import load_registry, select_drafter
from .specdec import SpecConfig, VocabularyMismatchError, decode_speculative

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
  6   invalid value (bad temperature, weight, budget, language tag, ...)
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


def _section(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    return parse_config(args.config).get(args.command_path, {})


def _resolve(args_value, cfg: dict, key: str, *, default=None, parse=None, required=False):
    if args_value is not None:
        return args_value
    if key in cfg:
        raw = cfg[key]
        return parse(raw) if parse else raw
    if required:
        raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return default


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p != "")

def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p != "")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _maybe_task_prompts(corpus: Corpus, flag: bool) -> Corpus:
    return with_task_prompts(corpus) if flag else corpus


def _maybe_skip_empty(corpus: Corpus, flag: bool) -> Corpus:
    if not flag:
        return corpus
    kept = corpus.without_empty_completions()
    dropped = len(corpus) - len(kept)
    if dropped:
        _note(f"note: skipped {dropped} record(s) with empty completions")
    return kept


def cmd_vocab_build(args) -> int:
    cfg = _section(args)
    paths = args.corpus if args.corpus else _resolve(None, cfg, "corpus", parse=lambda v: v.split(","), required=True)
    out = _resolve(args.out, cfg, "out", required=True)
    chunks = []
    for path in paths:
        corpus = load_corpus(path)
        for prompt, completion in corpus:
            chunks.append(prompt)
            chunks.append(completion)
    vocab = build_vocab(chunks)
    save_vocab(vocab, out)
    _note(f"wrote {out} ({vocab.size} tokens)")
    return EXIT_OK


def cmd_train_pretrain(args) -> int:
    cfg = _section(args)
    corpus_path = _resolve(args.corpus, cfg, "corpus", required=True)
    out = _resolve(args.out, cfg, "out", required=True)
    order = _resolve(args.order, cfg, "order", default=2, parse=int)
    k = _resolve(args.k, cfg, "k", default=0.5, parse=float)
    vocab_path = _resolve(args.vocab, cfg, "vocab")
    corpus = load_corpus(corpus_path)
    corpus = _maybe_task_prompts(corpus, args.task_prompts)
    corpus = _maybe_skip_empty(corpus, args.skip_empty)
    vocab = load_vocab(vocab_path) if vocab_path else None
    model = pretrain(corpus, order=order, k=k, vocab=vocab)
    save_model(model, out)
    _note(f"wrote {out} (order={order}, k={k}, {len(corpus)} records)")
    return EXIT_OK


def cmd_train_finetune(args) -> int:
    cfg = _section(args)
    model_path = _resolve(args.model, cfg, "model", required=True)
    corpus_path = _resolve(args.corpus, cfg, "corpus", required=True)
    out = _resolve(args.out, cfg, "out", required=True)
    weight = _resolve(args.weight, cfg, "weight", default=1.0, parse=float)
    max_tokens = _resolve(args.max_tokens, cfg, "max_tokens", parse=int)
    model = load_model(model_path)
    corpus = load_corpus(corpus_path)
    corpus = _maybe_task_prompts(corpus, args.task_prompts)
    corpus = _maybe_skip_empty(corpus, args.skip_empty)
    if max_tokens is not None:
        corpus = truncate_corpus(corpus, max_tokens)
    tuned = finetune(model, corpus, weight)
    save_model(tuned, out)
    _note(f"wrote {out} ({len(corpus)} records, weight={weight})")
    return EXIT_OK


def cmd_distill(args) -> int:
    cfg = _section(args)
    target_path = _resolve(args.target, cfg, "target", required=True)
    prompts_path = _resolve(args.prompts, cfg, "prompts", required=True)
    out = _resolve(args.out, cfg, "out", required=True)
    temps = _resolve(args.temps, cfg, "temps", default=(0.0, 0.3, 0.7, 1.0), parse=_floats)
    samples = _resolve(args.samples, cfg, "samples", default=1, parse=int)
    max_len = _resolve(args.max_len, cfg, "max_len", default=64, parse=int)
    wrapper = _resolve(args.wrapper, cfg, "wrapper")
    target = load_model(target_path)
    prompts = load_corpus(prompts_path)
    job = DistillJob(target=target, prompts=prompts, temperatures=temps,
                     samples_per_temperature=samples, max_len=max_len,
                     seed=args.seed, wrapper=wrapper)
    corpus = self_distill(job, skip_empty=args.skip_empty)
    save_corpus(corpus, out)
    _note(f"wrote {out} ({len(corpus)} records)")
    return EXIT_OK


def cmd_decode(args) -> int:
    cfg = _section(args)
    target_path = _resolve(args.target, cfg, "target", required=True)
    drafter_path = _resolve(args.drafter, cfg, "drafter", required=True)
    prompt = _resolve(args.prompt, cfg, "prompt", required=True)
    temperature = _resolve(args.T, cfg, "T", default=0.0, parse=float)
    draft_len = _resolve(args.K, cfg, "K", default=5, parse=int)
    max_new = _resolve(args.max_new, cfg, "max_new", default=128, parse=int)
    if prompt == "-":
        prompt = sys.stdin.read().rstrip("\r\n")
    target = load_model(target_path)
    drafter = load_model(drafter_path)
    spec = SpecConfig(draft_len=draft_len, temperature=temperature,
                      max_new_tokens=max_new, seed=args.seed)
    tokens, stats = decode_speculative(target, drafter, encode(prompt, target.vocab), spec)
    print(decode_tokens(tokens, target.vocab))
    if args.stats:
        print(json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def _load_named_models(section: dict) -> dict:
    if not section:
        raise UsageError("config must list at least one drafter")
    return {name: load_model(path) for name, path in section.items()}


def _load_named_corpora(section: dict) -> dict:
    if not section:
        raise UsageError("config must list at least one corpus")
    return {name: load_corpus(path) for name, path in section.items()}


def cmd_bench_grid(args) -> int:
    if not args.config:
        raise UsageError("bench grid requires --config")
    config = parse_config(args.config)
    grid_cfg = config.get("grid", {})
    if "target" not in grid_cfg:
        raise UsageError("config [grid] must set target")
    target = load_model(grid_cfg["target"])
    drafters = _load_named_models(config.get("grid.drafters", {}))
    corpora = _load_named_corpora(config.get("grid.corpora", {}))
    grid = ExperimentGrid(
        drafters=drafters,
        corpora=corpora,
        temperatures=_floats(grid_cfg.get("temps", "0.0")),
        seeds=_ints(grid_cfg.get("seeds", "0,1,2")),
        draft_len=int(grid_cfg.get("K", "5")),
    )
    max_prompts = int(grid_cfg["max_prompts"]) if "max_prompts" in grid_cfg else None
    result = run_grid(
        target, grid,
        max_new_tokens=int(grid_cfg.get("max_new", "64")),
        cost=CostModel(float(grid_cfg.get("cost_c", "0.1"))),
        max_prompts=max_prompts,
        jobs=args.jobs,
    )
    csv_path, md_path = emit_report(result.to_table(), args.out_dir, basename="grid")
    for err in result.errors:
        _note(f"cell error: {err.drafter}/{err.corpus}/T={err.temperature}/seed={err.seed}: {err.message}")
    _note(f"wrote {csv_path} and {md_path} ({len(result.rows)} rows, {len(result.errors)} errors)")
    return EXIT_OK


def cmd_bench_scaling(args) -> int:
    if not args.config:
        raise UsageError("bench scaling requires --config")
    config = parse_config(args.config)
    sc = config.get("scaling", {})
    for key in ("target", "drafter", "corpus", "eval", "budgets"):
        if key not in sc:
            raise UsageError(f"config [scaling] must set {key}")
    target = load_model(sc["target"])
    drafter_base = load_model(sc["drafter"])
    corpus = load_corpus(sc["corpus"])
    eval_corpus = load_corpus(sc["eval"])
    cfg = EvalConfig(
        draft_len=int(sc.get("K", "5")),
        temperature=float(sc.get("temperature", "0.0")),
        max_new_tokens=int(sc.get("max_new", "48")),
        seeds=_ints(sc.get("seeds", "0,1,2")),
        cost=CostModel(float(sc.get("cost_c", "0.1"))),
        finetune_weight=float(sc.get("weight", "1.0")),
        max_prompts=int(sc["max_prompts"]) if "max_prompts" in sc else None,
    )
    curve = scaling_curve(target, drafter_base, corpus, _ints(sc["budgets"]), eval_corpus, cfg)
    csv_path, md_path = emit_report(curve.to_table(), args.out_dir, basename="scaling")
    _note(f"wrote {csv_path} and {md_path} "
          f"(spearman mean_accepted={curve.spearman_mean_accepted:.4f})")
    return EXIT_OK


def cmd_route(args) -> int:
    cfg = _section(args)
    registry_path = _resolve(args.registry, cfg, "registry", required=True)
    text = _resolve(args.text, cfg, "text", required=True)
    registry = load_registry(registry_path)
    print(select_drafter(text, registry))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    common.add_argument("--config", help="config file supplying flag defaults")

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
    vb.set_defaults(handler=cmd_vocab_build, command_path="vocab.build")

    train = sub.add_parser("train", help="model training")
    train_sub = train.add_subparsers(dest="subcmd", required=True)
    tp = train_sub.add_parser("pretrain", parents=[common], help="train a model from scratch")
    tp.add_argument("--corpus", help="training corpus TSV")
    tp.add_argument("--order", type=int, help="n-gram order (default 2)")
    tp.add_argument("--k", type=float, help="add-k smoothing constant (default 0.5)")
    tp.add_argument("--vocab", help="shared vocabulary file (default: build from corpus)")
    tp.add_argument("--out", help="output model file")
    tp.add_argument("--task-prompts", action="store_true",
                    help="wrap prompts in the translation instruction before training")
    tp.add_argument("--skip-empty", action="store_true",
                    help="drop records with empty completions instead of failing")
    tp.set_defaults(handler=cmd_train_pretrain, command_path="train.pretrain")

    tf = train_sub.add_parser("finetune", parents=[common], help="finetune an existing model")
    tf.add_argument("--model", help="input model file")
    tf.add_argument("--corpus", help="finetuning corpus TSV")
    tf.add_argument("--weight", type=float, help="count weight (default 1.0)")
    tf.add_argument("--max-tokens", type=int, dest="max_tokens",
                    help="truncate the corpus to this many tokens")
    tf.add_argument("--out", help="output model file")
    tf.add_argument("--task-prompts", action="store_true",
                    help="wrap prompts in the translation instruction before training")
    tf.add_argument("--skip-empty", action="store_true",
                    help="drop records with empty completions instead of failing")
    tf.set_defaults(handler=cmd_train_finetune, command_path="train.finetune")

    ds = sub.add_parser("distill", parents=[common],
                        help="generate a drafter training corpus from a target model")
    ds.add_argument("--target", help="target model file")
    ds.add_argument("--prompts", help="prompt corpus TSV (source texts)")
    ds.add_argument("--temps", type=_floats, help="temperature schedule (default 0.0,0.3,0.7,1.0)")
    ds.add_argument("--samples", type=int, help="samples per nonzero temperature (default 1)")
    ds.add_argument("--max-len", type=int, dest="max_len", help="max completion length (default 64)")
    ds.add_argument("--wrapper", help="chat template with a {prompt} placeholder")
    ds.add_argument("--out", help="output corpus TSV")
    ds.add_argument("--skip-empty", action="store_true", help="drop empty generations")
    ds.set_defaults(handler=cmd_distill, command_path="distill")

    dc = sub.add_parser("decode", parents=[common], help="speculative decode a prompt")
    dc.add_argument("--target", help="target model file")
    dc.add_argument("--drafter", help="drafter model file")
    dc.add_argument("--prompt", help="prompt text, or '-' to read stdin")
    dc.add_argument("--T", type=float, help="temperature (default 0.0)")
    dc.add_argument("--K", type=int, help="draft length (default 5)")
    dc.add_argument("--max-new", type=int, dest="max_new", help="max new tokens (default 128)")
    dc.add_argument("--stats", action="store_true",
                    help="print decode statistics as one JSON line after the text")
    dc.set_defaults(handler=cmd_decode, command_path="decode")

    bench = sub.add_parser("bench", help="benchmark experiments")
    bench_sub = bench.add_subparsers(dest="subcmd", required=True)
    bg = bench_sub.add_parser("grid", parents=[common],
                              help="drafter x corpus evaluation grid from a config file")
    bg.add_argument("--out-dir", dest="out_dir", required=True, help="report output directory")
    bg.add_argument("--jobs", type=int, default=1, help="worker processes for grid cells")
    bg.set_defaults(handler=cmd_bench_grid, command_path="bench.grid")

    bs = bench_sub.add_parser("scaling", parents=[common],
                              help="finetune-token scaling curve from a config file")
    bs.add_argument("--out-dir", dest="out_dir", required=True, help="report output directory")
    bs.set_defaults(handler=cmd_bench_scaling, command_path="bench.scaling")

    rt = sub.add_parser("route", parents=[common], help="select a drafter for a prompt")
    rt.add_argument("--registry", help="drafter registry file")
    rt.add_argument("--text", help="input text to classify")
    rt.set_defaults(handler=cmd_route, command_path="route")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
