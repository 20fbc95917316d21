import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import specdesk
from specdesk import (Corpus, DistillJob, NGramModel, SpecConfig, finetune, load_corpus,
                      load_model, save_corpus, save_model, specdec)
from specdesk.cli import EXIT_INTERNAL, build_parser, main
from specdesk.core import build_vocab, vocab_lines

import synth

# The directory that holds the imported specdesk package (src/ in a checkout,
# site-packages when installed). A relative PYTHONPATH such as "src" resolves
# to nothing from a workspace cwd, so the child is given this absolute path.
PACKAGE_ROOT = str(Path(specdesk.__file__).resolve().parents[1])


def run_cli(*args, cwd=None, stdin=None):
    """Run ``python -m specdesk`` on the same package this test process imported."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "specdesk", *args],
                          capture_output=True, text=True, input=stdin, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with corpora, shared vocab, and trained models, built via the CLI."""
    root = tmp_path_factory.mktemp("cli-ws")
    save_corpus(synth.make_bitext(("de", "en"), 25, seed=1), root / "de.tsv")
    save_corpus(synth.make_bitext(("ru", "en"), 25, seed=2), root / "ru.tsv")
    save_corpus(synth.general_corpus(25, seed=3), root / "general.tsv")
    save_corpus(synth.make_bitext(("de", "en"), 6, seed=4), root / "eval_de.tsv")
    save_corpus(synth.make_bitext(("ru", "en"), 6, seed=5), root / "eval_ru.tsv")
    # instruction characters must be in the shared vocabulary
    save_corpus(synth.Corpus(
        (("", "Translate German to English: Translate Russian to English: "),)),
        root / "seed-chars.tsv")

    steps = [
        ["vocab", "build", "--corpus", "de.tsv", "--corpus", "ru.tsv",
         "--corpus", "general.tsv", "--corpus", "seed-chars.tsv", "--out", "shared.vocab"],
        ["train", "pretrain", "--corpus", "de.tsv", "--vocab", "shared.vocab",
         "--order", "3", "--k", "0.2", "--task-prompts", "--out", "target_de.model"],
        ["train", "pretrain", "--corpus", "general.tsv", "--vocab", "shared.vocab",
         "--order", "2", "--k", "0.5", "--out", "base.model"],
        ["train", "finetune", "--model", "base.model", "--corpus", "de.tsv",
         "--task-prompts", "--weight", "1.0", "--out", "drafter_de.model"],
        ["train", "finetune", "--model", "base.model", "--corpus", "ru.tsv",
         "--task-prompts", "--weight", "1.0", "--out", "drafter_ru.model"],
    ]
    for step in steps:
        proc = run_cli(*step, cwd=root)
        assert proc.returncode == 0, proc.stderr
    return root


class TestTrainingCommands:
    def test_vocab_file_loadable(self, ws):
        from specdesk import load_vocab

        vocab = load_vocab(ws / "shared.vocab")
        assert vocab.size > 30

    def test_models_loadable_and_share_vocab(self, ws):
        target = load_model(ws / "target_de.model")
        drafter = load_model(ws / "drafter_de.model")
        assert target.vocab == drafter.vocab
        assert drafter.provenance == "pretrained;finetuned:de-en"

    def test_finetune_max_tokens_truncates(self, ws):
        proc = run_cli("train", "finetune", "--model", "base.model", "--corpus", "de.tsv",
                       "--max-tokens", "40", "--out", "tiny.model", cwd=ws)
        assert proc.returncode == 0, proc.stderr
        tiny = load_model(ws / "tiny.model")
        base = load_model(ws / "base.model")
        added = sum(sum(d.values()) for d in tiny.counts.values()) - \
            sum(sum(d.values()) for d in base.counts.values())
        # 40 corpus tokens plus one <eos> per record
        assert added <= 40 + 3


class TestDecodeCommand:
    def test_self_run_prints_identical_output(self, ws):
        args = ("decode", "--target", "target_de.model", "--drafter", "target_de.model",
                "--prompt", "Translate German to English: haus baum", "--T", "0",
                "--K", "4", "--max-new", "24")
        a = run_cli(*args, cwd=ws)
        b = run_cli(*args, cwd=ws)
        assert a.returncode == 0, a.stderr
        assert b.returncode == 0, b.stderr
        assert a.stdout == b.stdout

    def test_stats_json_reconciles(self, ws):
        proc = run_cli("decode", "--target", "target_de.model", "--drafter", "drafter_de.model",
                       "--prompt", "Translate German to English: wasser", "--T", "0",
                       "--K", "3", "--max-new", "16", "--stats", cwd=ws)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        stats = json.loads(lines[-1])
        assert stats["emitted_tokens"] + stats["truncated_tokens"] == \
            sum(stats["accepted_per_cycle"]) + stats["cycles"]
        assert stats["target_calls"] == stats["cycles"]
        assert "wall_time_ns" not in stats

    def test_stdin_prompt(self, ws):
        proc = run_cli("decode", "--target", "target_de.model", "--drafter",
                       "drafter_de.model", "--prompt", "-", "--max-new", "8",
                       cwd=ws, stdin="Translate German to English: licht\n")
        assert proc.returncode == 0, proc.stderr

    def test_seed_changes_sampled_output_not_greedy(self, ws):
        base = ("decode", "--target", "target_de.model", "--drafter", "drafter_de.model",
                "--prompt", "Translate German to English: stein", "--max-new", "20")
        g1 = run_cli(*base, "--T", "0", "--seed", "1", cwd=ws)
        g2 = run_cli(*base, "--T", "0", "--seed", "2", cwd=ws)
        assert g1.returncode == 0, g1.stderr
        assert g2.returncode == 0, g2.stderr
        assert g1.stdout == g2.stdout
        s1 = run_cli(*base, "--T", "0.7", "--seed", "1", cwd=ws)
        s2 = run_cli(*base, "--T", "0.7", "--seed", "2", cwd=ws)
        assert s1.returncode == 0, s1.stderr
        assert s2.returncode == 0, s2.stderr
        assert s1.stdout != s2.stdout

    def test_config_supplies_defaults_and_flags_win(self, ws):
        cfg = ws / "decode.cfg"
        cfg.write_text("[decode]\ntarget = target_de.model\ndrafter = target_de.model\n"
                       "T = 0.0\nK = 4\nmax_new = 12\n", encoding="utf-8")
        via_config = run_cli("decode", "--config", "decode.cfg",
                             "--prompt", "Translate German to English: haus", cwd=ws)
        assert via_config.returncode == 0, via_config.stderr
        explicit = run_cli("decode", "--target", "target_de.model", "--drafter",
                           "target_de.model", "--prompt", "Translate German to English: haus",
                           "--T", "0", "--K", "4", "--max-new", "12", cwd=ws)
        assert explicit.returncode == 0, explicit.stderr
        assert via_config.stdout == explicit.stdout

    def test_vanished_residual_decodes_with_exit_0(self, tmp_path, monkeypatch, capsys):
        # Every uniform is 1 - 2**-53, the largest Philox gives, so the first
        # drafted token is rejected where q(x)/p(x) = 1 - 2**-53 too.
        target, drafter = synth.rounding_pair()
        save_model(target, tmp_path / "target.model")
        save_model(drafter, tmp_path / "drafter.model")
        monkeypatch.setattr(specdec, "_Uniforms", synth.LargestUniform)
        code = main(["decode", "--target", str(tmp_path / "target.model"),
                     "--drafter", str(tmp_path / "drafter.model"), "--prompt", "c",
                     "--T", "1", "--K", "1", "--max-new", "3"])
        assert code == 0
        assert capsys.readouterr().out == "bbb\n"


class TestExitCodes:
    def test_usage_error_is_2(self, ws):
        assert run_cli("decode", "--no-such-flag", cwd=ws).returncode == 2

    def test_missing_required_option_is_2(self, ws):
        proc = run_cli("decode", "--prompt", "x", cwd=ws)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: usage:")

    def test_missing_file_is_3(self, ws):
        proc = run_cli("decode", "--target", "absent.model", "--drafter",
                       "target_de.model", "--prompt", "x", cwd=ws)
        assert proc.returncode == 3

    def test_malformed_model_is_4(self, ws):
        (ws / "broken.model").write_text("not a model\n", encoding="utf-8")
        proc = run_cli("decode", "--target", "broken.model", "--drafter",
                       "target_de.model", "--prompt", "x", cwd=ws)
        assert proc.returncode == 4

    def test_invalid_flag_is_6_before_any_model_is_read(self, ws):
        (ws / "broken.model").write_text("not a model\n", encoding="utf-8")
        proc = run_cli("decode", "--target", "broken.model", "--drafter", "broken.model",
                       "--prompt", "x", "--K", "0", cwd=ws)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr == "error: invalid: --K (config key K): must be >= 1, got 0\n"

    def test_finetune_weight_past_the_largest_float_is_6_and_writes_nothing(self, ws, capsys):
        out = ws / "overflowed.model"
        assert main(["train", "finetune", "--model", str(ws / "base.model"),
                     "--corpus", str(ws / "de.tsv"), "--weight", "1e306",
                     "--out", str(out)]) == 6
        assert not out.exists()
        assert re.fullmatch(r"error: invalid: context \(\d+,\)'s counts plus k per vocabulary "
                            r"id sum past the largest float\n", capsys.readouterr().err)

    def test_pretrain_k_past_the_largest_float_over_the_vocabulary_is_6(self, ws, capsys):
        out = ws / "k.model"
        assert main(["train", "pretrain", "--corpus", str(ws / "de.tsv"), "--order", "2",
                     "--k", "1e308", "--out", str(out)]) == 6
        assert not out.exists()
        assert re.fullmatch(r"error: invalid: smoothing k = 1e\+308 times the vocabulary size "
                            r"\d+ passes the largest float\n", capsys.readouterr().err)

    def test_version_mismatch_is_4_with_distinct_kind(self, ws):
        content = (ws / "target_de.model").read_text(encoding="utf-8")
        (ws / "future.model").write_text(content.replace("version=1", "version=9", 1),
                                         encoding="utf-8")
        proc = run_cli("decode", "--target", "future.model", "--drafter",
                       "target_de.model", "--prompt", "x", cwd=ws)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: version-mismatch:")

    def test_vocab_mismatch_is_5(self, ws):
        proc = run_cli("train", "pretrain", "--corpus", "de.tsv", "--order", "2",
                       "--out", "own_vocab.model", cwd=ws)
        assert proc.returncode == 0
        proc = run_cli("decode", "--target", "target_de.model", "--drafter",
                       "own_vocab.model", "--prompt", "x", cwd=ws)
        assert proc.returncode == 5

    def test_invalid_value_is_6(self, ws):
        proc = run_cli("decode", "--target", "target_de.model", "--drafter",
                       "target_de.model", "--prompt", "x", "--T", "-1", cwd=ws)
        assert proc.returncode == 6

    def test_draft_len_above_the_maximum_is_6(self, ws):
        proc = run_cli("decode", "--target", "target_de.model", "--drafter", "target_de.model",
                       "--prompt", "x", "--K", "1000000000", "--max-new", "1", cwd=ws)
        assert proc.returncode == 6
        assert proc.stderr == ("error: invalid: --K (config key K): must be at most "
                               f"{specdec.MAX_DRAFT_LEN}, got 1000000000\n")

    def test_non_finite_decode_temperature_is_6(self, ws):
        for t in ("nan", "inf"):
            proc = run_cli("decode", "--target", "target_de.model", "--drafter",
                           "target_de.model", "--prompt", "x", "--T", t, "--stats", cwd=ws)
            assert proc.returncode == 6
            assert proc.stdout == ""

    def test_tiny_decode_temperature_decodes_silently(self, ws):
        for t in ("1e-320", "1e-309", "1e-308"):
            proc = run_cli("decode", "--target", "target_de.model", "--drafter",
                           "drafter_de.model", "--prompt", "Translate German to English: haus",
                           "--T", t, "--max-new", "16", "--stats", cwd=ws)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            assert json.loads(proc.stdout.splitlines()[-1])["temperature"] == float(t)

    def test_order_above_the_maximum_is_4_in_a_file_and_6_as_a_flag(self, ws):
        huge = "4611686018427387904"
        lines = (ws / "base.model").read_text(encoding="utf-8").split("\n")
        end = next(i for i, line in enumerate(lines) if line.startswith("counts="))
        lines[1] = f"order={huge}"
        (ws / "huge.model").write_text("\n".join(lines[:end] + ["counts=0", ""]),
                                       encoding="utf-8")
        proc = run_cli("decode", "--target", "huge.model", "--drafter", "huge.model",
                       "--prompt", "x", cwd=ws)
        assert proc.returncode == 4, proc.stderr
        assert "order must be between 1 and" in proc.stderr
        proc = run_cli("train", "pretrain", "--corpus", "de.tsv", "--vocab", "shared.vocab",
                       "--order", huge, "--out", "huge_trained.model", cwd=ws)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.startswith("error: invalid:") and huge in proc.stderr
        assert not (ws / "huge_trained.model").exists()

    def test_bad_config_is_4(self, ws):
        for text in ("[decode]\nK = 3\nK = 4\n", "K = 3\n[decode]\n"):
            (ws / "bad.cfg").write_text(text, encoding="utf-8")
            proc = run_cli("decode", "--config", "bad.cfg", "--target", "target_de.model",
                           "--drafter", "target_de.model", "--prompt", "x", cwd=ws)
            assert proc.returncode == 4

    def test_vocab_token_not_one_character_is_4(self, ws):
        (ws / "multi.vocab").write_text("<bos>\n<eos>\n<unk>\na\nab\n\n", encoding="utf-8")
        proc = run_cli("train", "pretrain", "--corpus", "de.tsv", "--vocab", "multi.vocab",
                       "--out", "multi.model", cwd=ws)
        assert proc.returncode == 4
        assert not (ws / "multi.model").exists()

    # One command per kind of input file, each reading bad.bin.
    NON_UTF8_READS = {
        "corpus": ["vocab", "build", "--corpus", "bad.bin", "--out", "bad.out"],
        "vocabulary": ["train", "pretrain", "--corpus", "de.tsv", "--vocab", "bad.bin",
                       "--out", "bad.out"],
        "model": ["train", "finetune", "--model", "bad.bin", "--corpus", "de.tsv",
                  "--out", "bad.out"],
        "config": ["decode", "--config", "bad.bin", "--target", "target_de.model",
                   "--drafter", "drafter_de.model", "--prompt", "x"],
        "registry": ["route", "--registry", "bad.bin", "--text", "x"],
    }

    @pytest.mark.parametrize("kind", NON_UTF8_READS)
    def test_non_utf8_file_is_4_and_names_its_path(self, ws, capsys, monkeypatch, kind):
        monkeypatch.chdir(ws)
        (ws / "bad.bin").write_bytes(b"<bos>\n\xff\n")
        assert main(self.NON_UTF8_READS[kind]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: format: bad.bin: not valid UTF-8: byte 0xff at offset 6\n"
        assert not (ws / "bad.out").exists()

    # One command per path flag, each given the directory a_dir.
    DIRECTORY_PATHS = {
        "model": ["train", "finetune", "--model", "a_dir", "--corpus", "de.tsv",
                  "--out", "dir.out"],
        "out": ["train", "finetune", "--model", "base.model", "--corpus", "de.tsv",
                "--out", "a_dir"],
        "registry": ["route", "--registry", "a_dir", "--text", "x"],
        "config": ["decode", "--config", "a_dir", "--target", "target_de.model",
                   "--drafter", "drafter_de.model", "--prompt", "x"],
    }

    @pytest.mark.parametrize("flag", DIRECTORY_PATHS)
    def test_directory_given_for_a_file_is_6_and_names_its_path(self, ws, capsys, monkeypatch,
                                                                 flag):
        monkeypatch.chdir(ws)
        (ws / "a_dir").mkdir(exist_ok=True)
        assert main(self.DIRECTORY_PATHS[flag]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid: a_dir: Is a directory\n"
        assert not (ws / "dir.out").exists()

    # One case per command with an output path, each given an unusable one
    # and inputs that are missing or malformed, with the message it must give.
    UNUSABLE_OUTPUTS = {
        "vocab-no-dir": (["vocab", "build", "--corpus", "absent.tsv", "--out", "nodir/x.vocab"],
                         "nodir/x.vocab: nodir is not a directory"),
        "pretrain-no-dir": (["train", "pretrain", "--corpus", "absent.tsv",
                             "--out", "nodir/x.model"], "nodir/x.model: nodir is not a directory"),
        "finetune-no-dir": (["train", "finetune", "--model", "absent.model", "--corpus", "de.tsv",
                             "--out", "nodir/x.model"], "nodir/x.model: nodir is not a directory"),
        "finetune-out-dir": (["train", "finetune", "--model", "broken.model",
                              "--corpus", "de.tsv", "--out", "a_dir"], "a_dir: Is a directory"),
        "distill-under-a-file": (["distill", "--target", "broken.model", "--prompts", "de.tsv",
                                  "--out", "taken/x.tsv"], "taken/x.tsv: taken is not a directory"),
        "grid-out-dir-file": (["bench", "grid", "--config", "absent.cfg", "--out-dir", "taken"],
                              "taken: File exists"),
        "scaling-out-dir-file": (["bench", "scaling", "--config", "absent.cfg",
                                  "--out-dir", "taken"], "taken: File exists"),
        "grid-out-dir-under-a-file": (["bench", "grid", "--config", "absent.cfg",
                                       "--out-dir", "taken/sub"], "taken/sub: Not a directory"),
    }

    @pytest.mark.parametrize("case", UNUSABLE_OUTPUTS)
    def test_unusable_output_path_is_6_before_any_input_is_read(self, ws, capsys, monkeypatch,
                                                                case):
        monkeypatch.chdir(ws)
        (ws / "a_dir").mkdir(exist_ok=True)
        (ws / "taken").write_text("a file\n", encoding="utf-8")
        (ws / "broken.model").write_text("not a model\n", encoding="utf-8")
        argv, message = self.UNUSABLE_OUTPUTS[case]
        assert main(argv) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid: {message}\n"
        assert not (ws / "nodir").exists()
        assert (ws / "taken").read_text(encoding="utf-8") == "a file\n"
        assert list((ws / "a_dir").iterdir()) == []


# Every value flag of every non-bench command, with two values that give
# different outputs (the second may fail). A case runs with every flag at its
# first value; the extra flags are booleans, which config does not set.
CONFIG_CASES = {
    ("vocab", "build"): ({"--corpus": (["de.tsv", "ru.tsv"], ["general.tsv"]),
                          "--out": ("pair.out", "other.out")}, ()),
    ("train", "pretrain"): ({"--corpus": ("de.tsv", "ru.tsv"), "--order": ("3", "2"),
                             "--k": ("0.2", "0.9"), "--vocab": ("shared.vocab", "absent.vocab"),
                             "--out": ("pair.out", "other.out")}, ("--task-prompts",)),
    ("train", "finetune"): ({"--model": ("base.model", "target_de.model"),
                             "--corpus": ("de.tsv", "ru.tsv"), "--weight": ("2.0", "1.0"),
                             "--max-tokens": ("40", "80"), "--out": ("pair.out", "other.out")},
                            ("--skip-empty",)),
    ("distill",): ({"--target": ("target_de.model", "absent.model"),
                    "--prompts": ("eval_de.tsv", "eval_ru.tsv"),
                    "--temps": ("0.0,1.0", "0.0"), "--samples": ("2", "1"),
                    "--max-len": ("6", "9"), "--wrapper": ("Q: {prompt}", "R: {prompt}"),
                    "--seed": ("1", "2"), "--out": ("pair.out", "other.out")}, ()),
    ("decode",): ({"--target": ("target_de.model", "absent.model"),
                   "--drafter": ("drafter_de.model", "drafter_ru.model"),
                   "--prompt": ("Translate German to English: haus",
                                "Translate German to English: baum"),
                   "--T": ("0.7", "0.3"), "--K": ("3", "4"), "--max-new": ("8", "12"),
                   "--seed": ("1", "2")}, ("--stats",)),
    ("route",): ({"--registry": ("pair_registry.cfg", "absent.cfg"),
                  "--text": ("Привет мир", "Größe der Straße")}, ()),
}
# A value each flag's parser rejects, for a flag of each parser.
INVALID_VALUES = [
    (("train", "pretrain"), "--order", "three"), (("train", "pretrain"), "--k", "0.2x"),
    (("train", "finetune"), "--weight", "heavy"), (("train", "finetune"), "--max-tokens", "4.0"),
    (("distill",), "--temps", "0.7,,"), (("distill",), "--temps", ",0.7"),
    (("distill",), "--samples", "2.5"), (("distill",), "--seed", "x"),
    (("distill",), "--wrapper", "{x}"), (("distill",), "--wrapper", "{0}"),
    (("distill",), "--wrapper", "no field"),
    (("decode",), "--K", "abc"), (("decode",), "--T", "warm"), (("decode",), "--max-new", ""),
]
BOOLEAN_KEYS = {("train", "pretrain"): ("task_prompts", "skip_empty"),
                ("train", "finetune"): ("task_prompts", "skip_empty"),
                ("distill",): ("skip_empty",), ("decode",): ("stats",)}


def _argv(flags: dict) -> list[str]:
    argv = []
    for flag, value in flags.items():
        for v in value if isinstance(value, list) else [value]:
            argv += [flag, v]
    return argv


def _run_in(ws, capsys, command, flags, extra, config=None):
    """Exit code, stdout, stderr and the bytes of pair.out and other.out (None
    when absent) of one in-process run in ws, with config as its section's
    keys. The output files are removed afterwards."""
    argv = [*command, *_argv(flags), *extra]
    if config is not None:
        lines = [f"{key} = {','.join(v) if isinstance(v, list) else v}"
                 for key, v in config.items()]
        (ws / "pair.cfg").write_text("\n".join([f"[{'.'.join(command)}]", *lines, ""]),
                                     encoding="utf-8")
        argv += ["--config", "pair.cfg"]
    code = main(argv)
    files = []
    for name in ("pair.out", "other.out"):
        path = ws / name
        files.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, *files


class TestConfigKeys:
    @pytest.fixture(autouse=True)
    def _in_ws(self, ws, monkeypatch):
        (ws / "pair_registry.cfg").write_text(
            "default = de-en\nde-en = drafter_de.model\nru-en = drafter_ru.model\n",
            encoding="utf-8")
        monkeypatch.chdir(ws)

    def test_cases_cover_every_value_flag(self):
        for command, (pairs, _) in CONFIG_CASES.items():
            args = build_parser().parse_args(list(command))
            assert set(args.value_flags) == {flag[2:].replace("-", "_") for flag in pairs}

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, (pairs, _) in CONFIG_CASES.items() for flag in pairs],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v[2:])
    def test_key_equals_flag_and_flag_wins(self, ws, capsys, command, flag):
        pairs, extra = CONFIG_CASES[command]
        key = flag[2:].replace("-", "_")
        value, other = pairs[flag]
        flags = {f: v[0] for f, v in pairs.items()}
        rest = {f: v for f, v in flags.items() if f != flag}
        by_flag = _run_in(ws, capsys, command, flags, extra)
        assert by_flag[0] == 0
        assert _run_in(ws, capsys, command, rest, extra, {key: value}) == by_flag
        assert _run_in(ws, capsys, command, flags, extra, {key: other}) == by_flag
        # The other value changes the outcome, so the check above can fail.
        assert _run_in(ws, capsys, command, rest, extra, {key: other}) != by_flag

    @pytest.mark.parametrize("command,flag,bad", INVALID_VALUES,
                             ids=lambda v: " ".join(v) if isinstance(v, tuple) else repr(v))
    def test_invalid_value_is_6_as_flag_and_as_key(self, ws, capsys, command, flag, bad):
        pairs, extra = CONFIG_CASES[command]
        flags = {f: v[0] for f, v in pairs.items()}
        by_flag = _run_in(ws, capsys, command, {**flags, flag: bad}, extra)
        code, out, err, *files = by_flag
        assert code == 6 and out == "" and files == [None, None]
        assert err.startswith("error: invalid:")
        rest = {f: v for f, v in flags.items() if f != flag}
        by_key = _run_in(ws, capsys, command, rest, extra, {flag[2:].replace("-", "_"): bad})
        assert by_key == by_flag

    BAD_K = "error: invalid: --K (config key K): invalid literal for int() with base 10: 'abc'\n"

    def test_invalid_flag_value_names_its_flag(self, ws, capsys):
        pairs, extra = CONFIG_CASES[("decode",)]
        flags = {f: v[0] for f, v in pairs.items()}
        code, out, err, *_ = _run_in(ws, capsys, ("decode",), {**flags, "--K": "abc"}, extra)
        assert (code, out, err) == (6, "", self.BAD_K)

    def test_invalid_key_value_names_its_key(self, ws, capsys):
        pairs, extra = CONFIG_CASES[("decode",)]
        rest = {f: v[0] for f, v in pairs.items() if f != "--K"}
        code, out, err, *_ = _run_in(ws, capsys, ("decode",), rest, extra, {"K": "abc"})
        assert (code, out, err) == (6, "", self.BAD_K)

    @pytest.mark.parametrize("command,flag,bad,reason", [
        (("distill",), "--samples", "0", "must be >= 1, got 0"),
        (("distill",), "--max-len", "-3", "must be >= 1, got -3"),
        (("train", "finetune"), "--max-tokens", "0", "must be >= 1, got 0"),
        (("decode",), "--K", "0", "must be >= 1, got 0"),
        (("decode",), "--K", "1025", "must be at most 1024, got 1025"),
        (("decode",), "--max-new", "0", "must be >= 1, got 0"),
        (("decode",), "--T", "-1", "temperature must be finite and >= 0, got -1.0"),
        (("distill",), "--temps", "0.0,-0.5", "temperature must be finite and >= 0, got -0.5"),
        (("train", "finetune"), "--weight", "0", "finetune weight must be finite and > 0, got 0.0"),
        (("train", "pretrain"), "--k", "0", "smoothing k must be finite and > 0, got 0.0"),
        (("train", "pretrain"), "--order", "0", "order must be between 1 and 64, got 0"),
    ], ids=["samples", "max-len", "max-tokens", "K-low", "K-high", "max-new", "T", "temps",
            "weight", "k", "order"])
    def test_out_of_range_value_names_its_flag_and_key(self, ws, capsys, command, flag, bad,
                                                       reason):
        pairs, extra = CONFIG_CASES[command]
        flags = {f: v[0] for f, v in pairs.items()}
        key = flag[2:].replace("-", "_")
        want = (6, "", f"error: invalid: {flag} (config key {key}): {reason}\n", None, None)
        assert _run_in(ws, capsys, command, {**flags, flag: bad}, extra) == want
        rest = {f: v for f, v in flags.items() if f != flag}
        assert _run_in(ws, capsys, command, rest, extra, {key: bad}) == want

    def test_finetune_cut_to_no_record_is_6_and_writes_nothing(self, ws, capsys):
        # The first record's prompt is longer than one token, so a budget of
        # one keeps none of it.
        assert len(load_corpus(ws / "de.tsv").records[0][0]) > 1
        pairs, extra = CONFIG_CASES[("train", "finetune")]
        flags = {f: v[0] for f, v in pairs.items()}
        want = (6, "", "error: invalid: --max-tokens (config key max_tokens): 1 keeps no "
                       "record of the corpus\n", None, None)
        assert _run_in(ws, capsys, ("train", "finetune"), {**flags, "--max-tokens": "1"},
                       extra) == want
        rest = {f: v for f, v in flags.items() if f != "--max-tokens"}
        assert _run_in(ws, capsys, ("train", "finetune"), rest, extra, {"max_tokens": "1"}) == want

    @pytest.mark.parametrize("command", [("train", "pretrain"), ("train", "finetune")],
                             ids=" ".join)
    @pytest.mark.parametrize("records,extra,note", [
        ("", (), ""),
        ("Hallo\t\nja\t\n", ("--skip-empty",),
         "note: skipped 2 record(s) with empty completions\n"),
    ], ids=["headers-only", "skip-empty"])
    def test_corpus_with_no_record_to_train_on_is_6_and_writes_nothing(
            self, ws, capsys, command, records, extra, note):
        (ws / "none.tsv").write_text(f"#langs=de,en\n{records}", encoding="utf-8")
        pairs, _ = CONFIG_CASES[command]
        flags = {f: v[0] for f, v in pairs.items() if f != "--corpus"}
        want = (6, "", f"{note}error: invalid: --corpus (config key corpus): none.tsv leaves no "
                       f"record to train on\n", None, None)
        assert _run_in(ws, capsys, command, {**flags, "--corpus": "none.tsv"}, extra) == want
        assert _run_in(ws, capsys, command, flags, extra, {"corpus": "none.tsv"}) == want

    @pytest.mark.parametrize("command", CONFIG_CASES, ids=" ".join)
    def test_unknown_key_is_4(self, ws, capsys, command):
        pairs, extra = CONFIG_CASES[command]
        flags = {f: v[0] for f, v in pairs.items()}
        for key in ("temprature", "config", *BOOLEAN_KEYS.get(command, ())):
            code, out, err, *files = _run_in(ws, capsys, command, flags, extra, {key: "1"})
            assert code == 4
            assert out == "" and files == [None, None]
            assert err.startswith("error: format:")
            assert f"unknown key {key!r} in [{'.'.join(command)}]" in err

    @pytest.mark.parametrize("command", [("vocab", "build"), ("train", "pretrain"),
                                         ("train", "finetune"), ("route",),
                                         ("bench", "grid", "--out-dir", "seed_out"),
                                         ("bench", "scaling", "--out-dir", "seed_out")],
                             ids=lambda command: " ".join(command[:2]))
    def test_seed_on_a_command_that_draws_nothing_is_2(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "1"])
        assert exc.value.code == 2


class TestDistillCommand:
    def test_writes_corpus_with_meta(self, ws):
        proc = run_cli("distill", "--target", "target_de.model", "--prompts", "de.tsv",
                       "--temps", "0.0", "--max-len", "10", "--out", "distilled.tsv", cwd=ws)
        assert proc.returncode == 0, proc.stderr
        corpus = load_corpus(ws / "distilled.tsv")
        assert len(corpus) == 25
        assert corpus.meta["distilled-from"] == "pretrained"
        assert corpus.records[0][0].startswith("Translate German to English: ")

    def test_deterministic_given_seed(self, ws):
        args = ("distill", "--target", "target_de.model", "--prompts", "eval_de.tsv",
                "--temps", "0.0,1.0", "--max-len", "8", "--seed", "9")
        for out in ("d1.tsv", "d2.tsv"):
            proc = run_cli(*args, "--out", out, cwd=ws)
            assert proc.returncode == 0, proc.stderr
        assert (ws / "d1.tsv").read_bytes() == (ws / "d2.tsv").read_bytes()

    def test_non_finite_temperature_is_6_and_writes_nothing(self, ws):
        proc = run_cli("distill", "--target", "target_de.model", "--prompts", "eval_de.tsv",
                       "--temps", "0.0,nan", "--out", "nan.tsv", cwd=ws)
        assert proc.returncode == 6
        assert proc.stdout == ""
        assert not (ws / "nan.tsv").exists()


    @pytest.mark.parametrize("wrapper", ["{x}", "{0}", "Q: {prompt"])
    def test_unfillable_wrapper_is_6_before_any_file_is_read(self, ws, wrapper):
        (ws / "broken.model").write_text("not a model\n", encoding="utf-8")
        proc = run_cli("distill", "--target", "broken.model", "--prompts", "absent.tsv",
                       "--wrapper", wrapper, "--out", "wrapped.tsv", cwd=ws)
        assert proc.returncode == 6
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: invalid: --wrapper (config key wrapper): ")
        assert "Traceback" not in proc.stderr
        assert not (ws / "wrapped.tsv").exists()


class TestBenchCommands:
    def _grid_config(self, ws):
        cfg = ws / "grid.cfg"
        cfg.write_text(
            "[grid]\n"
            "target = target_de.model\n"
            "temps = 0.0\n"
            "seeds = 0,1\n"
            "K = 3\n"
            "max_new = 10\n"
            "max_prompts = 3\n"
            "cost_c = 0.1\n"
            "[grid.drafters]\n"
            "de = drafter_de.model\n"
            "ru = drafter_ru.model\n"
            "[grid.corpora]\n"
            "de = eval_de.tsv\n"
            "ru = eval_ru.tsv\n",
            encoding="utf-8")
        return cfg

    def test_grid_emits_csv_and_markdown(self, ws):
        self._grid_config(ws)
        proc = run_cli("bench", "grid", "--config", "grid.cfg", "--out-dir", "out1", cwd=ws)
        assert proc.returncode == 0, proc.stderr
        csv_text = (ws / "out1" / "grid.csv").read_text(encoding="utf-8")
        assert "drafter,corpus,temperature,K,seed_count" in csv_text
        data_lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
        assert len(data_lines) == 1 + 4  # header + 2 drafters x 2 corpora
        assert (ws / "out1" / "grid.md").exists()

    def test_grid_rerun_is_byte_identical(self, ws):
        self._grid_config(ws)
        for out_dir in ("outA", "outB"):
            proc = run_cli("bench", "grid", "--config", "grid.cfg", "--out-dir", out_dir, cwd=ws)
            assert proc.returncode == 0, proc.stderr
        assert (ws / "outA" / "grid.csv").read_bytes() == (ws / "outB" / "grid.csv").read_bytes()
        assert (ws / "outA" / "grid.md").read_bytes() == (ws / "outB" / "grid.md").read_bytes()

    def test_grid_max_prompts_zero_is_6(self, ws):
        cfg = self._grid_config(ws)
        cfg.write_text(cfg.read_text(encoding="utf-8").replace(
            "max_prompts = 3", "max_prompts = 0"), encoding="utf-8")
        proc = run_cli("bench", "grid", "--config", "grid.cfg", "--out-dir", "out0", cwd=ws)
        assert proc.returncode == 6, proc.stderr
        assert "max_prompts" in proc.stderr
        assert not (ws / "out0").exists()

    def test_grid_invalid_key_value_names_its_key(self, ws):
        text = self._grid_config(ws).read_text(encoding="utf-8")
        (ws / "grid_kx.cfg").write_text(text.replace("K = 3", "K = abc"), encoding="utf-8")
        proc = run_cli("bench", "grid", "--config", "grid_kx.cfg", "--out-dir", "outKx", cwd=ws)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr == ("error: invalid: [grid] K: "
                               "invalid literal for int() with base 10: 'abc'\n")

    def test_grid_draft_len_zero_is_6(self, ws):
        text = self._grid_config(ws).read_text(encoding="utf-8")
        (ws / "grid_k0.cfg").write_text(text.replace("K = 3", "K = 0"), encoding="utf-8")
        proc = run_cli("bench", "grid", "--config", "grid_k0.cfg", "--out-dir", "outK0", cwd=ws)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.startswith("error: invalid: draft_len")
        assert not (ws / "outK0" / "grid.csv").exists()

    def test_grid_jobs_below_one_is_6(self, ws, capsys, monkeypatch):
        self._grid_config(ws)
        monkeypatch.chdir(ws)
        for jobs in ("0", "-3"):
            code = main(["bench", "grid", "--config", "grid.cfg", "--out-dir", "outJ",
                         "--jobs", jobs])
            assert code == 6
            assert capsys.readouterr().err == f"error: invalid: jobs must be >= 1, got {jobs}\n"
        assert not (ws / "outJ").exists()

    def test_grid_jobs_is_checked_before_any_file_is_read(self, ws, capsys, monkeypatch):
        (ws / "bad.model").write_text("not a model\n", encoding="utf-8")
        (ws / "grid_bad.cfg").write_text("[grid]\ntarget = bad.model\n", encoding="utf-8")
        monkeypatch.chdir(ws)
        argv = ["bench", "grid", "--config", "grid_bad.cfg", "--out-dir", "outJB"]
        assert main(argv + ["--jobs", "0"]) == 6
        assert capsys.readouterr().err == "error: invalid: jobs must be >= 1, got 0\n"
        assert main(argv) == 4
        assert not (ws / "outJB").exists()

    def test_scaling_budgets_are_parsed_before_any_file_is_read(self, ws, capsys, monkeypatch):
        (ws / "bad.model").write_text("not a model\n", encoding="utf-8")
        monkeypatch.chdir(ws)
        for target in ("bad.model", "target_de.model"):
            (ws / "scaling_bx.cfg").write_text(
                f"[scaling]\ntarget = {target}\ndrafter = base.model\ncorpus = de.tsv\n"
                "eval = eval_de.tsv\nbudgets = 100,x\n", encoding="utf-8")
            code = main(["bench", "scaling", "--config", "scaling_bx.cfg", "--out-dir", "scBx"])
            assert code == 6
            assert capsys.readouterr().err == ("error: invalid: [scaling] budgets: "
                                               "invalid literal for int() with base 10: 'x'\n")
        assert not (ws / "scBx").exists()

    def test_grid_knobs_are_checked_before_any_file_is_read(self, ws, capsys, monkeypatch):
        (ws / "bad.model").write_text("not a model\n", encoding="utf-8")
        monkeypatch.chdir(ws)
        for knob, message in (("K = 0", "draft_len must be between 1 and 1024, got 0"),
                              ("max_new = 0", "max_new_tokens must be >= 1"),
                              ("temps = 0.0,-1", "temperature must be finite and >= 0, got -1.0"),
                              ("seeds = 1,1", "seeds must not repeat, got (1, 1)"),
                              ("temps = 0.0,0.0",
                               "temperatures must not repeat, got (0.0, 0.0)")):
            (ws / "grid_bad.cfg").write_text(f"[grid]\ntarget = bad.model\n{knob}\n",
                                             encoding="utf-8")
            code = main(["bench", "grid", "--config", "grid_bad.cfg", "--out-dir", "outGB"])
            assert code == 6, knob
            assert capsys.readouterr().err == f"error: invalid: {message}\n"
        (ws / "grid_bad.cfg").write_text("[grid]\ntarget = bad.model\nK = 3\n", encoding="utf-8")
        assert main(["bench", "grid", "--config", "grid_bad.cfg", "--out-dir", "outGB"]) == 4
        assert not (ws / "outGB").exists()

    def test_scaling_repeated_seed_is_6_before_any_file_is_read(self, ws, capsys, monkeypatch):
        (ws / "bad.model").write_text("not a model\n", encoding="utf-8")
        (ws / "scaling_rs.cfg").write_text(
            "[scaling]\ntarget = bad.model\ndrafter = base.model\ncorpus = de.tsv\n"
            "eval = eval_de.tsv\nbudgets = 100\nseeds = 3,1,3\n", encoding="utf-8")
        monkeypatch.chdir(ws)
        assert main(["bench", "scaling", "--config", "scaling_rs.cfg", "--out-dir", "scRS"]) == 6
        assert capsys.readouterr().err == "error: invalid: seeds must not repeat, got (3, 1, 3)\n"
        assert not (ws / "scRS").exists()

    def test_scaling_budgets_are_checked_before_any_file_is_read(self, ws, capsys, monkeypatch):
        (ws / "bad.model").write_text("not a model\n", encoding="utf-8")
        monkeypatch.chdir(ws)
        for budgets, message in (("0", "token budgets must be > 0"),
                                 ("100,-5", "token budgets must be > 0"),
                                 ("100,100", "token budgets must be strictly increasing"),
                                 ("400,100", "token budgets must be strictly increasing"),
                                 ("100", None)):
            (ws / "scaling_b0.cfg").write_text(
                "[scaling]\ntarget = bad.model\ndrafter = base.model\ncorpus = de.tsv\n"
                f"eval = eval_de.tsv\nbudgets = {budgets}\n", encoding="utf-8")
            code = main(["bench", "scaling", "--config", "scaling_b0.cfg", "--out-dir", "scB0"])
            err = capsys.readouterr().err
            if message is None:  # valid budgets: the malformed target is read and rejected
                assert code == 4 and err.startswith("error: format: bad.model:")
            else:
                assert (code, err) == (6, f"error: invalid: {message}\n"), budgets
        assert not (ws / "scB0").exists()

    def test_unknown_key_is_4(self, ws):
        text = self._grid_config(ws).read_text(encoding="utf-8")
        (ws / "grid_unknown.cfg").write_text(text.replace("temps = 0.0", "temperature = 0.7"),
                                             encoding="utf-8")
        proc = run_cli("bench", "grid", "--config", "grid_unknown.cfg", "--out-dir", "outU",
                       cwd=ws)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: format:") and "'temperature'" in proc.stderr
        assert not (ws / "outU").exists()
        (ws / "scaling_unknown.cfg").write_text(
            "[scaling]\ntarget = t\ndrafter = d\ncorpus = c\neval = e\nbudgets = 1\n"
            "temps = 0.7\n", encoding="utf-8")
        proc = run_cli("bench", "scaling", "--config", "scaling_unknown.cfg",
                       "--out-dir", "scU", cwd=ws)
        assert proc.returncode == 4, proc.stderr
        assert "'temps'" in proc.stderr

    def test_grid_out_dir_that_is_a_file_is_6_and_names_its_path(self, ws, capsys,
                                                                 monkeypatch):
        self._grid_config(ws)
        monkeypatch.chdir(ws)
        (ws / "taken").write_text("a file\n", encoding="utf-8")
        assert main(["bench", "grid", "--config", "grid.cfg", "--out-dir", "taken"]) == 6
        assert capsys.readouterr().err == "error: invalid: taken: File exists\n"
        assert (ws / "taken").read_text(encoding="utf-8") == "a file\n"

    def test_grid_requires_config(self, ws):
        assert run_cli("bench", "grid", "--out-dir", "x", cwd=ws).returncode == 2

    def test_scaling_emits_reports(self, ws):
        proc = run_cli("distill", "--target", "target_de.model", "--prompts", "de.tsv",
                       "--temps", "0.0", "--max-len", "10", "--out", "ft.tsv", cwd=ws)
        assert proc.returncode == 0, proc.stderr
        cfg = ws / "scaling.cfg"
        cfg.write_text(
            "[scaling]\n"
            "target = target_de.model\n"
            "drafter = base.model\n"
            "corpus = ft.tsv\n"
            "eval = eval_de.tsv\n"
            "budgets = 100,400,1200\n"
            "K = 3\n"
            "seeds = 0\n"
            "max_new = 10\n"
            "max_prompts = 3\n",
            encoding="utf-8")
        proc = run_cli("bench", "scaling", "--config", "scaling.cfg", "--out-dir", "sc", cwd=ws)
        assert proc.returncode == 0, proc.stderr
        csv_text = (ws / "sc" / "scaling.csv").read_text(encoding="utf-8")
        assert "budget,tokens_used" in csv_text
        assert "# spearman_mean_accepted=" in csv_text

    def test_scaling_max_prompts_zero_is_6(self, ws):
        cfg = ws / "scaling0.cfg"
        cfg.write_text(
            "[scaling]\n"
            "target = target_de.model\n"
            "drafter = base.model\n"
            "corpus = de.tsv\n"
            "eval = eval_de.tsv\n"
            "budgets = 100\n"
            "max_prompts = 0\n",
            encoding="utf-8")
        proc = run_cli("bench", "scaling", "--config", "scaling0.cfg", "--out-dir", "sc0",
                       cwd=ws)
        assert proc.returncode == 6, proc.stderr
        assert "max_prompts" in proc.stderr
        assert not (ws / "sc0").exists()


class TestRouteCommand:
    def test_route_examples(self, ws):
        registry = ws / "registry.cfg"
        registry.write_text(
            "default = de-en\n"
            "de-en = drafter_de.model\n"
            "fr-en = drafter_de.model\n"
            "ru-en = drafter_ru.model\n",
            encoding="utf-8")
        cases = {
            "Größe der Straße": "de-en",
            "Привет мир": "ru-en",
            "Bonjour le monde": "fr-en",
        }
        for text, expected in cases.items():
            proc = run_cli("route", "--registry", "registry.cfg", "--text", text, cwd=ws)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expected

    def test_hint_for_a_language_outside_the_table_is_6(self, ws):
        (ws / "typo_registry.cfg").write_text(
            "hint.fe = ô\nde-en = drafter_de.model\nfr-en = drafter_de.model\n",
            encoding="utf-8")
        proc = run_cli("route", "--registry", "typo_registry.cfg", "--text", "rôle", cwd=ws)
        assert proc.returncode == 6
        assert proc.stdout == ""
        assert proc.stderr == ("error: invalid: marker hint language 'fe' is not one of "
                               "de, fr, en\n")

    def test_route_missing_registry_is_3(self, ws):
        assert run_cli("route", "--registry", "nope.cfg", "--text", "x", cwd=ws).returncode == 3


class TestVersionFlag:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("specdesk ")


# The exit codes `specdesk --help` lists, read from its epilog.
DOCUMENTED_EXITS = {int(code) for code in
                    re.findall(r"^  (\d+) ", build_parser().format_help(), re.MULTILINE)}


def edited(base: bytes, edits) -> bytes:
    """base with each (at, cut, insert) edit applied in turn: cut bytes
    from position at (modulo the length) are replaced by insert."""
    data = bytearray(base)
    for at, cut, insert in edits:
        at %= len(data) + 1
        data[at:at + cut] = insert
    return bytes(data)


def edit_lists(inserts):
    """One to four edits for edited, each inserting one of inserts."""
    return st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                              st.sampled_from(inserts)),
                    min_size=1, max_size=4)


def assert_documented_exit(argv):
    """cli.main on argv exits with a documented code other than the internal
    error's, and prints no traceback. argparse exits by raising SystemExit,
    whose code is the exit code `python -m specdesk` gives."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in DOCUMENTED_EXITS and code != EXIT_INTERNAL, stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


# Bytes that end a line, start a comment or split a key from its value,
# bytes that are not UTF-8 (a stray byte, an encoded lone surrogate), a BOM
# and nothing.
COMMON_FUZZ_BYTES = [b"\n", b"\r", b" ", b"=", b"#", b"\xff", b"\xed\xa0\x80",
                     "\ufeff".encode("utf-8"), b""]
CONFIG_FUZZ_BYTES = COMMON_FUZZ_BYTES + [b"[", b"]", b"[decode]", b" = ", b",", b"K", b"T",
                                         b"stats", b"nan", b"-1", b"1e400", b"0", b"9"]
REGISTRY_FUZZ_BYTES = COMMON_FUZZ_BYTES + [b"[", b"]", b" = ", b"hint.", b"default", b"fe",
                                           b"ru", b"-", "ß".encode("utf-8")]


# Lines a fuzzed vocabulary file gains or has replaced: the three escapes,
# a lone backslash and an escape the format lacks, reserved and new tokens,
# two characters, none, and bytes that are not UTF-8.
VOCAB_FUZZ_LINES = [b"c", b"\\n", b"\\r", b"\\\\", b"\\", b"\\t", b"", b"ab", b"a", b"<bos>",
                    b"<unk>", "ж".encode("utf-8"), "\U0001F600".encode("utf-8"),
                    "\ufeff".encode("utf-8"), b"\r", b"\xff", b"\xed\xa0\x80"]


class TestVocabFileFuzz:
    """Mutated vocabulary files train through `train pretrain --vocab`, or
    exit with a documented code; never with an internal error or a
    traceback."""

    BASE = [line.encode("utf-8") for line in vocab_lines(build_vocab("ab\n"))]

    @settings(max_examples=200)
    @given(edits=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                                    st.integers(0, 10 ** 6), st.sampled_from(VOCAB_FUZZ_LINES)),
                          min_size=1, max_size=3),
           crlf=st.sampled_from([False, False, False, True]))
    def test_mutated_files_exit_with_a_documented_code(self, ws, edits, crlf):
        lines = list(self.BASE)
        for op, at, line in edits:
            if op == "insert":
                lines.insert(at % (len(lines) + 1), line)
            elif lines:
                lines[at % len(lines):at % len(lines) + 1] = [line] if op == "replace" else []
        with tempfile.TemporaryDirectory() as tmp:
            vocab, out = Path(tmp) / "v.vocab", Path(tmp) / "o.model"
            vocab.write_bytes(b"".join(line + (b"\r\n" if crlf else b"\n") for line in lines))
            assert_documented_exit(["train", "pretrain", "--corpus", str(ws / "de.tsv"),
                                    "--vocab", str(vocab), "--out", str(out)])


class TestConfigFileFuzz:
    """Mutated config files decode through `decode --config`, or exit with a
    documented code; never with an internal error or a traceback."""

    @settings(max_examples=200)
    @given(edits=edit_lists(CONFIG_FUZZ_BYTES))
    def test_mutated_files_exit_with_a_documented_code(self, ws, edits):
        base = (f"# a decode config\n[decode]\ntarget = {ws / 'target_de.model'}\n"
                f"drafter = {ws / 'drafter_de.model'}\nT = 0.7\nK = 3\nmax_new = 8\n"
                f"seed = 1\n[route]\ntext = x\n").encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "d.cfg"
            config.write_bytes(edited(base, edits))
            # The prompt is a flag, so no config can make decode read stdin.
            assert_documented_exit(["decode", "--config", str(config),
                                    "--prompt", "Translate German to English: haus"])


class TestRegistryFileFuzz:
    """Mutated registry files route through `route --registry`, or exit with
    a documented code; never with an internal error or a traceback."""

    BASE = ("# drafters\ndefault = de-en\nde-en = de.model\nru-en = ru.model\n"
            "hint.de = ß\n").encode("utf-8")

    @settings(max_examples=200)
    @given(edits=edit_lists(REGISTRY_FUZZ_BYTES),
           text=st.sampled_from(["Größe der Straße", "Привет мир", "Bonjour", "", "123"]))
    def test_mutated_files_exit_with_a_documented_code(self, edits, text):
        with tempfile.TemporaryDirectory() as tmp:
            registry = Path(tmp) / "r.cfg"
            registry.write_bytes(edited(self.BASE, edits))
            for name in ("de.model", "ru.model"):  # route checks only that they exist
                (Path(tmp) / name).write_text("", encoding="utf-8")
            assert_documented_exit(["route", "--registry", str(registry), "--text", text])


# Spellings a value flag is given: values no parser takes, out of range,
# not finite, overflowing or empty, and a few it takes. Twenty digits are
# only given to flags with an upper bound: a valid but unbounded size, such
# as --max-new 10**20, is correct but could run for a very long time.
FLAG_SPELLINGS = ["nan", "inf", "-inf", "-1", "0", "1e400", "", "x", "1,", "1.5", "1e-320",
                  " 2", "0x1"]
BOUNDED_FLAGS = {"--K", "--order"}


def flag_commands(ws, tmp):
    """Each command with valid values for every value flag, by flag."""
    grid = tmp / "grid.cfg"
    grid.write_text(f"[grid]\ntarget = {ws / 'target_de.model'}\ntemps = 0.0\nseeds = 0\n"
                    f"K = 3\nmax_new = 4\nmax_prompts = 1\n[grid.drafters]\n"
                    f"de = {ws / 'drafter_de.model'}\n[grid.corpora]\n"
                    f"de = {ws / 'eval_de.tsv'}\n", encoding="utf-8")
    return {
        ("decode", "--target", str(ws / "target_de.model"), "--drafter",
         str(ws / "drafter_de.model"), "--prompt", "Translate German to English: haus"):
            {"--K": "3", "--T": "0.7", "--max-new": "8", "--seed": "1"},
        ("distill", "--target", str(ws / "target_de.model"), "--prompts",
         str(ws / "eval_de.tsv"), "--out", str(tmp / "d.tsv")):
            {"--temps": "0.0,0.7", "--samples": "1", "--max-len": "8", "--seed": "1"},
        ("train", "pretrain", "--corpus", str(ws / "de.tsv"), "--out", str(tmp / "p.model")):
            {"--order": "2", "--k": "0.5"},
        ("train", "finetune", "--model", str(ws / "base.model"), "--corpus",
         str(ws / "de.tsv"), "--out", str(tmp / "f.model")):
            {"--weight": "0.5", "--max-tokens": "200"},
        ("bench", "grid", "--config", str(grid), "--out-dir", str(tmp / "grid")):
            {"--jobs": "1"},
    }


class TestFlagFuzz:
    """Every value flag of every command, given values that are not numbers,
    not finite, out of range or empty, exits with a documented code; never
    with an internal error or a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_flags_exit_with_a_documented_code(self, ws, data):
        with tempfile.TemporaryDirectory() as tmp:
            commands = flag_commands(ws, Path(tmp))
            command = data.draw(st.sampled_from(sorted(commands)))
            flags = dict(commands[command])
            for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1,
                                           max_size=3, unique=True)):
                spellings = FLAG_SPELLINGS + ["1" * 20] * (flag in BOUNDED_FLAGS)
                flags[flag] = data.draw(st.sampled_from(spellings))
            # --flag=value, so that a value such as -inf is not read as a flag.
            assert_documented_exit([*command, *(f"{flag}={value}"
                                                for flag, value in flags.items())])

    def test_every_value_flag_is_fuzzed(self, ws, tmp_path):
        fuzzed = {flag for flags in flag_commands(ws, tmp_path).values() for flag in flags}
        value_flags = {option for action in _subcommand_actions(build_parser())
                       if action.option_strings and action.nargs != 0
                       for option in action.option_strings}
        assert value_flags - fuzzed == {"--config", "--corpus", "--vocab", "--out", "--model",
                                        "--target", "--prompts", "--wrapper", "--drafter",
                                        "--prompt", "--out-dir", "--registry", "--text"}


# Each range-checked value flag: its raw values, how the library reads one,
# and the library call whose check the flag's parser runs.
_RANGE_VOCAB = build_vocab("ab")
_RANGE_MODEL = NGramModel(2, 0.5, _RANGE_VOCAB)
float_spellings = (st.floats(-1e6, 1e6).map(repr)
                   | st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "1e400", "5e-324"]))
RANGE_CHECKED = {
    "--order": (st.integers(-3, 70).map(str), int, lambda v: NGramModel(v, 0.5, _RANGE_VOCAB)),
    "--k": (float_spellings, float, lambda v: NGramModel(2, v, _RANGE_VOCAB)),
    "--weight": (float_spellings, float,
                 lambda v: finetune(_RANGE_MODEL, Corpus((("", "a"),)), v)),
    "--T": (float_spellings, float, lambda v: SpecConfig(temperature=v)),
    "--temps": (st.lists(float_spellings, min_size=1, max_size=3).map(",".join),
                lambda raw: tuple(map(float, raw.split(","))),
                lambda v: DistillJob(_RANGE_MODEL, Corpus((("", "a"),)), temperatures=v)),
}


class TestRangeCheckedFlags:
    """A range-checked value flag rejects what the library rejects, with the
    library's words after the flag and its config key, before any input is
    read, and passes on every value the library takes."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flag_rejects_what_the_library_rejects(self, ws, data):
        flag = data.draw(st.sampled_from(sorted(RANGE_CHECKED)))
        spellings, read, library = RANGE_CHECKED[flag]
        raw = data.draw(spellings)
        try:
            library(read(raw))
        except ValueError as exc:
            want = f"error: invalid: {flag} (config key {flag[2:]}): {exc}\n"
        else:
            want = None
        with tempfile.TemporaryDirectory() as tmp:
            command, values = next((command, values) for command, values
                                   in flag_commands(ws, Path(tmp)).items() if flag in values)
            argv = [*command, *(f"{f}={v}" for f, v in {**values, flag: raw}.items())]
            if want is None:
                args = build_parser().parse_args(argv)
                assert args.parsers[flag[2:]](raw) == read(raw)
                return
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert (code, stdout.getvalue(), stderr.getvalue()) == (6, "", want)
            assert [p.name for p in Path(tmp).iterdir()] == ["grid.cfg"]


def _subcommand_actions(parser):
    """The actions of every leaf subcommand of parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return list(parser._actions)
    return [action for sub in subs for child in sub.choices.values()
            for action in _subcommand_actions(child)]
