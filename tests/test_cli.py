import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specdesk
from specdesk import load_corpus, load_model, save_corpus

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

    def test_non_finite_decode_temperature_is_6(self, ws):
        for t in ("nan", "inf"):
            proc = run_cli("decode", "--target", "target_de.model", "--drafter",
                           "target_de.model", "--prompt", "x", "--T", t, "--stats", cwd=ws)
            assert proc.returncode == 6
            assert proc.stdout == ""

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

    def test_route_missing_registry_is_3(self, ws):
        assert run_cli("route", "--registry", "nope.cfg", "--text", "x", cwd=ws).returncode == 3


class TestVersionFlag:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("specdesk ")
