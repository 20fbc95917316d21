"""Regenerate the committed quickstart corpora and configs under data/quickstart.

Deterministic: rerunning produces byte-identical files.
"""

from pathlib import Path

import numpy as np

from specdesk import Corpus, save_corpus, with_task_prompts

OUT = Path(__file__).resolve().parent.parent / "data" / "quickstart"

DE = ["straße", "größe", "müde", "schön", "über", "grün", "weiß", "haus",
      "baum", "wasser", "berg", "stadt", "kind", "blume", "licht", "nacht",
      "wald", "fisch", "brot", "stein"]
EN_DE = ["street", "size", "tired", "beautiful", "over", "green", "white", "house",
         "tree", "water", "mountain", "city", "child", "flower", "light", "night",
         "forest", "fish", "bread", "stone"]
RU = ["дом", "вода", "гора", "город", "цветок", "свет", "ночь", "утро",
      "лес", "рыба", "хлеб", "камень", "дождь", "снег", "солнце", "луна",
      "мир", "друг", "книга", "дорога"]
EN_RU = ["dwelling", "aqua", "hill", "town", "blossom", "glow", "evening", "dawn",
         "grove", "trout", "loaf", "pebble", "shower", "frost", "sun", "luna",
         "world", "friend", "book", "road"]


def bitext(src_bank, tgt_bank, langs, n, seed):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        idx = rng.integers(0, len(src_bank), size=int(rng.integers(3, 7)))
        records.append((" ".join(src_bank[i] for i in idx),
                        " ".join(tgt_bank[i] for i in idx)))
    return Corpus(tuple(records), langs=langs)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    de = bitext(DE, EN_DE, ("de", "en"), 120, seed=1)
    ru = bitext(RU, EN_RU, ("ru", "en"), 120, seed=2)
    save_corpus(de, OUT / "de-en.tsv")
    save_corpus(ru, OUT / "ru-en.tsv")
    save_corpus(Corpus(with_task_prompts(de).records + with_task_prompts(ru).records),
                OUT / "tasks_all.tsv")

    rng = np.random.default_rng(3)
    pool = DE + EN_DE + RU + EN_RU
    general = tuple(("", " ".join(pool[i] for i in rng.integers(0, len(pool), size=8)))
                    for _ in range(80))
    save_corpus(Corpus(general), OUT / "general.tsv")

    save_corpus(with_task_prompts(bitext(DE, EN_DE, ("de", "en"), 40, seed=11)),
                OUT / "eval_de.tsv")
    save_corpus(with_task_prompts(bitext(RU, EN_RU, ("ru", "en"), 40, seed=12)),
                OUT / "eval_ru.tsv")

    (OUT / "grid.cfg").write_text(
        "# drafter x corpus evaluation grid (paths relative to the repo root)\n"
        "[grid]\n"
        "target = out/target.model\n"
        "temps = 0.0,1.0\n"
        "seeds = 0,1,2\n"
        "K = 5\n"
        "max_new = 32\n"
        "max_prompts = 40\n"
        "cost_c = 0.1\n"
        "\n"
        "[grid.drafters]\n"
        "de = out/drafter_de.model\n"
        "ru = out/drafter_ru.model\n"
        "\n"
        "[grid.corpora]\n"
        "de = data/quickstart/eval_de.tsv\n"
        "ru = data/quickstart/eval_ru.tsv\n",
        encoding="utf-8")

    (OUT / "scaling.cfg").write_text(
        "# finetune-token scaling curve (paths relative to the repo root)\n"
        "[scaling]\n"
        "target = out/target.model\n"
        "drafter = out/base.model\n"
        "corpus = out/distilled_de.tsv\n"
        "eval = data/quickstart/eval_de.tsv\n"
        "budgets = 1000,4000,16000,40000\n"
        "temperature = 0.0\n"
        "K = 5\n"
        "seeds = 0,1,2\n"
        "max_new = 32\n"
        "max_prompts = 40\n",
        encoding="utf-8")

    print(f"wrote quickstart data to {OUT}")


if __name__ == "__main__":
    main()
