"""Measurement surface: acceptance metrics, cost-model speedups, grids, curves.

The primary speedup metric is hardware-independent: a cost model charges one
unit per target call and c units per drafter call, so trends are exactly
reproducible.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._version import __version__
from .core import BENCH_STREAM, derive_seed, encode, write_lines
# generate is not called here; specbench's tracer patches bench.generate.
from .lm import Corpus, NGramModel, finetune, generate, truncate_corpus  # noqa: F401
from .specdec import DecodeStats, SpecConfig, VocabularyMismatchError, decode_speculative

GRID_COLUMNS = ("drafter", "corpus", "temperature", "K", "seed_count",
                "mean_accepted", "std_accepted", "cost_speedup", "std_speedup",
                "acceptance_rate", "tokens")

SCALING_COLUMNS = ("budget", "tokens_used", "seed_count", "mean_accepted",
                   "std_accepted", "cost_speedup", "std_speedup")


@dataclass(frozen=True)
class CostModel:
    """Drafter-to-target per-call cost ratio; c=0 treats drafting as free."""

    c: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"cost ratio must be finite and >= 0, got {self.c!r}")


def mean_accepted(stats: DecodeStats) -> float:
    """Average number of drafted tokens accepted per draft-verify cycle."""
    if stats.cycles < 1:
        raise ValueError("mean_accepted undefined for a run with zero cycles")
    return sum(stats.accepted_per_cycle) / stats.cycles


def acceptance_rate(stats: DecodeStats) -> float:
    """Fraction of drafted tokens that were accepted."""
    if stats.drafter_calls < 1:
        raise ValueError("acceptance_rate undefined without drafted tokens")
    return sum(stats.accepted_per_cycle) / stats.drafter_calls


def cost_speedup(stats: DecodeStats, cm: CostModel) -> float:
    """Baseline cost (one target call per emitted token) divided by speculative
    cost (one unit per target call plus c per drafter call)."""
    if stats.emitted_tokens < 1:
        raise ValueError("cost_speedup undefined for a run with no emitted tokens")
    speculative = stats.target_calls + cm.c * stats.drafter_calls
    if speculative <= 0:
        raise ValueError("speculative cost is zero")
    return stats.emitted_tokens / speculative


def merge_stats(runs: Sequence[DecodeStats]) -> DecodeStats:
    """Pool counters across runs (config echo is taken from the first run)."""
    if not runs:
        raise ValueError("cannot merge zero runs")
    first = runs[0]
    merged = DecodeStats(draft_len=first.draft_len, temperature=first.temperature,
                         max_new_tokens=first.max_new_tokens, seed=first.seed)
    for s in runs:
        merged.cycles += s.cycles
        merged.accepted_per_cycle.extend(s.accepted_per_cycle)
        merged.emitted_tokens += s.emitted_tokens
        merged.truncated_tokens += s.truncated_tokens
        merged.target_calls += s.target_calls
        merged.drafter_calls += s.drafter_calls
    return merged


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties; nan when either
    input is constant."""
    x = _average_ranks(xs)
    y = _average_ranks(ys)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    # np.std of bit-identical values can land on 1-ulp noise; seed-invariant
    # (greedy) cells must aggregate to an exact zero spread.
    arr = np.asarray(values, dtype=np.float64)
    if np.all(arr == arr[0]):
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std())


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < len(v):
        j = i
        while j < len(v) and sorted_v[j] == sorted_v[i]:
            j += 1
        ranks[order[i:j]] = (i + j - 1) / 2.0 + 1.0
        i = j
    return ranks


@dataclass(frozen=True)
class ExperimentGrid:
    """Axes of an evaluation grid: named drafters crossed with named corpora,
    temperatures and seeds, at a fixed draft length."""

    drafters: dict
    corpora: dict
    temperatures: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (0, 1, 2)
    draft_len: int = 5

    def __post_init__(self):
        if not self.drafters or not self.corpora or not self.temperatures or not self.seeds:
            raise ValueError("grid axes must be non-empty")
        object.__setattr__(self, "temperatures", tuple(self.temperatures))
        object.__setattr__(self, "seeds", tuple(self.seeds))


@dataclass(frozen=True)
class GridCell:
    drafter: str
    corpus: str
    temperature: float
    seed: int
    mean_accepted: float
    cost_speedup: float
    acceptance_rate: float
    tokens: int


@dataclass(frozen=True)
class GridCellError:
    drafter: str
    corpus: str
    temperature: float
    seed: int
    message: str


@dataclass(frozen=True)
class GridRow:
    drafter: str
    corpus: str
    temperature: float
    draft_len: int
    seed_count: int
    mean_accepted: float
    std_accepted: float
    cost_speedup: float
    std_speedup: float
    acceptance_rate: float
    tokens: float


@dataclass(frozen=True)
class ReportTable:
    """Column names plus rows of plain values, ready for CSV/markdown emission."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict


@dataclass(frozen=True)
class GridResult:
    rows: tuple[GridRow, ...]
    cells: tuple[GridCell, ...]
    errors: tuple[GridCellError, ...]
    draft_len: int

    def to_table(self) -> ReportTable:
        rows = tuple(
            (r.drafter, r.corpus, r.temperature, r.draft_len, r.seed_count,
             r.mean_accepted, r.std_accepted, r.cost_speedup, r.std_speedup,
             r.acceptance_rate, r.tokens)
            for r in self.rows
        )
        return ReportTable(GRID_COLUMNS, rows, {"K": str(self.draft_len)})


def _check_max_prompts(max_prompts: Optional[int]) -> None:
    """None means every prompt; otherwise at least one must be decoded."""
    if max_prompts is not None and max_prompts < 1:
        raise ValueError(f"max_prompts must be >= 1 (or unset for all), got {max_prompts!r}")


def _decode_corpus(target: NGramModel, drafter: NGramModel, corpus: Corpus,
                   draft_len: int, temperature: float, max_new_tokens: int,
                   seed: int, max_prompts: Optional[int]) -> DecodeStats:
    """Decode the first max_prompts prompts (all when None) in corpus order;
    prompt i is decoded with derive_seed(seed, BENCH_STREAM, i)."""
    runs = []
    for pi, (prompt_text, _) in enumerate(corpus.records[:max_prompts]):
        ids = encode(prompt_text, target.vocab)
        cfg = SpecConfig(draft_len=draft_len, temperature=temperature,
                         max_new_tokens=max_new_tokens,
                         seed=derive_seed(seed, BENCH_STREAM, pi))
        runs.append(decode_speculative(target, drafter, ids, cfg)[1])
    return merge_stats(runs)


def _eval_cell(payload) -> tuple[str, tuple]:
    """Evaluate one grid cell; returns ('ok', metrics) or ('error', message).

    Top level so it pickles for worker processes; per-cell results are merged
    back in deterministic grid order regardless of scheduling.
    """
    (target, drafter, drafter_name, corpus, draft_len,
     temperature, max_new_tokens, seed, max_prompts, cm) = payload
    try:
        if drafter.vocab != target.vocab:
            raise VocabularyMismatchError(
                f"drafter {drafter_name!r} does not share the target vocabulary")
        merged = _decode_corpus(target, drafter, corpus, draft_len,
                                temperature, max_new_tokens, seed, max_prompts)
        return "ok", (mean_accepted(merged), cost_speedup(merged, cm),
                      acceptance_rate(merged), merged.emitted_tokens)
    except (VocabularyMismatchError, ValueError) as exc:
        return "error", (str(exc),)


def run_grid(target: NGramModel, grid: ExperimentGrid, *,
             max_new_tokens: int = 64, cost: Optional[CostModel] = None,
             max_prompts: Optional[int] = None, jobs: int = 1) -> GridResult:
    """Evaluate every (drafter, corpus, temperature, seed) cell and aggregate
    mean and population std over seeds. A cell whose drafter does not share the
    target's vocabulary is recorded as an error and the run continues. Cells
    are independent; jobs > 1 fans them out over worker processes without
    changing any result."""
    _check_max_prompts(max_prompts)
    cm = cost if cost is not None else CostModel()
    groups = [(dn, cn, t)
              for dn in grid.drafters
              for cn in grid.corpora
              for t in grid.temperatures]
    payloads = [(target, grid.drafters[dn], dn, grid.corpora[cn], grid.draft_len,
                 t, max_new_tokens, s, max_prompts, cm)
                for dn, cn, t in groups for s in grid.seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_eval_cell, payloads))
    else:
        outcomes = [_eval_cell(p) for p in payloads]
    results = iter(outcomes)  # one per (group, seed), in payload order

    cells: list[GridCell] = []
    errors: list[GridCellError] = []
    rows: list[GridRow] = []
    for drafter_name, corpus_name, temperature in groups:
        per_seed: list[GridCell] = []
        for seed, (status, result) in zip(grid.seeds, results):
            if status == "error":
                errors.append(GridCellError(drafter_name, corpus_name, temperature, seed, result[0]))
            else:
                per_seed.append(GridCell(drafter_name, corpus_name, temperature, seed, *result))
        if not per_seed:
            continue
        cells.extend(per_seed)
        acc_mean, acc_std = _mean_std([c.mean_accepted for c in per_seed])
        spd_mean, spd_std = _mean_std([c.cost_speedup for c in per_seed])
        rows.append(GridRow(
            drafter=drafter_name, corpus=corpus_name, temperature=temperature,
            draft_len=grid.draft_len, seed_count=len(per_seed),
            mean_accepted=acc_mean, std_accepted=acc_std,
            cost_speedup=spd_mean, std_speedup=spd_std,
            acceptance_rate=_mean_std([c.acceptance_rate for c in per_seed])[0],
            tokens=_mean_std([float(c.tokens) for c in per_seed])[0],
        ))
    return GridResult(tuple(rows), tuple(cells), tuple(errors), grid.draft_len)


@dataclass(frozen=True)
class EvalConfig:
    """Shared evaluation knobs for scaling curves."""

    draft_len: int = 5
    temperature: float = 0.0
    max_new_tokens: int = 48
    seeds: tuple[int, ...] = (0, 1, 2)
    cost: CostModel = CostModel()
    finetune_weight: float = 1.0
    max_prompts: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        _check_max_prompts(self.max_prompts)


@dataclass(frozen=True)
class ScalingPoint:
    budget: int
    tokens_used: int
    clamped: bool
    mean_accepted: float
    std_accepted: float
    cost_speedup: float
    std_speedup: float


@dataclass(frozen=True)
class ScalingCurve:
    points: tuple[ScalingPoint, ...]
    spearman_mean_accepted: float
    spearman_cost_speedup: float
    seed_count: int

    def to_table(self) -> ReportTable:
        rows = tuple(
            (p.budget, p.tokens_used, self.seed_count, p.mean_accepted,
             p.std_accepted, p.cost_speedup, p.std_speedup)
            for p in self.points
        )
        meta = {
            "spearman_mean_accepted": f"{self.spearman_mean_accepted:.6f}",
            "spearman_cost_speedup": f"{self.spearman_cost_speedup:.6f}",
        }
        return ReportTable(SCALING_COLUMNS, rows, meta)


def scaling_curve(target: NGramModel, drafter_base: NGramModel, finetune_corpus: Corpus,
                  token_budgets: Sequence[int], eval_corpus: Corpus,
                  cfg: EvalConfig) -> ScalingCurve:
    """Finetune a fresh copy of the drafter at each token budget and evaluate
    it against the target, reporting the Spearman correlation between log
    budget and each metric. Budgets beyond the corpus size clamp with a
    warning; budgets must be strictly increasing and positive."""
    budgets = [int(b) for b in token_budgets]
    if not budgets:
        raise ValueError("at least one token budget is required")
    if any(b <= 0 for b in budgets):
        raise ValueError("token budgets must be > 0")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("token budgets must be strictly increasing")
    available = finetune_corpus.token_count()
    points = []
    for budget in budgets:
        clamped = budget > available
        if clamped:
            warnings.warn(f"token budget {budget} exceeds corpus size {available}; clamping")
        subset = truncate_corpus(finetune_corpus, min(budget, available))
        tuned = finetune(drafter_base, subset, cfg.finetune_weight)
        per_seed_acc = []
        per_seed_spd = []
        for seed in cfg.seeds:
            merged = _decode_corpus(target, tuned, eval_corpus, cfg.draft_len,
                                    cfg.temperature, cfg.max_new_tokens, seed,
                                    cfg.max_prompts)
            per_seed_acc.append(mean_accepted(merged))
            per_seed_spd.append(cost_speedup(merged, cfg.cost))
        acc_mean, acc_std = _mean_std(per_seed_acc)
        spd_mean, spd_std = _mean_std(per_seed_spd)
        points.append(ScalingPoint(budget=budget, tokens_used=subset.token_count(),
                                   clamped=clamped,
                                   mean_accepted=acc_mean, std_accepted=acc_std,
                                   cost_speedup=spd_mean, std_speedup=spd_std))
    log_budgets = [float(np.log(p.budget)) for p in points]
    rho_acc = spearman(log_budgets, [p.mean_accepted for p in points])
    rho_spd = spearman(log_budgets, [p.cost_speedup for p in points])
    return ScalingCurve(tuple(points), rho_acc, rho_spd, len(cfg.seeds))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_report(table: ReportTable, out_dir, basename: str = "report") -> tuple[Path, Path]:
    """Write the table as CSV (machine) and an aligned markdown table (human).

    Both files start with '#' comment lines echoing the tool version and the
    table's config metadata; output is byte-stable for fixed inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    comments = [f"# specdesk {__version__}"]
    for key in sorted(table.meta):
        comments.append(f"# {key}={table.meta[key]}")

    csv_path = out / f"{basename}.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_value(v) for v in row])
    # The writer ends every row with '\n'; drop the empty string after the last.
    write_lines(csv_path, comments + buf.getvalue().split("\n")[:-1])

    md_path = out / f"{basename}.md"
    str_rows = [[_format_value(v) for v in row] for row in table.rows]
    widths = [len(c) for c in table.columns]
    for row in str_rows:
        widths = [max(w, len(v)) for w, v in zip(widths, row)]
    header = "| " + " | ".join(c.ljust(w) for c, w in zip(table.columns, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    body = ["| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |" for row in str_rows]
    md_lines = comments + [header, rule] + body
    write_lines(md_path, md_lines)
    return csv_path, md_path
