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
from .specdec import DecodeStats, SpecConfig, decode_speculative

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
    temperatures and seeds, at a fixed draft length. The draft length, each
    temperature and each corpus (it must have records) are checked here."""

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
        for temperature in self.temperatures:
            SpecConfig(draft_len=self.draft_len, temperature=temperature)
        for name, corpus in self.corpora.items():
            if not corpus.records:
                raise ValueError(f"corpus {name!r} has no records")


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs of a scaling curve or one grid temperature. Every value
    a decode would reject raises ValueError here, with the decoder's message;
    max_prompts None decodes every prompt."""

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
        SpecConfig(self.draft_len, self.temperature, self.max_new_tokens)
        if self.max_prompts is not None and self.max_prompts < 1:
            raise ValueError(f"max_prompts must be >= 1 (or unset for all), "
                             f"got {self.max_prompts!r}")


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


def _decoded_seeds(temperature: float, seeds: tuple[int, ...]) -> tuple[int, ...]:
    """The seeds a cell is decoded with: greedy (T=0) decoding draws nothing a
    seed changes, so a greedy cell is decoded with its first seed only."""
    return seeds[:1] if temperature == 0 else seeds


def _eval_seed(target: NGramModel, drafter: NGramModel, corpus: Corpus,
               cfg: EvalConfig, seed: int) -> tuple[float, float, float, int]:
    """Decode the first cfg.max_prompts prompts of corpus (all when None), in
    order, prompt i with derive_seed(seed, BENCH_STREAM, i): mean accepted,
    cost speedup, acceptance rate and emitted tokens over them. Top level so
    it pickles for worker processes."""
    runs = []
    for pi, (prompt_text, _) in enumerate(corpus.records[:cfg.max_prompts]):
        spec = SpecConfig(draft_len=cfg.draft_len, temperature=cfg.temperature,
                          max_new_tokens=cfg.max_new_tokens,
                          seed=derive_seed(seed, BENCH_STREAM, pi))
        runs.append(decode_speculative(target, drafter, encode(prompt_text, target.vocab),
                                       spec)[1])
    merged = merge_stats(runs)
    return (mean_accepted(merged), cost_speedup(merged, cfg.cost),
            acceptance_rate(merged), merged.emitted_tokens)


def _summarise(decoded: list[tuple], seed_count: int) -> tuple[list[tuple], tuple]:
    """Per-seed results (a greedy decode stands for every seed) and the trailing
    fields of GridRow over them; ScalingPoint's are the first four."""
    if len(decoded) < seed_count:
        decoded = decoded * seed_count
    acc, spd, rate, tokens = zip(*decoded)
    return decoded, (*_mean_std(acc), *_mean_std(spd), _mean_std(rate)[0], _mean_std(tokens)[0])


def run_grid(target: NGramModel, grid: ExperimentGrid, *,
             max_new_tokens: int = 64, cost: Optional[CostModel] = None,
             max_prompts: Optional[int] = None, jobs: int = 1) -> GridResult:
    """Evaluate every (drafter, corpus, temperature, seed) cell and aggregate
    mean and population std over seeds. An invalid knob raises ValueError from
    its EvalConfig before anything is decoded. A drafter that does not share the
    target's vocabulary is not decoded; each of its cells is an error. jobs > 1
    fans cells out over worker processes without changing any result."""
    cfgs = [EvalConfig(grid.draft_len, t, max_new_tokens, grid.seeds,
                       cost if cost is not None else CostModel(), max_prompts=max_prompts)
            for t in grid.temperatures]
    mismatched = {dn for dn, d in grid.drafters.items() if d.vocab != target.vocab}
    groups = [(dn, cn, cfg) for dn in grid.drafters for cn in grid.corpora for cfg in cfgs]
    payloads = [(target, grid.drafters[dn], grid.corpora[cn], cfg, s)
                for dn, cn, cfg in groups if dn not in mismatched
                for s in _decoded_seeds(cfg.temperature, grid.seeds)]
    # One result per payload, in payload order.
    if jobs > 1 and payloads:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = iter(list(pool.map(_eval_seed, *zip(*payloads))))
    else:
        results = (_eval_seed(*p) for p in payloads)
    cells, errors, rows = [], [], []
    for dn, cn, cfg in groups:
        t = cfg.temperature
        if dn in mismatched:
            message = f"drafter {dn!r} does not share the target vocabulary"
            errors.extend(GridCellError(dn, cn, t, seed, message) for seed in grid.seeds)
            continue
        decoded, summary = _summarise(
            [next(results) for _ in _decoded_seeds(t, grid.seeds)], len(grid.seeds))
        cells.extend(GridCell(dn, cn, t, seed, *r) for seed, r in zip(grid.seeds, decoded))
        rows.append(GridRow(dn, cn, t, grid.draft_len, len(grid.seeds), *summary))
    return GridResult(tuple(rows), tuple(cells), tuple(errors), grid.draft_len)


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
    warning. Budgets must be strictly increasing and positive and the eval
    corpus non-empty; both are checked before the first finetune."""
    budgets = [int(b) for b in token_budgets]
    if not budgets:
        raise ValueError("at least one token budget is required")
    if any(b <= 0 for b in budgets):
        raise ValueError("token budgets must be > 0")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("token budgets must be strictly increasing")
    if not eval_corpus.records:
        raise ValueError("eval corpus has no records")
    available = finetune_corpus.token_count()
    points = []
    for budget in budgets:
        clamped = budget > available
        if clamped:
            warnings.warn(f"token budget {budget} exceeds corpus size {available}; clamping")
        subset = truncate_corpus(finetune_corpus, min(budget, available))
        tuned = finetune(drafter_base, subset, cfg.finetune_weight)
        decoded = [_eval_seed(target, tuned, eval_corpus, cfg, seed)
                   for seed in _decoded_seeds(cfg.temperature, cfg.seeds)]
        summary = _summarise(decoded, len(cfg.seeds))[1]
        points.append(ScalingPoint(budget, subset.token_count(), clamped, *summary[:4]))
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
