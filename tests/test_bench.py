import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from specdesk import (
    Corpus,
    CostModel,
    DecodeStats,
    EvalConfig,
    ExperimentGrid,
    NGramModel,
    ReportTable,
    acceptance_rate,
    build_vocab,
    cost_speedup,
    emit_report,
    finetune,
    mean_accepted,
    merge_stats,
    pretrain,
    run_grid,
    scaling_curve,
    spearman,
    with_task_prompts,
)
from specdesk import bench
from specdesk.bench import GRID_COLUMNS

import synth


def stats(emitted, cycles, accepted, drafter_calls, truncated=0):
    return DecodeStats(cycles=cycles, accepted_per_cycle=accepted,
                       emitted_tokens=emitted, truncated_tokens=truncated,
                       target_calls=cycles, drafter_calls=drafter_calls)


class TestMeanAccepted:
    def test_arithmetic_definition(self):
        s = stats(8, 3, [2, 0, 3], 9)
        assert mean_accepted(s) == pytest.approx(5 / 3, abs=1e-15)

    def test_all_rejected_is_zero(self):
        assert mean_accepted(stats(4, 4, [0, 0, 0, 0], 4)) == 0.0

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            mean_accepted(DecodeStats())


class TestCostSpeedup:
    def test_free_drafter_reduces_to_tokens_per_cycle(self):
        s = stats(100, 25, [3] * 25, 125)
        assert cost_speedup(s, CostModel(0.0)) == 4.0

    def test_hand_case_with_costed_drafter(self):
        s = stats(100, 25, [3] * 25, 125)
        assert cost_speedup(s, CostModel(0.2)) == pytest.approx(100 / 50, abs=1e-15)

    def test_self_drafter_at_unit_cost_never_gains(self):
        # K=1: best case 2 tokens per cycle at cost 1 + 1
        for accepted in ([1, 1, 1], [0, 1, 0]):
            emitted = sum(accepted) + len(accepted)
            s = stats(emitted, len(accepted), accepted, len(accepted))
            assert cost_speedup(s, CostModel(1.0)) <= 1.0

    def test_no_emissions_rejected(self):
        with pytest.raises(ValueError):
            cost_speedup(DecodeStats(cycles=1), CostModel())

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(-0.1)

    def test_non_finite_cost_rejected(self):
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CostModel(c)


class TestMergeStats:
    def test_pools_counters(self):
        merged = merge_stats([stats(6, 2, [2, 2], 4), stats(3, 1, [2], 2, truncated=1)])
        assert merged.emitted_tokens == 9
        assert merged.cycles == 3
        assert merged.accepted_per_cycle == [2, 2, 2]
        assert merged.drafter_calls == 6
        assert merged.truncated_tokens == 1
        assert acceptance_rate(merged) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_stats([])


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_one_adjacent_swap(self):
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)

    def test_ties_use_average_ranks(self):
        # hand-computed via average ranks: x ranks (1,2,3,4), y ranks (1.5,1.5,3,4)
        got = spearman([1, 2, 3, 4], [5, 5, 6, 7])
        x = np.array([1, 2, 3, 4.0])
        y = np.array([1.5, 1.5, 3, 4.0])
        expected = float(((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std()))
        assert got == pytest.approx(expected)

    def test_constant_input_is_nan(self):
        assert math.isnan(spearman([1, 2, 3], [5, 5, 5]))


@contextlib.contextmanager
def counting_decodes():
    """Record each of bench's decode_speculative calls."""
    calls = []
    real = bench.decode_speculative

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(bench, "decode_speculative", counting):
        yield calls


# Each knob a decode would reject, and an eval corpus without records.
INVALID_KNOBS = [
    pytest.param({"max_prompts": 0}, id="max_prompts_0"),
    pytest.param({"max_prompts": -1}, id="max_prompts_neg"),
    pytest.param({"draft_len": 0}, id="draft_len_0"),
    pytest.param({"draft_len": 1025}, id="draft_len_1025"),
    pytest.param({"temperature": -1.0}, id="T_neg"),
    pytest.param({"temperature": float("nan")}, id="T_nan"),
    pytest.param({"max_new_tokens": 0}, id="max_new_0"),
    pytest.param({"corpus": Corpus(())}, id="empty_corpus"),
]


@pytest.fixture(scope="module")
def trained_pair():
    """Shared-vocab target plus in-domain (de) and out-of-domain (ru) drafters."""
    de = with_task_prompts(synth.make_bitext(("de", "en"), 60, seed=1))
    ru = with_task_prompts(synth.make_bitext(("ru", "en"), 60, seed=2))
    general = synth.general_corpus(40, seed=3)
    vocab = build_vocab(t for c in (de, ru, general) for pair in c for t in pair)
    target = pretrain(Corpus(de.records + ru.records), order=3, k=0.2, vocab=vocab)
    base = pretrain(general, order=2, k=0.5, vocab=vocab)
    drafter_de = finetune(base, de, 1.0)
    drafter_ru = finetune(base, ru, 1.0)
    eval_de = with_task_prompts(synth.make_bitext(("de", "en"), 8, seed=11))
    eval_ru = with_task_prompts(synth.make_bitext(("ru", "en"), 8, seed=12))
    return target, base, drafter_de, drafter_ru, eval_de, eval_ru


class TestRunGrid:
    def test_cell_and_row_counts(self, trained_pair):
        target, _, d_de, d_ru, eval_de, eval_ru = trained_pair
        grid = ExperimentGrid({"de": d_de, "ru": d_ru}, {"de": eval_de, "ru": eval_ru},
                              temperatures=(0.0,), seeds=(0, 1, 2), draft_len=3)
        result = run_grid(target, grid, max_new_tokens=16, max_prompts=5)
        assert len(result.cells) == 12
        assert len(result.rows) == 4
        assert not result.errors

    def test_deterministic(self, trained_pair):
        target, _, d_de, d_ru, eval_de, _ = trained_pair
        grid = ExperimentGrid({"de": d_de, "ru": d_ru}, {"de": eval_de},
                              temperatures=(1.0,), seeds=(0, 1), draft_len=3)
        r1 = run_grid(target, grid, max_new_tokens=12, max_prompts=4)
        r2 = run_grid(target, grid, max_new_tokens=12, max_prompts=4)
        assert r1.rows == r2.rows
        assert r1.cells == r2.cells

    def test_greedy_cells_are_seed_invariant(self, trained_pair):
        target, _, d_de, _, eval_de, _ = trained_pair
        grid = ExperimentGrid({"de": d_de}, {"de": eval_de},
                              temperatures=(0.0,), seeds=(0, 1, 2), draft_len=3)
        result = run_grid(target, grid, max_new_tokens=12, max_prompts=4)
        row = result.rows[0]
        assert row.std_accepted == 0.0
        assert row.std_speedup == 0.0

    def test_aggregation_recount(self, trained_pair):
        target, _, d_de, d_ru, eval_de, eval_ru = trained_pair
        grid = ExperimentGrid({"de": d_de, "ru": d_ru}, {"de": eval_de, "ru": eval_ru},
                              temperatures=(0.0, 1.0), seeds=(0, 1, 2), draft_len=3)
        result = run_grid(target, grid, max_new_tokens=12, max_prompts=4)
        for row in result.rows:
            cells = [c for c in result.cells
                     if (c.drafter, c.corpus, c.temperature) ==
                        (row.drafter, row.corpus, row.temperature)]
            assert len(cells) == row.seed_count
            acc = np.array([c.mean_accepted for c in cells])
            spd = np.array([c.cost_speedup for c in cells])
            assert row.mean_accepted == pytest.approx(float(acc.mean()), abs=1e-15)
            assert row.std_accepted == pytest.approx(float(acc.std()), abs=1e-15)
            assert row.cost_speedup == pytest.approx(float(spd.mean()), abs=1e-15)
            assert row.std_speedup == pytest.approx(float(spd.std()), abs=1e-15)

    def test_vocab_mismatch_recorded_and_run_continues(self, trained_pair):
        target, _, d_de, _, eval_de, _ = trained_pair
        alien = pretrain(Corpus((("", "zz"),)), order=2, k=0.5)
        grid = ExperimentGrid({"de": d_de, "alien": alien}, {"de": eval_de},
                              temperatures=(0.0,), seeds=(0,), draft_len=3)
        result = run_grid(target, grid, max_new_tokens=8, max_prompts=3)
        assert len(result.errors) == 1
        assert result.errors[0].drafter == "alien"
        assert [r.drafter for r in result.rows] == ["de"]

    def test_jobs_do_not_change_results(self, trained_pair):
        target, _, d_de, d_ru, eval_de, _ = trained_pair
        grid = ExperimentGrid({"de": d_de, "ru": d_ru}, {"de": eval_de},
                              temperatures=(0.0,), seeds=(0, 1), draft_len=3)
        serial = run_grid(target, grid, max_new_tokens=10, max_prompts=3, jobs=1)
        parallel = run_grid(target, grid, max_new_tokens=10, max_prompts=3, jobs=2)
        assert serial.rows == parallel.rows

    def test_pool_has_no_more_workers_than_decodes(self, trained_pair, monkeypatch):
        import concurrent.futures

        sizes = []

        class InlinePool:
            """Records max_workers and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        target, _, d_de, d_ru, eval_de, _ = trained_pair
        # 2 drafters x 1 corpus x (one greedy decode + 2 seeds at T=1): 6 decodes.
        grid = ExperimentGrid({"de": d_de, "ru": d_ru}, {"de": eval_de},
                              temperatures=(0.0, 1.0), seeds=(0, 1), draft_len=3)
        serial = run_grid(target, grid, max_new_tokens=6, max_prompts=2, jobs=1)
        for jobs in (100_000, 4):
            assert run_grid(target, grid, max_new_tokens=6, max_prompts=2, jobs=jobs) == serial
        # A single decode runs in this process, whatever jobs is.
        one = ExperimentGrid({"de": d_de}, {"de": eval_de}, temperatures=(0.0,), seeds=(0, 1))
        run_grid(target, one, max_new_tokens=6, max_prompts=2, jobs=8)
        assert sizes == [6, 4]

    def test_greedy_cells_are_decoded_once(self, trained_pair):
        target, _, d_de, _, eval_de, eval_ru = trained_pair
        alien = pretrain(Corpus((("", "zz"),)), order=2, k=0.5)
        grid = ExperimentGrid({"de": d_de, "alien": alien}, {"de": eval_de, "ru": eval_ru},
                              temperatures=(0.0, 1.0), seeds=(0, 1, 2), draft_len=3)
        with counting_decodes() as calls:
            result = run_grid(target, grid, max_new_tokens=8, max_prompts=3)
        # de x 2 corpora x 3 prompts, once at T=0 and once per seed at T=1.
        assert len(calls) == 2 * 3 * (1 + 3)
        with mock.patch.object(bench, "_decoded_seeds", lambda temperature, seeds: seeds):
            every_seed = run_grid(target, grid, max_new_tokens=8, max_prompts=3)
        assert result == every_seed
        assert len(result.cells) == 12 and len(result.errors) == 12
        assert run_grid(target, grid, max_new_tokens=8, max_prompts=3, jobs=2) == result

    @pytest.mark.parametrize("bad", INVALID_KNOBS)
    def test_invalid_value_rejected_before_decoding(self, trained_pair, bad):
        target, _, d_de, _, eval_de, _ = trained_pair
        knobs = {"draft_len": 3, "temperature": 0.0, "max_new_tokens": 8,
                 "max_prompts": 3, "corpus": eval_de, **bad}
        with counting_decodes() as calls, pytest.raises(ValueError):
            grid = ExperimentGrid({"de": d_de}, {"de": knobs["corpus"]},
                                  temperatures=(0.5, knobs["temperature"]), seeds=(0,),
                                  draft_len=knobs["draft_len"])
            run_grid(target, grid, max_new_tokens=knobs["max_new_tokens"],
                     max_prompts=knobs["max_prompts"])
        assert calls == []

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ExperimentGrid({}, {"x": Corpus((("a", "b"),))})

    @pytest.mark.parametrize("axes, message", [
        ({"seeds": (1, 1)}, "seeds must not repeat, got (1, 1)"),
        ({"temperatures": (0.7, 0.7)}, "temperatures must not repeat, got (0.7, 0.7)"),
        ({"temperatures": (0.0, -0.0)}, "temperatures must not repeat, got (0.0, -0.0)"),
    ])
    def test_repeated_axis_value_rejected_before_decoding(self, trained_pair, axes, message):
        # A repeated seed would decode the same cells again and count as one
        # more seed; a repeated temperature would write a second equal row.
        target, _, d_de, _, eval_de, _ = trained_pair
        grid = ExperimentGrid({"de": d_de}, {"de": eval_de},
                              **{"temperatures": (0.7,), "seeds": (0, 1), **axes})
        with counting_decodes() as calls, pytest.raises(ValueError) as exc:
            run_grid(target, grid, max_new_tokens=8, max_prompts=3)
        assert str(exc.value) == message
        assert calls == []


class TestScalingCurve:
    def test_point_per_budget(self, trained_pair):
        target, base, _, _, eval_de, _ = trained_pair
        corpus = with_task_prompts(synth.make_bitext(("de", "en"), 40, seed=21))
        cfg = EvalConfig(draft_len=3, max_new_tokens=10, seeds=(0,), max_prompts=4)
        curve = scaling_curve(target, base, corpus, [50, 200, 800], eval_de, cfg)
        assert len(curve.points) == 3
        assert [p.budget for p in curve.points] == [50, 200, 800]
        assert all(p.tokens_used <= p.budget for p in curve.points)

    def test_greedy_points_are_decoded_once_per_budget(self, trained_pair):
        target, base, _, _, eval_de, _ = trained_pair
        corpus = with_task_prompts(synth.make_bitext(("de", "en"), 40, seed=21))
        cfg = EvalConfig(draft_len=3, max_new_tokens=10, seeds=(0, 1, 2), max_prompts=4)
        with counting_decodes() as calls:
            curve = scaling_curve(target, base, corpus, [50, 200, 800], eval_de, cfg)
        assert len(calls) == 3 * 4
        with mock.patch.object(bench, "_decoded_seeds", lambda temperature, seeds: seeds):
            every_seed = scaling_curve(target, base, corpus, [50, 200, 800], eval_de, cfg)
        assert curve.points == every_seed.points
        assert curve.to_table() == every_seed.to_table()

    @pytest.mark.parametrize("bad", INVALID_KNOBS)
    def test_invalid_value_rejected_before_decoding(self, trained_pair, bad):
        target, base, _, _, eval_de, _ = trained_pair
        knobs = {"draft_len": 3, "temperature": 0.0, "max_new_tokens": 8,
                 "max_prompts": 3, "corpus": eval_de, **bad}
        eval_corpus = knobs.pop("corpus")
        finetunes = []
        with counting_decodes() as calls, pytest.raises(ValueError), \
                mock.patch.object(bench, "finetune", lambda *a: finetunes.append(a)):
            cfg = EvalConfig(seeds=(0,), **knobs)
            scaling_curve(target, base, eval_de, [10, 20], eval_corpus, cfg)
        assert calls == [] and finetunes == []

    def test_repeated_seed_rejected(self):
        with pytest.raises(ValueError, match=r"seeds must not repeat, got \(2, 0, 2\)"):
            EvalConfig(seeds=(2, 0, 2))

    def test_budget_zero_rejected(self, trained_pair):
        target, base, _, _, eval_de, _ = trained_pair
        with pytest.raises(ValueError):
            scaling_curve(target, base, eval_de, [0, 10], eval_de, EvalConfig())

    def test_non_increasing_budgets_rejected(self, trained_pair):
        target, base, _, _, eval_de, _ = trained_pair
        with pytest.raises(ValueError):
            scaling_curve(target, base, eval_de, [10, 10], eval_de, EvalConfig())

    def test_overlarge_budget_clamps_with_warning(self, trained_pair):
        target, base, _, _, eval_de, _ = trained_pair
        corpus = with_task_prompts(synth.make_bitext(("de", "en"), 5, seed=22))
        cfg = EvalConfig(draft_len=2, max_new_tokens=8, seeds=(0,), max_prompts=3)
        with pytest.warns(UserWarning):
            curve = scaling_curve(target, base, corpus, [10, 10_000], eval_de, cfg)
        assert curve.points[1].clamped
        assert curve.points[1].tokens_used == corpus.token_count()


class TestEmitReport:
    def test_empty_table_is_header_only(self, tmp_path):
        csv_path, md_path = emit_report(ReportTable(GRID_COLUMNS, (), {}), tmp_path, "grid")
        lines = [l for l in csv_path.read_text(encoding="utf-8").splitlines()
                 if not l.startswith("#")]
        assert lines == [",".join(GRID_COLUMNS)]
        assert md_path.exists()

    def test_rows_written_one_line_each(self, tmp_path):
        rows = tuple(("d", "c", 0.0, 5, 3, 1.5, 0.0, 2.5, 0.0, 0.5, 100.0) for _ in range(4))
        csv_path, md_path = emit_report(ReportTable(GRID_COLUMNS, rows, {"K": "5"}),
                                        tmp_path, "grid")
        data = [l for l in csv_path.read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]
        assert len(data) == 5  # header + 4 rows
        assert data[1] == "d,c,0.000000,5,3,1.500000,0.000000,2.500000,0.000000,0.500000,100.000000"
        md_lines = md_path.read_text(encoding="utf-8").splitlines()
        assert any(l.startswith("| drafter") for l in md_lines)

    def test_reruns_are_byte_identical(self, tmp_path, trained_pair):
        target, _, d_de, _, eval_de, _ = trained_pair
        grid = ExperimentGrid({"de": d_de}, {"de": eval_de},
                              temperatures=(0.0,), seeds=(0,), draft_len=3)
        result = run_grid(target, grid, max_new_tokens=8, max_prompts=3)
        a1, _ = emit_report(result.to_table(), tmp_path / "r1", "grid")
        a2, _ = emit_report(result.to_table(), tmp_path / "r2", "grid")
        assert a1.read_bytes() == a2.read_bytes()

    def test_version_and_meta_echoed(self, tmp_path):
        csv_path, _ = emit_report(ReportTable(("a",), ((1,),), {"K": "5"}), tmp_path, "t")
        text = csv_path.read_text(encoding="utf-8")
        assert text.startswith("# specdesk ")
        assert "# K=5" in text
