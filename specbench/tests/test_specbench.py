"""Self-test of the benchmark: schema, determinism and seeded inputs.

Run from the repository root: python3 -m pytest specbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "specbench")]

import workloads  # noqa: E402

END_TO_END = {"spec_tok_s", "plain_tok_s", "wall_speedup", "req_ms_p50", "req_ms_p95",
              "mean_accepted", "cost_speedup", "pipeline_s", "train_tok_s",
              "distill_tok_s", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "core.apply_temperature.us", "core.apply_temperature.per_tok", "core.sample.us",
    "core.Distribution.per_tok",
    "lm.next_dist.us_warm", "lm.next_dist.us_cold", "lm.next_dist.per_tok",
    "lm.next_dist.hit_ratio", "lm.generate.us_per_tok", "lm.pretrain.us_per_tok",
    "lm.finetune.us_per_tok", "lm.save_model.ms", "lm.load_model.ms", "lm.contexts",
    "specdec.draft.self_us", "specdec.score_parallel.self_us", "specdec.verify.self_us",
    "specdec.bookkeeping.self_us", "specdec.residual_dist.us",
    "specdec.share.draft", "specdec.share.score", "specdec.share.verify",
    "specdec.share.bookkeeping", "specdec.acceptance_rate", "specdec.cycles_per_tok",
    "specdec.alpha.1", "specdec.alpha.2", "specdec.alpha.3", "specdec.alpha.4",
    "specdec.alpha.5", "specdec.tok_per_cycle", "specdec.iid_tok_per_cycle",
    "specdec.calibrated_c", "distill.self_distill.s", "bench.run_grid.s",
    "bench.scaling_curve.s", "bench.emit_report.ms", "routing.select_drafter.us",
    "routing.hit_ratio", "trace.overhead",
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("output_digest "))
    return json.loads(lines[-1]), digest


def test_schema_lists_every_metric():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["better"] in ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 <= setup["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]
    same = workloads.make_inputs(w, 7), workloads.make_inputs(w, 7)
    other = workloads.make_inputs(w, 8)
    assert same[0] == same[1]
    assert same[0].requests != other.requests
    assert (same[0].train != other.train) == w.cold


def test_warm_digest_is_stable_with_tracing_on_and_off():
    untraced, digest = result(bench("greedy-warm", 3, 0))
    traced, traced_digest = result(bench("greedy-warm", 3, 1))
    assert untraced["correct"] and traced["correct"]
    assert untraced["failed"] == traced["failed"] == 0
    assert set(untraced["metrics"]) == END_TO_END
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert digest == traced_digest
    shares = sum(traced["metrics"][f"specdec.share.{p}"]["value"]
                 for p in ("draft", "score", "verify", "bookkeeping"))
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_cold_run_is_correct_and_traces_every_layer():
    traced, _ = result(bench("lifecycle-cold", 3, 1))
    assert traced["correct"] and traced["failed"] == 0
    for name in ("bench.run_grid.s", "bench.scaling_curve.s", "bench.emit_report.ms",
                 "lm.next_dist.us_cold", "specdec.residual_dist.us"):
        assert traced["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "specbench", tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("greedy-warm", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_window_scales_by_its_own_probes():
    import hostspeed

    clock = hostspeed.HostClock()
    clock.times_ns = [5 * hostspeed.NOMINAL_NS]  # a probe from before the window
    with clock.window() as host:
        pass
    inside = clock.times_ns[1:]
    assert len(inside) == 2
    assert host.scale == pytest.approx(sum(inside) / len(inside) / hostspeed.NOMINAL_NS)
