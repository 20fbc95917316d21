"""specdesk benchmark: one closed-loop client per workload.

Run from the repository root:

    python3 specbench/run.py --workload greedy-warm --seed 1 --seconds 25 --trace 0

Every input is generated from --seed. The library is imported from the
checkout's src/ and called only through its public modules. The run measures
for --seconds, checks every output and prints a provenance line, one line per
metric (name, value, unit, better direction), the output digest, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a separately traced run, whose spans are written to
.specbench_out/. Metric meanings and the layer-to-end-to-end map are in
specbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".specbench_out"


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit() -> str:
    """HEAD's commit read from .git without starting git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def provenance(params: dict, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": _git_commit(), "seed": seed,
            "seconds": seconds, "trace": trace, "workload": params}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "specdesk" / "__init__.py").is_file():
        print(f"specbench: no specdesk sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import hostspeed
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"specbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = _benchmark_spec()
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[section]}

    print("# provenance " + json.dumps(provenance(workloads.params(workload), args.seed,
                                                  args.seconds, args.trace), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        result = workloads.run(workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        measured = workloads.end_to_end(result)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    else:
        measured = workloads.per_layer(result, tracer)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"# spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    missing = sorted(set(declared) - set(measured))
    wrong_unit = sorted(n for n in declared if n in measured
                        and measured[n][1] != declared[n]["unit"])
    if missing or wrong_unit:
        print(f"specbench: metrics not measured: {missing}; unit differs from "
              f"BENCHMARK.json: {wrong_unit}", file=sys.stderr)
        return 1

    for name, (value, unit) in measured.items():
        better = declared[name]["better"] if name in declared else "-"
        print(f"{name:34s} {value:14.6g} {unit:10s} {better}")
    failed = len(result.failures)
    print(f"{'failed_frac':34s} {failed / result.attempted:14.6g} {'ratio':10s} lower")
    print(f"# requests timed: {sum(len(b.served) for b in result.batches)} "
          f"(req_ms_p95 needs at least 200)")
    if tracer is not None:
        get = lambda name: measured[name][0]
        print(f"# tokens per cycle: measured {get('specdec.tok_per_cycle'):.4f}, "
              f"i.i.d. prediction (1-a^(K+1))/(1-a) {get('specdec.iid_tok_per_cycle'):.4f} "
              f"at pooled a={get('specdec.alpha.pooled'):.4f}")
        print(f"# drafter/target cost ratio: calibrated c={get('specdec.calibrated_c'):.4f}, "
              f"cost model c={workloads.COST_C}")
    print(f"# host scale {result.host_scale:.4f}: the reference routine's mean time over "
          f"{result.host_probes} probes, over its nominal "
          f"{hostspeed.NOMINAL_NS / 1e6:g} ms; end-to-end timings are divided by it")
    print(f"output_digest {result.digest()}")
    for failure in result.failures[:20]:
        print(f"# FAILED {failure}")

    metrics = {name: {"value": measured[name][0], "unit": measured[name][1]}
               for name in declared}
    print(json.dumps({"correct": failed == 0, "attempted": result.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
