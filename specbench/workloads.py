"""The benchmark's workloads, each a closed loop with one client.

greedy-warm and sampled-warm decode routed de/ru requests on a desk whose
models were built, saved, loaded and warmed in set-up. lifecycle-cold runs the
write side end to end: train, distill, finetune, save/load, cold decoding,
grid, scaling curve and reports.

The warm desk's models are built from a fixed build seed, like the committed
quickstart data: greedy acceptance depends on which loop each model build's
argmax falls into, and that varies more between builds than any timing does.
The run seed draws the requests. lifecycle-cold builds everything from the
run seed and decodes at T=0.7, where acceptance is steady across builds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import hostspeed
import inputs
from tracing import CALLS, SELF_NS, TOTAL_NS, UNITS
from specdesk import bench, core, distill, lm, routing, specdec

WARM_BUILD_SEED = 20240617
TAGS = {"de": "de-en", "ru": "ru-en"}
COST_C = 0.1


@dataclass(frozen=True)
class DeskParams:
    """How one desk's models are built."""

    train_records: int      # task bitext records per language
    general_records: int    # drafter-base records
    distill_prompts: int    # self_distill prompts per language
    target_order: int
    target_k: float = 0.1
    base_order: int = 2
    base_k: float = 0.5
    distill_max_len: int = 48


@dataclass(frozen=True)
class Workload:
    name: str
    desk: DeskParams
    temperature: float
    draft_len: int
    max_new_tokens: int
    requests_per_lang: int  # held-out requests per language, per round or pass
    cold: bool
    grid_temperatures: tuple = ()
    grid_seeds: tuple = ()
    grid_prompts: int = 0
    grid_max_new: int = 0
    scaling_budgets: tuple = ()


WARM_DESK = DeskParams(train_records=240, general_records=80, distill_prompts=60,
                       target_order=4)
COLD_DESK = DeskParams(train_records=2000, general_records=400, distill_prompts=75,
                       target_order=5)

WORKLOADS = {
    "greedy-warm": Workload("greedy-warm", WARM_DESK, temperature=0.0, draft_len=5,
                            max_new_tokens=64, requests_per_lang=100, cold=False),
    # At T=0.7 about 70% of the requests run to 32 tokens, so the latency median
    # lies inside the capped requests; at 64 it would sit on the edge between
    # capped and <eos>-ended requests and jump with the seed.
    "sampled-warm": Workload("sampled-warm", WARM_DESK, temperature=0.7, draft_len=5,
                             max_new_tokens=32, requests_per_lang=100, cold=False),
    "lifecycle-cold": Workload("lifecycle-cold", COLD_DESK, temperature=0.7, draft_len=5,
                               max_new_tokens=64, requests_per_lang=60, cold=True,
                               grid_temperatures=(0.0, 0.7), grid_seeds=(0, 1),
                               grid_prompts=10, grid_max_new=32,
                               scaling_budgets=(1000, 4000, 16000)),
}

SETUP_REPEATS = 3
COLD_SETUPS = 5


# ---------------------------------------------------------------- inputs

@dataclass(frozen=True)
class Request:
    index: int
    lang: str
    source: str   # what the user typed; routing looks at this
    prompt: str   # the instruction prompt the models decode from
    seed: int


@dataclass(frozen=True)
class Inputs:
    train: dict      # lang -> bitext Corpus
    general: lm.Corpus
    requests: tuple  # Request, in client order


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Every input of one run. The warm desk's training data comes from the
    fixed build seed; the requests always come from the run seed."""
    desk = workload.desk
    build_seed = seed if workload.cold else WARM_BUILD_SEED
    train = {lang: inputs.bitext(lang, desk.train_records, inputs.stream(build_seed, 1, i))
             for i, lang in enumerate(inputs.LANGS)}
    general = inputs.general(desk.general_records, inputs.stream(build_seed, 2))
    held_out = []
    for i, lang in enumerate(inputs.LANGS):
        corpus = inputs.bitext(lang, workload.requests_per_lang, inputs.stream(seed, 3, i))
        wrapped = distill.with_task_prompts(corpus)
        held_out.extend((lang, src, prompt)
                        for (src, _), (prompt, _) in zip(corpus.records, wrapped.records))
    order = inputs.stream(seed, 4).permutation(len(held_out))
    requests = tuple(
        Request(index=n, lang=held_out[j][0], source=held_out[j][1], prompt=held_out[j][2],
                seed=core.derive_seed(seed, core.BENCH_STREAM, n))
        for n, j in enumerate(order))
    return Inputs(train, general, requests)


# ---------------------------------------------------------------- the desk

@dataclass
class Desk:
    target: lm.NGramModel
    drafters: dict            # registry tag -> drafter model
    registry: routing.DrafterRegistry
    saved: dict               # file name -> bytes as first saved
    plain_target: lm.NGramModel
    base: lm.NGramModel
    distilled: dict           # lang -> distilled Corpus
    stages: dict              # stage -> seconds, in build order
    train_tokens: int
    distill_tokens: int

    def contexts(self) -> int:
        return len(self.target.counts) + sum(len(d.counts) for d in self.drafters.values())


class Stages(dict):
    """Stage name -> seconds. Each stage is timed on its own, so that the
    write-side metrics add up only the stages they name; the host clock
    ticks between stages."""

    def __init__(self, clock: hostspeed.HostClock) -> None:
        super().__init__()
        self.clock = clock

    @contextlib.contextmanager
    def timed(self, name: str):
        started = time.perf_counter()
        yield
        self[name] = time.perf_counter() - started
        self.clock.tick()


TRAIN_STAGES = ("pretrain.", "finetune.")
DISTILL_STAGES = ("self_distill.",)


def build_desk(data: Inputs, desk: DeskParams, workdir: Path,
               clock: hostspeed.HostClock) -> Desk:
    """Train, distill, finetune, save and load the models, as the README's
    quickstart does, through the library. Decoding uses the loaded copies."""
    stages = Stages(clock)
    with stages.timed("vocab"):
        tasks = lm.Corpus(tuple(r for lang in inputs.LANGS
                                for r in distill.with_task_prompts(data.train[lang]).records))
        vocab = core.build_vocab(text for record in tasks.records + data.general.records
                                 for text in record)
    train_tokens = tasks.token_count() + data.general.token_count()
    with stages.timed("pretrain.target"):
        target = lm.pretrain(tasks, desk.target_order, desk.target_k, vocab, "target")
    with stages.timed("pretrain.base"):
        base = lm.pretrain(data.general, desk.base_order, desk.base_k, vocab, "base")

    distilled = {}
    for lang in inputs.LANGS:
        with stages.timed(f"self_distill.{lang}"):
            prompts = lm.Corpus(data.train[lang].records[:desk.distill_prompts],
                                data.train[lang].langs)
            job = distill.DistillJob(target, prompts, max_len=desk.distill_max_len)
            distilled[lang] = distill.self_distill(job, skip_empty=True)
    distill_tokens = sum(len(c) for corpus in distilled.values() for _, c in corpus.records)

    tuned = {}
    for lang in inputs.LANGS:
        with stages.timed(f"finetune.{TAGS[lang]}"):
            tuned[TAGS[lang]] = lm.finetune(base, distilled[lang])
    train_tokens += sum(corpus.token_count() for corpus in distilled.values())

    workdir.mkdir(parents=True, exist_ok=True)
    with stages.timed("save_load"):
        files = {"target.model": target, **{f"{tag}.model": m for tag, m in tuned.items()}}
        for name, model in files.items():
            lm.save_model(model, workdir / name)
        saved = {name: (workdir / name).read_bytes() for name in files}
        loaded = {name: lm.load_model(workdir / name) for name in files}
        plain_target = lm.load_model(workdir / "target.model")
    drafters = {tag: loaded[f"{tag}.model"] for tag in tuned}
    registry = routing.DrafterRegistry({tag: f"{tag}.model" for tag in tuned},
                                       default_tag=TAGS["de"])
    return Desk(loaded["target.model"], drafters, registry, saved, plain_target, base,
                distilled, stages, train_tokens, distill_tokens)


# ---------------------------------------------------------------- requests

@dataclass
class Served:
    """What one spec request and its plain twin returned, and how long each took."""

    spec_text: str
    plain_text: str
    stats: specdec.DecodeStats
    spec_tokens: int
    plain_tokens: int
    spec_ns: int
    plain_ns: int
    routed_home: bool
    failure: Optional[str] = None


def _spec_request(desk: Desk, req: Request, w: Workload):
    tag = routing.select_drafter(req.source, desk.registry)
    vocab = desk.target.vocab
    cfg = specdec.SpecConfig(draft_len=w.draft_len, temperature=w.temperature,
                             max_new_tokens=w.max_new_tokens, seed=req.seed)
    out, stats = specdec.decode_speculative(desk.target, desk.drafters[tag],
                                            core.encode(req.prompt, vocab), cfg)
    return tag, out, stats, core.decode_tokens(out, vocab)


def _plain_request(desk: Desk, req: Request, w: Workload):
    vocab = desk.plain_target.vocab
    out = lm.generate(desk.plain_target, core.encode(req.prompt, vocab),
                      core.SamplerConfig(w.temperature, req.seed), w.max_new_tokens)
    return out, core.decode_tokens(out, vocab)


def serve(desk: Desk, req: Request, w: Workload, clock: hostspeed.HostClock, tracer=None,
          phase: str = "") -> Served:
    """Run the request speculatively and plainly, alternating which goes first,
    and check the speculative result. With a tracer, the spans are attributed
    to the kinds phase + "spec" and phase + "plain"."""
    def timed(request, kind):
        scope = (tracer.request(phase + kind, req.index) if tracer is not None
                 else contextlib.nullcontext())
        with scope:
            started = time.perf_counter_ns()
            value = request(desk, req, w)
            return value, time.perf_counter_ns() - started

    if req.index % 2 == 0:
        (plain_out, plain_text), plain_ns = timed(_plain_request, "plain")
        (tag, out, stats, text), spec_ns = timed(_spec_request, "spec")
    else:
        (tag, out, stats, text), spec_ns = timed(_spec_request, "spec")
        (plain_out, plain_text), plain_ns = timed(_plain_request, "plain")
    clock.tick()
    served = Served(text, plain_text, stats, len(out), len(plain_out), spec_ns, plain_ns,
                    routed_home=tag == TAGS[req.lang])
    problems = []
    produced = sum(stats.accepted_per_cycle) + stats.cycles
    if stats.emitted_tokens + stats.truncated_tokens != produced:
        problems.append("emitted + truncated != accepted + cycles")
    if stats.target_calls != stats.cycles:
        problems.append("target_calls != cycles")
    if len(out) > w.max_new_tokens:
        problems.append("more than max_new_tokens")
    if w.temperature == 0.0 and out != plain_out:
        problems.append("greedy output differs from generate")
    if problems:
        served.failure = f"request {req.index}: " + ", ".join(problems)
    return served


def _digest_update(h, served: Served) -> None:
    h.update(served.spec_text.encode())
    h.update(b"\0")
    h.update(served.plain_text.encode())
    h.update(b"\0")
    h.update(json.dumps(served.stats.to_dict(), sort_keys=True).encode())
    h.update(b"\n")


def _digest_files(h, files: dict) -> None:
    for name in sorted(files):
        h.update(name.encode())
        h.update(b"\0")
        h.update(files[name])


@dataclass
class Batch:
    """One warm round or one cold pass."""

    traced: bool
    digest: str
    served: list
    failures: list
    attempted: int
    extra: dict = field(default_factory=dict)
    host_scale: float = 1.0   # set by run() from the batch's hostspeed window

    def scaled_spec_tok_s(self) -> float:
        spec_s = sum(s.spec_ns for s in self.served) / 1e9 / self.host_scale
        return sum(s.spec_tokens for s in self.served) / spec_s

    def merged(self) -> specdec.DecodeStats:
        return bench.merge_stats([s.stats for s in self.served])


def serve_round(desk: Desk, data: Inputs, w: Workload, clock: hostspeed.HostClock, tracer=None,
                phase: str = "") -> Batch:
    h = hashlib.sha256()
    _digest_files(h, desk.saved)
    served = []
    for req in data.requests:
        s = serve(desk, req, w, clock, tracer, phase)
        served.append(s)
        _digest_update(h, s)
    failures = [s.failure for s in served if s.failure]
    return Batch(tracer is not None, h.hexdigest(), served, failures, attempted=len(served))


# ---------------------------------------------------------------- lifecycle

def lifecycle_pass(data: Inputs, w: Workload, workdir: Path, clock: hostspeed.HostClock,
                   tracer=None) -> Batch:
    """One cold pass of the whole drafter lifecycle. Returns the time of each
    of its stages in `extra`."""
    gc.collect()
    desk = build_desk(data, w.desk, workdir, clock)
    stages = desk.stages
    served = [serve(desk, req, w, clock, tracer) for req in data.requests]
    stages["serve"] = sum(s.spec_ns + s.plain_ns for s in served) / 1e9
    held_out = {lang: lm.Corpus(tuple((r.prompt, "") for r in data.requests if r.lang == lang),
                                (lang, "en"))
                for lang in inputs.LANGS}
    grid = bench.ExperimentGrid(
        drafters={lang: desk.drafters[TAGS[lang]] for lang in inputs.LANGS},
        corpora=held_out, temperatures=w.grid_temperatures, seeds=w.grid_seeds,
        draft_len=w.draft_len)
    with stages.timed("run_grid"):
        grid_result = bench.run_grid(desk.target, grid, max_new_tokens=w.grid_max_new,
                                     cost=bench.CostModel(COST_C), max_prompts=w.grid_prompts,
                                     jobs=1)
    with stages.timed("scaling_curve"):
        curve = bench.scaling_curve(
            desk.target, desk.base, desk.distilled["de"], w.scaling_budgets, held_out["de"],
            bench.EvalConfig(draft_len=w.draft_len, temperature=0.0,
                             max_new_tokens=w.grid_max_new, seeds=w.grid_seeds,
                             cost=bench.CostModel(COST_C), max_prompts=w.grid_prompts))
    report_dir = workdir / "reports"
    with stages.timed("emit_report"):
        bench.emit_report(grid_result.to_table(), report_dir, "grid")
        bench.emit_report(curve.to_table(), report_dir, "scaling")

    failures = [s.failure for s in served if s.failure]
    if grid_result.errors:
        failures.append(f"grid has {len(grid_result.errors)} error cells")
    resaved = workdir / "resaved"
    resaved.mkdir()
    loaded = [(desk.target, "target.model"), (desk.plain_target, "target.model"),
              *((m, f"{tag}.model") for tag, m in desk.drafters.items())]
    differ = []
    for i, (model, name) in enumerate(loaded):
        path = resaved / f"{i}-{name}"
        lm.save_model(model, path)
        if path.read_bytes() != desk.saved[name]:
            differ.append(name)
    if differ:
        failures.append(f"re-saved models differ from the saved bytes: {differ}")

    h = hashlib.sha256()
    _digest_files(h, desk.saved)
    for s in served:
        _digest_update(h, s)
    _digest_files(h, {p.name: p.read_bytes() for p in sorted(report_dir.iterdir())})
    shutil.rmtree(workdir)
    return Batch(tracer is not None, h.hexdigest(), served, failures,
                 attempted=len(served) + 2,  # the requests, the grid, the re-save
                 extra={"sample": _sample(desk),
                        "contexts": desk.contexts(),
                        "routed_home": sum(s.routed_home for s in served) / len(served)})


# ---------------------------------------------------------------- runs

@dataclass
class RunResult:
    workload: Workload
    setup_s: list      # scaled by each set-up's host scale
    batches: list
    pipeline: list     # per warm rebuild or cold pass: its stages and token counts
    contexts: int
    routed_home: float
    failures: list
    attempted: int
    host_scale: float  # the whole run's, for the record
    host_probes: int

    def digest(self) -> str:
        return self.batches[0].digest


def _warm_setup(data: Inputs, w: Workload, workdir: Path, clock: hostspeed.HostClock,
                tracer=None):
    desk = build_desk(data, w.desk, workdir, clock)
    warmup = serve_round(desk, data, w, clock, tracer, phase="warmup-")
    return desk, warmup


def _sample(desk: Desk) -> dict:
    return {"stages": dict(desk.stages), "train_tokens": desk.train_tokens,
            "distill_tokens": desk.distill_tokens}


def _scaled(sample: dict, host_scale: float) -> dict:
    stages = {name: s / host_scale for name, s in sample["stages"].items()}
    return {**sample, "stages": stages}


def rebuild(data: Inputs, w: Workload, workdir: Path, desk: Desk,
            clock: hostspeed.HostClock) -> tuple:
    """Build the warm desk again after a round, so the write-side metrics of
    the warm workloads are sampled across the whole run rather than only in
    its few set-ups. The rebuilt models must save to the desk's bytes.
    Returns the sample and the failures."""
    gc.collect()
    with clock.window() as host:
        again = build_desk(data, w.desk, workdir, clock)
    shutil.rmtree(workdir)
    failures = [] if again.saved == desk.saved else ["a rebuilt desk saves different models"]
    return _scaled(_sample(again), host.scale), failures


def run(workload: Workload, seed: int, seconds: float, workdir: Path, tracer=None) -> RunResult:
    """Measure for about `seconds`, cut into SETUP_REPEATS segments. Each
    segment sets up (makes the inputs and, on the warm workloads, builds,
    loads and warms the desk) and then measures rounds (warm) or passes
    (cold) until the segment ends, so that set-up and measurement both sample
    the whole window. On the warm workloads every round is followed by an
    untraced rebuild of the desk, which gives pipeline_s, train_tok_s and
    distill_tok_s their samples. Each set-up, batch and rebuild runs in a
    hostspeed window whose scale its timings are divided by. With a tracer,
    set-up and every other batch run traced; the untraced batches give
    trace.overhead its base."""
    def tracing(on: bool):
        if tracer is None or not on:
            return contextlib.nullcontext(None)
        return tracer.installed()

    clock = hostspeed.HostClock()
    setup_s = []
    pipeline = []
    batches = []
    digests = set()
    failures = []
    attempted = 0
    started = time.perf_counter()
    for segment in range(1, SETUP_REPEATS + 1):
        # lifecycle-cold's set-up only makes the inputs, a few tens of ms, so
        # it is timed COLD_SETUPS times per segment for a steady median.
        for _ in range(COLD_SETUPS - 1 if workload.cold else 0):
            gc.collect()
            with clock.window() as host:
                setup_started = time.perf_counter()
                make_inputs(workload, seed)
                setup = time.perf_counter() - setup_started
            setup_s.append(setup / host.scale)
        gc.collect()
        with clock.window() as host:
            setup_started = time.perf_counter()
            data = make_inputs(workload, seed)
            if not workload.cold:
                with tracing(True) as t:
                    if t is not None:
                        t.forget_models()
                    desk, warmup = _warm_setup(data, workload, workdir / "desk", clock, t)
                digests.add(warmup.digest)
                failures.extend(warmup.failures)
                attempted += warmup.attempted
            setup = time.perf_counter() - setup_started
        setup_s.append(setup / host.scale)
        segment_end = started + seconds * segment / SETUP_REPEATS
        first = True
        while first or time.perf_counter() < segment_end:
            first = False
            with tracing(len(batches) % 2 == 1) as t, clock.window() as host:
                if workload.cold:
                    if t is not None:
                        t.forget_models()
                    batch = lifecycle_pass(data, workload, workdir / "pass", clock, t)
                else:
                    batch = serve_round(desk, data, workload, clock, t)
            batch.host_scale = host.scale
            batches.append(batch)
            if workload.cold:
                pipeline.append(_scaled(batch.extra["sample"], host.scale))
            else:
                sample, rebuild_failures = rebuild(data, workload, workdir / "rebuild", desk,
                                                    clock)
                pipeline.append(sample)
                failures.extend(rebuild_failures)
                attempted += 1
            digests.add(batch.digest)
            failures.extend(batch.failures)
            attempted += batch.attempted
    attempted += 1
    if len(digests) != 1:
        failures.append(f"set-ups and batches disagree: {len(digests)} distinct output digests")
    if workload.cold:
        contexts = batches[0].extra["contexts"]
        routed_home = batches[0].extra["routed_home"]
    else:
        contexts = desk.contexts()
        routed_home = sum(s.routed_home for s in batches[0].served) / len(batches[0].served)
    return RunResult(workload, setup_s, batches, pipeline, contexts, routed_home,
                     failures, attempted, clock.scale(), len(clock.times_ns))


# ---------------------------------------------------------------- metrics

def _median(values) -> float:
    return float(statistics.median(values))


def _mean_stages(samples: list, prefixes: tuple = ("",)) -> float:
    """Scaled seconds of the named stages, each averaged over the samples."""
    names = [n for n in samples[0]["stages"] if n.startswith(prefixes)]
    return sum(statistics.fmean(s["stages"][n] for s in samples) for n in names)


def end_to_end(r: RunResult) -> dict:
    """The end-to-end metrics of an untraced run, as (value, unit). Every
    request is timed once per batch and every stage once per rebuild or pass,
    and each timing is divided by the host scale of its batch, rebuild or pass
    (hostspeed). Scaled timings are averaged over the run (throughputs are
    totals over totals); setup_s is the median scaled set-up."""
    batches = r.batches
    stats = batches[0].merged()
    scales = np.array([[b.host_scale] for b in batches])
    spec_s = np.array([[s.spec_ns for s in b.served] for b in batches]) / 1e9 / scales
    plain_s = np.array([[s.plain_ns for s in b.served] for b in batches]) / 1e9 / scales
    spec_tok_s = sum(s.spec_tokens for s in batches[0].served) / float(spec_s.mean(0).sum())
    plain_tok_s = sum(s.plain_tokens for s in batches[0].served) / float(plain_s.mean(0).sum())
    latencies_ms = spec_s.mean(axis=0) * 1e3
    samples = r.pipeline
    return {
        "spec_tok_s": (spec_tok_s, "tok/s"),
        "plain_tok_s": (plain_tok_s, "tok/s"),
        "wall_speedup": (spec_tok_s / plain_tok_s, "x"),
        "req_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
        "req_ms_p95": (float(np.percentile(latencies_ms, 95)), "ms"),
        "mean_accepted": (bench.mean_accepted(stats), "tok/cycle"),
        "cost_speedup": (bench.cost_speedup(stats, bench.CostModel(COST_C)), "x"),
        "pipeline_s": (_mean_stages(samples), "s"),
        "train_tok_s": (samples[0]["train_tokens"] / _mean_stages(samples, TRAIN_STAGES),
                        "tok/s"),
        "distill_tok_s": (samples[0]["distill_tokens"]
                          / _mean_stages(samples, DISTILL_STAGES), "tok/s"),
        "setup_s": (_median(r.setup_s), "s"),
    }


def per_layer(r: RunResult, tracer) -> dict:
    """The per-layer metrics of a traced run, as (value, unit)."""
    us = 1e-3

    def mean_us(row) -> float:
        return row[TOTAL_NS] * us / row[CALLS] if row[CALLS] else 0.0

    spec = lambda name: tracer.get("spec", name)
    decode = spec("specdec.decode_speculative")
    spec_tokens = decode[UNITS]
    drafts = spec("specdec.draft")
    scores = spec("specdec.score_parallel")
    verifies = [a + b for a, b in zip(spec("specdec.verify_greedy"),
                                      spec("specdec.verify_stochastic"))]
    cycles = scores[CALLS]
    hits, misses = spec("lm.next_dist.hit"), spec("lm.next_dist.miss")
    temps = spec("core.apply_temperature")
    plain_gen = tracer.get("plain", "lm.generate")
    pretrain, finetune = tracer.total("lm.pretrain"), tracer.total("lm.finetune")

    traced = [b for b in r.batches if b.traced]
    untraced = [b for b in r.batches if not b.traced]
    stats = bench.merge_stats([s.stats for b in traced for s in b.served])
    reached, accepted = tracer.reached, tracer.accepted
    alpha = sum(accepted) / sum(reached) if sum(reached) else 0.0
    k = r.workload.draft_len
    iid = (k + 1.0) if alpha == 1.0 else (1.0 - alpha ** (k + 1)) / (1.0 - alpha)
    drafter_cost = drafts[TOTAL_NS] / drafts[UNITS] if drafts[UNITS] else 0.0
    target_cost = scores[TOTAL_NS] / cycles if cycles else 0.0

    def seconds(name):
        row = tracer.total(name)
        return row[TOTAL_NS] / 1e9 / row[CALLS] if row[CALLS] else 0.0

    out = {
        "core.apply_temperature.us": (mean_us(temps), "us"),
        "core.apply_temperature.per_tok": (temps[CALLS] / spec_tokens, "1/tok"),
        "core.sample.us": (mean_us(spec("core.sample")), "us"),
        "core.Distribution.per_tok": (spec("core.Distribution")[CALLS] / spec_tokens, "1/tok"),
        "lm.next_dist.us_warm": (mean_us(hits), "us"),
        "lm.next_dist.us_cold": (mean_us(misses), "us"),
        "lm.next_dist.per_tok": ((hits[CALLS] + misses[CALLS]) / spec_tokens, "1/tok"),
        "lm.next_dist.hit_ratio": (hits[CALLS] / (hits[CALLS] + misses[CALLS]), "ratio"),
        "lm.generate.us_per_tok": (plain_gen[TOTAL_NS] * us / plain_gen[UNITS], "us/tok"),
        "lm.pretrain.us_per_tok": (pretrain[TOTAL_NS] * us / pretrain[UNITS], "us/tok"),
        "lm.finetune.us_per_tok": (finetune[TOTAL_NS] * us / finetune[UNITS], "us/tok"),
        "lm.save_model.ms": (seconds("lm.save_model") * 1e3, "ms"),
        "lm.load_model.ms": (seconds("lm.load_model") * 1e3, "ms"),
        "lm.contexts": (float(r.contexts), "count"),
        "specdec.draft.self_us": (drafts[SELF_NS] * us / cycles, "us/cycle"),
        "specdec.score_parallel.self_us": (scores[SELF_NS] * us / cycles, "us/cycle"),
        "specdec.verify.self_us": (verifies[SELF_NS] * us / cycles, "us/cycle"),
        "specdec.bookkeeping.self_us": (decode[SELF_NS] * us / cycles, "us/cycle"),
        "specdec.residual_dist.us": (mean_us(spec("specdec.residual_dist")), "us"),
        "specdec.share.draft": (drafts[TOTAL_NS] / decode[TOTAL_NS], "fraction"),
        "specdec.share.score": (scores[TOTAL_NS] / decode[TOTAL_NS], "fraction"),
        "specdec.share.verify": (verifies[TOTAL_NS] / decode[TOTAL_NS], "fraction"),
        "specdec.share.bookkeeping": (decode[SELF_NS] / decode[TOTAL_NS], "fraction"),
        "specdec.acceptance_rate": (bench.acceptance_rate(stats), "ratio"),
        "specdec.cycles_per_tok": (stats.cycles / stats.emitted_tokens, "cycle/tok"),
        "specdec.tok_per_cycle": ((sum(stats.accepted_per_cycle) + stats.cycles) / stats.cycles,
                                  "tok/cycle"),
        "specdec.iid_tok_per_cycle": (iid, "tok/cycle"),
        "specdec.calibrated_c": (drafter_cost / target_cost if target_cost else 0.0, "ratio"),
        "distill.self_distill.s": (seconds("distill.self_distill"), "s"),
        "bench.run_grid.s": (seconds("bench.run_grid"), "s"),
        "bench.scaling_curve.s": (seconds("bench.scaling_curve"), "s"),
        "bench.emit_report.ms": (seconds("bench.emit_report") * 1e3, "ms"),
        "routing.select_drafter.us": (mean_us(spec("routing.select_drafter")), "us"),
        "routing.hit_ratio": (r.routed_home, "ratio"),
        "trace.overhead": (_median(b.scaled_spec_tok_s() for b in untraced)
                           / _median(b.scaled_spec_tok_s() for b in traced), "x"),
    }
    for i in range(k):
        rate = accepted[i] / reached[i] if i < len(reached) and reached[i] else 0.0
        out[f"specdec.alpha.{i + 1}"] = (rate, "ratio")
    out["specdec.alpha.pooled"] = (alpha, "ratio")
    return out


def params(w: Workload) -> dict:
    out = asdict(w)
    out["setup_repeats"] = SETUP_REPEATS * (COLD_SETUPS if w.cold else 1)
    out["build_seed"] = "run seed" if w.cold else WARM_BUILD_SEED
    return out
