"""In-memory span tracing of specdesk's public functions for the traced run.

The library is not edited. `Tracer.install` wraps each public function by
replacing its name in every module that calls it, and `uninstall` puts the
originals back. specdec imports `apply_temperature` and `sample` by name, so
those are replaced in specdec and lm as well as in core; a method is replaced
on its class.

A span records its name, start, end, parent span and request id. The
per-(kind, name) totals are updated on every span; the raw records of the
first KEEP_SPANS spans are kept and written out at the end.
Self time is a span's duration minus the time its child spans cover. The
wrappers only read clocks and counters, so tracing consumes no RNG draws.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from specdesk import bench, core, distill, lm, routing, specdec

# columns of a totals row
CALLS, TOTAL_NS, SELF_NS, UNITS = range(4)
KEEP_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # (kind, name) -> [CALLS, TOTAL_NS, SELF_NS, UNITS]
        self.totals: dict[tuple[str, str], list] = {}
        # per-position draft acceptance of "spec" requests: reached[i], accepted[i]
        self.reached: list[int] = []
        self.accepted: list[int] = []
        self.kind = "setup"
        self.request_id = None
        self._stack: list[list] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._seen: dict[int, tuple] = {}  # id(model) -> (model, padded contexts seen)
        self._saved: list[tuple] = []

    @contextmanager
    def request(self, kind: str, request_id):
        """Attribute the spans opened inside the block to one request."""
        outer = self.kind, self.request_id
        self.kind, self.request_id = kind, request_id
        try:
            yield
        finally:
            self.kind, self.request_id = outer

    def get(self, kind: str, name: str) -> list:
        return self.totals.get((kind, name), [0, 0, 0, 0])

    def total(self, name: str) -> list:
        """Totals of one span name summed over every kind."""
        out = [0, 0, 0, 0]
        for (_, n), row in self.totals.items():
            if n == name:
                out = [a + b for a, b in zip(out, row)]
        return out

    def forget_models(self) -> None:
        """Drop the seen-context sets of models that are about to be discarded."""
        self._seen.clear()

    def _row(self, name: str) -> list:
        key = (self.kind, name)
        row = self.totals.get(key)
        if row is None:
            row = self.totals[key] = [0, 0, 0, 0]
        return row

    def _timed(self, name: str, fn, args, kwargs):
        stack = self._stack
        frame = [self._next_id, 0]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += duration
            row = self._row(name)
            row[CALLS] += 1
            row[TOTAL_NS] += duration
            row[SELF_NS] += duration - frame[1]
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent is not None else None,
                                   self.request_id))

    def wrap(self, name: str, fn, units=None):
        """Traced stand-in for fn; units(args, result) counts the work done."""
        def traced(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if units is not None:
                self._row(name)[UNITS] += units(args, result)
            return result
        return traced

    def _next_dist(self, fn):
        # A call is a hit when the model has seen its padded context before.
        def traced(model, context):
            entry = self._seen.get(id(model))
            if entry is None:
                entry = self._seen[id(model)] = (model, set())
            n1 = model.order - 1
            tail = tuple(context[-n1:]) if n1 and context else ()
            ctx = (core.BOS_ID,) * (n1 - len(tail)) + tail
            hit = ctx in entry[1]
            if not hit:
                entry[1].add(ctx)
            return self._timed("lm.next_dist.hit" if hit else "lm.next_dist.miss",
                               fn, (model, context), {})
        return traced

    def _record_cycle(self, args, outcome) -> int:
        if self.kind == "spec":
            drafted = len(args[0])
            while len(self.reached) < drafted:
                self.reached.append(0)
                self.accepted.append(0)
            for i in range(min(drafted, outcome.accepted_count + 1)):
                self.reached[i] += 1
            for i in range(outcome.accepted_count):
                self.accepted[i] += 1
        return 0

    def _count_distribution(self, fn):
        def counted(dist):
            self._row("core.Distribution")[CALLS] += 1
            fn(dist)
        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tokens = lambda args, result: len(result)
        corpus_tokens = lambda args, result: args[1].token_count()
        plan = [
            ("core.apply_temperature", core.apply_temperature, (core, lm, specdec), None),
            ("core.sample", core.sample, (core, lm, specdec), None),
            ("lm.generate", lm.generate, (lm, distill, bench), tokens),
            ("lm.pretrain", lm.pretrain, (lm,), lambda a, r: a[0].token_count()),
            ("lm.finetune", lm.finetune, (lm, bench), corpus_tokens),
            ("lm.save_model", lm.save_model, (lm,), None),
            ("lm.load_model", lm.load_model, (lm,), None),
            ("specdec.draft", specdec.draft, (specdec,), tokens),
            ("specdec.score_parallel", specdec.score_parallel, (specdec,), None),
            ("specdec.verify_greedy", specdec.verify_greedy, (specdec,), self._record_cycle),
            ("specdec.verify_stochastic", specdec.verify_stochastic, (specdec,),
             self._record_cycle),
            ("specdec.residual_dist", specdec.residual_dist, (specdec,), None),
            ("specdec.decode_speculative", specdec.decode_speculative, (specdec, bench),
             lambda a, r: len(r[0])),
            ("distill.self_distill", distill.self_distill, (distill,),
             lambda a, r: sum(len(c) for _, c in r.records)),
            ("bench.run_grid", bench.run_grid, (bench,), None),
            ("bench.scaling_curve", bench.scaling_curve, (bench,), None),
            ("bench.emit_report", bench.emit_report, (bench,), None),
            ("routing.select_drafter", routing.select_drafter, (routing,), None),
        ]
        for name, fn, modules, units in plan:
            attr = fn.__name__
            traced = self.wrap(name, fn, units)
            for module in modules:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, traced)
        for owner, attr, replacement in (
                (lm.NGramModel, "next_dist", self._next_dist),
                (core.Distribution, "__post_init__", self._count_distribution)):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request_id}) + "\n")
