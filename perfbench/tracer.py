"""Span recorder that measures each layer from outside.

:class:`Tracer` wraps public entry points of each layer's module: the
session, the trial runner, the processor, snapshots, golden traces, the
JSONL store and the aggregators.  Each wrapped call records a span
``[name, start, end, parent, trial key]`` in memory; counts are taken at
the same boundaries.  Nothing inside the program is edited.

Spans are strictly nested because a serial campaign runs on one thread,
so a span's self time is its duration minus its direct children's.
"""

import importlib
import json
import time

#: Layer of each span name (the prefix before the dot).
LAYERS = ("api", "outcome", "uarch", "checkpoint", "golden", "store",
          "aggregate")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.key = None
        self.counts = {"uarch.steps": 0, "uarch.cycles": 0,
                       "uarch.dispatched_entries": 0, "uarch.issued": 0,
                       "golden.traces": 0, "golden.seek_instructions": 0}

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.key]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer's entry points for the rest of the process."""
        from repro.campaign import api, golden, outcome, store
        from repro.uarch import processor, snapshot
        # The package re-exports a function under the module's name.
        aggregate_mod = importlib.import_module("repro.campaign.aggregate")

        tracer = self
        counts = self.counts

        run_trial = outcome.run_trial

        def traced_run_trial(trial, *args, **kwargs):
            outer, tracer.key = tracer.key, trial.key
            span = tracer._enter("outcome.run_trial")
            try:
                return run_trial(trial, *args, **kwargs)
            finally:
                tracer._exit(span)
                tracer.key = outer
        # The session's serial path calls the name bound in its module.
        api.run_trial = traced_run_trial
        outcome.run_trial = traced_run_trial

        session = api.CampaignSession
        session.run = self.wrap("api.session", session.run)
        # The session calls the aggregators bound in its own module.
        for module in (api, aggregate_mod):
            for name in ("aggregate", "aggregate_structures"):
                setattr(module, name,
                        self.wrap("aggregate.run", getattr(module, name)))
        jsonl = store.JSONLStore
        jsonl.append = self.wrap("store.append", jsonl.append)

        Processor = processor.Processor
        run = Processor.run
        step = Processor.step

        def traced_run(proc, *args, **kwargs):
            stats = proc.stats
            cycle, entries, issued = (proc.cycle, stats.dispatched_entries,
                                      stats.issued)
            span = tracer._enter("uarch.run")
            try:
                return run(proc, *args, **kwargs)
            finally:
                tracer._exit(span)
                counts["uarch.cycles"] += proc.cycle - cycle
                counts["uarch.dispatched_entries"] += \
                    stats.dispatched_entries - entries
                counts["uarch.issued"] += stats.issued - issued

        def counted_step(proc):
            counts["uarch.steps"] += 1
            return step(proc)
        Processor.run = traced_run
        Processor.step = counted_step

        Snapshot = snapshot.ProcessorSnapshot
        Snapshot.__init__ = self.wrap("checkpoint.capture",
                                      Snapshot.__init__)
        Snapshot.restore_into = self.wrap("checkpoint.restore",
                                          Snapshot.restore_into)

        GoldenTrace = golden.GoldenTrace
        init = GoldenTrace.__init__
        seek = GoldenTrace.seek

        def counted_init(trace, *args, **kwargs):
            counts["golden.traces"] += 1
            return init(trace, *args, **kwargs)

        def traced_seek(trace, count):
            before = trace.position
            span = tracer._enter("golden.seek")
            try:
                return seek(trace, count)
            finally:
                tracer._exit(span)
                counts["golden.seek_instructions"] += \
                    abs(trace.position - before)
        GoldenTrace.__init__ = counted_init
        GoldenTrace.seek = traced_seek
        compare = self.wrap("golden.compare", golden.compare_with_golden)
        # The trial runner calls the name bound in its own module.
        outcome.compare_with_golden = compare
        golden.compare_with_golden = compare

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Each span's duration minus its direct children's."""
        selfs = [end - start for _name, start, end, _parent, _key
                 in self.spans]
        for _name, start, end, parent, _key in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def layer_metrics(self, wall_s):
        """Per-layer metrics over the traced region of ``wall_s``
        seconds, plus the unattributed remainder of that region."""
        spans = self.spans
        selfs = self.self_times()
        by_name = {}
        for (name, start, end, _parent, _key), own in zip(spans, selfs):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own

        def count(name):
            return by_name.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return by_name.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return by_name.get(name, [0, 0.0, 0.0])[2]

        # A trial simulated if any uarch.run span nests inside it.
        simulated = set()
        for name, _start, _end, parent, _key in spans:
            if name != "uarch.run":
                continue
            while parent >= 0 and spans[parent][0] != "outcome.run_trial":
                parent = spans[parent][3]
            if parent >= 0:
                simulated.add(parent)
        counts = self.counts
        cycles = counts["uarch.cycles"]
        entries = counts["uarch.dispatched_entries"]
        trials = count("outcome.run_trial")
        run_s = own("uarch.run")
        top_level = sum(end - start for _name, start, end, parent, _key
                        in spans if parent < 0)
        metrics = {
            "uarch.runs": count("uarch.run"),
            "uarch.cycles": cycles,
            "uarch.steps": counts["uarch.steps"],
            "uarch.skipped_frac":
                1.0 - counts["uarch.steps"] / cycles if cycles else 0.0,
            "uarch.dispatched_entries": entries,
            "uarch.issued": counts["uarch.issued"],
            "uarch.run_s": run_s,
            "uarch.ns_per_cycle": 1e9 * run_s / cycles if cycles else 0.0,
            "uarch.ns_per_entry":
                1e9 * run_s / entries if entries else 0.0,
            "outcome.trials": trials,
            "outcome.simulated_frac":
                len(simulated) / trials if trials else 0.0,
            "outcome.self_s": own("outcome.run_trial"),
            "checkpoint.captures": count("checkpoint.capture"),
            "checkpoint.restores": count("checkpoint.restore"),
            "checkpoint.capture_s": own("checkpoint.capture"),
            "checkpoint.restore_s": own("checkpoint.restore"),
            "golden.traces": counts["golden.traces"],
            "golden.seeks": count("golden.seek"),
            "golden.seek_instructions":
                counts["golden.seek_instructions"],
            "golden.seek_s": own("golden.seek"),
            "golden.compare_s": own("golden.compare"),
            "store.appends": count("store.append"),
            "store.append_s": own("store.append"),
            "api.session_s": total("api.session"),
            "api.self_s": own("api.session"),
            "aggregate.run_s": own("aggregate.run"),
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for (name, _start, _end, _parent, _key), own_s in zip(spans, selfs):
            layer_self[name.split(".", 1)[0]] += own_s
        accounting = {
            "wall_s": wall_s,
            "layer_self_s": layer_self,
            "unattributed_s": wall_s - top_level,
        }
        return metrics, accounting

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, key in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "key": key}) + "\n")


#: Per-layer counts that repeat exactly for a given seed.
DETERMINISTIC = ("uarch.runs", "uarch.cycles", "uarch.steps",
                 "uarch.skipped_frac", "uarch.dispatched_entries",
                 "uarch.issued", "outcome.trials", "outcome.simulated_frac",
                 "checkpoint.captures", "checkpoint.restores",
                 "golden.traces", "golden.seeks",
                 "golden.seek_instructions", "store.appends")
