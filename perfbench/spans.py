"""Timing wrappers around beamforge's layer functions, installed from outside.

The program is not edited: `Tracer.install` replaces each listed function in
every loaded `beamforge.*` namespace that holds it.  `ga` imports
`classify_infeasibility`, `decode_schedule` and `evaluate` by name, and `cli`
and `harness` import `run`, `build_model`, `generate_patterns` and friends by
name, so patching only the defining module would miss most calls.

Spans are kept in memory as `[name, parent, start_ns, end_ns, outcome]`
lists, where `parent` indexes the enclosing span (-1 for none), and are
written out once, by `write`, when the run ends.  The wrappers draw no random
numbers and pass arguments and results through untouched, so a traced run
produces the same bytes as an untraced one; the benchmark checks this.
"""

from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager

# Outcome codes of a span.
RETURNED = 0  # returned a value other than None or its first argument
NONE = 1  # returned None (a rejected construction or offspring)
SAME = 2  # returned its first argument unchanged (a polish that found nothing)
RAISED = 3

# (module, function name) -> span name.  One name per layer operation.
LAYER_FUNCTIONS = {
    ("beamforge.cli", "dispatch"): "cli.dispatch",
    ("beamforge.instance", "load_instance"): "instance.load",
    ("beamforge.patterns", "generate_patterns"): "patterns.generate",
    ("beamforge.bound", "lower_bound"): "bound.lower_bound",
    ("beamforge.harness", "run_trials"): "harness.run_trials",
    ("beamforge.ga", "run"): "ga.run",
    ("beamforge.ga", "random_solution"): "ga.construct",
    ("beamforge.ga", "crossover1"): "ga.vary",
    ("beamforge.ga", "crossover2"): "ga.vary",
    ("beamforge.ga", "mutate"): "ga.mutate",
    ("beamforge.ga", "local_search_insert"): "ga.polish",
    ("beamforge.evaluation", "classify_infeasibility"): "evaluation.classify",
    ("beamforge.evaluation", "decode_schedule"): "evaluation.decode",
    ("beamforge.evaluation", "evaluate"): "evaluation.evaluate",
    ("beamforge.ilp", "build_model"): "ilp.build_model",
    ("beamforge.ilp", "emit_lp"): "ilp.emit_lp",
    ("beamforge.ilp", "check_assignment"): "ilp.check_assignment",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        # (ga.run span index, GaResult.rejected_constructions) per solver run.
        self.rejected_constructions: list[tuple[int, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        rejected = self.rejected_constructions if name == "ga.run" else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, stack[-1], clock(), 0, RETURNED]
            stack.append(index)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = RAISED
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if result is None:
                rec[4] = NONE
            elif args and result is args[0]:
                rec[4] = SAME
            if rejected is not None:
                rejected.append((index, result.rejected_constructions))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a beamforge module holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "beamforge"]
        for (module_name, attr), span_name in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one operation."""
        rec = [name, self.stack[-1], time.perf_counter_ns(), 0, RETURNED]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,parent,start_ns,end_ns,outcome\n")
            fh.writelines(f"{n},{p},{s},{e},{o}\n" for n, p, s, e, o in self.spans)


class Profile:
    """Per-name totals over the spans that lie under the given root spans."""

    def __init__(self, tracer: Tracer, roots: set[str]):
        spans = tracer.spans
        root_of = [-1] * len(spans)
        child_ns = [0] * len(spans)
        for i, (name, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                root_of[i] = root_of[parent]
                child_ns[parent] += end - start
            elif name in roots:
                root_of[i] = i
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.outcomes: dict[tuple[str, int], int] = {}
        for i, (name, parent, start, end, outcome) in enumerate(spans):
            if root_of[i] < 0 or parent < 0:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + end - start - child_ns[i]
            key = (name, outcome)
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
        self.rejected_constructions = sum(
            n for i, n in tracer.rejected_constructions if root_of[i] >= 0
        )
        # Wall time of each cli.dispatch minus its solver or model work.
        work = {"ga.run", "ilp.build_model", "ilp.emit_lp", "harness.run_trials"}
        overhead = {}
        for i, (name, parent, start, end, _) in enumerate(spans):
            if root_of[i] < 0:
                continue
            if name == "cli.dispatch":
                overhead[i] = overhead.get(i, 0) + end - start
            elif name in work and parent >= 0 and spans[parent][0] == "cli.dispatch":
                overhead[parent] = overhead.get(parent, 0) - (end - start)
        self.cli_overhead_s = sum(overhead.values()) / 1e9

    def count(self, name: str, outcome: int | None = None) -> int:
        if outcome is None:
            return self.calls.get(name, 0)
        return self.outcomes.get((name, outcome), 0)

    def work_counts(self) -> dict[str, int]:
        """Every call count and outcome count; these repeat exactly for one seed."""
        counts = {name: n for name, n in self.calls.items()}
        counts.update({f"{name}/{outcome}": n for (name, outcome), n in self.outcomes.items()})
        counts["ga.run/rejected_constructions"] = self.rejected_constructions
        return dict(sorted(counts.items()))

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def per_call(self, name: str, scale: float) -> float:
        """Mean wall time per call in 1/scale seconds; 0 when never called."""
        calls = self.count(name)
        return self.total_s(name) * scale / calls if calls else 0.0
