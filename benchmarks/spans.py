"""Span recorder for the traced benchmark run.

A span is [name, start ns, end ns, parent span id, call id]; its id is its
index in `SpanRecorder.spans`.  `instrument` replaces each traced ksnet
function with a wrapper wherever a ksnet module (or, for a method, the class)
holds it, which is the attribute its callers look up, and restores the
originals on exit.  Nothing under src/ is edited, and untraced runs never
call `instrument`.  The stack of open spans gives each span its parent; each
top-level call (one CLI invocation, or one library call made directly by the
benchmark) starts a new call id.  Spans stay in memory until `write_csv`.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _knots(system) -> dict:
    return {"knot_count": system.knot_count, "slots": (2 * system.d + 1) * system.n_points}


# Traced functions, named <module>.<function> after their defining module,
# with an optional observer that turns the return value into counts.
TRACED = {
    "rationals.expand_digits": None,
    "rationals.parse_rational": None,
    "inner.phi_eval": None,
    "hashmaps.psi_eval": None,
    "hashmaps.build_incidence": _knots,
    "linsolve.left_kernel_vector": lambda result: {"rank": result[0]},
    "linsolve.solve_square": None,
    "outer.fit_exact": None,
    "outer.fit_iterative": None,
    "outer.run_damped_iteration": lambda result: {"iterations": len(result[1])},
    "outer.g_eval": None,
    "outer.g_range": None,
    "network.evaluate": None,
    "network.FastEvaluator.evaluate": None,
    "network.save": lambda data: {"bytes": len(data)},
    "network.load": None,
    "cli.main": None,
}
FIT_SPANS = ("outer.fit_exact", "outer.fit_iterative")


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}  # span id -> observer output
        self._open: list[int] = []
        self._calls = 0

    def wrap(self, name, fn, observe=None):
        spans, open_ids, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ids:
                parent = open_ids[-1]
                call_id = spans[parent][4]
            else:
                parent = -1
                self._calls += 1
                call_id = self._calls
            sid = len(spans)
            span = [name, 0, 0, parent, call_id]
            spans.append(span)
            open_ids.append(sid)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                open_ids.pop()
            if observe is not None:
                counts[sid] = observe(result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per traced function, plus the observed counts.

        Self time is a span's duration minus that of its direct children; the
        code is single-threaded, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
        metrics: dict[str, float] = {}
        for name in TRACED:
            metrics[f"{name}.calls"] = calls[name]
            metrics["cli.self_s" if name == "cli.main" else f"{name}.self_s"] = self_ns[name] / 1e9

        # the final incidence system and rank certificate of each fit
        retries = knots = slots = rank = 0
        for sids in self._per_fit("hashmaps.build_incidence").values():
            retries += len(sids) - 1
            knots += self.counts[sids[-1]]["knot_count"]
            slots += self.counts[sids[-1]]["slots"]
        for sids in self._per_fit("linsolve.left_kernel_vector").values():
            rank += self.counts[sids[-1]]["rank"]
        metrics["hashmaps.retries"] = retries
        metrics["hashmaps.knot_count"] = knots
        metrics["hashmaps.shared_knot_frac"] = 1 - knots / slots if slots else 0.0
        metrics["linsolve.rank"] = rank
        metrics["outer.iterations"] = self._total("outer.run_damped_iteration", "iterations")
        evals = calls["network.evaluate"]
        metrics["outer.g_range_per_eval"] = calls["outer.g_range"] / evals if evals else 0.0
        metrics["network.save.bytes"] = self._total("network.save", "bytes")
        return metrics

    def _total(self, name: str, key: str) -> int:
        return sum(c[key] for sid, c in self.counts.items() if self.spans[sid][0] == name)

    def _per_fit(self, name: str) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for sid, span in enumerate(self.spans):
            if span[0] != name:
                continue
            up = span[3]
            while up >= 0 and self.spans[up][0] not in FIT_SPANS:
                up = self.spans[up][3]
            if up >= 0:
                groups.setdefault(up, []).append(sid)
        return groups

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "parent_id", "call_id", "name", "start_ns", "end_ns"])
            for sid, (name, start, end, parent, call_id) in enumerate(self.spans):
                writer.writerow([sid, parent, call_id, name, start, end])


def _resolve(dotted: str):
    """(holder, attribute) for '<module>.<function>' or '<module>.<Class>.<method>'."""
    module_name, *path = dotted.split(".")
    holder = importlib.import_module(f"ksnet.{module_name}")
    for part in path[:-1]:
        holder = getattr(holder, part, None)
        if holder is None:
            return None, path[-1]
    return holder, path[-1]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Route every call into a TRACED function through `recorder` while active.

    A function that no longer exists is skipped, so its metrics read zero.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ksnet" or name.startswith("ksnet."))]
    undo = []
    try:
        for dotted, observe in TRACED.items():
            holder, attr = _resolve(dotted)
            if holder is None or not callable(getattr(holder, attr, None)):
                continue
            if isinstance(holder, type):
                original = holder.__dict__[attr]
                undo.append((holder, attr, original))
                setattr(holder, attr, recorder.wrap(dotted, original, observe))
                continue
            original = getattr(holder, attr)
            wrapper = recorder.wrap(dotted, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
