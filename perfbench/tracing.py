"""Tracing from outside the program: wrappers around recolat's public functions.

A wrapper replaces a function under every name that refers to it in any
recolat module, so calls between modules (asymptotics -> linear, ctime ->
linear, cli -> every route) are caught too. Span wrappers record
(name, start, end, parent); counting wrappers only bump a counter. Spans stay
in memory and are written once, when the run ends. A layer's self time is its
spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# span name -> per-layer metric of its self time
SELF_TIME_METRICS = {
    "cli.main": "cli.main_s",
    "cli.parse_config": "cli.parse_config_s",
    "cli.run": "cli.run_s",
    "cli.emit": "cli.emit_s",
    "forward.iterate": "forward.iterate_s",
    "linear.build": "linear.build_s",
    "linear.recombinator_vector": "linear.recombinator_vector_s",
    "linear.matrix_power": "linear.matrix_power_s",
    "lpp.duality_estimate": "lpp.duality_estimate_s",
    "asymptotics.conditioned_law": "asymptotics.conditioned_law_s",
    "asymptotics.qld": "asymptotics.qld_s",
    "asymptotics.absorption_tail": "asymptotics.absorption_tail_s",
    "asymptotics.limit": "asymptotics.limit_s",
    "ctime.build_generator": "ctime.build_generator_s",
    "ctime.expm_solve": "ctime.expm_solve_s",
    "ctime.integrate": "ctime.integrate_s",
}
COUNTERS = (
    "cli.commands",
    "forward.generations",
    "linear.states",
    "linear.nnz",
    "linear.dense_bytes",
    "partitions.labelled_inits",
    "measures.recombinator_calls",
    "lpp.replicate_steps",
    "lpp.distinct_final_states",
    "ctime.generator_states",
    "ctime.rhs_evals",
)

# every per-layer metric, in report order, with its unit
LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    **{key: "B" if key.endswith("_bytes") else "count" for key in COUNTERS},
    "lpp.replicate_steps_per_s": "1/s",
    "ctime.max_drift": "1",
    "trace.overhead_s": "s",
}


class _JsonProxy:
    """Stands in for the json module inside recolat.cli so that json.dump,
    the JSON emission, can be timed."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self):
        self.rounds: list[dict] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counters: Counter = Counter()
        self._max_drift = 0.0
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            # read through self: the span list is replaced at every round
            record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._spans.append(record)
            self._stack.append(len(self._spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, fn):
        counters = self._counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, original, replacement) -> None:
        """Point every recolat name bound to `original` at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if modname != "recolat" and not modname.startswith("recolat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, R) -> None:
        c = self._counters

        def on_run(args, kwargs, result):
            c["cli.commands"] += 1

        def on_iterate(args, kwargs, result):
            c["forward.generations"] += _arguments(R.forward.iterate, args, kwargs)["t"]

        def on_build(args, kwargs, result):
            states = len(result.states)
            matrix = result.matrix
            c["linear.states"] += states
            c["linear.nnz"] += int(matrix.nnz if hasattr(matrix, "nnz") else np.count_nonzero(matrix))
            c["linear.dense_bytes"] += states * states * 8

        def on_estimate(args, kwargs, result):
            bound = _arguments(R.lpp.duality_estimate, args, kwargs)
            c["lpp.replicate_steps"] += bound["t"] * bound["replicates"]
            c["lpp.distinct_final_states"] += len(result.final_counts)

        def on_generator(args, kwargs, result):
            c["ctime.generator_states"] += len(result.states)

        def on_integrate(args, kwargs, result):
            self._max_drift = max(self._max_drift, float(result.max_drift))

        spans = [
            (R.cli.main, "cli.main", None),
            (R.cli.parse_config, "cli.parse_config", None),
            (R.cli.run, "cli.run", on_run),
            (R.forward.iterate, "forward.iterate", on_iterate),
            (R.linear.build_linear_system, "linear.build", on_build),
            (R.linear.build_recombinator_vector, "linear.recombinator_vector", None),
            (R.linear.matrix_power, "linear.matrix_power", None),
            (R.linear.solve_linear, "linear.solve", None),
            (R.lpp.duality_estimate, "lpp.duality_estimate", on_estimate),
            (R.asymptotics.conditioned_law, "asymptotics.conditioned_law", None),
            (R.asymptotics.qld, "asymptotics.qld", None),
            (R.asymptotics.absorption_tail, "asymptotics.absorption_tail", None),
            (R.asymptotics.limit_metapopulation, "asymptotics.limit", None),
            (R.ctime.build_generator, "ctime.build_generator", on_generator),
            (R.ctime.ct_solve_dual, "ctime.expm_solve", None),
            (R.ctime.integrate, "ctime.integrate", on_integrate),
        ]
        for fn, name, after in spans:
            self._replace(fn, self._span(name, fn, after))
        self._replace(R.measures.recombinator,
                      self._count("measures.recombinator_calls", R.measures.recombinator))
        self._replace(R.ctime.ct_rhs, self._count("ctime.rhs_evals", R.ctime.ct_rhs))

        lp = R.partitions.LabelledPartition
        self._set(lp, "__init__", self._count("partitions.labelled_inits", lp.__init__))
        from_canonical = lp.__dict__["_from_canonical"].__func__
        self._set(lp, "_from_canonical",
                  classmethod(self._count("partitions.labelled_inits", from_canonical)))
        table = R.cli.ResultTable
        self._set(table, "write_csv", self._span("cli.emit", table.write_csv))
        self._set(R.cli, "json", _JsonProxy(R.cli.json, self._span("cli.emit", R.cli.json.dump)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- rounds

    def start_round(self) -> None:
        self._spans = []
        self._stack = []
        self._counters.clear()
        self._max_drift = 0.0

    def end_round(self) -> None:
        self.rounds.append({
            "spans": self._spans,
            "counters": dict(self._counters),
            "max_drift": self._max_drift,
        })

    # ------------------------------------------------------------ metrics

    @staticmethod
    def round_metrics(rnd: dict) -> dict:
        spans = rnd["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        inclusive = Counter()
        for (name, start, end, _), children in zip(spans, child_time):
            self_time[name] += (end - start) - children
            inclusive[name] += end - start
        out = {metric: self_time[name] for name, metric in SELF_TIME_METRICS.items()}
        counters = rnd["counters"]
        out.update({key: counters.get(key, 0) for key in COUNTERS})
        steps_time = inclusive["lpp.duality_estimate"]
        out["lpp.replicate_steps_per_s"] = (
            counters.get("lpp.replicate_steps", 0) / steps_time if steps_time else 0.0
        )
        out["ctime.max_drift"] = rnd["max_drift"]
        return out

    def layer_metrics(self) -> dict:
        """Median over the traced rounds of each round's totals."""
        per_round = [self.round_metrics(r) for r in self.rounds]
        return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}

    def write(self, path: str, header: dict) -> None:
        origin = min((s[1] for r in self.rounds for s in r["spans"]), default=0.0)
        doc = dict(header)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["rounds"] = [
            {
                "counters": r["counters"],
                "max_drift": r["max_drift"],
                "spans": [[n, s - origin, e - origin, p] for n, s, e, p in r["spans"]],
            }
            for r in self.rounds
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
