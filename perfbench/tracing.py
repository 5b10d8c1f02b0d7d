"""Per-layer tracing from outside the program.

The traced round wraps the public entry points of each layer (module
functions and class methods under ``repro``) with span recorders, subscribes
to the engines' ``EventBus`` for ``PassFinished`` and ``BatchScheduled``
events, and reads the ``SolverStats``/``GateStats``/cache-counter deltas over
the stream.  Nothing under ``src/`` changes: the wrappers are installed in
the round's own process and removed after the stream.

A span records its name, start, end, parent span and decision.  Spans stay
in memory and are reduced to metrics when the round ends.  A span's self
time is its duration minus the union of its children's intervals; the root
span of each decision is the call into the engine, and its self time is
the part of the decision no wrapped layer covers (the unattributed
remainder).  Spans opened by batch worker threads take the main thread's
innermost open span as parent; their overlap with each other is reported
as ``trace.overlap_ms`` so that self times still add up:

    sum of self times (remainder included) = decision time + overlap
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time

from repro.engine import batch as batch_mod
from repro.engine.events import BatchScheduled, EventBus, PassFinished
from repro.engine.gate import VerdictGate
from repro.engine.queries import QueryEngine
from repro.engine.specialize import Specializer
from repro.runtime import semantics
from repro.smt.terms import DEFAULT_FACTORY
from repro.targets.base import Target
from repro.targets.tofino.compiler import TofinoCompiler

import workloads

# ``repro.smt`` re-exports functions named like these modules.
sat = importlib.import_module("repro.smt.sat")
session = importlib.import_module("repro.smt.session")
simplify_mod = importlib.import_module("repro.smt.simplify")
substitute = importlib.import_module("repro.smt.substitute")

ROOT = "decision"

# (span name, owner, attribute).  Module-level functions are also replaced
# wherever another ``repro`` module imported them by name.
TRACED = (
    ("engine.queries.point_verdict", QueryEngine, "point_verdict"),
    ("engine.queries.table_verdict", QueryEngine, "table_verdict"),
    ("engine.gate.screen", VerdictGate, "screen"),
    ("engine.gate.decide", VerdictGate, "decide"),
    ("engine.gate.decide_constant", VerdictGate, "decide_constant"),
    ("smt.session.probe", session.SolverSession, "probe"),
    ("smt.sat.solve", sat.SatSolver, "solve"),
    ("smt.simplify", simplify_mod, "simplify"),
    ("smt.substitute.apply", substitute.Substitution, "apply"),
    ("smt.substitute.apply", substitute.DeltaSubstitution, "apply"),
    ("smt.substitute.apply", substitute.SubstitutionSlice, "apply"),
    ("runtime.encode_table", semantics, "encode_table"),
    ("runtime.table_state_apply", semantics.TableState, "apply"),
    ("engine.batch.schedule", batch_mod, "schedule_batch"),
    ("engine.batch.coalesce", batch_mod, "coalesce"),
    ("engine.batch.partition", batch_mod, "partition"),
    ("engine.batch.run_group", batch_mod, "run_group"),
    ("engine.specialize", Specializer, "specialize"),
    ("targets.tofino.compile", TofinoCompiler, "compile"),
    ("targets.lower", Target, "lower_update"),
    ("targets.lower", Target, "lower_batch"),
)

# The per-layer (calls, self_ms) pairs the report prints, by span name.
SPAN_METRICS = (
    "engine.queries.point_verdict",
    "engine.queries.table_verdict",
    "smt.session.probe",
    "smt.simplify",
    "smt.substitute.apply",
    "runtime.encode_table",
    "runtime.table_state_apply",
    "engine.specialize",
    "targets.tofino.compile",
    "targets.lower",
)
SELF_ONLY = (
    "engine.gate.screen",
    "engine.gate.decide",
    "engine.gate.decide_constant",
    "smt.sat.solve",
    "engine.batch.schedule",
    "engine.batch.coalesce",
    "engine.batch.partition",
    "engine.batch.run_group",
)
COLD_PASSES = ("parse", "typecheck", "prune", "analyze", "encode", "specialize", "lower")
WARM_PASSES = {
    "apply-updates": "apply",
    "reverdict-points": "reverdict_points",
    "reverdict-tables": "reverdict_tables",
    "respecialize": "respecialize",
    "lower": "lower",
}
CACHES = (
    "substitution",
    "executability",
    "table-verdict",
    "solver-memo",
    "cnf-fragments",
    "active-entries",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "decision")

    def __init__(self, span_id, name, start, parent, decision) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.decision = decision


class Tracer:
    """Span recorder plus event subscriber for one traced round."""

    def __init__(self) -> None:
        self.spans: list = []
        self.bus = EventBus()
        self.bus.subscribe(self._on_event)
        self.recording = False
        self.decision = None  # index of the decision in flight
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = None  # the main thread's span stack
        self._patches: list = []
        self.cold_ms = {name: 0.0 for name in COLD_PASSES}
        self.warm_ms = {name: 0.0 for name in WARM_PASSES.values()}
        self.reverdict_by_decision: dict = {}
        self.bursts: list = []  # (submitted, coalesced, groups)
        self._stats_before: dict = {}
        self._terms_before = 0

    # -- events -----------------------------------------------------------------

    def _on_event(self, event) -> None:
        if isinstance(event, PassFinished):
            if event.stage == "cold" and event.pass_name in self.cold_ms:
                self.cold_ms[event.pass_name] += event.elapsed_ms
            elif event.stage == "warm" and self.recording:
                name = WARM_PASSES.get(event.pass_name)
                if name is not None:
                    self.warm_ms[name] += event.elapsed_ms
                if name == "reverdict_points":
                    by = self.reverdict_by_decision
                    by[self.decision] = by.get(self.decision, 0.0) + event.elapsed_ms
        elif isinstance(event, BatchScheduled) and self.recording:
            self.bursts.append(
                (event.update_count, event.coalesced_count, event.group_count)
            )

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def _open(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # A batch worker thread: its spans hang under the main thread's
            # innermost open span (the scheduler waiting for the workers).
            main = self._main_stack
            parent = main[-1].id if main else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, self.decision)
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner, attr in TRACED:
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module is owner or not module_name.startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the stream -------------------------------------------------------------

    def start_stream(self, engines: dict) -> None:
        self._stats_before = {
            program: snapshot_stats(flay) for program, flay in engines.items()
        }
        self._terms_before = len(DEFAULT_FACTORY._table)
        self.decision = -1
        self.recording = True

    def stop_stream(self) -> None:
        self.recording = False
        self.decision = None

    def decide(self, flay, payload):
        """``workloads.decide`` inside a root span, one per decision."""
        self.decision += 1
        span = self._open(ROOT)
        try:
            return workloads.decide(flay, payload)
        finally:
            self._close(span)

    # -- reduction --------------------------------------------------------------

    def self_times(self) -> tuple:
        """({name: (calls, self_ms)}, per-decision root rows, overlap_ms)."""
        children: dict = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict = {}
        roots = []
        overlap = 0.0
        for span in self.spans:
            kids = children.get(span.id, [])
            covered = union_length([(k.start, k.end) for k in kids])
            overlap += sum(k.end - k.start for k in kids) - covered
            own = (span.end - span.start - covered) * 1000.0
            calls, total = totals.get(span.name, (0, 0.0))
            totals[span.name] = (calls + 1, total + own)
            if span.name == ROOT:
                roots.append((span.decision, (span.end - span.start) * 1000.0, own))
        return totals, roots, overlap * 1000.0

    def report(self, engines: dict, result) -> dict:
        """Per-layer metrics of this traced round: name -> (value, unit)."""
        totals, roots, overlap_ms = self.self_times()
        out: dict = {}
        for name in SPAN_METRICS:
            calls, own = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (own, "ms")
        for name in SELF_ONLY:
            out[f"{name}.self_ms"] = (totals.get(name, (0, 0.0))[1], "ms")
        decision_ms = sum(row[1] for row in roots)
        remainder_ms = sum(row[2] for row in roots)
        accounted_ms = sum(own for _, own in totals.values())
        out["trace.decision_ms"] = (decision_ms, "ms")
        out["trace.unattributed_ms"] = (remainder_ms, "ms")
        out["trace.unattributed_share"] = (share(remainder_ms, decision_ms), "ratio")
        out["trace.accounted_ms"] = (accounted_ms, "ms")
        out["trace.overlap_ms"] = (overlap_ms, "ms")
        out["trace.spans"] = (len(self.spans), "count")

        for name, ms in self.cold_ms.items():
            out[f"engine.cold.{name}_ms"] = (ms, "ms")
        for name, ms in self.warm_ms.items():
            out[f"engine.warm.{name}_ms"] = (ms, "ms")
        slowest = sorted(roots, key=lambda row: row[1], reverse=True)
        slowest = slowest[: max(1, len(slowest) // 100)]
        out["engine.warm.reverdict_points.tail_share"] = (
            share(
                sum(self.reverdict_by_decision.get(row[0], 0.0) for row in slowest),
                sum(row[1] for row in slowest),
            ),
            "ratio",
        )
        out["engine.base_config_ms"] = (result.base_config_s * 1000.0, "ms")
        out["analysis.prune.branches_removed"] = (
            sum(
                flay.prune_report.removed_branches
                for flay in engines.values()
                if flay.prune_report is not None
            ),
            "count",
        )

        submitted = sum(b[0] for b in self.bursts)
        coalesced = sum(b[1] for b in self.bursts)
        out["engine.batch.coalesce.folded_share"] = (
            share(submitted - coalesced, submitted), "ratio"
        )
        out["engine.batch.groups_per_burst"] = (
            share(sum(b[2] for b in self.bursts), len(self.bursts)), "count"
        )

        out.update(stat_deltas(self._stats_before, engines))
        terms = len(DEFAULT_FACTORY._table)
        out["smt.terms.table_size"] = (terms, "count")
        out["smt.terms.growth_per_update"] = (
            share(terms - self._terms_before, result.updates_decided), "terms/update"
        )
        return {name: list(pair) for name, pair in out.items()}


def union_length(intervals: list) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def snapshot_stats(flay) -> dict:
    gate = flay.gate_stats()
    return {
        "solver": flay.solver_stats().snapshot(),
        "gate": gate.snapshot() if gate is not None else None,
        "caches": [c.snapshot() for c in flay.runtime.ctx.cache_counters()],
    }


def stat_deltas(before: dict, engines: dict) -> dict:
    """Solver, gate and cache deltas over the stream, summed over engines."""
    probes = by_simplify = by_interval = by_sat = by_cache = 0
    conflicts = decisions = propagations = 0
    screened = solver_free = fallbacks = tv_hits = tv_misses = 0
    hits = {name: 0 for name in CACHES}
    lookups = {name: 0 for name in CACHES}
    for program, flay in engines.items():
        base = before[program]
        solver = flay.solver_stats().since(base["solver"])
        probes += solver.probes
        by_simplify += solver.by_simplify
        by_interval += solver.by_interval
        by_sat += solver.by_sat
        by_cache += solver.by_cache
        conflicts += solver.search.conflicts
        decisions += solver.search.decisions
        propagations += solver.search.propagations
        gate = flay.gate_stats()
        if gate is not None and base["gate"] is not None:
            delta = gate.since(base["gate"])
            screened += delta.screened
            solver_free += delta.solver_free
            fallbacks += delta.solver_fallbacks
            tv_hits += delta.table_verdict_hits
            tv_misses += delta.table_verdict_misses
        for counter, snap in zip(flay.runtime.ctx.cache_counters(), base["caches"]):
            delta = counter.since(snap)
            if delta.name in hits:
                hits[delta.name] += delta.hits
                lookups[delta.name] += delta.lookups
    out = {
        "smt.solver.by_simplify": (by_simplify, "count"),
        "smt.solver.by_interval": (by_interval, "count"),
        "smt.solver.by_sat": (by_sat, "count"),
        "smt.solver.by_cache": (by_cache, "count"),
        "smt.sat.conflicts": (conflicts, "count"),
        "smt.sat.decisions": (decisions, "count"),
        "smt.sat.propagations": (propagations, "count"),
        "smt.solver.probes": (probes, "count"),
        "engine.gate.solver_free_share": (share(solver_free, screened), "ratio"),
        "engine.gate.solver_fallbacks": (fallbacks, "count"),
        "engine.gate.table_verdict_hit_share": (
            share(tv_hits, tv_hits + tv_misses), "ratio"
        ),
    }
    for name in CACHES:
        out[f"cache.{name}.hit_share"] = (share(hits[name], lookups[name]), "ratio")
    return out


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    """The traced run's metrics: layer rows, program rows, tracing overhead."""
    out = {name: tuple(pair) for name, pair in traced["layers"].items()}
    for program in workloads.ALL_PROGRAMS:
        samples = [
            ms
            for ms, owner in zip(untraced["latencies_ms"], untraced["latency_programs"])
            if owner == program
        ]
        failures = untraced["failures"].get(program, {})
        out[f"programs.{program}.decision_p50_ms"] = (
            statistics.median(samples) if samples else 0.0, "ms"
        )
        out[f"programs.{program}.decision_total_ms"] = (sum(samples), "ms")
        out[f"programs.{program}.failed"] = (sum(failures.values()), "count")
    out["e2e.failed_share"] = (share(untraced["failed"], untraced["attempted"]), "ratio")
    out["check.dangling_actions"] = (
        sum(
            len(row.get("dangling_actions", ()))
            for row in untraced["check"]["programs"].values()
        ),
        "count",
    )
    out["trace.overhead_share"] = (
        share(traced["decision_s"] - untraced["decision_s"], untraced["decision_s"]), "ratio"
    )
    return out
