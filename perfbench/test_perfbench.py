"""The benchmark's own tests.  Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

They check the benchmark, not the program: that every metric it promises
is printed with its unit, that traced self times add up to the traced
decision time, that a seed changes only the generated inputs, that inputs
are valid by construction, and that the output digest does not depend on
the interpreter's hash seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import bench_round
import run
import tracing
import workloads
from repro.runtime.semantics import ControlPlaneState

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every metric name the benchmark promises, expanded from its patterns.
E2E_NAMES = {
    "setup_s", "decision_p50_ms", "decision_tail_ms", "updates_per_s",
    "recompile_share", "failed_share", "spec_stmt_ratio", "peak_rss_mb",
}
LAYER_NAMES = (
    [f"engine.cold.{p}_ms" for p in tracing.COLD_PASSES]
    + ["analysis.prune.branches_removed", "engine.base_config_ms"]
    + [f"engine.warm.{p}_ms" for p in tracing.WARM_PASSES.values()]
    + ["engine.warm.reverdict_points.tail_share"]
    + [f"engine.queries.{q}.{m}" for q in ("point_verdict", "table_verdict")
       for m in ("calls", "self_ms")]
    + [f"engine.gate.{g}.self_ms" for g in ("screen", "decide", "decide_constant")]
    + ["engine.gate.solver_free_share", "engine.gate.solver_fallbacks",
       "engine.gate.table_verdict_hit_share"]
    + ["smt.session.probe.calls", "smt.session.probe.self_ms", "smt.sat.solve.self_ms"]
    + [f"smt.sat.{c}" for c in ("conflicts", "decisions", "propagations")]
    + [f"smt.solver.by_{k}" for k in ("simplify", "interval", "sat", "cache")]
    + ["smt.simplify.calls", "smt.simplify.self_ms",
       "smt.substitute.apply.calls", "smt.substitute.apply.self_ms"]
    + [f"cache.{c}.hit_share" for c in tracing.CACHES]
    + ["runtime.encode_table.calls", "runtime.encode_table.self_ms",
       "runtime.table_state_apply.calls", "runtime.table_state_apply.self_ms"]
    + [f"engine.batch.{b}.self_ms" for b in ("schedule", "coalesce", "partition")]
    + ["engine.batch.coalesce.folded_share", "engine.batch.groups_per_burst"]
    + ["engine.specialize.calls", "engine.specialize.self_ms",
       "targets.tofino.compile.calls", "targets.tofino.compile.self_ms",
       "targets.lower.calls", "targets.lower.self_ms"]
    + ["smt.terms.table_size", "smt.terms.growth_per_update"]
    + [f"programs.{p}.{m}" for p in workloads.ALL_PROGRAMS
       for m in ("decision_p50_ms", "decision_total_ms", "failed")]
    + ["trace.unattributed_ms", "trace.overhead_share"]
)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced_pair():
    """A short untraced round and its traced twin, per workload."""
    pairs = {}
    for name, decisions in (("mixed-churn", 21), ("route-burst", 8)):
        workload = workloads.WORKLOADS[name]
        untraced = bench_round.run_round(workload, 3, 0, decisions)
        traced = bench_round.run_round(
            workload, 3, 0, decisions, check=False, tracer=tracing.Tracer()
        )
        pairs[name] = (untraced, traced)
    return pairs


def test_every_metric_is_declared_and_printed_with_its_unit(traced_pair):
    bench = load_benchmark()
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(run.END_TO_END) == set(declared_e2e)
    # failed_share is 0 on most seeds, so it cannot carry a relative bound;
    # it is printed by the untraced run and is a per-layer metric.
    assert E2E_NAMES - set(declared_e2e) == {"failed_share"}
    assert "e2e.failed_share" in declared_layer
    for name in LAYER_NAMES:
        assert name in declared_layer, name

    untraced, traced = traced_pair["mixed-churn"]
    e2e = run.end_to_end([untraced], [untraced["setup_s"]], workloads.tail_percentile)
    assert E2E_NAMES == set(e2e)
    for name, unit in declared_e2e.items():
        assert e2e[name][1] == unit, name
    layers = tracing.per_layer_metrics(untraced, traced)
    assert set(layers) == set(declared_layer)
    for name, unit in declared_layer.items():
        assert layers[name][1] == unit, name
        assert math.isfinite(layers[name][0]), name


@pytest.mark.parametrize("name", ["mixed-churn", "route-burst"])
def test_self_times_and_remainder_sum_to_decision_time(traced_pair, name):
    untraced, traced = traced_pair[name]
    layers = traced["layers"]
    decision_ms = layers["trace.decision_ms"][0]
    accounted_ms = layers["trace.accounted_ms"][0]
    overlap_ms = layers["trace.overlap_ms"][0]
    assert decision_ms > 0
    assert accounted_ms == pytest.approx(decision_ms + overlap_ms, rel=1e-9)
    if name == "mixed-churn":
        assert overlap_ms == 0.0  # one thread: no span overlaps another
    assert 0.0 <= layers["trace.unattributed_ms"][0] <= decision_ms
    # Tracing observes; it must not change a single decision.
    assert traced["digest"] == untraced["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_only_the_generated_inputs(name):
    workload = workloads.WORKLOADS[name]
    engines = {p: workloads.make_engine(p) for p in workload.programs}
    before = {p: flay.specialized_source() for p, flay in engines.items()}
    decisions = 2 * len(workload.programs)
    first = workloads.plan_round(workload, engines, 5, 0, decisions)
    again = workloads.plan_round(workload, engines, 5, 0, decisions)
    other = workloads.plan_round(workload, engines, 6, 0, decisions)
    next_round = workloads.plan_round(workload, engines, 5, 1, decisions)
    assert repr(first) == repr(again)
    assert repr(first) != repr(other)
    assert repr(first) != repr(next_round)
    assert [p for p, _ in first.stream] == [p for p, _ in other.stream]
    assert sorted(first.base) == sorted(other.base)
    # route-inserts configures one table set per program whatever the seed.
    tables = [sorted({u.table for u in ups}) for ups in first.base.values()]
    assert tables == [sorted({u.table for u in ups}) for ups in other.base.values()]
    # Planning reads the engines and leaves them as they were.
    assert {p: flay.specialized_source() for p, flay in engines.items()} == before


@pytest.mark.parametrize("name", ["route-inserts", "route-burst"])
def test_inputs_are_valid_against_the_base_configuration(name):
    """Every base-config and stream update replays without EntryError."""
    workload = workloads.WORKLOADS[name]
    engines = {p: workloads.make_engine(p) for p in workload.programs}
    plan = workloads.plan_round(workload, engines, 11, 0, workload.decisions(12))
    states = {p: ControlPlaneState(flay.model) for p, flay in engines.items()}
    for program, updates in plan.base.items():
        for update in updates:
            states[program].apply_update(update)
    for program, payload in plan.stream:
        for update in payload if isinstance(payload, list) else [payload]:
            states[program].apply_update(update)


@pytest.mark.parametrize("name, decisions", [("mixed-churn", 28), ("route-burst", 8)])
def test_digest_does_not_depend_on_the_hash_seed(name, decisions):
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env.pop("FLAY_EXECUTOR", None)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_round.py"), "--workload", name,
             "--seed", "4", "--decisions", str(decisions), "--no-check"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
        )
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1])["digest"])
    assert digests[0] == digests[1]


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 80, 700, 1200):
        rank = (n - 1) * workloads.tail_percentile(n) / 100.0
        assert n - 1 - math.floor(rank) >= 10  # samples above the interpolated value
