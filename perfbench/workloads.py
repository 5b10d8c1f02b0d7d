"""The benchmark's three workloads: seeded inputs, set-up and the decision loop.

One round of a workload builds fresh engines (the set-up), generates its
inputs from the seed, and then drives a closed loop: one caller sends one
control-plane update (or one burst) and waits for the forward/recompile
decision before sending the next.  Every engine uses ``target="tofino"``,
so a recompile decision includes the device compile and a forward decision
includes lowering.

Inputs are valid by construction: every generator keeps one live-key set
per table that spans the base configuration and the stream, so an
``EntryError`` raised by a decision is a benchmark bug, never the program's
fault (it marks the round incorrect).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field

import calibration
from repro.core import Flay, FlayOptions
from repro.ir.metrics import statement_count
from repro.programs.registry import CORPUS
from repro.runtime.entries import EntryError, TableEntry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update

ALL_PROGRAMS = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")
ROUTE_PROGRAMS = ("scion", "switch", "middleblock", "dash")


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple
    # Decisions per second of ``--seconds`` (updates for the per-update
    # workloads, bursts for route-burst).  The stream length is a function
    # of the seconds argument alone, never of machine speed, so that a seed
    # names exactly one input and the decision digest is reproducible.
    decisions_per_second: float

    def decisions(self, seconds: float) -> int:
        return max(len(self.programs), round(self.decisions_per_second * seconds))


WORKLOADS = {
    "mixed-churn": Workload("mixed-churn", ALL_PROGRAMS, 42.0),
    "route-inserts": Workload("route-inserts", ALL_PROGRAMS, 65.0),
    "route-burst": Workload("route-burst", ROUTE_PROGRAMS, 12.0),
}


def tail_percentile(samples: int) -> float:
    """The highest percentile (to 0.1) with at least ten samples beyond it."""
    return math.floor(1000.0 * (1.0 - 10.0 / samples)) / 10.0 if samples > 10 else 50.0


# route-inserts: tables besides the LPM route tables in the base config.
SAMPLED_TABLES = 8
# route-burst: fresh routes per announce burst, per engine.
ANNOUNCE_ROUTES = 250


def sub_seed(*parts) -> int:
    """A stable 64-bit seed from its parts (workload, seed, round, program...).

    Hash-seed independent: ``str`` hashing is salted per process, sha256 is not.
    """
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def make_engine(program: str, bus=None) -> Flay:
    entry = CORPUS[program]
    return Flay.from_source(
        entry.source(),
        FlayOptions(target="tofino", skip_parser=entry.skip_parser),
        bus=bus,
    )


@functools.lru_cache(maxsize=None)
def original(program: str):
    """The parsed, unpruned source program (parsed once per process)."""
    return CORPUS[program].parse()


def lpm_tables(flay: Flay) -> list:
    return sorted(
        name
        for name, info in flay.model.tables.items()
        if any(key.match_kind == "lpm" for key in info.keys)
    )


class LiveKeys:
    """Live entries per table, spanning base configuration and stream."""

    def __init__(self, flay: Flay, fuzzer: EntryFuzzer) -> None:
        self.flay = flay
        self.fuzzer = fuzzer
        self.live: dict = {}

    def insert(self, table: str, action=None) -> Update:
        info = self.flay.model.table(table)
        live = self.live.setdefault(info.name, {})
        while True:
            entry = self.fuzzer.entry(info.name, action=action)
            key = entry.match_key()
            if key not in live:
                live[key] = entry
                return Update(info.name, INSERT, entry)

    def every_action(self, table: str) -> list:
        info = self.flay.model.table(table)
        actions = info.action_order or [info.default_action]
        return [self.insert(table, action) for action in actions]

    def delete(self, table: str, key) -> Update:
        return Update(table, DELETE, self.live[table].pop(key))

    def modify(self, table: str, key) -> Update:
        old = self.live[table][key]
        fresh = self.fuzzer.entry(table, priority=old.priority)
        entry = TableEntry(old.matches, fresh.action, fresh.args, old.priority)
        self.live[table][key] = entry
        return Update(table, MODIFY, entry)


@dataclass
class Plan:
    """One round's generated inputs."""

    base: dict = field(default_factory=dict)  # program -> [Update]
    # (program, payload): one Update per decision, or a burst list.
    stream: list = field(default_factory=list)


def interleave(per_program: dict, programs: tuple, count: int) -> list:
    """Round-robin across programs, ``count`` decisions in total."""
    out = []
    for i in range(count):
        program = programs[i % len(programs)]
        out.append((program, per_program[program][i // len(programs)]))
    return out


def plan_round(
    workload: Workload, engines: dict, seed: int, round_index: int, decisions: int
) -> Plan:
    """The inputs of one round: each round of a run draws its own."""
    plan = Plan()
    per_program: dict = {}
    quota = -(-decisions // len(workload.programs))
    for program in workload.programs:
        flay = engines[program]
        fuzzer = EntryFuzzer(
            flay.model, seed=sub_seed(workload.name, seed, round_index, program)
        )
        if workload.name == "mixed-churn":
            # All tables start empty and the stream tracks its own inserts,
            # so every MODIFY/DELETE targets a live key.
            per_program[program] = fuzzer.update_stream(
                count=quota, modify_fraction=0.2, delete_fraction=0.2
            )
            continue
        keys = LiveKeys(flay, fuzzer)
        routes = lpm_tables(flay)
        others = sorted(set(flay.model.tables) - set(routes))
        if workload.name == "route-inserts":
            # The sample is part of the workload, not of the run's input:
            # drawn from a fixed seed, so that --seed changes the entries
            # and their order but not which tables are configured.
            sampled = random.Random(sub_seed(workload.name, program)).sample(
                others, min(SAMPLED_TABLES, len(others))
            )
            tables = routes + sorted(sampled)
            plan.base[program] = [u for t in tables for u in keys.every_action(t)]
            per_program[program] = [
                keys.insert(fuzzer.rng.choice(tables)) for _ in range(quota)
            ]
        else:
            plan.base[program] = [u for t in routes for u in keys.every_action(t)]
            per_program[program] = route_bursts(keys, routes, quota)
    plan.stream = interleave(per_program, workload.programs, decisions)
    return plan


def route_bursts(keys: LiveKeys, routes: list, count: int) -> list:
    """Alternating announce and flap bursts over the LPM route tables.

    A flap burst withdraws half the routes the stream announced, announces
    half of the withdrawn prefixes again (delete + insert of one key, which
    the coalescer folds) and moves the next hop of a quarter of the live
    stream routes (MODIFY).
    """
    rng = keys.fuzzer.rng
    announced: list = []  # (table, key) of stream routes, in announce order
    bursts = []
    for index in range(count):
        burst: list = []
        if index % 2 == 0:
            for _ in range(ANNOUNCE_ROUTES):
                update = keys.insert(rng.choice(routes))
                burst.append(update)
                announced.append((update.table, update.entry.match_key()))
        else:
            withdrawn = rng.sample(announced, len(announced) // 2)
            gone = set(withdrawn)
            announced = [route for route in announced if route not in gone]
            deletes = [keys.delete(table, key) for table, key in withdrawn]
            burst.extend(deletes)
            for update in deletes[: len(deletes) // 2]:
                key = update.entry.match_key()
                keys.live[update.table][key] = update.entry
                burst.append(Update(update.table, INSERT, update.entry))
                announced.append((update.table, key))
            for table, key in rng.sample(announced, len(announced) // 4):
                burst.append(keys.modify(table, key))
        bursts.append(burst)
    return bursts


def update_count(payload) -> int:
    return len(payload) if isinstance(payload, list) else 1


@dataclass
class RoundResult:
    """What one round measured; JSON-serializable via :meth:`as_dict`.

    Times are in reference units (``calibration``) unless named ``raw``.
    """

    workload: str
    seed: int
    round_index: int
    setup_s: float = 0.0
    setup_raw_s: float = 0.0
    cold_s: float = 0.0
    base_config_s: float = 0.0
    stream_raw_s: float = 0.0
    decision_s: float = 0.0  # all decisions, failed ones included
    latencies_ms: list = field(default_factory=list)  # successful decisions
    raw_latencies_ms: list = field(default_factory=list)
    latency_programs: list = field(default_factory=list)  # their programs
    attempted: int = 0
    failed: int = 0
    recompiled: int = 0
    updates_decided: int = 0
    failures: dict = field(default_factory=dict)  # program -> {type: count}
    generator_errors: int = 0
    statements_original: int = 0
    statements_specialized: int = 0
    peak_rss_mb: float = 0.0
    digest: str = ""
    check: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(calls: list) -> tuple:
    """Run ``calls`` (thunks) with a calibration around each.

    Returns their results, their raw wall seconds and their reference
    seconds.
    """
    results, raw = [], []
    cals = [calibration.kernel_ms()]
    for call in calls:
        start = time.perf_counter()
        results.append(call())
        raw.append(time.perf_counter() - start)
        cals.append(calibration.kernel_ms())
    scaled = [t * k for t, k in zip(raw, calibration.scales(cals))]
    return results, raw, scaled


def setup(workload: Workload, decisions: int, result: RoundResult, bus=None):
    """Cold-build the engines and install the base configuration.

    Input generation sits between the two timed parts and is not counted:
    it is the benchmark's work, not the program's.  ``bus`` is the traced
    round's event bus (None, so no subscriber, when untraced).
    """
    built, raw_cold, cold = timed(
        [lambda p=p: make_engine(p, bus) for p in workload.programs]
    )
    engines = dict(zip(workload.programs, built))
    plan = plan_round(workload, engines, result.seed, result.round_index, decisions)
    _, raw_base, base = timed(
        [lambda u=u, p=p: engines[p].process_batch(u) for p, u in plan.base.items()]
    )
    result.cold_s = sum(cold)
    result.base_config_s = sum(base)
    result.setup_s = result.cold_s + result.base_config_s
    result.setup_raw_s = sum(raw_cold) + sum(raw_base)
    return engines, plan


def decide(flay: Flay, payload):
    """One decision: a single update or one burst through the scheduler."""
    if isinstance(payload, list):
        return flay.apply_batch(payload, workers=os.cpu_count() or 1)
    return flay.process_update(payload)


def run_stream(engines: dict, plan: Plan, result: RoundResult, decide_fn=decide) -> list:
    """The closed loop.  Returns the decision records the digest covers.

    A decision that raises is counted as failed and the loop goes on: the
    known specializer defect on switch must show in the failure counts, not
    stop the run.  The tracer passes its own ``decide_fn``, which opens one
    root span per decision.  A calibration runs between decisions.
    """
    records = []
    raw = []
    ok = []
    cals = [calibration.kernel_ms()]
    clock = time.perf_counter
    stream_start = clock()
    for program, payload in plan.stream:
        error = None
        start = clock()
        try:
            decision = decide_fn(engines[program], payload)
        except EntryError as exc:
            error = exc
            result.generator_errors += 1
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            error = exc
        raw.append(clock() - start)
        cals.append(calibration.kernel_ms())
        result.attempted += 1
        ok.append(error is None)
        if error is not None:
            result.failed += 1
            kinds = result.failures.setdefault(program, {})
            kinds[type(error).__name__] = kinds.get(type(error).__name__, 0) + 1
            records.append([program, "fail", type(error).__name__, str(error)])
            continue
        result.latency_programs.append(program)
        result.recompiled += bool(decision.recompiled)
        result.updates_decided += update_count(payload)
        records.append(
            [
                program,
                "recompile" if decision.recompiled else "forward",
                [str(c) for c in decision.changed],
            ]
        )
    result.stream_raw_s = clock() - stream_start
    result.peak_rss_mb = peak_rss_mb()
    scaled = [t * k for t, k in zip(raw, calibration.scales(cals))]
    result.decision_s = sum(scaled)
    result.latencies_ms = [t * 1000.0 for t, good in zip(scaled, ok) if good]
    result.raw_latencies_ms = [t * 1000.0 for t, good in zip(raw, ok) if good]
    return records


def finish(engines: dict, records: list, result: RoundResult) -> dict:
    """Statement totals and the output digest (decisions + final sources)."""
    sources = {}
    for program in sorted(engines):
        flay = engines[program]
        result.statements_original += statement_count(original(program))
        result.statements_specialized += statement_count(flay.specialized_program)
        sources[program] = flay.specialized_source()
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    for program, source in sources.items():
        digest.update(program.encode() + b"\0" + source.encode() + b"\0")
    result.digest = digest.hexdigest()
    return sources


def random_for_packets(result: RoundResult) -> random.Random:
    return random.Random(sub_seed("packets", result.workload, result.seed, result.round_index))
