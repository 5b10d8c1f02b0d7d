"""The benchmark: one command per workload, end-to-end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mixed-churn --seed 1 --seconds 8 --trace 0

An untraced run makes ``ROUNDS`` rounds, each in a fresh process
(``bench_round.py``) so that every set-up is a cold start.  Each round
draws its own input from the seed and its index, sets up, runs the timed
stream and then the output check (``oracle.py``).  The end-to-end metrics
pool the rounds: pooling independent inputs is what keeps a metric steady
from seed to seed.  One more process only sets up, so that ``setup_s`` is
the median of three cold set-ups.  ``--seconds`` sizes each round's stream:
a fixed number of decisions per second (``workloads.WORKLOADS``), chosen
so that a stream takes about that long on a 2-CPU machine; the input is a
function of the seed and the seconds alone, never of machine speed.  Times
are in reference units that cancel the shared machine's speed
(``calibration.py``).

With ``--trace 1`` the run makes one untraced and one traced round of the
same input and prints the per-layer metrics (``tracing.py``); both rounds
must print the same output digest, and the difference between their stream
times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ROUNDS = 2
SETUPS = 3
CHILD_TIMEOUT_S = 170
# The end-to-end metrics BENCHMARK.json bounds.
END_TO_END = (
    "setup_s",
    "decision_p50_ms",
    "decision_tail_ms",
    "updates_per_s",
    "recompile_share",
    "spec_stmt_ratio",
    "peak_rss_mb",
)

# Known defects this benchmark counts instead of hiding (see README.md).
KNOWN_DEFECTS = {
    "switch-dangling-table": (
        "Specializer._spec_if inlines `t.apply().miss` away but keeps the "
        "condition; the Tofino compile of SwitchIngress then raises KeyError "
        "(counted in failed / failed_share)"
    ),
    "dangling-direct-action": (
        "Specializer._spec_control drops actions only called directly from an "
        "apply block (SwitchEgress.checksum_fix); counted per program as "
        "dangling actions"
    ),
}


def percentile(values: list, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_child(workload: str, seed: int, round_index: int, decisions: int, *flags) -> dict:
    """One ``bench_round.py`` process; returns the JSON object it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The workloads are defined with the default batch executor.
    env.pop("FLAY_EXECUTOR", None)
    cmd = [
        sys.executable, os.path.join(HERE, "bench_round.py"),
        "--workload", workload, "--seed", str(seed), "--round", str(round_index),
        "--decisions", str(decisions), *flags,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} round {round_index} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list, setups: list, tail_percentile) -> dict:
    """All eight end-to-end metrics over the pooled rounds: name -> (value, unit)."""
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "decision_p50_ms": (statistics.median(latencies), "ms"),
        "decision_tail_ms": (percentile(latencies, tail_percentile(len(latencies))), "ms"),
        "updates_per_s": (
            sum(r["updates_decided"] for r in rounds) / sum(r["decision_s"] for r in rounds),
            "updates/s",
        ),
        "recompile_share": (
            sum(r["recompiled"] for r in rounds) / max(attempted - failed, 1), "ratio"
        ),
        "failed_share": (failed / attempted, "ratio"),
        "spec_stmt_ratio": (
            sum(r["statements_specialized"] for r in rounds)
            / sum(r["statements_original"] for r in rounds),
            "ratio",
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def correctness(checked: list, rounds: list) -> list:
    """Reasons the run is not correct (empty when it is).

    ``checked`` are the rounds whose output check ran; any other round that
    replays the input of a checked one must print the same digest.
    """
    reasons = []
    digests = {}
    for r in checked:
        digests[r["round_index"]] = r["digest"]
        if not r["check"]["ok"]:
            reasons.append(f"round {r['round_index']}: output check failed")
    for r in rounds:
        if digests.get(r["round_index"], r["digest"]) != r["digest"]:
            reasons.append(f"round {r['round_index']}: one input gave two digests")
        if r["generator_errors"]:
            reasons.append(f"round {r['round_index']}: a generated update was invalid")
    return reasons


def print_report(rounds: list, reasons: list, tail_percentile) -> None:
    n = sum(len(r["latencies_ms"]) for r in rounds)
    first = rounds[0]
    print(
        f"workload {first['workload']} seed {first['seed']}: {len(rounds)} round(s) of "
        f"{first['attempted']} decisions; tail = p{tail_percentile(n)} of {n}"
    )
    digest = hashlib.sha256("".join(r["digest"] for r in rounds).encode()).hexdigest()
    print(f"digest {digest}")
    print(f"output check: {'pass' if not reasons else 'FAIL: ' + '; '.join(reasons)}")
    for r in rounds:
        raw = r["raw_latencies_ms"]
        print(
            f" round {r['round_index']}: digest {r['digest'][:16]}, {r['failed']} failed;"
            f" wall clock: setup {r['setup_raw_s']:.3f} s, stream {r['stream_raw_s']:.3f} s,"
            f" decision p50 {statistics.median(raw) if raw else 0.0:.3f} ms"
        )
        for program, row in sorted(r["check"]["programs"].items()):
            if not row["covered"]:
                print(f"  {program:12s} not covered ({row['reason']})")
                continue
            dangling = row["dangling_actions"]
            print(
                f"  {program:12s} verdicts {'ok' if not row['verdict_mismatches'] else 'DIFFER'}"
                f", source {'ok' if row['source_equal'] else 'DIFFERS'}"
                f", packets {row['packets'] - row['packet_mismatches']}/{row['packets']} equal"
                f" ({row['parsed']} parsed, {row['table_hits']} table hits)"
                + (f", dangling actions {dangling}" if dangling else "")
            )
        for program, kinds in sorted(r["failures"].items()):
            print(f"  {program:12s} failed decisions: {kinds}")
    for name, text in KNOWN_DEFECTS.items():
        print(f"known defect {name}: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Flay decision benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"error: no program source under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    decisions = workloads.WORKLOADS[args.workload].decisions(args.seconds)
    if args.trace:
        untraced = run_child(args.workload, args.seed, 0, decisions)
        traced = run_child(args.workload, args.seed, 0, decisions, "--trace", "--no-check")
        rounds = [untraced]
        reasons = correctness(rounds, [untraced, traced])
        metrics = tracing.per_layer_metrics(untraced, traced)
    else:
        rounds = [
            run_child(args.workload, args.seed, index, decisions) for index in range(ROUNDS)
        ]
        setups = [r["setup_s"] for r in rounds] + [
            run_child(args.workload, args.seed, index, decisions, "--setup-only")["setup_s"]
            for index in range(ROUNDS, SETUPS)
        ]
        reasons = correctness(rounds, rounds)
        metrics = end_to_end(rounds, setups, workloads.tail_percentile)
    print_report(rounds, reasons, workloads.tail_percentile)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.4f} {unit}")
    result = {
        "correct": not reasons,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if args.trace or name in END_TO_END
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
