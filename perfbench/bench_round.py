"""One round of a workload, in its own process: set-up, timed stream, check.

``run.py`` starts these, so that every set-up is a cold start, and reads
the JSON object each prints as its last line.  Usage::

    PYTHONPATH=src python3 perfbench/bench_round.py --workload mixed-churn \\
        --seed 1 --round 0 --decisions 336 [--trace | --setup-only] [--no-check]
"""

from __future__ import annotations

import argparse
import json
import sys

import oracle
import workloads


def run_round(
    workload: workloads.Workload,
    seed: int,
    round_index: int,
    decisions: int,
    check=True,
    tracer=None,
) -> dict:
    """Set up, run the stream (traced when ``tracer`` is given), then check."""
    result = workloads.RoundResult(workload.name, seed, round_index)
    engines, plan = workloads.setup(
        workload, decisions, result, bus=tracer.bus if tracer is not None else None
    )
    if tracer is not None:
        tracer.install()
        tracer.start_stream(engines)
        try:
            records = workloads.run_stream(engines, plan, result, decide_fn=tracer.decide)
        finally:
            tracer.stop_stream()
            tracer.uninstall()
    else:
        records = workloads.run_stream(engines, plan, result)
    sources = workloads.finish(engines, records, result)
    if check:
        rng = workloads.random_for_packets(result)
        result.check = oracle.check(engines, sources, result.failures, rng)
    out = result.as_dict()
    if tracer is not None:
        out["layers"] = tracer.report(engines, result)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--decisions", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-check", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        result = workloads.RoundResult(workload.name, args.seed, args.round)
        workloads.setup(workload, args.decisions, result)
        sys.stdout.write(json.dumps({"setup_s": result.setup_s}) + "\n")
        return 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    out = run_round(
        workload, args.seed, args.round, args.decisions, not args.no_check, tracer
    )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
