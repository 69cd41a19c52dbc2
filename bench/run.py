"""Benchmark runner for slq2.

Run from the repository root:

    python3 bench/run.py --workload decompose-l3 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all     # one summary line per workload

One client calls the library's public functions in this process, one
operation at a time (a closed loop, no threads, no worker processes).
The process starts fresh, so every memo starts empty, and the memos stay
warm across the operations of the run.  A run repeats whole rounds of the
seed's inputs; ``--seconds`` fixes how many (see ``ROUND_S``), so a run
measures about that many corrected seconds.  Every result is checked
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs exactly
``TRACE_ROUNDS`` rounds with the layers wrapped (see ``tracer.py``), so its
counts repeat between runs of one seed, and prints the per-layer metrics.
Times are corrected for the drifting speed of a shared machine (see
``PROBE_REF_S``).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

# The machine is shared and its speed drifts by up to 2x for seconds to
# minutes at a time (a fixed Fraction loop took 17 to 37 ms within one
# minute), far more than a change to the library should be judged by.  So
# every timed interval is corrected by the speed of a fixed probe measured
# just before and just after it: corrected = measured * PROBE_REF_S / probe.
# The probe does the work that dominates the library, Fraction products of
# a cyclotomic multiplication, and PROBE_REF_S is its time on the unloaded
# machine the benchmark was defined on, so corrected seconds are seconds at
# that machine's unloaded speed.  The measured seconds are printed too.
PROBE_REF_S = 0.0014
_PROBE_A = [Fraction(i + 1, 7) for i in range(6)]
_PROBE_B = [Fraction(3, i + 2) for i in range(6)]

SETUP_PROBES = 9
TRACE_ROUNDS = 2
WALL_LIMIT_S = 140.0
# Tail percentile per workload: the highest of 50/75/90/95/99 that leaves
# at least ten samples beyond it at the workload's sample count.
TAIL_PERCENTILE = {"decompose-l3": 75, "certify-hi": 75, "braid-tables": 95, "hopf-rewrite": 95}
MIN_BEYOND = 10
# Mean corrected seconds per round in a 15 s run; the cold first round is
# most of the work on braid-tables and hopf-rewrite.  A run does
# --seconds / ROUND_S rounds (rounded down), so every run of a workload
# does the same work: a faster program finishes sooner instead of adding
# warm rounds that would shift the mix of cold and warm operations.
ROUND_S = {"decompose-l3": 6.0, "certify-hi": 6.0, "braid-tables": 0.27, "hopf-rewrite": 3.5}


def _import_library():
    """Put the checkout's ``src`` first on the path and import the library from it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "slq2", "__init__.py")):
        print(f"bench: no slq2 sources under {src}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import slq2

    if not os.path.abspath(slq2.__file__).startswith(src + os.sep):
        print(f"bench: slq2 was imported from {slq2.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def _child(workload: str, seed: int, *extra: str, timeout: float = 120) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=True)


def probe_s() -> float:
    """Seconds of the fixed probe work, the better of two tries."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(12):
            out = [Fraction(0)] * 11
            for i, a in enumerate(_PROBE_A):
                for j, b in enumerate(_PROBE_B):
                    out[i + j] += a * b
        best = min(best, time.perf_counter() - start)
    return best


def corrected(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2 * PROBE_REF_S / (probe_before + probe_after)


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Corrected seconds from interpreter start to slq2 imported and inputs
    generated, each in a fresh interpreter."""
    samples = []
    before = probe_s()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        _child(args.workload, args.seed, "--setup-probe")
        elapsed = time.perf_counter() - start
        after = probe_s()
        samples.append(corrected(elapsed, before, after))
        before = after
    return samples


def rounds_for(workload: str, seconds: float, per_round: int) -> int:
    """Rounds for about ``seconds`` of operations, and at least MIN_BEYOND
    samples beyond the tail percentile."""
    beyond_share = (100 - TAIL_PERCENTILE[workload]) / 100
    return max(1, int(seconds / ROUND_S[workload]), math.ceil(MIN_BEYOND / beyond_share / per_round))


def run_rounds(wl, ops, checker, rounds: int, tracer=None):
    """Run ``rounds`` rounds of ``ops``; returns the measured and the
    corrected seconds of each operation, and the failures."""
    times: list[float] = []
    fixed: list[float] = []
    failures: list[str] = []
    wall_start = time.monotonic()
    before = probe_s()
    for done in range(rounds):
        if time.monotonic() - wall_start > WALL_LIMIT_S:
            print(f"bench: stopped after {done} of {rounds} rounds at the {WALL_LIMIT_S:.0f} s wall limit",
                  file=sys.stderr)
            break
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                result = wl.execute(op)
            except Exception:  # a failed operation is counted, and the run goes on
                elapsed = time.perf_counter() - start
                failures.append(f"{op.key}: raised\n{traceback.format_exc()}")
                result = None
            else:
                elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            after = probe_s()
            times.append(elapsed)
            fixed.append(corrected(elapsed, before, after))
            before = after
            if result is not None:
                ok, why = checker.check(op, result)
                if not ok:
                    failures.append(f"{op.key}: {why}")
    return times, fixed, failures


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """The percentile of ``times`` and the number of samples beyond it."""
    value = statistics.quantiles(times, n=100)[percentile - 1]
    return value, sum(1 for t in times if t > value)


def _print_inputs(ops) -> None:
    print(f"inputs: {len(ops)} per round")
    for op in ops:
        print(f"  {op.key}  [{op.size}]")


def _result_line(attempted: int, failures: list[str], metrics: dict) -> str:
    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    return json.dumps(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all(wl, args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh interpreter; one summary line each."""
    failed = 0
    for workload in wl.WORKLOADS:
        out = _child(workload, args.seed, "--seconds", str(args.seconds), "--trace", str(args.trace), timeout=900)
        result = json.loads(out.stdout.splitlines()[-1])
        failed += result["failed"]
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{workload}: {shown}, fail_ratio {result['failed'] / result['attempted']} "
              f"({result['failed']} of {result['attempted']})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl = _import_library()
    if args.seed is None:
        args.seed = wl.DEFAULT_SEED
    if args.workload == "all":
        return run_all(wl, args)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(wl.WORKLOADS)}")
    ops = wl.make_ops(args.workload, args.seed)
    if args.setup_probe:
        return 0
    checker = wl.Checker(wl.load_expected())

    if args.untraced_rounds is not None:
        # the untraced reference for trace.overhead_ratio: same rounds, no wrappers
        _, fixed, failures = run_rounds(wl, ops, checker, rounds=args.untraced_rounds)
        print(json.dumps({"timed_s": sum(fixed), "failed": len(failures)}))
        return 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    _print_inputs(ops)

    if args.trace:
        base = json.loads(_child(args.workload, args.seed, "--untraced-rounds", str(TRACE_ROUNDS)).stdout.splitlines()[-1])
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        times, fixed, failures = run_rounds(wl, ops, checker, rounds=TRACE_ROUNDS, tracer=tracer)
        traced_s = sum(fixed)
        span_path = os.path.join(os.getcwd(), ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(span_path)
        metrics = tracer.metrics(traced_s / base["timed_s"])
        print(f"traced {TRACE_ROUNDS} rounds, {len(times)} operations: {traced_s:.3f} s traced, "
              f"{base['timed_s']:.3f} s untraced; {len(tracer.spans)} spans in {span_path}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value} {unit}")
        print(_result_line(len(times), failures, metrics))
        return 0

    setup = measure_setup(args)
    percentile = TAIL_PERCENTILE[args.workload]
    times, fixed, failures = run_rounds(wl, ops, checker, rounds_for(args.workload, args.seconds, len(ops)))
    timed_s = sum(fixed)
    tail_s, beyond = tail(fixed, percentile)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(fixed) / timed_s, "1/s"),
        "op_p50_s": (statistics.median(fixed), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"timed region: {len(times)} operations ({len(times) // len(ops)} rounds) in {sum(times):.3f} s measured, "
          f"{timed_s:.3f} s corrected; {checker.digest_checked} results compared with recorded digests")
    print(f"  setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh interpreters)")
    print(f"  ops_per_s = {metrics['ops_per_s'][0]:.4f} 1/s (measured {len(times) / sum(times):.4f})")
    print(f"  op_p50_s = {metrics['op_p50_s'][0]:.6f} s (measured {statistics.median(times):.6f})")
    print(f"  op_tail_s = {tail_s:.6f} s (p{percentile} of {len(times)} samples, {beyond} beyond it; "
          f"measured {tail(times, percentile)[0]:.6f})")
    print(f"  peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"  fail_ratio = {len(failures) / len(times)} ({len(failures)} of {len(times)} operations)")
    print(_result_line(len(times), failures, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
