"""robusttl benchmark: one closed-loop client per workload.

    python3 benchmarks/run.py --workload compile --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1      # all four workloads, one process each

Run from the repository root; the program is imported from `src`, with
nothing installed.  A run draws its queries from the seed, measures
set-up time in fresh interpreters, sends the queries one after another in
whole rounds for about `--seconds`, then checks every answer of the first
round (outside the timed loop) and proves that each check rejects a
corrupted answer.  The last line of standard output is one JSON object:
the end-to-end metrics with `--trace 0`, the per-layer metrics of
BENCHMARK.json with `--trace 1`.  The exit code is 0 only when every
answer passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("compile", "mc", "synth", "eval")

QUERY_LIMIT_S = 30.0  # a query still running then (within 1 s) is stopped
RUN_CAP_S = 120.0  # queries not started by then count as failed
ADDRESS_SPACE = 3 << 30  # bytes, this process only
SETUP_PROBES = 11
MIN_ROUNDS = 3  # so that every query has a median over rounds

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import robusttl; "
    "print('ready', flush=True)"
)


class QueryTimeout(BaseException):
    """Raised in the middle of a query that ran too long."""


class Watchdog:
    """SIGALRM handler: a periodic alarm stops the query in flight once it
    has run for QUERY_LIMIT_S, without a system call per query."""

    def __init__(self):
        self.started = None  # perf_counter() at the start of the query

    def __call__(self, _signum, _frame):
        if self.started is not None and time.perf_counter() - self.started > QUERY_LIMIT_S:
            self.started = None
            raise QueryTimeout


def import_program():
    if not os.path.isfile(os.path.join(SRC, "robusttl", "__init__.py")):
        sys.exit(f"error: no robusttl sources under {SRC}")
    sys.path.insert(0, SRC)
    import robusttl

    if not os.path.abspath(robusttl.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: robusttl imported from {robusttl.__file__}, not {SRC}")


def measure_setup() -> float:
    """Median time from starting an interpreter until `import robusttl`
    is done and a query could be sent."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE, SRC],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit("error: the set-up probe did not import robusttl")
    return statistics.median(times)


def timed_rounds(pools, answer, seconds: float, watchdog: Watchdog, tracer=None):
    """Send each round's queries one after another, in whole rounds: at
    least MIN_ROUNDS, then up to the round count that lands closest to
    `seconds`.  Returns the first round's queries and answers, each
    query's latency per round, how often each query raised or was
    stopped, and the round count.

    A query that raises or runs past QUERY_LIMIT_S fails and counts at
    the limit.
    """
    first_pool = next(pools)
    latencies: list[list[float]] = [[] for _ in first_pool]
    first: list = [None] * len(first_pool)
    raised = [0] * len(first_pool)
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        pool = first_pool if rounds == 0 else next(pools)
        for i, query in enumerate(pool):
            if tracer is not None:
                tracer.begin(rounds, i)
            t0 = time.perf_counter()
            text = None
            if t0 - start < RUN_CAP_S:
                try:
                    watchdog.started = t0
                    text = answer(query)
                except (QueryTimeout, Exception) as exc:  # noqa: BLE001
                    print(f"query {i} failed: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                finally:
                    watchdog.started = None
            elapsed = time.perf_counter() - t0
            if text is None:
                raised[i] += 1
                elapsed = max(elapsed, QUERY_LIMIT_S)
            elif rounds == 0:
                first[i] = text
            latencies[i].append(elapsed)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) / 2 >= seconds:
            return first_pool, first, latencies, raised, rounds


def run_workload(args, spec) -> int:
    import checks
    import tracing
    import workloads

    setup_s = measure_setup()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    pools = workloads.rounds(args.workload, args.seed)
    answer = workloads.ANSWERS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    watchdog = Watchdog()
    signal.signal(signal.SIGALRM, watchdog)
    signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)
    if tracer is not None:
        tracer.install()
    try:
        pool, first, latencies, raised, rounds = timed_rounds(
            pools, answer, args.seconds, watchdog, tracer)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    faults, known = checks.check_all(args.workload, pool, first)
    faults += checks.self_test(args.workload, pool, first)
    if args.workload == "synth":
        faults += checks.self_test_parity(pool)
    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)
    # A query that fails its check through a fault recorded in CHANGES.md
    # counts as failed in every round; any other failed check makes the
    # run incorrect.
    failed = sum(
        rounds if q.group in known else raised[i] for i, q in enumerate(pool))
    for q in pool:
        if q.group in known:
            print(f"known fault: {q.formula!r} on {q.text!r} fails its check",
                  file=sys.stderr)

    # Each query's latency is its median over the rounds, so that a slow
    # spell of the machine during one round moves no figure.  Every pool
    # holds at least 100 queries, so ten or more lie beyond the 90th
    # percentile.
    attempted = rounds * len(pool)
    per_query = [statistics.median(times) for times in latencies]
    round_s = sum(per_query)
    values = {
        "setup_s": setup_s,
        "throughput_qps": (attempted - failed) / rounds / round_s,
        "latency_p50_ms": statistics.median(per_query) * 1000,
        "latency_p90_ms": statistics.quantiles(per_query, n=10)[8] * 1000,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": sum(len(a.encode()) for a in first if a is not None),
    }
    print(
        f"{args.workload}: seed {args.seed}, {len(pool)} queries x {rounds} "
        f"rounds, round time {round_s:.2f} s, {failed} failed, "
        f"{values['throughput_qps']:.3f} queries/s"
        + (" (traced)" if tracer else ""),
        file=sys.stderr,
    )
    if tracer is not None:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = tracer.metrics(names, rounds)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(
            os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if not faults else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; all four when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload is None:
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
